#ifndef BBV_STATS_HYPOTHESIS_H_
#define BBV_STATS_HYPOTHESIS_H_

#include <cstddef>
#include <vector>

namespace bbv::stats {

/// Outcome of a hypothesis test.
struct TestResult {
  double statistic = 0.0;
  double p_value = 1.0;

  /// Rejects the null hypothesis at level `alpha` (default 0.05, following
  /// the paper's baselines).
  bool Rejects(double alpha = 0.05) const { return p_value < alpha; }
};

/// Two-sample Kolmogorov-Smirnov test: are `a` and `b` drawn from the same
/// continuous distribution? Asymptotic p-value via the Kolmogorov
/// distribution. Both samples must be non-empty and should be finite (a
/// debug-build contract); a NaN that reaches a release build ranks above
/// every number, so the test still returns, with a statistic in [0, 1].
TestResult TwoSampleKsTest(std::vector<double> a, std::vector<double> b);

/// Chi-squared test of homogeneity on a 2 x K contingency table given as two
/// count vectors over the same K categories (cells with zero totals are
/// dropped). Used for BBSEh (predicted class counts) and for categorical
/// columns in the REL baseline.
TestResult ChiSquaredHomogeneityTest(const std::vector<double>& counts_a,
                                     const std::vector<double>& counts_b);

/// Chi-squared goodness-of-fit of observed counts against expected counts
/// (same length, expected all positive).
TestResult ChiSquaredGoodnessOfFit(const std::vector<double>& observed,
                                   const std::vector<double>& expected);

/// Bonferroni correction: the family-wise significance level for each of
/// `num_tests` tests at overall level `alpha`.
double BonferroniAlpha(double alpha, size_t num_tests);

}  // namespace bbv::stats

#endif  // BBV_STATS_HYPOTHESIS_H_
