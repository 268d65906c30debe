#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/special_functions.h"

namespace bbv::stats {

namespace {

/// True when every element is finite (no NaN/Inf); used in BBV_DCHECK
/// contracts, so the scan compiles away in NDEBUG builds.
bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

/// Contract for every test result leaving this module: a finite statistic and
/// a p-value that is actually a probability.
TestResult CheckedResult(TestResult result) {
  BBV_DCHECK(std::isfinite(result.statistic))
      << "non-finite test statistic " << result.statistic;
  BBV_DCHECK(result.p_value >= 0.0 && result.p_value <= 1.0)
      << "p-value " << result.p_value << " outside [0, 1]";
  return result;
}

/// `<` extended to a total order that ranks NaN above every number (and
/// equal to another NaN). On two non-NaN values it answers exactly as `<`,
/// so a sort or merge driven by it does the same steps on NaN-free input.
bool RanksBefore(double x, double y) {
  return x < y || (std::isnan(y) && !std::isnan(x));
}

}  // namespace

TestResult TwoSampleKsTest(std::vector<double> a, std::vector<double> b) {
  BBV_CHECK(!a.empty() && !b.empty());
  BBV_DCHECK(AllFinite(a)) << "KS test input a contains NaN/Inf";
  BBV_DCHECK(AllFinite(b)) << "KS test input b contains NaN/Inf";
  // Under `<` a NaN is no valid sort key, and a merge that steps past the
  // values `<=` a NaN head never moves. The total order gives NaN a rank, so
  // every merge step consumes at least the element it chose.
  std::sort(a.begin(), a.end(), RanksBefore);
  std::sort(b.begin(), b.end(), RanksBefore);
  BBV_DCHECK(std::is_sorted(a.begin(), a.end(), RanksBefore));
  BBV_DCHECK(std::is_sorted(b.begin(), b.end(), RanksBefore));
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  size_t ia = 0;
  size_t ib = 0;
  double cdf_a = 0.0;
  double cdf_b = 0.0;
  double d = 0.0;
  while (ia < a.size() && ib < b.size()) {
    const double value = RanksBefore(b[ib], a[ia]) ? b[ib] : a[ia];
    while (ia < a.size() && !RanksBefore(value, a[ia])) ++ia;
    while (ib < b.size() && !RanksBefore(value, b[ib])) ++ib;
    cdf_a = static_cast<double>(ia) / na;
    cdf_b = static_cast<double>(ib) / nb;
    d = std::max(d, std::abs(cdf_a - cdf_b));
  }
  const double effective_n = na * nb / (na + nb);
  // Asymptotic p-value with the standard small-sample correction term.
  const double lambda =
      (std::sqrt(effective_n) + 0.12 + 0.11 / std::sqrt(effective_n)) * d;
  BBV_DCHECK(d >= 0.0 && d <= 1.0) << "KS statistic " << d << " outside [0, 1]";
  return CheckedResult(TestResult{d, KolmogorovSurvival(lambda)});
}

TestResult ChiSquaredHomogeneityTest(const std::vector<double>& counts_a,
                                     const std::vector<double>& counts_b) {
  BBV_CHECK_EQ(counts_a.size(), counts_b.size());
  BBV_CHECK(!counts_a.empty());
  BBV_DCHECK(AllFinite(counts_a)) << "chi-squared counts_a contains NaN/Inf";
  BBV_DCHECK(AllFinite(counts_b)) << "chi-squared counts_b contains NaN/Inf";
  double total_a = 0.0;
  double total_b = 0.0;
  for (size_t k = 0; k < counts_a.size(); ++k) {
    BBV_CHECK_GE(counts_a[k], 0.0);
    BBV_CHECK_GE(counts_b[k], 0.0);
    total_a += counts_a[k];
    total_b += counts_b[k];
  }
  BBV_CHECK(total_a > 0.0 && total_b > 0.0)
      << "chi-squared test needs non-empty samples";
  const double grand_total = total_a + total_b;
  double statistic = 0.0;
  size_t used_categories = 0;
  for (size_t k = 0; k < counts_a.size(); ++k) {
    const double column_total = counts_a[k] + counts_b[k];
    // Both counts are checked non-negative above, so a non-positive sum means
    // the category is absent from both samples.
    if (column_total <= 0.0) continue;
    ++used_categories;
    const double expected_a = total_a * column_total / grand_total;
    const double expected_b = total_b * column_total / grand_total;
    statistic += (counts_a[k] - expected_a) * (counts_a[k] - expected_a) /
                 expected_a;
    statistic += (counts_b[k] - expected_b) * (counts_b[k] - expected_b) /
                 expected_b;
  }
  if (used_categories < 2) {
    // Degenerate table: both samples concentrated in one category.
    return TestResult{0.0, 1.0};
  }
  const double dof = static_cast<double>(used_categories - 1);
  BBV_DCHECK_GE(statistic, 0.0);
  return CheckedResult(TestResult{statistic, ChiSquaredSurvival(statistic, dof)});
}

TestResult ChiSquaredGoodnessOfFit(const std::vector<double>& observed,
                                   const std::vector<double>& expected) {
  BBV_CHECK_EQ(observed.size(), expected.size());
  BBV_CHECK_GE(observed.size(), 2u);
  BBV_DCHECK(AllFinite(observed)) << "goodness-of-fit observed has NaN/Inf";
  BBV_DCHECK(AllFinite(expected)) << "goodness-of-fit expected has NaN/Inf";
  double statistic = 0.0;
  for (size_t k = 0; k < observed.size(); ++k) {
    BBV_CHECK_GT(expected[k], 0.0);
    const double diff = observed[k] - expected[k];
    statistic += diff * diff / expected[k];
  }
  const double dof = static_cast<double>(observed.size() - 1);
  return CheckedResult(TestResult{statistic, ChiSquaredSurvival(statistic, dof)});
}

double BonferroniAlpha(double alpha, size_t num_tests) {
  BBV_CHECK_GT(num_tests, 0u);
  BBV_DCHECK(alpha >= 0.0 && alpha <= 1.0)
      << "significance level " << alpha << " outside [0, 1]";
  return alpha / static_cast<double>(num_tests);
}

}  // namespace bbv::stats
