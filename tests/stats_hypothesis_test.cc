#include "stats/hypothesis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "stats/special_functions.h"

namespace bbv::stats {
namespace {

// ---------------------------------------------------------------------------
// Special functions
// ---------------------------------------------------------------------------

TEST(SpecialFunctionsTest, LnGammaMatchesFactorials) {
  // Gamma(n) = (n-1)!.
  EXPECT_NEAR(LnGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LnGamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(LnGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LnGamma(11.0), std::log(3628800.0), 1e-8);
}

TEST(SpecialFunctionsTest, LnGammaHalfInteger) {
  // Gamma(1/2) = sqrt(pi).
  EXPECT_NEAR(LnGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(SpecialFunctionsTest, RegularizedGammaBoundaries) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(2.0, 0.0), 1.0);
  EXPECT_NEAR(RegularizedGammaP(1.0, 1e6), 1.0, 1e-12);
}

TEST(SpecialFunctionsTest, PAndQSumToOne) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-10);
    }
  }
}

TEST(SpecialFunctionsTest, ChiSquaredSurvivalMatchesTables) {
  // Critical values: chi2(0.05, dof=1) = 3.841; chi2(0.05, dof=5) = 11.070.
  EXPECT_NEAR(ChiSquaredSurvival(3.841, 1.0), 0.05, 1e-3);
  EXPECT_NEAR(ChiSquaredSurvival(11.070, 5.0), 0.05, 1e-3);
  // chi2 with dof=2 has survival exp(-x/2).
  EXPECT_NEAR(ChiSquaredSurvival(4.0, 2.0), std::exp(-2.0), 1e-10);
}

TEST(SpecialFunctionsTest, KolmogorovSurvivalKnownValues) {
  // Q_KS(1.36) ~= 0.049 (the classic 5% critical value).
  EXPECT_NEAR(KolmogorovSurvival(1.36), 0.049, 2e-3);
  EXPECT_DOUBLE_EQ(KolmogorovSurvival(0.0), 1.0);
  EXPECT_NEAR(KolmogorovSurvival(5.0), 0.0, 1e-12);
  // Monotone decreasing.
  double last = 1.0;
  for (double lambda = 0.1; lambda < 3.0; lambda += 0.1) {
    const double p = KolmogorovSurvival(lambda);
    EXPECT_LE(p, last + 1e-12);
    last = p;
  }
}

// ---------------------------------------------------------------------------
// Kolmogorov-Smirnov
// ---------------------------------------------------------------------------

TEST(KsTest, IdenticalSamplesDoNotReject) {
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(i * 0.01);
  const TestResult result = TwoSampleKsTest(sample, sample);
  EXPECT_DOUBLE_EQ(result.statistic, 0.0);
  EXPECT_FALSE(result.Rejects());
}

TEST(KsTest, DisjointSamplesMaximallyReject) {
  std::vector<double> low;
  std::vector<double> high;
  for (int i = 0; i < 100; ++i) {
    low.push_back(static_cast<double>(i));
    high.push_back(1000.0 + i);
  }
  const TestResult result = TwoSampleKsTest(low, high);
  EXPECT_DOUBLE_EQ(result.statistic, 1.0);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(KsTest, SameDistributionRarelyRejects) {
  common::Rng rng(5);
  int rejections = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> a(150);
    std::vector<double> b(150);
    for (double& v : a) v = rng.Gaussian();
    for (double& v : b) v = rng.Gaussian();
    if (TwoSampleKsTest(a, b).Rejects(0.05)) ++rejections;
  }
  // Expected rejection rate ~5%; allow generous slack.
  EXPECT_LE(rejections, trials / 8);
}

TEST(KsTest, DetectsMeanShift) {
  common::Rng rng(9);
  std::vector<double> a(400);
  std::vector<double> b(400);
  for (double& v : a) v = rng.Gaussian();
  for (double& v : b) v = rng.Gaussian(1.0, 1.0);
  EXPECT_TRUE(TwoSampleKsTest(a, b).Rejects(0.05));
}

TEST(KsTest, StatisticMatchesHandComputedValue) {
  // a = {1,2,3}, b = {2,3,4}: max CDF gap is 1/3.
  const TestResult result = TwoSampleKsTest({1, 2, 3}, {2, 3, 4});
  EXPECT_NEAR(result.statistic, 1.0 / 3.0, 1e-12);
}

TEST(KsTest, HandlesDuplicatedValues) {
  const TestResult result =
      TwoSampleKsTest({1, 1, 1, 1}, {1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(result.statistic, 0.0);
}

/// The KS statistic as the merge computed it before NaN got a rank: sort
/// with `<`, step past everything `<=` the smaller head.
double ReferenceKsStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t ia = 0;
  size_t ib = 0;
  double d = 0.0;
  while (ia < a.size() && ib < b.size()) {
    const double value = std::min(a[ia], b[ib]);
    while (ia < a.size() && a[ia] <= value) ++ia;
    while (ib < b.size() && b[ib] <= value) ++ib;
    d = std::max(d, std::abs(static_cast<double>(ia) /
                                 static_cast<double>(a.size()) -
                             static_cast<double>(ib) /
                                 static_cast<double>(b.size())));
  }
  return d;
}

TEST(KsTest, FiniteInputGivesTheStatisticOfThePlainMerge) {
  common::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    // Coarse values force ties within and across the samples; signed zeros
    // ride along.
    std::vector<double> a(1 + rng.UniformInt(40));
    std::vector<double> b(1 + rng.UniformInt(40));
    for (auto* sample : {&a, &b}) {
      for (double& v : *sample) {
        v = std::round(rng.Gaussian() * 4.0) / 4.0;
        if (rng.Uniform() < 0.05) v = rng.Uniform() < 0.5 ? 0.0 : -0.0;
      }
    }
    const TestResult result = TwoSampleKsTest(a, b);
    EXPECT_EQ(result.statistic, ReferenceKsStatistic(a, b)) << trial;
  }
}

// The merge used to spin forever on a NaN: `NaN <= value` never holds, so
// neither cursor moved. Finite input stays a debug-build contract.
TEST(KsTest, NaNInputTerminates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> a = {0.1, nan, 0.4, 0.7, nan, 0.2};
  const std::vector<double> b = {0.2, 0.3, 0.9};
#ifdef NDEBUG
  for (const auto& [x, y] : {std::pair(a, b), std::pair(b, a),
                             std::pair(a, a)}) {
    const TestResult result = TwoSampleKsTest(x, y);
    EXPECT_GE(result.statistic, 0.0);
    EXPECT_LE(result.statistic, 1.0);
    EXPECT_GE(result.p_value, 0.0);
    EXPECT_LE(result.p_value, 1.0);
  }
  // NaN ranks above every number and ties with NaN.
  EXPECT_DOUBLE_EQ(TwoSampleKsTest(a, a).statistic, 0.0);
  EXPECT_DOUBLE_EQ(TwoSampleKsTest({nan, nan}, {nan}).statistic, 0.0);
  EXPECT_DOUBLE_EQ(TwoSampleKsTest({0.5, nan}, {0.5, 0.9}).statistic, 0.5);
#else
  EXPECT_DEATH(TwoSampleKsTest(a, b), "NaN/Inf");
#endif
}

// ---------------------------------------------------------------------------
// Chi-squared
// ---------------------------------------------------------------------------

TEST(ChiSquaredTest, EqualCountsDoNotReject) {
  const TestResult result =
      ChiSquaredHomogeneityTest({50, 50, 50}, {50, 50, 50});
  EXPECT_DOUBLE_EQ(result.statistic, 0.0);
  EXPECT_FALSE(result.Rejects());
}

TEST(ChiSquaredTest, ProportionalCountsDoNotReject) {
  // Same distribution, different sample sizes.
  const TestResult result =
      ChiSquaredHomogeneityTest({10, 20, 30}, {100, 200, 300});
  EXPECT_NEAR(result.statistic, 0.0, 1e-9);
  EXPECT_FALSE(result.Rejects());
}

TEST(ChiSquaredTest, DetectsDistributionChange) {
  const TestResult result =
      ChiSquaredHomogeneityTest({100, 10}, {10, 100});
  EXPECT_TRUE(result.Rejects(0.001));
}

TEST(ChiSquaredTest, IgnoresCategoriesAbsentFromBoth) {
  const TestResult with_zeros =
      ChiSquaredHomogeneityTest({50, 0, 50}, {50, 0, 50});
  EXPECT_DOUBLE_EQ(with_zeros.statistic, 0.0);
}

TEST(ChiSquaredTest, DegenerateSingleCategory) {
  const TestResult result = ChiSquaredHomogeneityTest({10, 0}, {20, 0});
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
}

TEST(ChiSquaredTest, GoodnessOfFitKnownValue) {
  // Observed {40, 60}, expected {50, 50}: chi2 = 100/50 + 100/50 = 4,
  // dof 1 -> p ~ 0.0455.
  const TestResult result = ChiSquaredGoodnessOfFit({40, 60}, {50, 50});
  EXPECT_NEAR(result.statistic, 4.0, 1e-12);
  EXPECT_NEAR(result.p_value, 0.0455, 1e-3);
}

TEST(BonferroniTest, DividesAlpha) {
  EXPECT_DOUBLE_EQ(BonferroniAlpha(0.05, 1), 0.05);
  EXPECT_DOUBLE_EQ(BonferroniAlpha(0.05, 10), 0.005);
}

}  // namespace
}  // namespace bbv::stats
