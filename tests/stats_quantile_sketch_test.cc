// Property tests for the deterministic mergeable quantile sketch: every
// percentile must agree with the exact stats::SortedView path within the
// sketch's value-error bound, and the sketch state must be a pure function
// of the input multiset — identical bytes for any batch split, merge order
// and thread count.

#include "stats/quantile_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "core/prediction_statistics.h"
#include "stats/descriptive.h"

namespace bbv::stats {
namespace {

std::string SketchBytes(const QuantileSketch& sketch) {
  std::ostringstream out;
  BBV_CHECK(sketch.Save(out).ok());
  return out.str();
}

std::string BankBytes(const QuantileSketchBank& bank) {
  std::ostringstream out;
  BBV_CHECK(bank.Save(out).ok());
  return out.str();
}

/// Sample shapes covering the distributions the serving layer actually
/// sees: smooth, tail-concentrated (confident classifiers pile mass at
/// 0/1), heavily tied, and degenerate.
std::vector<std::vector<double>> SampleShapes(common::Rng& rng, size_t n) {
  std::vector<std::vector<double>> shapes(4);
  for (size_t i = 0; i < n; ++i) {
    shapes[0].push_back(rng.Uniform());
    // Push uniform draws toward the {0, 1} edges (confident model outputs).
    const double u = rng.Uniform();
    shapes[1].push_back(u < 0.5 ? u * u : 1.0 - (1.0 - u) * (1.0 - u));
    // Few distinct values with heavy ties.
    shapes[2].push_back(static_cast<double>(rng.UniformInt(0, 4)) / 4.0);
    shapes[3].push_back(0.75);
  }
  return shapes;
}

TEST(QuantileSketchTest, QuantilesMatchSortedViewWithinBound) {
  common::Rng rng(17);
  const std::vector<double> grid = core::DefaultPercentilePoints();
  for (const std::vector<double>& values : SampleShapes(rng, 5000)) {
    QuantileSketch sketch;
    for (double v : values) sketch.Add(v);
    const SortedView exact(values);
    const std::vector<double> streamed = sketch.Quantiles(grid);
    for (size_t i = 0; i < grid.size(); ++i) {
      EXPECT_NEAR(streamed[i], exact.Percentile(grid[i]),
                  sketch.ValueErrorBound() + 1e-12)
          << "q=" << grid[i];
    }
  }
}

TEST(QuantileSketchTest, ErrorBoundTightensWithResolution) {
  common::Rng rng(18);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.Uniform());
  const SortedView exact(values);
  double previous_bound = 1.0;
  for (int bits : {4, 8, 12, 16}) {
    QuantileSketch::Options options;
    options.resolution_bits = bits;
    QuantileSketch sketch(options);
    for (double v : values) sketch.Add(v);
    EXPECT_LT(sketch.ValueErrorBound(), previous_bound);
    previous_bound = sketch.ValueErrorBound();
    for (double q : {1.0, 25.0, 50.0, 95.0, 99.0}) {
      EXPECT_NEAR(sketch.Quantile(q), exact.Percentile(q),
                  sketch.ValueErrorBound() + 1e-12);
    }
  }
}

TEST(QuantileSketchTest, StateIsIndependentOfBatchSplit) {
  common::Rng rng(19);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) values.push_back(rng.Uniform());

  QuantileSketch one_shot;
  for (double v : values) one_shot.Add(v);
  const std::string reference = SketchBytes(one_shot);

  for (size_t batch : {1ul, 7ul, 100ul, 1024ul, 3000ul}) {
    QuantileSketch merged;
    for (size_t begin = 0; begin < values.size(); begin += batch) {
      QuantileSketch chunk;
      const size_t end = std::min(begin + batch, values.size());
      for (size_t i = begin; i < end; ++i) chunk.Add(values[i]);
      ASSERT_TRUE(merged.Merge(chunk).ok());
    }
    EXPECT_EQ(SketchBytes(merged), reference) << "batch=" << batch;
  }
}

TEST(QuantileSketchTest, MergeIsCommutativeAndAssociative) {
  common::Rng rng(20);
  std::vector<QuantileSketch> parts(3);
  for (QuantileSketch& part : parts) {
    for (int i = 0; i < 500; ++i) part.Add(rng.Uniform());
  }
  // (A + B) + C
  QuantileSketch left = parts[0];
  ASSERT_TRUE(left.Merge(parts[1]).ok());
  ASSERT_TRUE(left.Merge(parts[2]).ok());
  // A + (B + C)
  QuantileSketch inner = parts[1];
  ASSERT_TRUE(inner.Merge(parts[2]).ok());
  QuantileSketch right = parts[0];
  ASSERT_TRUE(right.Merge(inner).ok());
  // C + B + A
  QuantileSketch reversed = parts[2];
  ASSERT_TRUE(reversed.Merge(parts[1]).ok());
  ASSERT_TRUE(reversed.Merge(parts[0]).ok());

  const std::string reference = SketchBytes(left);
  EXPECT_EQ(SketchBytes(right), reference);
  EXPECT_EQ(SketchBytes(reversed), reference);
}

TEST(QuantileSketchTest, WeightedAddEqualsRepeatedAdd) {
  QuantileSketch weighted;
  QuantileSketch repeated;
  weighted.Add(0.25, 10);
  weighted.Add(0.5, 3);
  weighted.Add(0.5, 0);  // zero weight is a no-op
  for (int i = 0; i < 10; ++i) repeated.Add(0.25);
  for (int i = 0; i < 3; ++i) repeated.Add(0.5);
  EXPECT_EQ(weighted.count(), 13u);
  EXPECT_EQ(SketchBytes(weighted), SketchBytes(repeated));
}

TEST(QuantileSketchTest, ValuesOutsideDomainAreClamped) {
  QuantileSketch sketch;
  sketch.Add(-3.5);
  sketch.Add(42.0);
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(100.0), 1.0);
}

TEST(QuantileSketchTest, MergeRejectsMismatchedGrids) {
  QuantileSketch::Options coarse;
  coarse.resolution_bits = 6;
  QuantileSketch a(coarse);
  QuantileSketch b;
  EXPECT_FALSE(a.Merge(b).ok());
  QuantileSketch::Options shifted;
  shifted.lo = -1.0;
  QuantileSketch c(shifted);
  QuantileSketch d;
  EXPECT_FALSE(c.Merge(d).ok());
}

TEST(QuantileSketchTest, MergeRejectsCountOverflowWithoutChange) {
  // Two cells in different blocks whose weights sum past uint64 used to
  // leave count() == 0 over nonzero cells, and Save wrote bytes that Load
  // rejects. Every cell and block sum is bounded by count(), so refusing
  // the overflowing count keeps them all exact.
  const uint64_t half = uint64_t{1} << 63;
  QuantileSketch a;
  a.Add(0.1, half);
  QuantileSketch b;
  b.Add(0.9, half);
  const std::string before = SketchBytes(a);
  EXPECT_EQ(a.Merge(b).code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(SketchBytes(a), before);
  b.Add(0.9, half - 2);
  QuantileSketch c;
  c.Add(0.1);
  EXPECT_TRUE(c.Merge(b).ok());
  EXPECT_EQ(c.count(), std::numeric_limits<uint64_t>::max());
}

TEST(QuantileSketchDeathTest, AddRejectsCountOverflow) {
  QuantileSketch sketch;
  sketch.Add(0.1, uint64_t{1} << 63);
  EXPECT_DEATH(sketch.Add(0.9, uint64_t{1} << 63), "overflow");
}

TEST(QuantileSketchTest, SaveLoadRoundTripsCanonically) {
  common::Rng rng(21);
  QuantileSketch sketch;
  for (int i = 0; i < 1000; ++i) sketch.Add(rng.Uniform());
  const std::string bytes = SketchBytes(sketch);
  std::istringstream in(bytes);
  const auto loaded = QuantileSketch::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->count(), sketch.count());
  EXPECT_EQ(SketchBytes(*loaded), bytes);
}

TEST(QuantileSketchTest, LoadRejectsCorruptStreams) {
  QuantileSketch sketch;
  sketch.Add(0.5);
  std::string bytes = SketchBytes(sketch);
  // Truncated stream.
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(QuantileSketch::Load(truncated).ok());
  // Flipped byte inside the payload (after the magic) must be caught by the
  // total-vs-cells consistency check or a range check.
  bytes[bytes.size() - 3] = static_cast<char>(0x7f);
  std::istringstream corrupted(bytes);
  EXPECT_FALSE(QuantileSketch::Load(corrupted).ok());
}

/// A sketch stream on the default grid with the given (cell, weight)
/// entries written verbatim, canonical or not.
std::string SketchStream(
    uint64_t total, const std::vector<std::pair<uint64_t, uint64_t>>& cells) {
  const QuantileSketch::Options options;
  std::ostringstream out;
  common::BinaryWriter writer(out);
  writer.WriteMagic("BBVQS", 1);
  writer.WriteInt32(options.resolution_bits);
  writer.WriteDouble(options.lo);
  writer.WriteDouble(options.hi);
  writer.WriteUint64(total);
  writer.WriteUint64(cells.size());
  for (const auto& [cell, weight] : cells) {
    writer.WriteUint64(cell);
    writer.WriteUint64(weight);
  }
  BBV_CHECK(writer.status().ok());
  return out.str();
}

common::StatusCode LoadCode(const std::string& bytes) {
  std::istringstream in(bytes);
  return QuantileSketch::Load(in).status().code();
}

TEST(QuantileSketchTest, LoadRejectsNonCanonicalCellLists) {
  // A repeated cell: the cells would sum to 5 while count() claims 10, and
  // Quantiles would return non-monotone values past the mass.
  EXPECT_EQ(LoadCode(SketchStream(10, {{100, 5}, {100, 5}})),
            common::StatusCode::kInvalidArgument);
  // Descending cells: Save writes them ascending, so this is not canonical.
  EXPECT_EQ(LoadCode(SketchStream(10, {{200, 5}, {100, 5}})),
            common::StatusCode::kInvalidArgument);
  // Weights whose sum wraps around to the stored total.
  const uint64_t half = uint64_t{1} << 63;
  EXPECT_EQ(LoadCode(SketchStream(10, {{1, half}, {2, half}, {3, 10}})),
            common::StatusCode::kInvalidArgument);
  // The canonical form of the same multiset loads and answers sensibly.
  std::istringstream in(SketchStream(10, {{100, 5}, {200, 5}}));
  const auto loaded = QuantileSketch::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<double> quantiles = loaded->Quantiles({0.0, 50.0, 100.0});
  EXPECT_TRUE(std::is_sorted(quantiles.begin(), quantiles.end()));
  EXPECT_DOUBLE_EQ(quantiles.front(), 100.0 / 4096.0);
  EXPECT_DOUBLE_EQ(quantiles.back(), 200.0 / 4096.0);
}

// ---------------------------------------------------------------------------
// Oracle: the full-grid cumulative scan that Quantiles and Cdf used before
// block sums. The block-sum path must agree with it bit for bit.
// ---------------------------------------------------------------------------

double OracleCellValue(const QuantileSketch::Options& options, size_t index) {
  const double unit =
      static_cast<double>(index) /
      static_cast<double>(size_t{1} << options.resolution_bits);
  return options.lo + unit * (options.hi - options.lo);
}

size_t OracleCellIndex(const QuantileSketch::Options& options, double value) {
  const double clamped = std::clamp(value, options.lo, options.hi);
  const double unit = (clamped - options.lo) / (options.hi - options.lo);
  const double scaled =
      unit * static_cast<double>(size_t{1} << options.resolution_bits);
  const auto index = static_cast<size_t>(std::llround(scaled));
  return std::min(index, size_t{1} << options.resolution_bits);
}

std::vector<double> OracleQuantiles(const QuantileSketch& sketch,
                                    const std::vector<double>& qs) {
  const std::span<const uint64_t> cells = sketch.cell_counts();
  std::vector<size_t> lower(qs.size());
  std::vector<size_t> upper(qs.size());
  std::vector<double> weight(qs.size());
  std::vector<double> lower_value(qs.size());
  std::vector<double> upper_value(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    const double position =
        (qs[i] / 100.0) * static_cast<double>(sketch.count() - 1);
    lower[i] = static_cast<size_t>(std::floor(position));
    upper[i] = static_cast<size_t>(std::ceil(position));
    weight[i] = position - static_cast<double>(lower[i]);
  }
  size_t next = 0;
  size_t next_upper = 0;
  uint64_t cumulative = 0;
  for (size_t cell = 0; cell < cells.size(); ++cell) {
    if (cells[cell] == 0) continue;
    cumulative += cells[cell];
    const double value = OracleCellValue(sketch.options(), cell);
    while (next < qs.size() && lower[next] < cumulative) {
      lower_value[next++] = value;
    }
    while (next_upper < qs.size() && upper[next_upper] < cumulative) {
      upper_value[next_upper++] = value;
    }
  }
  std::vector<double> out(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    out[i] = lower[i] == upper[i] ? lower_value[i]
                                  : lower_value[i] * (1.0 - weight[i]) +
                                        upper_value[i] * weight[i];
  }
  return out;
}

double OracleCdf(const QuantileSketch& sketch, double x) {
  if (x < sketch.options().lo) return 0.0;
  const std::span<const uint64_t> cells = sketch.cell_counts();
  const size_t limit = OracleCellIndex(sketch.options(), x);
  uint64_t below = 0;
  for (size_t cell = 0; cell <= limit; ++cell) below += cells[cell];
  return static_cast<double>(below) / static_cast<double>(sketch.count());
}

/// Sketches over one grid covering the shapes the block-sum path must get
/// right: clustered near 0 and 1, uniform, all mass in one cell, mass only
/// in the lone last cell, a single value, weighted Adds, and sketches built
/// by Merge and by Load.
std::vector<std::pair<std::string, QuantileSketch>> OracleSketches(
    const QuantileSketch::Options& options, common::Rng& rng) {
  std::vector<std::pair<std::string, QuantileSketch>> out;
  const auto add = [&](const std::string& name, auto fill) {
    QuantileSketch sketch(options);
    fill(sketch);
    out.emplace_back(name, std::move(sketch));
  };
  add("clustered", [&](QuantileSketch& sketch) {
    for (int i = 0; i < 3000; ++i) {
      const double u = rng.Uniform();
      sketch.Add(u < 0.5 ? u * u * u : 1.0 - (1.0 - u) * (1.0 - u) * (1.0 - u));
    }
  });
  add("uniform", [&](QuantileSketch& sketch) {
    for (int i = 0; i < 3000; ++i) sketch.Add(rng.Uniform());
  });
  add("one_cell", [&](QuantileSketch& sketch) {
    for (int i = 0; i < 500; ++i) sketch.Add(0.3);
  });
  add("last_cell", [&](QuantileSketch& sketch) {
    for (int i = 0; i < 77; ++i) sketch.Add(1.0);
  });
  add("edges", [&](QuantileSketch& sketch) {
    sketch.Add(0.0, 3);
    sketch.Add(1.0, 4);
  });
  add("single", [&](QuantileSketch& sketch) { sketch.Add(0.6180339887); });
  add("weighted", [&](QuantileSketch& sketch) {
    for (int i = 0; i < 200; ++i) {
      sketch.Add(rng.Uniform(), static_cast<uint64_t>(rng.UniformInt(1, 1000)));
    }
  });
  add("merged", [&](QuantileSketch& sketch) {
    QuantileSketch part(options);
    for (int i = 0; i < 700; ++i) part.Add(rng.Uniform() * 0.2);
    for (int i = 0; i < 300; ++i) sketch.Add(0.9 + rng.Uniform() * 0.1);
    BBV_CHECK(sketch.Merge(part).ok());
  });
  add("loaded", [&](QuantileSketch& sketch) {
    QuantileSketch source(options);
    for (int i = 0; i < 1500; ++i) source.Add(rng.Uniform() * rng.Uniform());
    std::istringstream in(SketchBytes(source));
    auto loaded = QuantileSketch::Load(in);
    BBV_CHECK(loaded.ok());
    sketch = std::move(*loaded);
  });
  return out;
}

TEST(QuantileSketchTest, BlockSumQueriesMatchFullScanBitwise) {
  common::Rng rng(29);
  std::vector<double> dense;
  for (int i = 0; i <= 200; ++i) dense.push_back(0.5 * i);
  const std::vector<std::vector<double>> query_sets = {
      {0.0}, {100.0}, {0.0, 100.0}, core::DefaultPercentilePoints(), dense};
  for (int bits : {1, 2, 5, 6, 7, 12, 16}) {
    QuantileSketch::Options options;
    options.resolution_bits = bits;
    for (const auto& [name, sketch] : OracleSketches(options, rng)) {
      SCOPED_TRACE(name + " bits=" + std::to_string(bits));
      for (const std::vector<double>& qs : query_sets) {
        const std::vector<double> got = sketch.Quantiles(qs);
        const std::vector<double> want = OracleQuantiles(sketch, qs);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < qs.size(); ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                    std::bit_cast<uint64_t>(want[i]))
              << "q=" << qs[i] << " got " << got[i] << " want " << want[i];
        }
      }
      const size_t grid = size_t{1} << bits;
      std::vector<double> xs = {-0.5, 1.5};
      for (size_t k = 0; k <= std::min<size_t>(grid, 300); ++k) {
        xs.push_back(static_cast<double>(k) / static_cast<double>(grid));
        xs.push_back((static_cast<double>(k) + 0.5) /
                     static_cast<double>(grid));
      }
      for (int i = 0; i < 200; ++i) xs.push_back(rng.Uniform());
      for (double x : xs) {
        EXPECT_EQ(std::bit_cast<uint64_t>(sketch.Cdf(x)),
                  std::bit_cast<uint64_t>(OracleCdf(sketch, x)))
            << "x=" << x;
      }
    }
  }
}

TEST(QuantileSketchTest, CellIndexRoundsLikeLlround) {
  // Every half-way point k + 0.5 of the scaled grid and both neighbouring
  // doubles, plus random values: each Add must land in the cell std::llround
  // picks, and nowhere else.
  common::Rng rng(30);
  for (int bits : {1, 2, 5, 6, 7, 12, 16}) {
    QuantileSketch::Options options;
    options.resolution_bits = bits;
    const size_t grid = size_t{1} << bits;
    std::vector<double> values;
    for (size_t k = 0; k < grid; ++k) {
      const double half =
          (static_cast<double>(k) + 0.5) / static_cast<double>(grid);
      values.push_back(half);
      values.push_back(std::nextafter(half, 0.0));
      values.push_back(std::nextafter(half, 1.0));
    }
    for (int i = 0; i < 10000; ++i) values.push_back(rng.Uniform());
    QuantileSketch sketch(options);
    std::vector<uint64_t> expected(grid + 1, 0);
    for (double value : values) {
      const size_t cell = OracleCellIndex(options, value);
      sketch.Add(value);
      ++expected[cell];
      ASSERT_EQ(sketch.cell_counts()[cell], expected[cell])
          << "bits=" << bits << " value=" << value;
    }
    const std::span<const uint64_t> cells = sketch.cell_counts();
    EXPECT_TRUE(std::equal(cells.begin(), cells.end(), expected.begin(),
                           expected.end()))
        << "bits=" << bits;
  }
}

TEST(QuantileSketchTest, CdfMatchesEmpiricalFractions) {
  QuantileSketch sketch;
  for (int i = 0; i < 10; ++i) sketch.Add(0.1);
  for (int i = 0; i < 30; ++i) sketch.Add(0.6);
  EXPECT_NEAR(sketch.Cdf(0.05), 0.0, 1e-12);
  EXPECT_NEAR(sketch.Cdf(0.1), 0.25, 1e-12);
  EXPECT_NEAR(sketch.Cdf(0.3), 0.25, 1e-12);
  EXPECT_NEAR(sketch.Cdf(0.6), 1.0, 1e-12);
  EXPECT_NEAR(sketch.Cdf(1.0), 1.0, 1e-12);
}

TEST(QuantileSketchTest, KsStatisticSeparatesShiftedDistributions) {
  common::Rng rng(22);
  QuantileSketch low;
  QuantileSketch high;
  QuantileSketch low_copy;
  for (int i = 0; i < 2000; ++i) {
    const double u = rng.Uniform();
    low.Add(u * 0.4);
    low_copy.Add(u * 0.4);
    high.Add(0.6 + u * 0.4);
  }
  const auto identical = KsStatistic(low, low_copy);
  ASSERT_TRUE(identical.ok());
  EXPECT_NEAR(*identical, 0.0, 1e-12);
  const auto disjoint = KsStatistic(low, high);
  ASSERT_TRUE(disjoint.ok());
  EXPECT_NEAR(*disjoint, 1.0, 1e-12);
  QuantileSketch::Options coarse;
  coarse.resolution_bits = 4;
  QuantileSketch other_grid(coarse);
  other_grid.Add(0.5);
  EXPECT_FALSE(KsStatistic(low, other_grid).ok());
  QuantileSketch empty;
  EXPECT_FALSE(KsStatistic(low, empty).ok());
}

/// Sets BBV_THREADS for one scope and restores the previous value after.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* previous = std::getenv("BBV_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    ::setenv("BBV_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_previous_) {
      ::setenv("BBV_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("BBV_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

linalg::Matrix RandomProbabilities(size_t rows, size_t classes,
                                   common::Rng& rng) {
  linalg::Matrix matrix(rows, classes);
  for (size_t i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (size_t k = 0; k < classes; ++k) {
      matrix.At(i, k) = rng.Uniform() + 1e-6;
      sum += matrix.At(i, k);
    }
    for (size_t k = 0; k < classes; ++k) matrix.At(i, k) /= sum;
  }
  return matrix;
}

TEST(QuantileSketchBankTest, FeaturesMatchExactPredictionStatistics) {
  common::Rng rng(23);
  const linalg::Matrix probabilities = RandomProbabilities(4000, 3, rng);
  const std::vector<double> grid = core::DefaultPercentilePoints();
  QuantileSketchBank bank;
  ASSERT_TRUE(bank.Observe(probabilities).ok());
  const std::vector<double> streamed = bank.PercentileFeatures(grid);
  const std::vector<double> exact =
      core::PredictionStatistics(probabilities, grid);
  ASSERT_EQ(streamed.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(streamed[i], exact[i], bank.ValueErrorBound() + 1e-12) << i;
  }
}

TEST(QuantileSketchBankTest, RejectsEmptyAndMismatchedBatches) {
  common::Rng rng(24);
  QuantileSketchBank bank;
  EXPECT_FALSE(bank.Observe(linalg::Matrix()).ok());
  ASSERT_TRUE(bank.Observe(RandomProbabilities(10, 3, rng)).ok());
  EXPECT_FALSE(bank.Observe(RandomProbabilities(10, 2, rng)).ok());
  EXPECT_EQ(bank.rows_observed(), 10u);
  EXPECT_EQ(bank.num_columns(), 3u);
}

TEST(QuantileSketchBankTest, RejectsNonFiniteBatchesWithoutChangingState) {
  common::Rng rng(31);
  for (double poison : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()}) {
    linalg::Matrix poisoned = RandomProbabilities(10, 3, rng);
    poisoned.At(9, 2) = poison;
    // A fresh bank does not adopt the width of a rejected batch.
    QuantileSketchBank fresh;
    EXPECT_EQ(fresh.Observe(poisoned).code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(fresh.num_columns(), 0u);
    // A populated bank keeps its exact bytes.
    QuantileSketchBank bank;
    ASSERT_TRUE(bank.Observe(RandomProbabilities(10, 3, rng)).ok());
    const std::string before = BankBytes(bank);
    EXPECT_EQ(bank.Observe(poisoned).code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(BankBytes(bank), before);
    EXPECT_EQ(bank.rows_observed(), 10u);
  }
}

TEST(QuantileSketchBankTest, BytesIdenticalAcrossSplitsAndThreadCounts) {
  common::Rng rng(25);
  const linalg::Matrix probabilities = RandomProbabilities(2048, 4, rng);

  auto bytes_for = [&](const char* threads, size_t batch) {
    ScopedThreadsEnv env(threads);
    QuantileSketchBank bank;
    for (size_t begin = 0; begin < probabilities.rows(); begin += batch) {
      const size_t end = std::min(begin + batch, probabilities.rows());
      std::vector<size_t> row_ids;
      for (size_t i = begin; i < end; ++i) row_ids.push_back(i);
      BBV_CHECK(bank.Observe(probabilities.SelectRows(row_ids)).ok());
    }
    return BankBytes(bank);
  };

  const std::string reference = bytes_for("1", 2048);
  EXPECT_EQ(bytes_for("1", 100), reference);
  EXPECT_EQ(bytes_for("8", 1), reference);
  EXPECT_EQ(bytes_for("8", 333), reference);
  EXPECT_EQ(bytes_for("8", 2048), reference);
}

TEST(QuantileSketchBankTest, MergeAccumulatesAndValidates) {
  common::Rng rng(26);
  const linalg::Matrix first = RandomProbabilities(300, 2, rng);
  const linalg::Matrix second = RandomProbabilities(200, 2, rng);

  QuantileSketchBank all;
  ASSERT_TRUE(all.Observe(first).ok());
  ASSERT_TRUE(all.Observe(second).ok());

  QuantileSketchBank left;
  ASSERT_TRUE(left.Observe(first).ok());
  QuantileSketchBank right;
  ASSERT_TRUE(right.Observe(second).ok());
  ASSERT_TRUE(left.Merge(right).ok());
  EXPECT_EQ(left.rows_observed(), 500u);
  EXPECT_EQ(BankBytes(left), BankBytes(all));

  // Merging into or from an empty bank is the identity.
  QuantileSketchBank empty;
  ASSERT_TRUE(left.Merge(empty).ok());
  EXPECT_EQ(BankBytes(left), BankBytes(all));
  QuantileSketchBank target;
  ASSERT_TRUE(target.Merge(all).ok());
  EXPECT_EQ(BankBytes(target), BankBytes(all));

  QuantileSketchBank narrow;
  ASSERT_TRUE(narrow.Observe(RandomProbabilities(10, 3, rng)).ok());
  EXPECT_FALSE(left.Merge(narrow).ok());
}

TEST(QuantileSketchBankTest, RetractIsTheExactInverseOfObserve) {
  common::Rng rng(33);
  const std::vector<double> grid = core::DefaultPercentilePoints();
  const linalg::Matrix a = RandomProbabilities(300, 2, rng);
  const linalg::Matrix b = RandomProbabilities(200, 2, rng);

  QuantileSketchBank sum;
  ASSERT_TRUE(sum.Observe(a).ok());
  ASSERT_TRUE(sum.Observe(b).ok());
  ASSERT_TRUE(sum.Retract(a).ok());
  QuantileSketchBank only_b;
  ASSERT_TRUE(only_b.Observe(b).ok());
  EXPECT_EQ(sum.rows_observed(), 200u);
  EXPECT_EQ(BankBytes(sum), BankBytes(only_b));
  // Queries step through the block sums, so they must agree too.
  EXPECT_EQ(sum.PercentileFeatures(grid), only_b.PercentileFeatures(grid));

  // Retracting everything leaves an empty bank of the same width, which
  // observes like a fresh one.
  ASSERT_TRUE(sum.Retract(b).ok());
  EXPECT_EQ(sum.rows_observed(), 0u);
  EXPECT_EQ(BankBytes(sum), BankBytes(QuantileSketchBank(2, {})));
  ASSERT_TRUE(sum.Observe(b).ok());
  EXPECT_EQ(BankBytes(sum), BankBytes(only_b));
  EXPECT_EQ(sum.PercentileFeatures(grid), only_b.PercentileFeatures(grid));
}

TEST(QuantileSketchBankTest, RetractRejectsUnobservedBatchesWithoutChange) {
  common::Rng rng(34);
  QuantileSketch::Options options;
  options.resolution_bits = 4;
  QuantileSketchBank bank(2, options);
  const linalg::Matrix observed(3, 2, {0.0, 1.0, 0.5, 0.5, 1.0, 0.0});
  ASSERT_TRUE(bank.Observe(observed).ok());
  const std::string before = BankBytes(bank);

  EXPECT_FALSE(bank.Retract(linalg::Matrix()).ok());
  EXPECT_FALSE(bank.Retract(RandomProbabilities(1, 3, rng)).ok());
  linalg::Matrix twice = observed;
  twice.AppendRows(observed);
  EXPECT_FALSE(bank.Retract(twice).ok());
  // The last entry's cell is empty: every earlier removal is put back.
  EXPECT_FALSE(
      bank.Retract(linalg::Matrix(3, 2, {0.0, 1.0, 0.5, 0.5, 1.0, 0.25}))
          .ok());
  EXPECT_EQ(BankBytes(bank), before);
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    linalg::Matrix poisoned = observed;
    poisoned.At(2, 1) = poison;
    EXPECT_EQ(bank.Retract(poisoned).code(),
              common::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(BankBytes(bank), before);
  EXPECT_EQ(bank.rows_observed(), 3u);
  EXPECT_EQ(bank.PercentileFeatures({0.0, 50.0, 100.0}),
            (std::vector<double>{0.0, 0.5, 1.0, 0.0, 0.5, 1.0}));
}

TEST(QuantileSketchBankTest, SaveLoadRoundTrips) {
  common::Rng rng(27);
  QuantileSketchBank bank;
  ASSERT_TRUE(bank.Observe(RandomProbabilities(500, 3, rng)).ok());
  const std::string bytes = BankBytes(bank);
  std::istringstream in(bytes);
  const auto loaded = QuantileSketchBank::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows_observed(), 500u);
  EXPECT_EQ(loaded->num_columns(), 3u);
  EXPECT_EQ(BankBytes(*loaded), bytes);
}

TEST(QuantileSketchBankTest, LoadRejectsInconsistentRowCounts) {
  // Hand-built stream with a structurally valid header whose claimed row
  // count disagrees with the member sketches. Such bytes used to pass Load
  // and then crash the process inside PercentileFeatures' consistency
  // BBV_CHECK; untrusted state must be rejected at the Load boundary.
  const QuantileSketch::Options options;
  const auto bank_header = [&](common::BinaryWriter& writer, uint64_t rows,
                               uint64_t sketches) {
    writer.WriteMagic("BBVQB", 1);
    writer.WriteInt32(options.resolution_bits);
    writer.WriteDouble(options.lo);
    writer.WriteDouble(options.hi);
    writer.WriteUint64(rows);
    writer.WriteUint64(sketches);
  };

  // Claims 5 observed rows over one sketch that has counted none.
  std::ostringstream empty_sketch;
  {
    common::BinaryWriter writer(empty_sketch);
    bank_header(writer, 5, 1);
    ASSERT_TRUE(QuantileSketch(options).Save(empty_sketch).ok());
  }
  std::istringstream in_empty(empty_sketch.str());
  EXPECT_FALSE(QuantileSketchBank::Load(in_empty).ok());

  // Claims observed rows with no columns at all.
  std::ostringstream no_columns;
  {
    common::BinaryWriter writer(no_columns);
    bank_header(writer, 5, 0);
  }
  std::istringstream in_no_columns(no_columns.str());
  EXPECT_FALSE(QuantileSketchBank::Load(in_no_columns).ok());

  // Sanity: the same construction with a consistent count loads fine.
  std::ostringstream consistent;
  {
    common::BinaryWriter writer(consistent);
    bank_header(writer, 3, 1);
    QuantileSketch sketch(options);
    for (double v : {0.1, 0.5, 0.9}) sketch.Add(v);
    ASSERT_TRUE(sketch.Save(consistent).ok());
  }
  std::istringstream in_consistent(consistent.str());
  EXPECT_TRUE(QuantileSketchBank::Load(in_consistent).ok());
}

TEST(QuantileSketchBankTest, MemoryIsIndependentOfRowCount) {
  common::Rng rng(28);
  QuantileSketchBank small;
  ASSERT_TRUE(small.Observe(RandomProbabilities(100, 2, rng)).ok());
  QuantileSketchBank large;
  ASSERT_TRUE(large.Observe(RandomProbabilities(20000, 2, rng)).ok());
  EXPECT_EQ(small.MemoryBytes(), large.MemoryBytes());
}

// ---------------------------------------------------------------------------
// Byte-format pins. The sketch and bank bytes are the cold-store and
// SaveState format, so they must never drift: a hand-spelled stream, fixed
// digests over the edge shapes (empty, a grid shorter than one block, mass
// only in the lone last block, banks of two and zero columns), and a
// field-by-field encoder that every sketch's Save must equal byte for byte.
// ---------------------------------------------------------------------------

TEST(QuantileSketchFormatTest, TinySketchMatchesHandSpelledBytes) {
  QuantileSketch::Options options;
  options.resolution_bits = 2;
  QuantileSketch sketch(options);
  sketch.Add(0.5, 2);
  sketch.Add(1.0);
  static constexpr char kGolden[] =
      "BBVQS"
      "\x01\x00\x00\x00"                  // version 1
      "\x02\x00\x00\x00"                  // resolution_bits 2
      "\x00\x00\x00\x00\x00\x00\x00\x00"  // lo = 0.0
      "\x00\x00\x00\x00\x00\x00\xf0\x3f"  // hi = 1.0
      "\x03\x00\x00\x00\x00\x00\x00\x00"  // total 3
      "\x02\x00\x00\x00\x00\x00\x00\x00"  // 2 nonzero cells
      "\x02\x00\x00\x00\x00\x00\x00\x00"  // cell 2 (value 0.5)
      "\x02\x00\x00\x00\x00\x00\x00\x00"  //   weight 2
      "\x04\x00\x00\x00\x00\x00\x00\x00"  // cell 4 (value 1.0)
      "\x01\x00\x00\x00\x00\x00\x00\x00";  //  weight 1
  EXPECT_EQ(SketchBytes(sketch), std::string(kGolden, sizeof(kGolden) - 1));
}

TEST(QuantileSketchFormatTest, SaveDigestsArePinned) {
  EXPECT_EQ(common::Fnv1aHash(SketchBytes(QuantileSketch())),
            0xec6343d0b68fd351ULL);

  // resolution_bits = 1: three cells, fewer than one block.
  QuantileSketch::Options coarse;
  coarse.resolution_bits = 1;
  QuantileSketch three_cells(coarse);
  three_cells.Add(0.0);
  three_cells.Add(0.3);
  three_cells.Add(0.5, 3);
  three_cells.Add(1.0, 2);
  EXPECT_EQ(common::Fnv1aHash(SketchBytes(three_cells)),
            0x08ae56989f09f2ccULL);

  // The default 12-bit grid: the last block holds only cell 4096, the
  // value exactly 1.0 that confident classifiers produce.
  QuantileSketch last_block;
  last_block.Add(0.0);
  last_block.Add(0.25, 2);
  last_block.Add(0.999);
  last_block.Add(1.0, 5);
  EXPECT_EQ(common::Fnv1aHash(SketchBytes(last_block)),
            0x1e8d9878d22603d2ULL);

  linalg::Matrix probabilities(51, 2);
  for (size_t i = 0; i < 50; ++i) {
    const double p = static_cast<double>(i * 37 % 101) / 100.0;
    probabilities.At(i, 0) = p;
    probabilities.At(i, 1) = 1.0 - p;
  }
  probabilities.At(50, 0) = 1.0;
  probabilities.At(50, 1) = 0.0;
  QuantileSketchBank two_columns;
  ASSERT_TRUE(two_columns.Observe(probabilities).ok());
  EXPECT_EQ(common::Fnv1aHash(BankBytes(two_columns)),
            0x126ebf0a3ff2fdeeULL);

  EXPECT_EQ(common::Fnv1aHash(BankBytes(QuantileSketchBank())),
            0x6fdd929959eb878aULL);
}

/// The sketch format spelled out field by field from the public state.
void EncodeSketch(const QuantileSketch& sketch, common::BinaryWriter& writer) {
  const std::span<const uint64_t> cells = sketch.cell_counts();
  writer.WriteMagic("BBVQS", 1);
  writer.WriteInt32(sketch.options().resolution_bits);
  writer.WriteDouble(sketch.options().lo);
  writer.WriteDouble(sketch.options().hi);
  writer.WriteUint64(sketch.count());
  writer.WriteUint64(static_cast<uint64_t>(
      std::count_if(cells.begin(), cells.end(),
                    [](uint64_t weight) { return weight > 0; })));
  for (size_t cell = 0; cell < cells.size(); ++cell) {
    if (cells[cell] == 0) continue;
    writer.WriteUint64(cell);
    writer.WriteUint64(cells[cell]);
  }
}

TEST(QuantileSketchFormatTest, SaveMatchesFieldByFieldEncoding) {
  common::Rng rng(31);
  std::vector<QuantileSketch::Options> grids;
  for (int bits : {1, 2, 5, 6, 7, 12, 13}) {
    QuantileSketch::Options options;
    options.resolution_bits = bits;
    grids.push_back(options);
  }
  QuantileSketch::Options shifted;
  shifted.lo = -2.5;
  shifted.hi = 3.0;
  grids.push_back(shifted);
  for (const QuantileSketch::Options& options : grids) {
    std::vector<std::pair<std::string, QuantileSketch>> sketches =
        OracleSketches(options, rng);
    sketches.emplace_back("empty", QuantileSketch(options));
    QuantileSketch heavy(options);
    heavy.Add(options.lo, std::numeric_limits<uint64_t>::max() / 4);
    heavy.Add(options.hi, std::numeric_limits<uint64_t>::max() / 4);
    sketches.emplace_back("heavy", std::move(heavy));
    for (const auto& [name, sketch] : sketches) {
      SCOPED_TRACE(name + " bits=" + std::to_string(options.resolution_bits));
      std::ostringstream want;
      common::BinaryWriter writer(want);
      EncodeSketch(sketch, writer);
      ASSERT_TRUE(writer.status().ok());
      EXPECT_EQ(SketchBytes(sketch), want.str());
    }
  }

  for (size_t columns : {1u, 2u, 5u}) {
    QuantileSketchBank bank;
    ASSERT_TRUE(bank.Observe(RandomProbabilities(300, columns, rng)).ok());
    std::ostringstream want;
    common::BinaryWriter writer(want);
    writer.WriteMagic("BBVQB", 1);
    writer.WriteInt32(bank.options().resolution_bits);
    writer.WriteDouble(bank.options().lo);
    writer.WriteDouble(bank.options().hi);
    writer.WriteUint64(bank.rows_observed());
    writer.WriteUint64(bank.num_columns());
    for (size_t k = 0; k < bank.num_columns(); ++k) {
      EncodeSketch(bank.sketch(k), writer);
    }
    ASSERT_TRUE(writer.status().ok());
    EXPECT_EQ(BankBytes(bank), want.str()) << columns << " columns";
  }
}

}  // namespace
}  // namespace bbv::stats
