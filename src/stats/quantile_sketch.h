#ifndef BBV_STATS_QUANTILE_SKETCH_H_
#define BBV_STATS_QUANTILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace bbv::stats {

/// Deterministic, mergeable quantile summary for streams over a bounded
/// value domain (class probabilities live in [0, 1]).
///
/// Classic rank-error sketches (GK, KLL, q-digest) compact their state based
/// on the order in which values arrive, so splitting one stream into
/// different mini-batch sequences — or merging shard summaries in a
/// different order — can change which tuples survive compaction and hence
/// the answers, even when every answer stays within the error bound. That is
/// fatal for this repository's determinism gate, which requires *byte
/// identical* outputs across any batch split and any BBV_THREADS setting.
///
/// This sketch therefore canonicalizes the GK idea for a bounded domain: it
/// snaps every value to the nearest point of a fixed dyadic grid over
/// [lo, hi] (2^resolution_bits + 1 points) and counts multiplicities per
/// grid cell. The state is a pure function of the input *multiset* — no RNG,
/// no arrival-order dependence — so Add/Merge commute and associate exactly,
/// and serialization is canonical. Memory is O(2^resolution_bits),
/// independent of stream length.
///
/// Error contract: quantization moves each value by at most CellWidth()/2
/// and is monotone, so every order statistic — and every linearly
/// interpolated percentile — of the sketched stream is within
/// ValueErrorBound() = CellWidth()/2 of the exact value computed by
/// SortedView on the full stream. Within the quantized multiset, quantile
/// queries are rank-exact (zero rank error), so two sketches over the same
/// grid also support exact Kolmogorov-Smirnov distances between their
/// quantized distributions (see KsStatistic).
///
/// Query cost: alongside the cells the sketch keeps one sum per
/// block of kBlockCells consecutive cells. A quantile query steps through
/// the block sums and scans cells only inside the blocks that hold a
/// requested rank, so a 29-point query on the default 4097-cell grid reads
/// ~65 block sums plus a few blocks instead of every cell. Add stays O(1).
/// Counts are integers, so the cell chosen for each rank — and hence every
/// answer — is exactly that of a full cumulative scan.
class QuantileSketch {
 public:
  struct Options {
    /// Grid resolution: 2^resolution_bits cells spanning [lo, hi]. The
    /// default 12 bits keeps a dense sketch at 32 KiB while resolving
    /// probabilities to ~1.2e-4 — far below the noise floor of the
    /// percentile features fed to the performance predictor. Must lie in
    /// [1, 24].
    int resolution_bits = 12;
    /// Inclusive value domain; values outside are clamped on Add. Must
    /// satisfy lo < hi and both finite.
    double lo = 0.0;
    double hi = 1.0;
  };

  QuantileSketch() : QuantileSketch(Options{}) {}
  explicit QuantileSketch(Options options);

  /// Records `weight` occurrences of `value` (clamped to [lo, hi];
  /// non-finite values are rejected with a BBV_CHECK —
  /// QuantileSketchBank::Observe returns a Status for them instead).
  void Add(double value, uint64_t weight = 1);

  /// Adds the other sketch's multiset into this one. The grids must match
  /// exactly (same resolution and domain); merge is commutative and
  /// associative by construction.
  common::Status Merge(const QuantileSketch& other);

  /// q-th percentile (q in [0, 100]) of the sketched multiset with linear
  /// interpolation between order statistics — the same convention as
  /// stats::SortedView / numpy.percentile. Requires a non-empty sketch.
  double Quantile(double q) const;

  /// Percentiles at several points; one forward pass over the block sums.
  /// `qs` must be sorted ascending.
  std::vector<double> Quantiles(const std::vector<double>& qs) const;

  /// Fraction of sketched mass with (quantized) value <= x. Requires a
  /// non-empty sketch. Together with a shared grid this is the KS-ready
  /// CDF summary: see KsStatistic.
  double Cdf(double x) const;

  /// Total weight added so far.
  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Number of grid cells with non-zero weight (the sparse serialized size).
  size_t num_nonzero_cells() const;

  /// Read-only view of the per-grid-point multiplicities (size
  /// 2^resolution_bits + 1). Exposed for CDF-level consumers (KsStatistic)
  /// and canonicality tests.
  std::span<const uint64_t> cell_counts() const {
    return {counts_.data(), num_cells_};
  }

  /// Resident size of the sketch state in bytes (cells plus block sums).
  size_t MemoryBytes() const;

  /// Width of one grid cell: (hi - lo) / 2^resolution_bits.
  double CellWidth() const;

  /// Maximum distance between any percentile of this sketch and the exact
  /// percentile of the unquantized stream: CellWidth() / 2.
  double ValueErrorBound() const { return CellWidth() / 2.0; }

  const Options& options() const { return options_; }

  /// Canonical serialization: equal multisets produce identical bytes
  /// regardless of Add/Merge order. Sparse (index, weight) pairs in strictly
  /// ascending cell order; the block sums are derived state and never
  /// written. Load rejects any other cell order.
  common::Status Save(std::ostream& out) const;
  static common::Result<QuantileSketch> Load(std::istream& in);

 private:
  friend class QuantileSketchBank;

  /// Cells summarized by one block sum.
  static constexpr size_t kBlockCells = 64;

  /// Add without the finiteness check, for callers that have already
  /// scanned their input (QuantileSketchBank::Observe).
  void AddUnchecked(double value, uint64_t weight);
  /// Exact inverse of AddUnchecked(value, 1) for a finite value: decrements
  /// its cell, the cell's block sum and count(). Returns false, changing
  /// nothing, when the cell is empty.
  bool RemoveUnchecked(double value);
  /// Grid index of the nearest grid point for a clamped value.
  size_t CellIndex(double value) const;
  /// Value of grid point `index`.
  double CellValue(size_t index) const;
  /// Sum of the block holding `cell`.
  uint64_t BlockSum(size_t cell) const {
    return counts_[num_cells_ + cell / kBlockCells];
  }
  /// Cell holding 0-based rank `rank` (< count()) of the expanded multiset.
  /// `cell` and `below` (the mass in cells before `cell`) form a forward
  /// cursor: start them at 0 and pass non-decreasing ranks.
  size_t SelectCell(uint64_t rank, size_t& cell, uint64_t& below) const;

  Options options_;
  /// Number of grid points, 2^resolution_bits + 1.
  size_t num_cells_ = 0;
  /// One allocation: the multiplicity of each grid point, followed by one
  /// sum per block of kBlockCells cells. Keeping both in one vector keeps
  /// the heap from fragmenting when sketches are freed and reallocated.
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

/// Kolmogorov-Smirnov distance max_x |F_a(x) - F_b(x)| between the quantized
/// distributions of two non-empty sketches on identical grids. Exact for the
/// quantized data; within one cell width of the KS distance of the
/// underlying streams.
common::Result<double> KsStatistic(const QuantileSketch& a,
                                   const QuantileSketch& b);

/// A column-indexed bank of sketches over a probability matrix: sketch k
/// summarizes output column k (class k's predicted probability). This is the
/// streaming counterpart of core::PredictionStatistics — the serving layer
/// feeds mini-batches through Observe and reads the concatenated per-class
/// percentile features on demand, in O(num_columns * 2^resolution_bits)
/// memory instead of O(rows).
class QuantileSketchBank {
 public:
  /// An empty bank with zero columns; the first Observe fixes the width.
  QuantileSketchBank() = default;
  QuantileSketchBank(size_t num_columns, QuantileSketch::Options options);

  /// Adds every entry of `values` to the sketch of its column in one
  /// row-major pass. Rejects an empty batch, a column-count mismatch with
  /// the bank's width (the first observed batch fixes the width of a
  /// default-constructed bank) and any NaN/Inf entry; a rejected batch
  /// changes nothing.
  common::Status Observe(const linalg::Matrix& values);

  /// Exact inverse of Observe: removes every entry of a batch this bank
  /// observed. Cells are integer counts, so Observe(A), Observe(B),
  /// Retract(A) leaves the very state Observe(B) alone builds — a running
  /// sum over a sliding window of batches equals the merge of the batches
  /// still in it, bit for bit. Rejects an empty batch, a column-count
  /// mismatch, NaN/Inf and any entry whose cell is already empty (a batch
  /// that was never observed); a rejected batch changes nothing. Retracting
  /// every observed row leaves the columns with empty sketches.
  common::Status Retract(const linalg::Matrix& values);

  /// Merges another bank of the same shape and grid into this one.
  common::Status Merge(const QuantileSketchBank& other);

  /// Concatenated per-column percentiles — the sketch-path equivalent of
  /// core::PredictionStatistics. `percentile_points` must be sorted
  /// ascending; requires at least one observed row.
  std::vector<double> PercentileFeatures(
      const std::vector<double>& percentile_points) const;

  size_t num_columns() const { return sketches_.size(); }
  const QuantileSketch& sketch(size_t column) const;
  /// Grid the member sketches live on (also meaningful for a zero-column
  /// bank, where it is the grid future columns will adopt).
  const QuantileSketch::Options& options() const { return options_; }
  /// Rows observed (each row contributes one value per column).
  uint64_t rows_observed() const { return rows_observed_; }
  size_t MemoryBytes() const;
  /// ValueErrorBound of the member sketches; 0 for an empty bank.
  double ValueErrorBound() const;

  /// Canonical bytes (see QuantileSketch::Save).
  common::Status Save(std::ostream& out) const;
  static common::Result<QuantileSketchBank> Load(std::istream& in);

 private:
  QuantileSketch::Options options_;
  std::vector<QuantileSketch> sketches_;
  uint64_t rows_observed_ = 0;
};

}  // namespace bbv::stats

#endif  // BBV_STATS_QUANTILE_SKETCH_H_
