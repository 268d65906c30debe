#include "stats/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"
#include "common/telemetry.h"

namespace bbv::stats {

namespace {

constexpr char kSketchMagic[] = "BBVQS";
constexpr uint32_t kSketchVersion = 1;
constexpr char kBankMagic[] = "BBVQB";
constexpr uint32_t kBankVersion = 1;
constexpr int kMaxResolutionBits = 24;
/// Saved sketch header: magic, version, resolution, lo, hi, count and the
/// number of (cell, weight) pairs that follow.
constexpr size_t kSaveHeaderBytes = sizeof(kSketchMagic) - 1 +
                                    sizeof(uint32_t) + sizeof(int32_t) +
                                    2 * sizeof(double) + 2 * sizeof(uint64_t);
/// One saved (cell, weight) pair.
constexpr size_t kPairBytes = 2 * sizeof(uint64_t);
/// Pairs per read while loading.
constexpr uint64_t kLoadChunkPairs = 64;

bool GridsMatch(const QuantileSketch::Options& a,
                const QuantileSketch::Options& b) {
  // Exact comparison is intended: merging is only sound when both sketches
  // quantize to the very same grid points.
  return a.resolution_bits == b.resolution_bits && a.lo == b.lo && a.hi == b.hi;
}

}  // namespace

QuantileSketch::QuantileSketch(Options options) : options_(options) {
  BBV_CHECK(options_.resolution_bits >= 1 &&
            options_.resolution_bits <= kMaxResolutionBits)
      << "resolution_bits must lie in [1, " << kMaxResolutionBits << "], got "
      << options_.resolution_bits;
  BBV_CHECK(std::isfinite(options_.lo) && std::isfinite(options_.hi) &&
            options_.lo < options_.hi)
      << "sketch domain must be a finite non-empty interval";
  num_cells_ = (size_t{1} << options_.resolution_bits) + 1;
  const size_t num_blocks = (num_cells_ + kBlockCells - 1) / kBlockCells;
  counts_.assign(num_cells_ + num_blocks, 0);
}

size_t QuantileSketch::CellIndex(double value) const {
  const double clamped = std::clamp(value, options_.lo, options_.hi);
  const double unit =
      (clamped - options_.lo) / (options_.hi - options_.lo);
  const double scaled =
      unit * static_cast<double>(size_t{1} << options_.resolution_bits);
  // Round half away from zero, as std::llround does: `scaled` lies in
  // [0, 2^24], where truncation and the fractional part are exact.
  size_t index = static_cast<size_t>(scaled);
  if (scaled - static_cast<double>(index) >= 0.5) ++index;
  return std::min(index, num_cells_ - 1);
}

double QuantileSketch::CellValue(size_t index) const {
  const double unit =
      static_cast<double>(index) /
      static_cast<double>(size_t{1} << options_.resolution_bits);
  return options_.lo + unit * (options_.hi - options_.lo);
}

void QuantileSketch::Add(double value, uint64_t weight) {
  BBV_CHECK(std::isfinite(value)) << "QuantileSketch::Add of NaN/Inf";
  BBV_CHECK(weight <= std::numeric_limits<uint64_t>::max() - count_)
      << "QuantileSketch::Add would overflow the uint64 count";
  AddUnchecked(value, weight);
}

void QuantileSketch::AddUnchecked(double value, uint64_t weight) {
  const size_t cell = CellIndex(value);
  counts_[cell] += weight;
  counts_[num_cells_ + cell / kBlockCells] += weight;
  count_ += weight;
}

bool QuantileSketch::RemoveUnchecked(double value) {
  const size_t cell = CellIndex(value);
  if (counts_[cell] == 0) return false;
  --counts_[cell];
  --counts_[num_cells_ + cell / kBlockCells];
  --count_;
  return true;
}

common::Status QuantileSketch::Merge(const QuantileSketch& other) {
  if (!GridsMatch(options_, other.options_)) {
    return common::Status::InvalidArgument(
        "QuantileSketch::Merge requires identical grids (resolution and "
        "domain)");
  }
  // No cell or block sum exceeds count(), so a count that fits keeps every
  // sum exact.
  if (other.count_ > std::numeric_limits<uint64_t>::max() - count_) {
    return common::Status::InvalidArgument(
        "QuantileSketch::Merge would overflow the uint64 count");
  }
  // Same grid, same layout: cells and block sums add element-wise.
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  return common::Status::OK();
}

double QuantileSketch::Quantile(double q) const {
  return Quantiles({q}).front();
}

size_t QuantileSketch::SelectCell(uint64_t rank, size_t& cell,
                                  uint64_t& below) const {
  BBV_DCHECK(rank < count_);
  while (true) {
    // At a block boundary `below` is the mass before the block: skip every
    // block that ends at or before `rank`.
    if (cell % kBlockCells == 0) {
      while (below + BlockSum(cell) <= rank) {
        below += BlockSum(cell);
        cell += kBlockCells;
      }
    }
    BBV_DCHECK(cell < num_cells_);
    if (rank < below + counts_[cell]) return cell;
    below += counts_[cell];
    ++cell;
  }
}

std::vector<double> QuantileSketch::Quantiles(
    const std::vector<double>& qs) const {
  BBV_CHECK(count_ > 0) << "Quantile of an empty sketch";
  BBV_CHECK(std::is_sorted(qs.begin(), qs.end()))
      << "percentile points must be ascending";
  // Interpolation positions over the expanded multiset, mirroring
  // stats::SortedView::Percentile: position p = q/100 * (n-1), interpolate
  // between the order statistics at floor(p) and ceil(p). Rank r lives in
  // the first cell whose inclusive cumulative weight exceeds r. Lower ranks
  // ascend with q, so one cursor serves them all; each upper rank continues
  // from a copy of it.
  std::vector<double> out(qs.size());
  size_t cell = 0;
  uint64_t below = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    const double q = qs[i];
    BBV_CHECK(q >= 0.0 && q <= 100.0) << "percentile out of [0, 100]: " << q;
    const double position = (q / 100.0) * static_cast<double>(count_ - 1);
    const auto lower_rank = static_cast<uint64_t>(std::floor(position));
    const auto upper_rank = static_cast<uint64_t>(std::ceil(position));
    const double weight = position - static_cast<double>(lower_rank);
    const double lower_value = CellValue(SelectCell(lower_rank, cell, below));
    if (lower_rank == upper_rank) {
      out[i] = lower_value;
      continue;
    }
    size_t upper_cell = cell;
    uint64_t upper_below = below;
    const double upper_value =
        CellValue(SelectCell(upper_rank, upper_cell, upper_below));
    out[i] = lower_value * (1.0 - weight) + upper_value * weight;
  }
  return out;
}

double QuantileSketch::Cdf(double x) const {
  BBV_CHECK(count_ > 0) << "Cdf of an empty sketch";
  if (x < options_.lo) return 0.0;
  // Mass at grid point `cell` has quantized value CellValue(cell) <= the
  // quantized x, so it counts as <= x in the quantized distribution: sum
  // the whole blocks before x's cell, then the cells of its block up to it.
  const size_t limit = CellIndex(x);
  const size_t first_in_block = limit - limit % kBlockCells;
  uint64_t below = 0;
  for (size_t block = 0; block < first_in_block / kBlockCells; ++block) {
    below += counts_[num_cells_ + block];
  }
  for (size_t cell = first_in_block; cell <= limit; ++cell) {
    below += counts_[cell];
  }
  return static_cast<double>(below) / static_cast<double>(count_);
}

size_t QuantileSketch::num_nonzero_cells() const {
  const std::span<const uint64_t> cells = cell_counts();
  return static_cast<size_t>(std::count_if(
      cells.begin(), cells.end(), [](uint64_t weight) { return weight > 0; }));
}

size_t QuantileSketch::MemoryBytes() const {
  return sizeof(QuantileSketch) + counts_.capacity() * sizeof(uint64_t);
}

double QuantileSketch::CellWidth() const {
  return (options_.hi - options_.lo) /
         static_cast<double>(size_t{1} << options_.resolution_bits);
}

common::Status QuantileSketch::Save(std::ostream& out) const {
  // One pass over the occupied blocks encodes the header and every
  // (cell, weight) pair into one buffer, and one write hands it over. The
  // nonzero count is known only after the pass, so it is back-patched.
  // Every nonzero cell holds at least one of count() values, and Add and
  // Merge refuse to overflow count(), so min(count(), cells) pairs fit.
  const size_t max_pairs =
      static_cast<size_t>(std::min<uint64_t>(count_, num_cells_));
  const auto buffer = std::make_unique_for_overwrite<char[]>(
      kSaveHeaderBytes + kPairBytes * max_pairs);
  char* cursor = buffer.get();
  const auto put = [&cursor](const auto value) {
    std::memcpy(cursor, &value, sizeof(value));
    cursor += sizeof(value);
  };
  std::memcpy(cursor, kSketchMagic, sizeof(kSketchMagic) - 1);
  cursor += sizeof(kSketchMagic) - 1;
  put(kSketchVersion);
  put(int32_t{options_.resolution_bits});
  put(options_.lo);
  put(options_.hi);
  put(count_);
  char* const nonzero_slot = cursor;
  put(uint64_t{0});
  uint64_t nonzero = 0;
  for (size_t first = 0; first < num_cells_; first += kBlockCells) {
    if (BlockSum(first) == 0) continue;
    const size_t end = std::min(first + kBlockCells, num_cells_);
    for (size_t cell = first; cell < end; ++cell) {
      if (counts_[cell] == 0) continue;
      put(uint64_t{cell});
      put(counts_[cell]);
      ++nonzero;
    }
  }
  BBV_DCHECK(nonzero <= max_pairs);
  std::memcpy(nonzero_slot, &nonzero, sizeof(nonzero));
  out.write(buffer.get(), cursor - buffer.get());
  if (!out) return common::Status::IoError("serialization stream failed");
  return common::Status::OK();
}

common::Result<QuantileSketch> QuantileSketch::Load(std::istream& in) {
  common::BinaryReader reader(in);
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kSketchMagic, kSketchVersion));
  BBV_ASSIGN_OR_RETURN(int32_t resolution_bits, reader.ReadInt32());
  if (resolution_bits < 1 || resolution_bits > kMaxResolutionBits) {
    return common::Status::InvalidArgument("corrupt sketch resolution");
  }
  Options options;
  options.resolution_bits = resolution_bits;
  BBV_ASSIGN_OR_RETURN(options.lo, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(options.hi, reader.ReadDouble());
  if (!std::isfinite(options.lo) || !std::isfinite(options.hi) ||
      !(options.lo < options.hi)) {
    return common::Status::InvalidArgument("corrupt sketch domain");
  }
  QuantileSketch sketch(options);
  BBV_ASSIGN_OR_RETURN(uint64_t total, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(uint64_t nonzero, reader.ReadUint64());
  if (nonzero > sketch.num_cells_) {
    return common::Status::InvalidArgument("corrupt sketch cell count");
  }
  // Canonical streams list cells in strictly ascending order. A repeated or
  // out-of-order cell would make the cells disagree with `total` (and with
  // the block sums), so Quantiles would read past the mass. Pairs arrive in
  // chunks through one fixed buffer, so a corrupt count allocates nothing
  // and fails where the stream ends. The whole pairs of a short chunk are
  // checked before the truncation is reported, so a stream cut after a bad
  // pair still reports that pair.
  uint64_t chunk[2 * kLoadChunkPairs] = {};
  uint64_t sum = 0;
  uint64_t previous_cell = 0;
  for (uint64_t done = 0; done < nonzero;) {
    const uint64_t want = std::min<uint64_t>(nonzero - done, kLoadChunkPairs);
    in.read(reinterpret_cast<char*>(chunk),
            static_cast<std::streamsize>(want * kPairBytes));
    const uint64_t got = static_cast<uint64_t>(in.gcount()) / kPairBytes;
    for (uint64_t j = 0; j < got; ++j, ++done) {
      const uint64_t cell = chunk[2 * j];
      const uint64_t weight = chunk[2 * j + 1];
      if (cell >= sketch.num_cells_ || weight == 0) {
        return common::Status::InvalidArgument("corrupt sketch cell entry");
      }
      if (done > 0 && cell <= previous_cell) {
        return common::Status::InvalidArgument(
            "sketch cells are not in strictly ascending order");
      }
      if (weight > std::numeric_limits<uint64_t>::max() - sum) {
        return common::Status::InvalidArgument(
            "sketch cell weights overflow the total");
      }
      previous_cell = cell;
      sketch.counts_[cell] = weight;
      sketch.counts_[sketch.num_cells_ + cell / kBlockCells] += weight;
      sum += weight;
    }
    if (got < want) return common::Status::IoError("truncated stream");
  }
  if (sum != total) {
    return common::Status::InvalidArgument(
        "sketch cell weights disagree with the stored total");
  }
  sketch.count_ = total;
  return sketch;
}

common::Result<double> KsStatistic(const QuantileSketch& a,
                                   const QuantileSketch& b) {
  if (!GridsMatch(a.options(), b.options())) {
    return common::Status::InvalidArgument(
        "KsStatistic requires sketches on identical grids");
  }
  if (a.empty() || b.empty()) {
    return common::Status::InvalidArgument(
        "KsStatistic requires non-empty sketches");
  }
  // Both CDFs are step functions jumping only at grid points, so the
  // supremum of |F_a - F_b| is attained at a grid point; one joint
  // cumulative pass over the shared grid.
  double statistic = 0.0;
  uint64_t below_a = 0;
  uint64_t below_b = 0;
  const double total_a = static_cast<double>(a.count());
  const double total_b = static_cast<double>(b.count());
  for (size_t cell = 0; cell < a.cell_counts().size(); ++cell) {
    below_a += a.cell_counts()[cell];
    below_b += b.cell_counts()[cell];
    const double gap = std::abs(static_cast<double>(below_a) / total_a -
                                static_cast<double>(below_b) / total_b);
    statistic = std::max(statistic, gap);
  }
  return statistic;
}

QuantileSketchBank::QuantileSketchBank(size_t num_columns,
                                       QuantileSketch::Options options)
    : options_(options) {
  sketches_.reserve(num_columns);
  for (size_t k = 0; k < num_columns; ++k) {
    sketches_.emplace_back(options_);
  }
}

common::Status QuantileSketchBank::Observe(const linalg::Matrix& values) {
  const common::telemetry::TraceSpan span("sketch_bank.observe");
  if (values.rows() == 0) {
    return common::Status::InvalidArgument(
        "QuantileSketchBank::Observe on an empty batch");
  }
  if (!sketches_.empty() && values.cols() != sketches_.size()) {
    return common::Status::InvalidArgument(
        "batch has " + std::to_string(values.cols()) +
        " columns but the bank tracks " + std::to_string(sketches_.size()));
  }
  // The one finiteness scan of the batch, before any state changes.
  for (size_t i = 0; i < values.rows(); ++i) {
    const double* row = values.RowData(i);
    for (size_t k = 0; k < values.cols(); ++k) {
      if (!std::isfinite(row[k])) {
        return common::Status::InvalidArgument(
            "non-finite probability at row " + std::to_string(i));
      }
    }
  }
  if (sketches_.empty()) {
    // First batch fixes the width of a default-constructed bank.
    sketches_.reserve(values.cols());
    for (size_t k = 0; k < values.cols(); ++k) {
      sketches_.emplace_back(options_);
    }
  }
  for (size_t i = 0; i < values.rows(); ++i) {
    const double* row = values.RowData(i);
    for (size_t k = 0; k < values.cols(); ++k) {
      sketches_[k].AddUnchecked(row[k], 1);
    }
  }
  rows_observed_ += values.rows();
  common::telemetry::IncrementCounter("sketch_bank.rows", values.rows());
  return common::Status::OK();
}

common::Status QuantileSketchBank::Retract(const linalg::Matrix& values) {
  if (values.rows() == 0) {
    return common::Status::InvalidArgument(
        "QuantileSketchBank::Retract on an empty batch");
  }
  if (values.cols() != sketches_.size()) {
    return common::Status::InvalidArgument(
        "retracted batch has " + std::to_string(values.cols()) +
        " columns but the bank tracks " + std::to_string(sketches_.size()));
  }
  if (values.rows() > rows_observed_) {
    return common::Status::InvalidArgument(
        "retracted batch has more rows than the bank observed");
  }
  // One row-major pass that checks as it removes; on the first entry that
  // cannot be removed, put back every entry removed before it.
  const size_t cols = values.cols();
  for (size_t i = 0; i < values.rows(); ++i) {
    const double* row = values.RowData(i);
    for (size_t k = 0; k < cols; ++k) {
      if (std::isfinite(row[k]) && sketches_[k].RemoveUnchecked(row[k])) {
        continue;
      }
      const std::vector<double>& entries = values.data();
      for (size_t e = 0; e < i * cols + k; ++e) {
        sketches_[e % cols].AddUnchecked(entries[e], 1);
      }
      return common::Status::InvalidArgument(
          std::isfinite(row[k])
              ? "retracted batch was never observed by this bank"
              : "non-finite value in a retracted batch");
    }
  }
  rows_observed_ -= values.rows();
  return common::Status::OK();
}

common::Status QuantileSketchBank::Merge(const QuantileSketchBank& other) {
  if (other.sketches_.empty()) return common::Status::OK();
  if (sketches_.empty()) {
    *this = other;
    return common::Status::OK();
  }
  if (sketches_.size() != other.sketches_.size()) {
    return common::Status::InvalidArgument(
        "QuantileSketchBank::Merge across different column counts");
  }
  for (size_t k = 0; k < sketches_.size(); ++k) {
    BBV_RETURN_NOT_OK(sketches_[k].Merge(other.sketches_[k]));
  }
  rows_observed_ += other.rows_observed_;
  return common::Status::OK();
}

std::vector<double> QuantileSketchBank::PercentileFeatures(
    const std::vector<double>& percentile_points) const {
  BBV_CHECK(rows_observed_ > 0)
      << "PercentileFeatures before any observed rows";
  BBV_CHECK(!percentile_points.empty());
  std::vector<double> features;
  features.reserve(sketches_.size() * percentile_points.size());
  for (const QuantileSketch& sketch : sketches_) {
    const std::vector<double> column = sketch.Quantiles(percentile_points);
    features.insert(features.end(), column.begin(), column.end());
  }
  return features;
}

const QuantileSketch& QuantileSketchBank::sketch(size_t column) const {
  BBV_CHECK(column < sketches_.size());
  return sketches_[column];
}

size_t QuantileSketchBank::MemoryBytes() const {
  size_t bytes = sizeof(QuantileSketchBank);
  for (const QuantileSketch& sketch : sketches_) {
    bytes += sketch.MemoryBytes();
  }
  return bytes;
}

double QuantileSketchBank::ValueErrorBound() const {
  return sketches_.empty() ? 0.0 : sketches_.front().ValueErrorBound();
}

common::Status QuantileSketchBank::Save(std::ostream& out) const {
  common::BinaryWriter writer(out);
  writer.WriteMagic(kBankMagic, kBankVersion);
  writer.WriteInt32(options_.resolution_bits);
  writer.WriteDouble(options_.lo);
  writer.WriteDouble(options_.hi);
  writer.WriteUint64(rows_observed_);
  writer.WriteUint64(sketches_.size());
  BBV_RETURN_NOT_OK(writer.status());
  for (const QuantileSketch& sketch : sketches_) {
    BBV_RETURN_NOT_OK(sketch.Save(out));
  }
  return common::Status::OK();
}

common::Result<QuantileSketchBank> QuantileSketchBank::Load(std::istream& in) {
  common::BinaryReader reader(in);
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kBankMagic, kBankVersion));
  BBV_ASSIGN_OR_RETURN(int32_t resolution_bits, reader.ReadInt32());
  if (resolution_bits < 1 || resolution_bits > kMaxResolutionBits) {
    return common::Status::InvalidArgument("corrupt bank resolution");
  }
  QuantileSketch::Options options;
  options.resolution_bits = resolution_bits;
  BBV_ASSIGN_OR_RETURN(options.lo, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(options.hi, reader.ReadDouble());
  if (!std::isfinite(options.lo) || !std::isfinite(options.hi) ||
      !(options.lo < options.hi)) {
    return common::Status::InvalidArgument("corrupt bank domain");
  }
  BBV_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(uint64_t columns, reader.ReadUint64());
  if (columns > (uint64_t{1} << 20)) {
    return common::Status::InvalidArgument("corrupt bank column count");
  }
  if (columns == 0 && rows != 0) {
    return common::Status::InvalidArgument(
        "bank claims observed rows but has no columns");
  }
  // Sketches are appended as they load, so a corrupt column count cannot
  // allocate a grid per claimed column before the stream runs out.
  QuantileSketchBank bank(0, options);
  for (uint64_t k = 0; k < columns; ++k) {
    BBV_ASSIGN_OR_RETURN(QuantileSketch sketch, QuantileSketch::Load(in));
    if (!GridsMatch(sketch.options(), options)) {
      return common::Status::InvalidArgument(
          "bank sketch grid disagrees with the bank header");
    }
    // Every row contributes exactly one value per column, so a sketch whose
    // count disagrees with the header is corrupt state. Without this guard a
    // bank claiming rows > 0 over empty sketches would pass Load and then
    // crash PercentileFeatures (which BBV_CHECKs non-emptiness) — a process
    // abort reachable from untrusted bytes.
    if (sketch.count() != rows) {
      return common::Status::InvalidArgument(
          "bank sketch count disagrees with the stored row count");
    }
    bank.sketches_.push_back(std::move(sketch));
  }
  bank.rows_observed_ = rows;
  return bank;
}

}  // namespace bbv::stats
