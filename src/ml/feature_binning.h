#ifndef BBV_ML_FEATURE_BINNING_H_
#define BBV_ML_FEATURE_BINNING_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace bbv::ml {

/// Histogram pre-binning for tree training (LightGBM-style): every feature
/// column is quantized once, up front, onto a quantile grid of at most 255
/// candidate cut values, and each cell stores the uint8 code of the first
/// cut value >= the cell's feature value. A split search can then
/// accumulate per-bin (count, target-sum) histograms in one linear pass
/// over the node's rows and scan at most 255 candidate thresholds, instead
/// of scanning every distinct value of the node's presorted rows (the exact
/// search, see FeaturePresort).
///
/// The binning is built once per ensemble Fit and shared read-only across
/// all trees (and across the ParallelMap tree workers): one O(n d log n)
/// pass per Fit.
///
/// Correctness contract: cut values are actual feature values from the
/// training column, and `code(v) <= b  <=>  v <= CutValue(f, b)` for every
/// value v of the column (codes are lower-bound indices into the sorted cut
/// array). A tree that picks bin b as its split therefore partitions rows
/// identically whether it compares codes or compares raw values against the
/// stored threshold — the fitted tree is a plain RegressionTree with
/// value-space thresholds, and inference needs no knowledge of the binning.
class FeatureBinning {
 public:
  /// Maximum number of candidate cut values per feature. 255 keeps every
  /// code (0..num_cuts, i.e. at most 255 when a value exceeds every cut)
  /// inside uint8.
  static constexpr size_t kMaxCuts = 255;

  /// Empty binning (no features); Build replaces it wholesale.
  FeatureBinning() = default;

  /// Builds the per-feature quantile grids and codes every cell of
  /// `features`. Deterministic: depends only on the matrix contents.
  static FeatureBinning Build(const linalg::Matrix& features);

  bool empty() const { return num_rows_ == 0; }
  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return cut_offsets_.empty() ? 0 : cut_offsets_.size() - 1; }

  /// Number of candidate cut values for `feature` (0 for constant columns).
  size_t NumCuts(size_t feature) const {
    return cut_offsets_[feature + 1] - cut_offsets_[feature];
  }

  /// The raw feature value backing cut index `cut` of `feature`; this is
  /// the threshold a binned split stores in the tree ("go left when
  /// x <= cut value").
  double CutValue(size_t feature, size_t cut) const {
    return cut_values_[cut_offsets_[feature] + cut];
  }

  /// Column-major code array for `feature`: num_rows() consecutive uint8
  /// codes, code[row] = index of the first cut >= the cell value (NumCuts
  /// when the value is above every cut).
  const uint8_t* Codes(size_t feature) const {
    return codes_.data() + feature * num_rows_;
  }

 private:
  size_t num_rows_ = 0;
  /// Cut values of all features, concatenated; feature f owns
  /// [cut_offsets_[f], cut_offsets_[f + 1]).
  std::vector<double> cut_values_;
  std::vector<size_t> cut_offsets_;
  /// Column-major codes, feature-major: codes_[f * num_rows_ + row].
  std::vector<uint8_t> codes_;
};

}  // namespace bbv::ml

#endif  // BBV_ML_FEATURE_BINNING_H_
