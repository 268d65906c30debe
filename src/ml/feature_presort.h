#ifndef BBV_ML_FEATURE_PRESORT_H_
#define BBV_ML_FEATURE_PRESORT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace bbv::ml {

/// Presort for the exact split search: for every feature, the row ids of
/// the training matrix ordered by (value, target) — the order std::sort
/// gives the (value, target) pairs. A tree expands it once into per-feature
/// sorted lists of its own rows and keeps them sorted by partitioning, so
/// no node ever sorts (see decision_tree.cc and DESIGN.md §7.1). Row ids
/// are uint32: 4 bytes per matrix cell.
///
/// Built once per forest Fit and shared read-only across the tree workers.
/// The target tie-break makes the order, and with it
/// the summation order of the split scan, a function of the data alone:
/// rows that tie on both value and target contribute identically, so their
/// relative order cannot change a sum.
class FeaturePresort {
 public:
  /// Empty presort (no rows); Build replaces it wholesale.
  FeaturePresort() = default;

  /// Sorts the rows of every column of `features` by (value, target).
  /// `targets` holds one entry per row. Deterministic: depends only on the
  /// contents.
  static FeaturePresort Build(const linalg::Matrix& features,
                              std::span<const double> targets);

  /// Sorts `rows` (ids into `features` and `targets`) by ascending
  /// (features.At(row, feature), targets[row]). The one ordering both the
  /// presort and a tree without one use.
  static void SortRows(const linalg::Matrix& features,
                       std::span<const double> targets, size_t feature,
                       std::span<uint32_t> rows);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return num_features_; }

  /// num_rows() row ids of `feature` in ascending (value, target) order.
  const uint32_t* Order(size_t feature) const {
    return order_.data() + feature * num_rows_;
  }

 private:
  size_t num_rows_ = 0;
  size_t num_features_ = 0;
  /// Feature-major: order_[f * num_rows_ + rank].
  std::vector<uint32_t> order_;
};

}  // namespace bbv::ml

#endif  // BBV_ML_FEATURE_PRESORT_H_
