#include "ml/feature_presort.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace bbv::ml {

FeaturePresort FeaturePresort::Build(const linalg::Matrix& features,
                                     std::span<const double> targets) {
  BBV_CHECK_EQ(targets.size(), features.rows());
  BBV_CHECK_LE(features.rows(), size_t{std::numeric_limits<uint32_t>::max()});
  FeaturePresort presort;
  presort.num_rows_ = features.rows();
  presort.num_features_ = features.cols();
  presort.order_.resize(features.rows() * features.cols());
  for (size_t f = 0; f < features.cols(); ++f) {
    const std::span<uint32_t> order(
        presort.order_.data() + f * features.rows(), features.rows());
    std::iota(order.begin(), order.end(), uint32_t{0});
    SortRows(features, targets, f, order);
  }
  return presort;
}

void FeaturePresort::SortRows(const linalg::Matrix& features,
                              std::span<const double> targets, size_t feature,
                              std::span<uint32_t> rows) {
  // std::pair's operator< on (value, target), spelled out over row ids.
  std::sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
    const double value_a = features.At(a, feature);
    const double value_b = features.At(b, feature);
    if (value_a < value_b) return true;
    if (value_b < value_a) return false;
    return targets[a] < targets[b];
  });
}

}  // namespace bbv::ml
