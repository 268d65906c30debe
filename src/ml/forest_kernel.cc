#include "ml/forest_kernel.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"

namespace bbv::ml {

namespace {

/// Rows per traversal tile: small enough that a tile of rows plus the hot
/// top of every tree stays cache-resident, large enough to amortize the
/// per-tree loop overhead.
constexpr size_t kRowTile = 64;

/// Tiles per thread below which the parallel section shrinks; 8 tiles
/// matches the ~512 rows/thread threshold the legacy per-row path used.
constexpr size_t kMinTilesPerThread = 8;

}  // namespace

ForestKernel ForestKernel::Compile(std::span<const RegressionTree> trees) {
  const common::telemetry::TraceSpan span("forest_kernel.compile");
  common::telemetry::IncrementCounter("forest_kernel.compile.calls");
  common::telemetry::IncrementCounter("forest_kernel.compile.trees",
                                      trees.size());
  ForestKernel kernel;
  size_t internal_total = 0;
  size_t leaf_total = 0;
  for (const RegressionTree& tree : trees) {
    BBV_CHECK(tree.NumNodes() > 0) << "ForestKernel::Compile on unfitted tree";
    for (const RegressionTree::Node& node : tree.nodes()) {
      if (node.feature >= 0) {
        ++internal_total;
      } else {
        ++leaf_total;
      }
    }
  }
  // Global ids (and their complements) must fit in int32.
  const auto id_limit =
      static_cast<size_t>(std::numeric_limits<int32_t>::max());
  BBV_CHECK(internal_total < id_limit && leaf_total < id_limit)
      << "ensemble too large for 32-bit node ids";
  kernel.feature_.reserve(internal_total);
  kernel.threshold_.reserve(internal_total);
  kernel.left_.reserve(internal_total);
  kernel.right_.reserve(internal_total);
  kernel.leaf_value_.reserve(leaf_total);
  kernel.roots_.reserve(trees.size());

  std::vector<int32_t> remap;
  for (const RegressionTree& tree : trees) {
    const std::vector<RegressionTree::Node>& nodes = tree.nodes();
    remap.assign(nodes.size(), 0);
    auto next_internal = static_cast<int32_t>(kernel.feature_.size());
    auto next_leaf = static_cast<int32_t>(kernel.leaf_value_.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].feature >= 0) {
        remap[i] = next_internal;
        ++next_internal;
      } else {
        remap[i] = ~next_leaf;
        ++next_leaf;
      }
    }
    for (const RegressionTree::Node& node : nodes) {
      if (node.feature >= 0) {
        kernel.feature_.push_back(node.feature);
        kernel.threshold_.push_back(node.threshold);
        kernel.left_.push_back(remap[static_cast<size_t>(node.left)]);
        kernel.right_.push_back(remap[static_cast<size_t>(node.right)]);
        kernel.max_feature_ = std::max(kernel.max_feature_, node.feature);
      } else {
        kernel.leaf_value_.push_back(node.value);
      }
    }
    kernel.roots_.push_back(remap[0]);
  }
  // feature/left/right (int32) + threshold (double) per internal node,
  // value (double) per leaf.
  const size_t footprint_bytes =
      kernel.feature_.size() * (3 * sizeof(int32_t) + sizeof(double)) +
      kernel.leaf_value_.size() * sizeof(double);
  kernel.compact_ = footprint_bytes <= 32 * 1024;
  return kernel;
}

void ForestKernel::RunTile(const linalg::Matrix& features, size_t begin,
                                size_t end, double scale, size_t stride,
                                std::span<double> out) const {
  const size_t num_trees_total = roots_.size();
  if (compact_) {
    // The flattened ensemble is L1-resident, so there is nothing to
    // amortize by reusing a tree across rows; walk rows outer and
    // keep each row's accumulator slots hot instead.
    for (size_t r = begin; r < end; ++r) {
      const double* row = features.RowData(r);
      double* row_out = out.data() + r * stride;
      size_t column = 0;
      for (size_t t = 0; t < num_trees_total; ++t) {
        row_out[column] += scale * TraverseRow(t, row);
        if (++column == stride) column = 0;
      }
    }
  } else {
    for (size_t t = 0; t < num_trees_total; ++t) {
      const size_t column = t % stride;
      for (size_t r = begin; r < end; ++r) {
        out[r * stride + column] +=
            scale * TraverseRow(t, features.RowData(r));
      }
    }
  }
}

void ForestKernel::Run(const linalg::Matrix& features, double scale,
                       size_t stride, bool mean, std::span<double> out) const {
  BBV_CHECK(!empty()) << "ForestKernel inference before Compile";
  BBV_CHECK(stride > 0) << "stride must be positive";
  BBV_CHECK_EQ(out.size(), features.rows() * stride);
  BBV_CHECK(max_feature_ < 0 ||
            static_cast<size_t>(max_feature_) < features.cols())
      << "ensemble reads feature " << max_feature_ << " but the batch has "
      << features.cols() << " columns";
  const size_t rows = features.rows();
  if (rows == 0) return;
  const common::telemetry::TraceSpan span("forest_kernel.predict");
  common::telemetry::IncrementCounter("forest_kernel.predict.calls");
  common::telemetry::IncrementCounter("forest_kernel.predict.rows", rows);
  const size_t num_trees_total = roots_.size();
  const size_t num_tiles = (rows + kRowTile - 1) / kRowTile;
  // Each tile owns out[begin * stride, end * stride) exclusively and
  // accumulates per row in ensemble order, so the floating-point addition
  // sequence per output slot — and hence every bit of the result — is
  // independent of the tile-to-thread schedule.
  const common::Status status = common::ParallelFor(
      num_tiles,
      [&](size_t tile) {
        const size_t begin = tile * kRowTile;
        const size_t end = std::min(begin + kRowTile, rows);
        RunTile(features, begin, end, scale, stride, out);
        if (mean) {
          // Same division the legacy node walk applied per row
          // (sum / num_trees), done while the tile is still cache-hot.
          for (size_t r = begin; r < end; ++r) {
            out[r] /= static_cast<double>(num_trees_total);
          }
        }
        return common::Status::OK();
      },
      {.min_items_per_thread = kMinTilesPerThread});
  BBV_CHECK(status.ok()) << status.ToString();
}

void ForestKernel::AccumulateInto(const linalg::Matrix& features, double scale,
                                  size_t stride,
                                  std::span<double> out) const {
  Run(features, scale, stride, /*mean=*/false, out);
}

void ForestKernel::PredictMeanInto(const linalg::Matrix& features,
                                   std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  Run(features, /*scale=*/1.0, /*stride=*/1, /*mean=*/true, out);
}

double ForestKernel::PredictRowMean(const double* row) const {
  BBV_CHECK(!empty()) << "ForestKernel inference before Compile";
  double sum = 0.0;
  for (size_t t = 0; t < roots_.size(); ++t) {
    sum += TraverseRow(t, row);
  }
  return sum / static_cast<double>(roots_.size());
}

void ForestKernel::PredictRowValuesInto(const double* row,
                                        std::span<double> out) const {
  BBV_CHECK(!empty()) << "ForestKernel inference before Compile";
  BBV_CHECK_EQ(out.size(), roots_.size())
      << "per-tree output span must hold one slot per tree";
  for (size_t t = 0; t < roots_.size(); ++t) {
    out[t] = TraverseRow(t, row);
  }
}

}  // namespace bbv::ml
