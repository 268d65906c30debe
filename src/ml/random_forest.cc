#include "ml/random_forest.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "ml/feature_presort.h"

namespace bbv::ml {

common::Status RandomForestRegressor::Fit(const linalg::Matrix& features,
                                          const std::vector<double>& targets,
                                          common::Rng& rng) {
  const common::telemetry::TraceSpan span("forest.fit");
  if (features.rows() != targets.size()) {
    return common::Status::InvalidArgument(
        "features and targets disagree on the number of rows");
  }
  if (features.rows() == 0) {
    return common::Status::InvalidArgument("cannot fit on an empty matrix");
  }
  if (options_.num_trees <= 0) {
    return common::Status::InvalidArgument("num_trees must be positive");
  }
  const size_t n = features.rows();
  const size_t bootstrap_size = std::max<size_t>(
      1, static_cast<size_t>(options_.bootstrap_fraction *
                             static_cast<double>(n)));
  const size_t num_trees = static_cast<size_t>(options_.num_trees);
  common::telemetry::IncrementCounter("forest.fit.calls");
  common::telemetry::IncrementCounter("forest.trees_fitted", num_trees);
  // Each tree draws its bootstrap sample and split randomness from its own
  // pre-forked stream, so the serialized ensemble is bit-identical at every
  // thread count.
  std::vector<common::Rng> tree_rngs = rng.ForkStreams(num_trees);
  // One presort per Fit, shared read-only across the tree workers
  // (deterministic) and freed on return.
  const FeaturePresort presort = FeaturePresort::Build(features, targets);
  trees_.clear();
  BBV_ASSIGN_OR_RETURN(
      trees_,
      common::ParallelMap<RegressionTree>(
          num_trees, [&](size_t t) -> common::Result<RegressionTree> {
            common::Rng& tree_rng = tree_rngs[t];
            std::vector<size_t> rows(bootstrap_size);
            for (size_t i = 0; i < bootstrap_size; ++i) {
              rows[i] = tree_rng.UniformInt(n);
            }
            RegressionTree tree(options_.tree);
            BBV_RETURN_NOT_OK(
                tree.Fit(features, targets, rows, tree_rng, &presort));
            return tree;
          }));
  kernel_ = ForestKernel::Compile(trees_);
  return common::Status::OK();
}

double RandomForestRegressor::PredictRow(const double* row) const {
  BBV_CHECK(fitted()) << "Predict before Fit";
  return kernel_.PredictRowMean(row);
}

void RandomForestRegressor::PredictInto(const linalg::Matrix& features,
                                        std::span<double> out) const {
  BBV_CHECK(fitted()) << "Predict before Fit";
  kernel_.PredictMeanInto(features, out);
}

std::vector<double> RandomForestRegressor::Predict(
    const linalg::Matrix& features) const {
  BBV_CHECK(fitted()) << "Predict before Fit";
  std::vector<double> result(features.rows());
  PredictInto(features, result);
  return result;
}

}  // namespace bbv::ml

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace bbv::ml {

namespace {
constexpr char kForestMagic[] = "BBVRF";
constexpr uint32_t kForestVersion = 1;
}  // namespace

common::Status RandomForestRegressor::Save(common::BinaryWriter& writer) const {
  if (!fitted()) {
    return common::Status::FailedPrecondition("Save before Fit");
  }
  writer.WriteMagic(kForestMagic, kForestVersion);
  writer.WriteUint64(trees_.size());
  for (const RegressionTree& tree : trees_) {
    tree.Save(writer);
  }
  return writer.status();
}

common::Result<RandomForestRegressor> RandomForestRegressor::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kForestMagic, kForestVersion));
  BBV_ASSIGN_OR_RETURN(uint64_t count, reader.ReadUint64());
  if (count == 0 || count > 1'000'000) {
    return common::Status::InvalidArgument("implausible tree count");
  }
  RandomForestRegressor forest;
  forest.trees_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BBV_ASSIGN_OR_RETURN(RegressionTree tree, RegressionTree::Load(reader));
    forest.trees_.push_back(std::move(tree));
  }
  forest.kernel_ = ForestKernel::Compile(forest.trees_);
  return forest;
}

common::Status RandomForestRegressor::Save(std::ostream& out) const {
  common::BinaryWriter writer(out);
  return Save(writer);
}

common::Result<RandomForestRegressor> RandomForestRegressor::Load(
    std::istream& in) {
  common::BinaryReader reader(in);
  return Load(reader);
}

}  // namespace bbv::ml
