#include "ml/gradient_boosted_trees.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace bbv::ml {

common::Status GradientBoostedTrees::Fit(const linalg::Matrix& features,
                                         const std::vector<int>& labels,
                                         int num_classes, common::Rng& rng) {
  if (features.rows() != labels.size()) {
    return common::Status::InvalidArgument(
        "features and labels disagree on the number of rows");
  }
  if (features.rows() == 0) {
    return common::Status::InvalidArgument("cannot fit on an empty matrix");
  }
  if (num_classes < 2) {
    return common::Status::InvalidArgument("need at least two classes");
  }
  num_classes_ = num_classes;
  const size_t n = features.rows();
  const auto m = static_cast<size_t>(num_classes);

  // Base score: log class priors (clipped away from zero counts).
  std::vector<double> prior(m, 0.0);
  for (int label : labels) prior[static_cast<size_t>(label)] += 1.0;
  base_scores_.assign(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    base_scores_[k] =
        std::log(std::max(prior[k], 1.0) / static_cast<double>(n));
  }

  // Raw scores (n x m) maintained incrementally.
  linalg::Matrix scores(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < m; ++k) scores.At(i, k) = base_scores_[k];
  }

  trees_.clear();
  trees_.reserve(static_cast<size_t>(options_.num_rounds) * m);
  const size_t sample_size = std::max<size_t>(
      2, static_cast<size_t>(options_.subsample * static_cast<double>(n)));
  // The exact search orders value ties by target, and the targets (the
  // gradients) change every round, so each tree sorts its own rows instead
  // of sharing a FeaturePresort.
  std::vector<double> gradients(n, 0.0);
  std::vector<double> round_predictions(n, 0.0);
  for (int round = 0; round < options_.num_rounds; ++round) {
    const linalg::Matrix probabilities = linalg::Softmax(scores);
    const std::vector<size_t> sample =
        options_.subsample >= 1.0
            ? std::vector<size_t>()
            : rng.SampleWithoutReplacement(n, sample_size);
    for (size_t k = 0; k < m; ++k) {
      // Negative gradient of multiclass log-loss wrt score_k.
      for (size_t i = 0; i < n; ++i) {
        const double y =
            labels[i] == static_cast<int>(k) ? 1.0 : 0.0;
        gradients[i] = y - probabilities.At(i, k);
      }
      RegressionTree tree(options_.tree);
      common::Status status =
          sample.empty()
              ? tree.Fit(features, gradients, rng)
              : tree.Fit(features, gradients, sample, rng);
      BBV_RETURN_NOT_OK(status);
      tree.PredictInto(features, round_predictions);
      for (size_t i = 0; i < n; ++i) {
        scores.At(i, k) += options_.learning_rate * round_predictions[i];
      }
      trees_.push_back(std::move(tree));
    }
  }
  kernel_ = ForestKernel::Compile(trees_);
  fitted_ = true;
  return common::Status::OK();
}

void GradientBoostedTrees::PredictProbaInto(const linalg::Matrix& features,
                                            std::span<double> out) const {
  BBV_CHECK(fitted_) << "PredictProba before Fit";
  const auto m = static_cast<size_t>(num_classes_);
  BBV_CHECK_EQ(out.size(), features.rows() * m);
  for (size_t i = 0; i < features.rows(); ++i) {
    double* row = out.data() + i * m;
    for (size_t k = 0; k < m; ++k) row[k] = base_scores_[k];
  }
  // Strided kernel accumulation reproduces the per-row boosting loop
  // out[t % m] += lr * tree_t(row) in ensemble order, bit-for-bit.
  kernel_.AccumulateInto(features, options_.learning_rate, m, out);
  linalg::SoftmaxRowsInPlace(out, m);
}

linalg::Matrix GradientBoostedTrees::PredictProba(
    const linalg::Matrix& features) const {
  BBV_CHECK(fitted_) << "PredictProba before Fit";
  linalg::Matrix probabilities(features.rows(),
                               static_cast<size_t>(num_classes_));
  PredictProbaInto(features, probabilities.data());
  return probabilities;
}

}  // namespace bbv::ml

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace bbv::ml {

namespace {
constexpr char kGbdtMagic[] = "BBVGB";
constexpr uint32_t kGbdtVersion = 1;
}  // namespace

common::Status GradientBoostedTrees::Save(common::BinaryWriter& writer) const {
  if (!fitted_) {
    return common::Status::FailedPrecondition("Save before Fit");
  }
  writer.WriteMagic(kGbdtMagic, kGbdtVersion);
  writer.WriteInt32(num_classes_);
  writer.WriteDouble(options_.learning_rate);
  writer.WriteDoubleVector(base_scores_);
  writer.WriteUint64(trees_.size());
  BBV_RETURN_NOT_OK(writer.status());
  for (const RegressionTree& tree : trees_) {
    tree.Save(writer);
  }
  return writer.status();
}

common::Result<GradientBoostedTrees> GradientBoostedTrees::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kGbdtMagic, kGbdtVersion));
  BBV_ASSIGN_OR_RETURN(int32_t num_classes, reader.ReadInt32());
  if (num_classes < 2 || num_classes > 10'000) {
    return common::Status::InvalidArgument("implausible class count");
  }
  Options options;
  BBV_ASSIGN_OR_RETURN(options.learning_rate, reader.ReadDouble());
  GradientBoostedTrees model(options);
  model.num_classes_ = num_classes;
  BBV_ASSIGN_OR_RETURN(model.base_scores_, reader.ReadDoubleVector());
  if (model.base_scores_.size() != static_cast<size_t>(num_classes)) {
    return common::Status::InvalidArgument("corrupt base scores");
  }
  BBV_ASSIGN_OR_RETURN(uint64_t count, reader.ReadUint64());
  if (count == 0 || count % static_cast<uint64_t>(num_classes) != 0 ||
      count > 10'000'000) {
    return common::Status::InvalidArgument("implausible tree count");
  }
  model.trees_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BBV_ASSIGN_OR_RETURN(RegressionTree tree, RegressionTree::Load(reader));
    model.trees_.push_back(std::move(tree));
  }
  model.kernel_ = ForestKernel::Compile(model.trees_);
  model.fitted_ = true;
  return model;
}

common::Status GradientBoostedTrees::Save(std::ostream& out) const {
  common::BinaryWriter writer(out);
  return Save(writer);
}

common::Result<GradientBoostedTrees> GradientBoostedTrees::Load(
    std::istream& in) {
  common::BinaryReader reader(in);
  return Load(reader);
}

}  // namespace bbv::ml
