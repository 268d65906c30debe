#ifndef BBV_ML_DECISION_TREE_H_
#define BBV_ML_DECISION_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "ml/classifier.h"

namespace bbv::ml {

class FeaturePresort;

namespace internal {
/// Per-Fit scratch state of the tree growers (defined in decision_tree.cc).
class GrowContext;
}  // namespace internal

/// Shared tree-growing configuration.
struct TreeOptions {
  int max_depth = 6;
  size_t min_samples_leaf = 2;
  /// Fraction of features examined per split (1.0 = all; random forests use
  /// a subsample for decorrelation).
  double feature_fraction = 1.0;
  /// Minimum impurity decrease to accept a split.
  double min_impurity_decrease = 1e-9;
};

/// CART regression tree (variance-reduction splits, mean leaves). Used as
/// the weak learner inside the random-forest regressor and the
/// gradient-boosted classifier.
class RegressionTree {
 public:
  /// One tree node in the pointer-free index representation the tree is
  /// grown into. Exposed read-only (see nodes()) so ml::ForestKernel can
  /// compile fitted ensembles into its flattened inference layout.
  struct Node {
    int32_t feature = -1;     // -1 marks a leaf
    double threshold = 0.0;   // go left when x[feature] <= threshold
    int32_t left = -1;
    int32_t right = -1;
    double value = 0.0;       // leaf prediction
  };

  explicit RegressionTree(TreeOptions options = {}) : options_(options) {}

  /// Fits the tree on rows `rows` of `features` against `targets` (full
  /// column, indexed by row id; `rows` may repeat ids, as a bootstrap
  /// does). The split search reads `presort`, the shared FeaturePresort of
  /// `features` and `targets`, which must match the matrix shape. Without
  /// one the tree sorts its own rows once, which is cheaper for a tree that
  /// is fitted alone.
  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<double>& targets,
                     const std::vector<size_t>& rows, common::Rng& rng,
                     const FeaturePresort* presort = nullptr);

  /// Convenience: fit on all rows.
  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<double>& targets, common::Rng& rng,
                     const FeaturePresort* presort = nullptr);

  /// Prediction for one feature row. This is the scalar node-walking path —
  /// the legacy reference the flattened ForestKernel is proven bit-identical
  /// against — and the right call for single rows (e.g. while an ensemble is
  /// still growing); batch prediction over a whole ensemble should go
  /// through the kernel instead.
  double PredictRow(const double* row) const;

  /// Predictions for every row of `features`.
  std::vector<double> Predict(const linalg::Matrix& features) const;

  /// Allocation-free batch surface: writes one prediction per row of
  /// `features` into `out` (whose size must equal features.rows()).
  void PredictInto(const linalg::Matrix& features,
                   std::span<double> out) const;

  size_t NumNodes() const { return nodes_.size(); }

  /// Read-only view of the grown nodes (node 0 is the root); the input
  /// ml::ForestKernel::Compile flattens.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Persists the fitted tree structure (not the training options).
  void Save(common::BinaryWriter& writer) const;

  /// Restores a tree persisted with Save.
  static common::Result<RegressionTree> Load(common::BinaryReader& reader);

 private:
  int32_t Grow(const linalg::Matrix& features,
               const std::vector<double>& targets, std::vector<size_t>& rows,
               size_t begin, size_t end, int depth,
               internal::GrowContext& context, common::Rng& rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
};

/// CART classification tree (Gini splits, class-frequency leaves). Included
/// as one of the model families the AutoML search explores.
class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeOptions options = {})
      : options_(options) {}

  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<int>& labels, int num_classes,
                     common::Rng& rng) override;
  linalg::Matrix PredictProba(const linalg::Matrix& features) const override;
  std::string Name() const override { return "cart"; }

  /// Persists the fitted tree; Load restores bit-identical inference.
  common::Status Save(std::ostream& out) const;
  static common::Result<DecisionTreeClassifier> Load(std::istream& in);

 private:
  struct Node {
    int32_t feature = -1;
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    std::vector<double> class_probabilities;  // leaf payload
  };

  int32_t Grow(const linalg::Matrix& features, const std::vector<int>& labels,
               std::vector<size_t>& rows, size_t begin, size_t end, int depth,
               internal::GrowContext& context, common::Rng& rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
};

}  // namespace bbv::ml

#endif  // BBV_ML_DECISION_TREE_H_
