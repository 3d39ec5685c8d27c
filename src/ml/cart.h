// Classification-and-regression tree (CART) used as the base learner of the
// Random Forest knob-sifting step (§3.2.2). The paper builds 200 CARTs whose
// impurity reductions are averaged into per-knob importance scores; here the
// trees are regression trees on the performance/fitness label, and impurity
// is variance (the continuous analogue of Gini used by scikit-learn's
// regressor, which the paper's implementation relies on).

#ifndef HUNTER_ML_CART_H_
#define HUNTER_ML_CART_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace hunter::ml {

struct CartOptions {
  int max_depth = 8;
  size_t min_samples_leaf = 2;
  // Number of candidate features per split; 0 means "use all features".
  size_t max_features = 0;
};

// Shared per-dataset view of a design matrix: a column-major copy of its
// values and, for every feature, the rows in ascending feature-value order
// (ties by row index). A forest builds this once; every tree reads feature
// values through it and derives its bootstrap view's sorted stripes from it
// with a linear counting pass, replacing per-tree value gathers and
// O(d * m log m) comparison sorts. Read-only after Build, so the pool
// workers share one instance without synchronization.
struct FeaturePresort {
  size_t num_rows = 0;
  size_t num_features = 0;
  std::vector<double> columns;  // num_features stripes of num_rows values
  // 32-bit row ids: the index stripes are the hottest data the splitter
  // streams, and halving them doubles the rows per cache line.
  std::vector<uint32_t> sorted_rows;  // num_features stripes of num_rows

  void Build(const linalg::Matrix& x);
};

class CartTree {
 private:
  struct Node {
    bool is_leaf = true;
    double value = 0.0;     // leaf prediction
    size_t feature = 0;     // split feature
    double threshold = 0.0; // go left if x[feature] <= threshold
    int left = -1;
    int right = -1;
  };

 public:
  // Working buffers for one fit. Reserve sizes them once for a data set
  // and view length; fits within that shape then allocate nothing but the
  // tree's own output arrays, so a forest sizes each worker's workspace on
  // the calling thread and reuses it across that worker's trees.
  class Workspace {
   public:
    void Reserve(const FeaturePresort& data, size_t view_rows,
                 const CartOptions& options);

   private:
    friend class CartTree;
    // The [begin, end) segment of every feature's stripe always holds
    // exactly the rows of the current node, in ascending feature-value
    // order. A bootstrap row drawn twice appears twice.
    std::vector<uint32_t> sorted;  // num_features stripes of view_rows
    // The view's rows in insertion order, stable-partitioned at every
    // split — the order the original (seed) implementation kept its index
    // array in. Node statistics accumulate over this list so gains are
    // bit-identical to the seed's, which matters when two features induce
    // the same partition and the winner is decided by ~1e-16
    // summation-order noise.
    std::vector<uint32_t> order;
    std::vector<uint32_t> tmp;        // right-side rows during partition
    std::vector<uint8_t> go_left;     // per data row: split routing flag
    std::vector<uint32_t> row_count;  // per data row: copies in the view
    std::vector<size_t> features;     // per-node candidate features
    std::vector<Node> nodes;
  };

  // Fits on data rows `x` with labels `y`; `rng` drives feature subsampling.
  void Fit(const linalg::Matrix& x, const std::vector<double>& y,
           const CartOptions& options, common::Rng* rng);

  // Fits on a view of `x` given by `row_indices` (duplicates allowed — this
  // is how the forest expresses bootstrap samples without materializing a
  // copied design matrix). Fit(x, y, ...) is FitIndices with the identity
  // index set. Both presort `x` and run FitPresorted.
  void FitIndices(const linalg::Matrix& x, const std::vector<double>& y,
                  const std::vector<size_t>& row_indices,
                  const CartOptions& options, common::Rng* rng);

  // Fits on the view `rows` of `data` (labels `y` indexed by row) with
  // caller-owned buffers: the forest's per-tree entry point. A split scan
  // visits rows that share a feature value in row-id order; runs of equal
  // values are never cut, so that order only fixes the summation order
  // inside a run, and the fit is a deterministic function of the view and
  // the RNG.
  void FitPresorted(const FeaturePresort& data, const std::vector<double>& y,
                    const std::vector<uint32_t>& rows,
                    const CartOptions& options, common::Rng* rng,
                    Workspace* workspace);

  double Predict(const std::vector<double>& row) const;

  // Total impurity (variance) reduction attributed to each feature,
  // weighted by the number of samples reaching the split.
  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  int BuildNode(const FeaturePresort& data, const double* labels,
                Workspace& s, size_t begin, size_t end, int depth,
                const CartOptions& options, common::Rng* rng);

  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_CART_H_
