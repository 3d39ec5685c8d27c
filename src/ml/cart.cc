#include "ml/cart.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

namespace hunter::ml {

namespace {

struct SplitStats {
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t count = 0;

  void Add(double y) {
    sum += y;
    sum_sq += y * y;
    ++count;
  }
  void Remove(double y) {
    sum -= y;
    sum_sq -= y * y;
    --count;
  }
  // Sum of squared deviations from the mean (count * variance).
  double SumSquaredError() const {
    if (count == 0) return 0.0;
    return sum_sq - sum * sum / static_cast<double>(count);
  }
  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// Copies FitPresorted writes of every stripe row whatever its count; the
// stripe buffer ends in as many spare entries.
constexpr uint32_t kCopySlack = 3;

// Whether a node of `count` rows at `depth` may split: the depth cap and
// the two minimum-size leaves allow it. A node that cannot split reads no
// feature stripe.
bool CanSplit(size_t count, int depth, const CartOptions& options) {
  return depth < options.max_depth && count >= 2 * options.min_samples_leaf;
}

}  // namespace

void FeaturePresort::Build(const linalg::Matrix& x) {
  num_rows = x.rows();
  num_features = x.cols();
  assert(num_rows < UINT32_MAX);
  columns.resize(num_features * num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t f = 0; f < num_features; ++f) {
      columns[f * num_rows + r] = x.At(r, f);
    }
  }
  sorted_rows.resize(num_features * num_rows);
  for (size_t f = 0; f < num_features; ++f) {
    uint32_t* seg = sorted_rows.data() + f * num_rows;
    const double* vals = columns.data() + f * num_rows;
    std::iota(seg, seg + num_rows, 0u);
    std::sort(seg, seg + num_rows, [vals](uint32_t a, uint32_t b) {
      if (vals[a] != vals[b]) return vals[a] < vals[b];
      return a < b;
    });
  }
}

void CartTree::Workspace::Reserve(const FeaturePresort& data,
                                  size_t view_rows,
                                  const CartOptions& options) {
  sorted.reserve(data.num_features * view_rows + kCopySlack);
  order.reserve(view_rows);
  tmp.reserve(view_rows);
  go_left.reserve(data.num_rows);
  row_count.reserve(data.num_rows);
  features.reserve(data.num_features);
  // Every leaf holds at least one row (a split that would empty a side is
  // refused), and depth caps the leaves at 2^max_depth.
  size_t leaves = std::max<size_t>(1, view_rows);
  if (options.max_depth < 62) {
    const int depth = std::max(0, options.max_depth);
    leaves = std::min(leaves, size_t{1} << depth);
  }
  nodes.reserve(2 * leaves - 1);
}

void CartTree::Fit(const linalg::Matrix& x, const std::vector<double>& y,
                   const CartOptions& options, common::Rng* rng) {
  std::vector<size_t> identity(x.rows());
  std::iota(identity.begin(), identity.end(), 0);
  FitIndices(x, y, identity, options, rng);
}

void CartTree::FitIndices(const linalg::Matrix& x,
                          const std::vector<double>& y,
                          const std::vector<size_t>& row_indices,
                          const CartOptions& options, common::Rng* rng) {
  FeaturePresort data;
  data.Build(x);
  std::vector<uint32_t> rows(row_indices.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    assert(row_indices[i] < x.rows());
    rows[i] = static_cast<uint32_t>(row_indices[i]);
  }
  Workspace workspace;
  workspace.Reserve(data, rows.size(), options);
  FitPresorted(data, y, rows, options, rng, &workspace);
}

void CartTree::FitPresorted(const FeaturePresort& data,
                            const std::vector<double>& y,
                            const std::vector<uint32_t>& rows,
                            const CartOptions& options, common::Rng* rng,
                            Workspace* workspace) {
  nodes_.clear();
  importance_.assign(data.num_features, 0.0);
  if (rows.empty()) return;
  assert(rows.size() < UINT32_MAX && y.size() == data.num_rows);
  Workspace& s = *workspace;
  const size_t n = data.num_rows;
  const size_t m = rows.size();

  // Derive each feature's sorted stripe from the shared row order: count
  // every row's copies in the view, then emit the presorted rows, each as
  // many times as it was drawn. O(n + m) per feature. A bootstrap row's copy
  // count is Poisson(1), so a loop over the copies mispredicts its exit;
  // instead every row is written kCopySlack times and the cursor advances
  // by its count, which overwrites the surplus. Only the ~2% of rows with
  // more copies loop. The writes reach up to kCopySlack entries past a
  // stripe's end: into the next stripe, which is derived later, or into
  // the slack behind the last one.
  s.row_count.assign(n, 0);
  for (const uint32_t row : rows) ++s.row_count[row];
  s.sorted.resize(data.num_features * m + kCopySlack);
  for (size_t f = 0; f < data.num_features; ++f) {
    uint32_t* seg = s.sorted.data() + f * m;
    const uint32_t* sorted_rows = data.sorted_rows.data() + f * n;
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = sorted_rows[i];
      const uint32_t copies = s.row_count[row];
      for (uint32_t copy = 0; copy < kCopySlack; ++copy) seg[out + copy] = row;
      for (uint32_t copy = kCopySlack; copy < copies; ++copy) {
        seg[out + copy] = row;
      }
      out += copies;
    }
  }
  s.order.assign(rows.begin(), rows.end());
  s.tmp.resize(m);
  s.go_left.resize(n);
  s.nodes.clear();

  BuildNode(data, y.data(), s, 0, m, 0, options, rng);
  nodes_.assign(s.nodes.begin(), s.nodes.end());
}

int CartTree::BuildNode(const FeaturePresort& data, const double* labels,
                        Workspace& s, size_t begin, size_t end, int depth,
                        const CartOptions& options, common::Rng* rng) {
  const size_t count = end - begin;
  SplitStats node_stats;
  for (size_t i = begin; i < end; ++i) {
    node_stats.Add(labels[s.order[i]]);
  }

  const int node_id = static_cast<int>(s.nodes.size());
  s.nodes.emplace_back();
  s.nodes[node_id].value = node_stats.Mean();

  const double node_sse = node_stats.SumSquaredError();
  if (!CanSplit(count, depth, options) || node_sse < 1e-12) return node_id;

  // Choose candidate features (without replacement). The list is rebuilt to
  // full width every node so Shuffle consumes the same RNG draws as the
  // original per-node implementation.
  const size_t d = data.num_features;
  const size_t m = s.order.size();
  s.features.resize(d);
  std::iota(s.features.begin(), s.features.end(), 0);
  const size_t feature_budget =
      options.max_features == 0 ? d : std::min(options.max_features, d);
  if (feature_budget < d) rng->Shuffle(&s.features);
  s.features.resize(feature_budget);

  double best_gain = 1e-12;
  size_t best_feature = 0;
  double best_threshold = 0.0;

  for (const size_t feature : s.features) {
    const double* vals = data.columns.data() + feature * data.num_rows;
    const uint32_t* seg = s.sorted.data() + feature * m;
    SplitStats left;
    SplitStats right = node_stats;
    uint32_t row = seg[begin];
    double value = vals[row];
    for (size_t i = begin; i + 1 < end; ++i) {
      const uint32_t next_row = seg[i + 1];
      const double next_value = vals[next_row];
      left.Add(labels[row]);
      right.Remove(labels[row]);
      // Equal values admit no cut; neither does a short side.
      if (value != next_value && left.count >= options.min_samples_leaf &&
          right.count >= options.min_samples_leaf) {
        const double gain =
            node_sse - left.SumSquaredError() - right.SumSquaredError();
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = feature;
          best_threshold = 0.5 * (value + next_value);
        }
      }
      row = next_row;
      value = next_value;
    }
  }

  if (best_gain <= 1e-12) return node_id;

  // Route each row and bail on a degenerate partition (possible when the
  // midpoint threshold rounds onto one of the two cut values). Copies of a
  // bootstrap row share one flag, as they share every value.
  const double* best_vals =
      data.columns.data() + best_feature * data.num_rows;
  size_t left_count = 0;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t row = s.order[i];
    const bool go_left = best_vals[row] <= best_threshold;
    s.go_left[row] = go_left ? 1 : 0;
    left_count += go_left ? 1 : 0;
  }
  if (left_count == 0 || left_count == count) return node_id;

  importance_[best_feature] += best_gain;

  // Stable in-place partition of the insertion-order list and of every
  // feature's segment: left rows compact forward in order, right rows park
  // in tmp and are copied back behind them. Each child segment therefore
  // stays sorted (and `order` stays in seed order). The children's node
  // statistics read `order`, so it is always partitioned; the feature
  // segments only when a child may split and so scan them. Every element is
  // written to both destinations and only the matching cursor advances:
  // the side an element lands on is close to a coin flip, and a
  // data-dependent branch here mispredicts on roughly half of the
  // (count x num_features) elements partitioned per split. A left write
  // targets seg[write] with write <= i, so no unread element is clobbered.
  const auto partition_segment = [&](uint32_t* seg) {
    size_t write = begin;
    size_t parked = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t row = seg[i];
      const uint8_t flag = s.go_left[row];
      seg[write] = row;
      s.tmp[parked] = row;
      write += flag;
      parked += static_cast<size_t>(1 - flag);
    }
    std::copy(s.tmp.begin(), s.tmp.begin() + static_cast<long>(parked),
              seg + write);
  };
  partition_segment(s.order.data());
  const size_t split = begin + left_count;
  if (CanSplit(left_count, depth + 1, options) ||
      CanSplit(count - left_count, depth + 1, options)) {
    for (size_t f = 0; f < d; ++f) {
      partition_segment(s.sorted.data() + f * m);
    }
  }

  s.nodes[node_id].is_leaf = false;
  s.nodes[node_id].feature = best_feature;
  s.nodes[node_id].threshold = best_threshold;
  const int left_id =
      BuildNode(data, labels, s, begin, split, depth + 1, options, rng);
  s.nodes[node_id].left = left_id;
  const int right_id =
      BuildNode(data, labels, s, split, end, depth + 1, options, rng);
  s.nodes[node_id].right = right_id;
  return node_id;
}

double CartTree::Predict(const std::vector<double>& row) const {
  if (nodes_.empty()) return 0.0;
  int node = 0;
  while (!nodes_[static_cast<size_t>(node)].is_leaf) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    node = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(node)].value;
}

}  // namespace hunter::ml
