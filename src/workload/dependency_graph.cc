#include "workload/dependency_graph.h"

#include <algorithm>
#include <cmath>

#include "common/flat_hash.h"

namespace hunter::workload {

std::vector<TracedTransaction> GenerateTrace(size_t num_txns,
                                             uint64_t row_space,
                                             double zipf_theta,
                                             double reads_per_txn,
                                             double writes_per_txn,
                                             common::Rng* rng) {
  std::vector<TracedTransaction> trace(num_txns);
  // One bound sampler for the whole trace: the constants are computed once.
  const common::ZipfTable rows(row_space, zipf_theta);
  for (size_t i = 0; i < num_txns; ++i) {
    trace[i].id = i;
    const int reads = static_cast<int>(std::max(
        0.0, std::round(reads_per_txn + rng->Gaussian(0.0, 1.0))));
    const int writes = static_cast<int>(std::max(
        0.0, std::round(writes_per_txn + rng->Gaussian(0.0, 0.7))));
    trace[i].read_set.resize(static_cast<size_t>(reads));
    rows.Fill(rng, trace[i].read_set.data(), trace[i].read_set.size());
    trace[i].write_set.resize(static_cast<size_t>(writes));
    rows.Fill(rng, trace[i].write_set.data(), trace[i].write_set.size());
  }
  return trace;
}

TxnDependencyGraph::TxnDependencyGraph(
    const std::vector<TracedTransaction>& trace) {
  const size_t n = trace.size();
  children_.assign(n, {});
  parents_count_.assign(n, 0);

  // last_writer[row] = most recent transaction that wrote `row`;
  // readers_since[row] = transactions that read it after that write.
  // Flat open-addressing maps: edge emission order depends only on point
  // lookups in trace order (no map iteration), so swapping the container
  // leaves the emitted edge list byte-identical — pinned by the golden
  // test against a std::map reference in tests/workload/workload_test.cc.
  common::FlatHashMap64<uint32_t> last_writer(n);
  common::FlatHashMap64<std::vector<uint32_t>> readers_since(n);

  // Parent dedupe via a monotone stamp (value i+1 marks "already a parent
  // of transaction i") instead of a per-transaction hash set.
  std::vector<uint32_t> parent_stamp(n, 0);

  auto add_edge = [&](uint32_t from, uint32_t to) {
    if (from == to) return;
    if (parent_stamp[from] == to + 1) return;  // dedupe parents of `to`
    parent_stamp[from] = to + 1;
    children_[from].push_back(to);
    ++parents_count_[to];
    ++num_edges_;
  };

  for (uint32_t i = 0; i < n; ++i) {
    // WR / WW conflicts: depend on the last writer of every touched row.
    for (uint64_t row : trace[i].read_set) {
      const uint32_t* writer = last_writer.Find(row);
      if (writer != nullptr) add_edge(*writer, i);
    }
    for (uint64_t row : trace[i].write_set) {
      const uint32_t* writer = last_writer.Find(row);
      if (writer != nullptr) add_edge(*writer, i);
      // RW anti-dependencies: readers since the last write must precede us.
      const std::vector<uint32_t>* readers = readers_since.Find(row);
      if (readers != nullptr) {
        for (uint32_t reader : *readers) add_edge(reader, i);
      }
    }
    // Register this transaction's accesses.
    for (uint64_t row : trace[i].write_set) {
      last_writer.At(row) = i;
      readers_since.At(row).clear();
    }
    for (uint64_t row : trace[i].read_set) {
      readers_since.At(row).push_back(i);
    }
  }
}

std::vector<std::vector<uint32_t>> TxnDependencyGraph::WaveSchedule() const {
  const size_t n = parents_count_.size();
  std::vector<size_t> depth(n, 0);
  std::vector<size_t> remaining = parents_count_;
  std::vector<uint32_t> frontier;
  for (uint32_t i = 0; i < n; ++i) {
    if (remaining[i] == 0) frontier.push_back(i);
  }
  // Kahn's algorithm computing longest-path depth per node.
  std::vector<std::vector<uint32_t>> waves;
  std::vector<uint32_t> queue = frontier;
  size_t processed = 0;
  while (!queue.empty()) {
    std::vector<uint32_t> next;
    for (uint32_t node : queue) {
      if (depth[node] >= waves.size()) waves.resize(depth[node] + 1);
      waves[depth[node]].push_back(node);
      ++processed;
      for (uint32_t child : children_[node]) {
        depth[child] = std::max(depth[child], depth[node] + 1);
        if (--remaining[child] == 0) next.push_back(child);
      }
    }
    queue.swap(next);
  }
  (void)processed;  // construction guarantees acyclicity (edges go forward)
  return waves;
}

double TxnDependencyGraph::EffectiveParallelism() const {
  const auto waves = WaveSchedule();
  if (waves.empty()) return 0.0;
  return static_cast<double>(num_transactions()) /
         static_cast<double>(waves.size());
}

size_t TxnDependencyGraph::CriticalPathLength() const {
  return WaveSchedule().size();
}

}  // namespace hunter::workload
