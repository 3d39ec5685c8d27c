// Engine-facing description of a workload's access pattern. The workload
// module (Sysbench/TPC-C/Production generators, DAG replay) produces these;
// the simulated engine consumes them. Keeping the profile here avoids a
// dependency cycle between the cdb and workload layers.

#ifndef HUNTER_CDB_WORKLOAD_PROFILE_H_
#define HUNTER_CDB_WORKLOAD_PROFILE_H_

#include <cstdint>
#include <string>

namespace hunter::cdb {

struct WorkloadProfile {
  std::string name = "unnamed";
  double data_size_gb = 8.0;       // logical data volume
  int client_threads = 32;         // offered (closed-loop) concurrency
  double read_fraction = 0.65;     // reads / (reads + writes) among row ops
  double scan_fraction = 0.05;     // fraction of reads that are range scans
  double zipf_theta = 0.8;         // page/row access skew
  double ops_per_txn = 30.0;       // row operations per transaction
  double write_rows_per_txn = 8.0; // write-locked rows per transaction
  // Conflict model: only `hot_writes_per_txn` of the writes land in the
  // `hot_rows` conflict-prone set (e.g., TPC-C's district rows); the rest
  // spread over a population too large to conflict.
  double hot_writes_per_txn = 2.0;
  uint64_t hot_rows = 2000000;     // conflict-prone row population
  double lock_zipf_theta = 0.2;    // skew within the hot set
  double redo_kb_per_txn = 4.0;    // redo volume per transaction
  double cpu_ms_per_op = 0.2;      // CPU cost per row operation (workload weight)
  // Concurrency ceiling imposed by the client (e.g., the transaction
  // dependency graph of a Production replay); 0 = unbounded.
  double max_replay_parallelism = 0.0;
};

}  // namespace hunter::cdb

#endif  // HUNTER_CDB_WORKLOAD_PROFILE_H_
