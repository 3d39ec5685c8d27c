// One complete tuning session of a benchmark workload, run through the
// public tuners::RunTuning harness and timed from outside the product.
//
// An untraced session only stamps the host clock at each Propose entry (the
// round boundaries) and around the whole run. A traced session additionally
// records host-time spans for every round and its tuner/controller children
// (with the process CPU time each one used, all threads), and after each
// round re-times public entry points on the same inputs (probes): the
// metrics registry snapshot, a bench-owned CdbInstance stress-testing every
// proposed configuration, and the search-space optimizer whenever HUNTER
// refreshed its space. Probe time is kept outside every round span.

#ifndef HUNTER_BENCH_E2E_SESSION_H_
#define HUNTER_BENCH_E2E_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hunter::bench_e2e {

enum class DbWorkload { kProduction, kTpcc, kSysbenchRo, kSysbenchWo };

struct WorkloadSpec {
  std::string name;
  std::string tuner;  // "HUNTER", "OtterTune" or "GA" (sample factory only)
  DbWorkload db = DbWorkload::kTpcc;
  int clones = 1;
  double budget_hours = 0.0;
  // > 0: the Production 9 am capture is swapped for the 9 pm capture here.
  double drift_at_hours = 0.0;
  bool faults = false;
  // Host seconds one session takes on the reference host at its slow end,
  // under neighbouring load (bench/e2e/README.md). It turns --seconds into a
  // fixed session count, so a run's sessions depend on --seconds and not on
  // how fast the host is that day, and a run lasts at most about --seconds
  // plus the panel.
  double session_seconds = 0.0;
};

// The benchmark's workloads, in reporting order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// One host-time span of a traced session; times are seconds from the
// session start. `parent` indexes the session's span list (-1: top level).
struct Span {
  std::string name;
  std::string layer;  // layer the span's time is attributed to
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  size_t round = 0;
};

struct SessionRecord {
  uint64_t seed = 0;
  bool traced = false;
  double wall_s = 0.0;   // session start to the last RunTuning return
  double cpu_s = 0.0;    // process user+sys CPU over the same interval
  double setup_s = 0.0;  // session start to the first Propose
  double probe_s = 0.0;      // traced only: probe time inside wall_s
  double probe_cpu_s = 0.0;  // traced only: probe CPU inside cpu_s
  std::vector<double> round_s;  // host seconds per tuning round
  size_t stress_tests = 0;      // Controller::total_stress_tests()
  size_t proposed = 0;          // configurations evaluated (TuningResult)
  size_t failed_samples = 0;    // samples marked evaluation_failed
  size_t pool_threads = 0;
  double best_tps = 0.0;  // post-drift segment for drift workloads
  double default_tps = 0.0;
  double rec_hours = 0.0;  // from the drift point for drift workloads
  uint64_t digest = 0;     // FNV-1a over Journal::Write
  size_t journal_bytes = 0;
  size_t journal_records = 0;
  double journal_write_s = 0.0;
  bool fold_exact = false;  // charged spans fold to clock().seconds()
  // Timed sessions only: the dedicated set-ups timed just before the
  // session, and the host-speed scale of its timings,
  // kReferenceCalibrationSeconds over the mean CalibrationSeconds() taken
  // before those set-ups and after the session.
  std::vector<double> setup_reps_s;
  double host_scale = 1.0;
  // Traced only: per-layer values of this session (seconds and counts,
  // keyed by the BENCHMARK.json per-layer names) and its spans.
  std::map<std::string, double> layer;
  std::vector<Span> spans;
};

// Runs one session. `budget_scale` multiplies every simulated-hour budget
// (1 for timed sessions, smaller for warm-up and smoke runs).
SessionRecord RunSession(const WorkloadSpec& spec, uint64_t seed,
                         double budget_scale, bool traced);

// Host seconds to build a session and reach its first proposal: scenario,
// controller with its clones, tuner and the default-configuration baseline.
double TimeSetup(const WorkloadSpec& spec, uint64_t seed);

}  // namespace hunter::bench_e2e

#endif  // HUNTER_BENCH_E2E_SESSION_H_
