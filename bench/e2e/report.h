// Turns the sessions of one benchmark run into its metrics, and writes them
// as the JSON result line, a results-file record and a readable report.

#ifndef HUNTER_BENCH_E2E_REPORT_H_
#define HUNTER_BENCH_E2E_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/e2e/json.h"
#include "bench/e2e/session.h"

namespace hunter::bench_e2e {

// Tuning quality (best_tps) and the run digest come from a fixed panel of
// untraced sessions, seeds kPanelSeed, kPanelSeed + 1, ..., whatever --seed
// is. So they move only when the program's output changes: not with the
// seed, the run length or the host.
inline constexpr uint64_t kPanelSeed = 42;
inline constexpr size_t kPanelSessions = 1;

// Where and how a results record was produced.
struct HostContext {
  unsigned nproc = 0;
  int simd_tier = 0;
  std::string build_type;
  std::string commit;
};

struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  // Timed untraced sessions, seeds seed, seed+1, ... In a traced run,
  // traced_sessions[i] repeats sessions[i] with tracing on.
  std::vector<SessionRecord> sessions;
  std::vector<SessionRecord> traced_sessions;
  std::vector<SessionRecord> panel;  // untraced runs: the quality panel
  double peak_rss_mb = 0.0;
  std::vector<std::string> failures;  // failed correctness checks, readable
  size_t failed = 0;  // sessions with at least one failed check

  size_t Attempted() const {
    return sessions.size() + traced_sessions.size() + panel.size();
  }
};

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Every end-to-end value of a run's untraced sessions, by metric name.
std::map<std::string, double> EndToEndValues(const RunResult& run);

// Every per-layer value of a run's traced sessions (per-session means), by
// metric name.
std::map<std::string, double> LayerValues(const RunResult& run);

// The metrics `wanted` lists, in its order and with its units. A wanted
// name that `values` lacks is appended to `missing`.
std::vector<MetricValue> SelectMetrics(
    const std::map<std::string, double>& values,
    const std::vector<BenchmarkMetric>& wanted,
    std::vector<std::string>* missing);

// Runs the correctness checks on every session: charged spans fold to the
// clock, the best throughput beats the default configuration's, rounds ran,
// and a traced session reproduces its untraced twin's journal digest.
void CheckRun(RunResult* run);

// FNV-1a over the journal digests of the run's panel sessions, or of its
// untraced sessions when it has no panel (traced runs): equal program output
// gives equal values.
uint64_t RunDigest(const RunResult& run);

// The last stdout line: correct, attempted, failed and metrics.
std::string ResultLine(const RunResult& run,
                       const std::vector<MetricValue>& metrics);

// One results-file line: the result plus workload, seed, host context, run
// digest, per-session digests and the round sample count.
std::string ResultsRecord(const RunResult& run,
                          const std::vector<MetricValue>& metrics,
                          const HostContext& host);

// The first traced session's spans, one JSON object per line.
std::string SpanLines(const RunResult& run);

// Human-readable summary: digests, checks and every metric with its unit.
void PrintReport(const RunResult& run, const std::vector<MetricValue>& metrics);

}  // namespace hunter::bench_e2e

#endif  // HUNTER_BENCH_E2E_REPORT_H_
