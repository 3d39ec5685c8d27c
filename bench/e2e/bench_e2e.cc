// bench_e2e: complete HUNTER tuning sessions timed end to end, with the host
// time attributed to the product's layers from outside.
//
//   bench_e2e
//       Smoke configuration: every workload at one session and 1/20 of its
//       budget, traced and untraced. Checks that every BENCHMARK.json metric
//       is reported and that tracing leaves the journal digests unchanged.
//   bench_e2e run --workload W [--seed S] [--seconds T] [--trace 0|1]
//                 [--out FILE] [--spans FILE] [--commit SHA]
//       One benchmark run of one workload. The last stdout line is the JSON
//       result; --out appends a results record, --spans writes the spans.
//   bench_e2e compare PARENT.json CHANGE.json
//       Verdict per workload and end-to-end metric between two results files.
//   bench_e2e workloads
//       The workload names, one per line.
//
// The metrics, units and bounds come from the BENCHMARK.json of the tree
// this binary was built from. bench/e2e/run.sh builds the binary and drives
// it; see bench/e2e/README.md.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/compare.h"
#include "bench/e2e/host_clock.h"
#include "bench/e2e/json.h"
#include "bench/e2e/report.h"
#include "bench/e2e/session.h"
#include "linalg/simd/simd.h"

namespace hunter::bench_e2e {
namespace {

struct RunOptions {
  double budget_scale = 1.0;
  size_t sessions = 1;  // timed sessions; traced runs: traced pairs
  size_t panel_sessions = 0;
  size_t setup_reps = 10;  // dedicated set-ups timed before each session
};

// A budget_scale of 1/10 for the discarded session that lets caches fill
// and lazy set-up finish before timing, in runs without a panel.
constexpr double kWarmUpScale = 0.1;

// The fixed number of sessions `seconds` buys on the reference host. A
// traced pair costs about two sessions, so a traced run gets half as many.
size_t SessionCount(const WorkloadSpec& spec, double seconds, bool traced) {
  const auto sessions = static_cast<size_t>(seconds / spec.session_seconds);
  return std::max<size_t>(1, traced ? sessions / 2 : sessions);
}

// Runs the quality panel first: it fills caches and finishes lazy set-up
// before timing, and the peak RSS is read after it, so that the memory
// metric, like the quality one, does not depend on the seed. Without a
// panel a short discarded session does the warming. Then `options.sessions`
// sessions with seeds seed, seed+1, ..., each after its dedicated set-ups,
// so set-up timings sample the whole run. The calibration work runs between
// sessions, so each session's host-speed scale comes from its neighbours in
// time. A traced run follows each untraced session with its traced twin, so
// the overhead compares neighbours in time.
RunResult RunWorkload(const WorkloadSpec& spec, uint64_t seed, bool traced,
                      const RunOptions& options) {
  RunResult run;
  run.workload = spec.name;
  run.seed = seed;
  run.traced = traced;
  for (uint64_t i = 0; i < options.panel_sessions; ++i) {
    run.panel.push_back(
        RunSession(spec, kPanelSeed + i, options.budget_scale, false));
  }
  run.peak_rss_mb = PeakRssMb();
  if (options.panel_sessions == 0) {
    RunSession(spec, seed, options.budget_scale * kWarmUpScale, false);
  }
  double calibration = CalibrationSeconds();
  for (uint64_t i = 0; i < options.sessions; ++i) {
    std::vector<double> setups;
    for (size_t k = 0; k < options.setup_reps; ++k) {
      setups.push_back(TimeSetup(spec, seed + i));
    }
    SessionRecord session =
        RunSession(spec, seed + i, options.budget_scale, false);
    const double after = CalibrationSeconds();
    session.setup_reps_s = std::move(setups);
    session.host_scale =
        2.0 * kReferenceCalibrationSeconds / (calibration + after);
    calibration = after;
    run.sessions.push_back(std::move(session));
    if (traced) {
      run.traced_sessions.push_back(
          RunSession(spec, seed + i, options.budget_scale, true));
    }
  }
  CheckRun(&run);
  return run;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_e2e\n"
      "       bench_e2e run --workload W [--seed S] [--seconds T] "
      "[--trace 0|1]\n"
      "                     [--out FILE] [--spans FILE] [--commit SHA]\n"
      "       bench_e2e compare PARENT.json CHANGE.json\n"
      "       bench_e2e workloads\n");
  return 2;
}

// --name value pairs after the positional arguments.
bool ParseFlags(int argc, char** argv, int first,
                std::map<std::string, std::string>* flags,
                std::vector<std::string>* positional) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= argc) return false;
      (*flags)[arg.substr(2)] = argv[++i];
    } else {
      positional->push_back(arg);
    }
  }
  return true;
}

// e2e.cmake compiles in the path of the source tree's BENCHMARK.json.
bool LoadSpec(BenchmarkSpec* spec) {
  std::string error;
  if (!LoadBenchmark(HUNTER_E2E_BENCHMARK_JSON, spec, &error)) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", HUNTER_E2E_BENCHMARK_JSON,
                 error.c_str());
    return false;
  }
  return true;
}

bool AppendFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << text;
  return static_cast<bool>(out);
}

int Run(const std::map<std::string, std::string>& flags) {
  const auto flag = [&flags](const char* name, const std::string& fallback) {
    const auto it = flags.find(name);
    return it != flags.end() ? it->second : fallback;
  };
  const WorkloadSpec* spec = FindWorkload(flag("workload", ""));
  if (spec == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 flag("workload", "").c_str());
    return 2;
  }
  BenchmarkSpec benchmark;
  if (!LoadSpec(&benchmark)) return 2;
  const double seconds = flags.count("seconds") > 0
                             ? std::atof(flag("seconds", "0").c_str())
                             : benchmark.run_seconds;
  if (!(seconds > 0.0 && seconds <= 3600.0)) {  // also rejects NaN
    std::fprintf(stderr, "bench_e2e: --seconds must be in (0, 3600]\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(flag("seed", "42").c_str(), nullptr, 10);
  const bool traced = flag("trace", "0") == "1";
  RunOptions options;
  options.sessions = SessionCount(*spec, seconds, traced);
  options.panel_sessions = traced ? 0 : kPanelSessions;

  const RunResult run = RunWorkload(*spec, seed, traced, options);
  std::vector<std::string> missing;
  const std::vector<MetricValue> metrics =
      traced ? SelectMetrics(LayerValues(run), benchmark.per_layer, &missing)
             : SelectMetrics(EndToEndValues(run), benchmark.end_to_end,
                             &missing);
  PrintReport(run, metrics);
  if (!missing.empty()) {
    std::fprintf(stderr, "bench_e2e: %zu BENCHMARK.json metrics not measured, "
                 "first %s\n", missing.size(), missing.front().c_str());
    return 1;
  }

  HostContext host;
  host.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  host.simd_tier = linalg::simd::ActiveTierIndex();
  host.build_type = HUNTER_E2E_BUILD_TYPE;
  host.commit = flag("commit", "unknown");
  const std::string out = flag("out", "");
  if (!out.empty() &&
      !AppendFile(out, ResultsRecord(run, metrics, host) + "\n")) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", out.c_str());
    return 2;
  }
  const std::string spans = flag("spans", "");
  if (!spans.empty() && traced && !AppendFile(spans, SpanLines(run))) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", spans.c_str());
    return 2;
  }
  std::printf("%s\n", ResultLine(run, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

int Smoke() {
  BenchmarkSpec benchmark;
  if (!LoadSpec(&benchmark)) return 2;
  int failures = 0;
  const auto fail = [&failures](const std::string& what) {
    std::printf("smoke FAIL: %s\n", what.c_str());
    ++failures;
  };
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  if (names != benchmark.workloads) {
    fail("BENCHMARK.json workloads differ from the benchmark's workloads");
  }
  RunOptions options;
  options.budget_scale = 0.05;
  options.panel_sessions = 1;
  options.setup_reps = 1;
  for (const WorkloadSpec& spec : Workloads()) {
    const RunResult run = RunWorkload(spec, 42, true, options);
    std::vector<std::string> missing;
    PrintReport(run, SelectMetrics(EndToEndValues(run), benchmark.end_to_end,
                                   &missing));
    PrintReport(run, SelectMetrics(LayerValues(run), benchmark.per_layer,
                                   &missing));
    for (const std::string& name : missing) {
      fail(spec.name + ": metric " + name + " not measured");
    }
    for (const std::string& failure : run.failures) {
      fail(spec.name + ": " + failure);
    }
  }
  std::printf("smoke: %s\n", failures == 0 ? "pass" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hunter::bench_e2e

int main(int argc, char** argv) {
  using namespace hunter::bench_e2e;
  const std::string command = argc > 1 ? argv[1] : "";
  const bool has_command =
      command == "run" || command == "compare" || command == "workloads";
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
  if (!ParseFlags(argc, argv, has_command ? 2 : 1, &flags, &positional)) {
    return Usage();
  }
  if (command == "workloads" && argc == 2) {
    for (const WorkloadSpec& spec : Workloads()) {
      std::printf("%s\n", spec.name.c_str());
    }
    return 0;
  }
  if (command == "run" && positional.empty()) return Run(flags);
  if (command == "compare" && positional.size() == 2 && flags.empty()) {
    BenchmarkSpec benchmark;
    if (!LoadSpec(&benchmark)) return 2;
    return Compare(positional[0], positional[1], benchmark);
  }
  if (!has_command && argc == 1) return Smoke();
  return Usage();
}
