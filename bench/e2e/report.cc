#include "bench/e2e/report.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/stats.h"
#include "common/text.h"

namespace hunter::bench_e2e {
namespace {

double Median(const std::vector<double>& values) {
  return common::Percentile(values, 50.0);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

std::vector<double> RoundMs(const SessionRecord& s) {
  std::vector<double> ms;
  for (const double r : s.round_s) ms.push_back(r * 1e3);
  return ms;
}

size_t RoundSamples(const std::vector<SessionRecord>& sessions) {
  size_t n = 0;
  for (const SessionRecord& s : sessions) n += s.round_s.size();
  return n;
}

// Per-layer values of one traced session, including the derived ones.
std::map<std::string, double> SessionLayers(const SessionRecord& s) {
  std::map<std::string, double> v = s.layer;
  // The probes run serially, so their time is CPU time. The controller's
  // self time is its CPU over the evaluate spans (all pool threads) less the
  // engine and snapshot work re-timed by the probes.
  v["controller.self_s"] = v["controller.evaluate_cpu_s"] -
                           v["cdb.stress_test_s"] - v["obs.snapshot_s"];
  v["controller.failed_frac"] = Ratio(static_cast<double>(s.failed_samples),
                                      static_cast<double>(s.proposed));
  v["cdb.stress_test_us_per_test"] =
      Ratio(v["cdb.stress_test_s"] * 1e6, v["cdb.probe_tests"]);
  v["obs.journal_records"] = static_cast<double>(s.journal_records);
  v["obs.journal_bytes"] = static_cast<double>(s.journal_bytes);
  v["obs.journal_write_s"] = s.journal_write_s;
  v["tuners.rec_hours"] = s.rec_hours;

  // Shares are of the session's CPU time without the probes: on the
  // threaded fleets layers overlap in wall time, not in CPU time.
  const double cpu = s.cpu_s - s.probe_cpu_s;
  v["share.hunter"] = Ratio(v["hunter.cpu_s"], cpu);
  v["share.tuners"] = Ratio(v["ottertune.cpu_s"] + v["tuners.harness_s"], cpu);
  v["share.controller"] = Ratio(v["controller.self_s"], cpu);
  v["share.cdb"] = Ratio(v["cdb.stress_test_s"], cpu);
  v["share.obs"] = Ratio(v["obs.snapshot_s"], cpu);
  const double traced_wall = s.wall_s - s.probe_s;
  double covered = s.setup_s;
  for (const double r : s.round_s) covered += r;
  v["trace.coverage"] = Ratio(covered, traced_wall);
  return v;
}

void AppendMetrics(std::ostringstream& out,
                   const std::vector<MetricValue>& metrics) {
  out << "\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const MetricValue& m = metrics[i];
    out << (i > 0 ? "," : "") << '"' << m.name << "\":{\"value\":"
        << common::FormatDouble17(m.value) << ",\"unit\":\"" << m.unit
        << "\"}";
  }
  out << '}';
}

void AppendOutcome(std::ostringstream& out, const RunResult& run) {
  out << "\"correct\":" << (run.failures.empty() ? "true" : "false")
      << ",\"attempted\":" << run.Attempted()
      << ",\"failed\":" << run.failed << ',';
}

}  // namespace

std::map<std::string, double> EndToEndValues(const RunResult& run) {
  // Every timing is a per-session value scaled to the reference host's
  // speed by the session's host_scale, and the run reports the median over
  // its sessions. So one session slowed by the host, or by a seed that runs
  // an extra search-space refresh, moves one sample and not the result.
  std::vector<double> setup, wall, cpu, tests_per_s, round_p50, round_p90;
  for (const SessionRecord& s : run.sessions) {
    const double k = s.host_scale;
    for (const double t : s.setup_reps_s) setup.push_back(t * k);
    setup.push_back(s.setup_s * k);
    wall.push_back(s.wall_s * k);
    cpu.push_back(s.cpu_s * k);
    tests_per_s.push_back(
        Ratio(static_cast<double>(s.stress_tests), s.wall_s * k));
    const std::vector<double> round_ms = RoundMs(s);
    round_p50.push_back(common::Percentile(round_ms, 50.0) * k);
    round_p90.push_back(common::Percentile(round_ms, 90.0) * k);
  }
  double best_tps = 0.0;
  for (const SessionRecord& s : run.panel) best_tps += s.best_tps;
  return {
      {"setup_s", Median(setup)},
      {"wall_s", Median(wall)},
      {"cpu_s", Median(cpu)},
      {"tests_per_s", Median(tests_per_s)},
      {"round_ms_p50", Median(round_p50)},
      {"round_ms_p90", Median(round_p90)},
      {"peak_rss_mb", run.peak_rss_mb},
      {"best_tps", Ratio(best_tps, static_cast<double>(run.panel.size()))},
  };
}

std::map<std::string, double> LayerValues(const RunResult& run) {
  std::map<std::string, double> mean;
  std::vector<double> overhead;
  const double n = static_cast<double>(run.traced_sessions.size());
  for (size_t i = 0; i < run.traced_sessions.size(); ++i) {
    const SessionRecord& t = run.traced_sessions[i];
    for (const auto& [name, value] : SessionLayers(t)) mean[name] += value / n;
    overhead.push_back(
        Ratio(t.wall_s - t.probe_s, run.sessions.at(i).wall_s) - 1.0);
  }
  mean["trace.overhead_frac"] = Median(overhead);
  return mean;
}

std::vector<MetricValue> SelectMetrics(
    const std::map<std::string, double>& values,
    const std::vector<BenchmarkMetric>& wanted,
    std::vector<std::string>* missing) {
  std::vector<MetricValue> out;
  for (const BenchmarkMetric& metric : wanted) {
    const auto it = values.find(metric.name);
    if (it == values.end()) {
      missing->push_back(metric.name);
    } else {
      out.push_back({metric.name, metric.unit, it->second});
    }
  }
  return out;
}

void CheckRun(RunResult* run) {
  const auto check = [run](const SessionRecord& s, const std::string& label,
                           const SessionRecord* twin) {
    const size_t before = run->failures.size();
    if (!s.fold_exact) {
      run->failures.push_back(label +
                              ": charged spans do not fold to the clock");
    }
    if (!(s.best_tps > s.default_tps)) {  // also catches NaN
      run->failures.push_back(label +
                              ": best throughput not above the default");
    }
    if (s.stress_tests == 0 || s.round_s.empty()) {
      run->failures.push_back(label + ": no tuning round ran");
    }
    if (twin != nullptr && twin->digest != s.digest) {
      run->failures.push_back(label +
                              ": journal digest differs from untraced run");
    }
    run->failed += run->failures.size() > before ? 1 : 0;
  };
  for (const SessionRecord& s : run->sessions) {
    check(s, "untraced session seed " + std::to_string(s.seed), nullptr);
  }
  for (size_t i = 0; i < run->traced_sessions.size(); ++i) {
    const SessionRecord& t = run->traced_sessions[i];
    check(t, "traced session seed " + std::to_string(t.seed),
          &run->sessions.at(i));
  }
  for (const SessionRecord& s : run->panel) {
    check(s, "panel session seed " + std::to_string(s.seed), nullptr);
  }
}

uint64_t RunDigest(const RunResult& run) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const SessionRecord& s : run.panel.empty() ? run.sessions : run.panel) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((s.digest >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
  }
  return hash;
}

std::string ResultLine(const RunResult& run,
                       const std::vector<MetricValue>& metrics) {
  std::ostringstream out;
  out << '{';
  AppendOutcome(out, run);
  AppendMetrics(out, metrics);
  out << '}';
  return out.str();
}

std::string ResultsRecord(const RunResult& run,
                          const std::vector<MetricValue>& metrics,
                          const HostContext& host) {
  const size_t pool_threads =
      run.sessions.empty() ? 0 : run.sessions.front().pool_threads;
  std::ostringstream out;
  out << "{\"workload\":\"" << common::JsonEscape(run.workload)
      << "\",\"seed\":" << run.seed
      << ",\"trace\":" << (run.traced ? 1 : 0) << ",\"host\":{\"nproc\":"
      << host.nproc << ",\"simd_tier\":" << host.simd_tier
      << ",\"build_type\":\"" << common::JsonEscape(host.build_type)
      << "\",\"pool_threads\":" << pool_threads << ",\"commit\":\""
      << common::JsonEscape(host.commit) << "\"},";
  AppendOutcome(out, run);
  out << "\"digest\":\"" << Hex(RunDigest(run))
      << "\",\"round_samples\":" << RoundSamples(run.sessions);
  const auto sessions = [&out](const char* key,
                               const std::vector<SessionRecord>& list) {
    out << ",\"" << key << "\":[";
    for (size_t i = 0; i < list.size(); ++i) {
      const SessionRecord& s = list[i];
      out << (i > 0 ? "," : "") << "{\"seed\":" << s.seed << ",\"digest\":\""
          << Hex(s.digest) << "\",\"wall_s\":"
          << common::FormatDouble17(s.wall_s) << ",\"host_scale\":"
          << common::FormatDouble17(s.host_scale) << ",\"best_tps\":"
          << common::FormatDouble17(s.best_tps)
          << ",\"rec_hours\":" << common::FormatDouble17(s.rec_hours) << '}';
    }
    out << ']';
  };
  sessions("sessions", run.sessions);
  sessions("panel", run.panel);
  out << ',';
  AppendMetrics(out, metrics);
  out << '}';
  return out.str();
}

std::string SpanLines(const RunResult& run) {
  std::ostringstream out;
  if (run.traced_sessions.empty()) return out.str();
  const SessionRecord& s = run.traced_sessions.front();
  for (size_t id = 0; id < s.spans.size(); ++id) {
    const Span& span = s.spans[id];
    out << "{\"workload\":\"" << common::JsonEscape(run.workload)
        << "\",\"seed\":" << s.seed << ",\"round\":" << span.round
        << ",\"id\":" << id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"layer\":\"" << span.layer
        << "\",\"start_us\":" << std::llround(span.start * 1e6)
        << ",\"end_us\":" << std::llround(span.end * 1e6) << "}\n";
  }
  return out.str();
}

void PrintReport(const RunResult& run,
                 const std::vector<MetricValue>& metrics) {
  std::printf("workload %s, seed %" PRIu64 ", %s, %zu sessions, digest %s\n",
              run.workload.c_str(), run.seed,
              run.traced ? "traced" : "untraced", run.Attempted(),
              Hex(RunDigest(run)).c_str());
  const auto print = [](const char* kind, const SessionRecord& s) {
    std::printf(
        "  %s seed %" PRIu64
        ": digest %s, %zu rounds, %zu stress tests, wall %.3f s (host scale "
        "%.3f), best %.1f txn/s (default %.1f), rec %.2f h\n",
        kind, s.seed, Hex(s.digest).c_str(), s.round_s.size(), s.stress_tests,
        s.wall_s, s.host_scale, s.best_tps, s.default_tps, s.rec_hours);
  };
  for (const SessionRecord& s : run.sessions) print("session", s);
  for (const SessionRecord& s : run.panel) print("panel", s);
  size_t setups = 0;
  for (const SessionRecord& s : run.sessions) {
    setups += s.setup_reps_s.size() + 1;
  }
  std::printf("  round samples: %zu, set-up samples: %zu\n",
              RoundSamples(run.sessions), setups);
  for (const MetricValue& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& failure : run.failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("  checks: %s\n", run.failures.empty() ? "pass" : "FAIL");
}

}  // namespace hunter::bench_e2e
