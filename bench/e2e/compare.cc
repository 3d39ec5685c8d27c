#include "bench/e2e/compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <vector>

namespace hunter::bench_e2e {
namespace {

// The untraced runs of one workload in one results file, in file order.
struct WorkloadRuns {
  std::vector<std::map<std::string, double>> metrics;
  std::set<std::string> digests;
};

bool LoadResults(const std::string& path,
                 std::map<std::string, WorkloadRuns>* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "bench_e2e compare: cannot open %s\n", path.c_str());
    return false;
  }
  std::istringstream lines(text);
  std::string line;
  for (size_t number = 1; std::getline(lines, line); ++number) {
    if (line.empty()) continue;
    JsonValue record;
    std::string error;
    if (!ParseJson(line, &record, &error)) {
      std::fprintf(stderr, "bench_e2e compare: %s:%zu: %s\n", path.c_str(),
                   number, error.c_str());
      return false;
    }
    const JsonValue* workload = record.Find("workload");
    const JsonValue* trace = record.Find("trace");
    const JsonValue* metrics = record.Find("metrics");
    if (workload == nullptr || trace == nullptr || metrics == nullptr) {
      std::fprintf(stderr, "bench_e2e compare: %s:%zu: not a results record\n",
                   path.c_str(), number);
      return false;
    }
    if (trace->number != 0.0) continue;  // per-layer metrics: not judged
    WorkloadRuns& runs = (*out)[workload->string];
    std::map<std::string, double>& values = runs.metrics.emplace_back();
    for (const auto& [name, metric] : metrics->object) {
      const JsonValue* value = metric.Find("value");
      if (value != nullptr) values[name] = value->number;
    }
    if (const JsonValue* digest = record.Find("digest")) {
      runs.digests.insert(digest->string);
    }
  }
  return true;
}

// Quartiles as Python's statistics.quantiles(values, n=4) gives them (its
// default "exclusive" method), and the median.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Quartiles ComputeQuartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return {};
  if (n == 1) return {v[0], v[0], v[0]};
  const auto cut = [&v, n](size_t i) {
    const size_t m = n + 1;
    const size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  const double median =
      n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  return {cut(1), median, cut(3)};
}

enum class Verdict { kBetter, kWorse, kUnchanged, kUnresolved };

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kBetter: return "better";
    case Verdict::kWorse: return "WORSE";
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

struct Judgement {
  Quartiles parent;
  Quartiles change;
  size_t pairs = 0;
  size_t wins = 0;  // pairs the change wins; ties count for neither side
  Verdict verdict = Verdict::kUnresolved;
};

// Better: the change wins at least 9/10 of the pairs and the medians differ
// by more than the parent's interquartile range. Worse: the change's median
// is worse than the parent's by more than the metric's bound. Unresolved:
// otherwise, when the parent's own spread is wider than the bound and not
// every change run beats every parent run. Unchanged: the rest.
Judgement Judge(const std::vector<double>& parent,
                const std::vector<double>& change,
                const BenchmarkMetric& metric) {
  Judgement j;
  j.parent = ComputeQuartiles(parent);
  j.change = ComputeQuartiles(change);
  if (parent.empty() || change.empty()) return j;
  // Positive when the change is better.
  const double sign = metric.higher_is_better ? 1.0 : -1.0;
  const auto gain = [sign](double from, double to) { return sign * (to - from); };
  j.pairs = std::min(parent.size(), change.size());
  for (size_t i = 0; i < j.pairs; ++i) {
    j.wins += gain(parent[i], change[i]) > 0.0 ? 1 : 0;
  }
  const double gap = gain(j.parent.median, j.change.median);
  const double iqr = j.parent.q3 - j.parent.q1;
  const double allowed = metric.bound * std::fabs(j.parent.median);
  const double worst_change = metric.higher_is_better
      ? *std::min_element(change.begin(), change.end())
      : *std::max_element(change.begin(), change.end());
  const double best_parent = metric.higher_is_better
      ? *std::max_element(parent.begin(), parent.end())
      : *std::min_element(parent.begin(), parent.end());
  const bool every_run_better = gain(best_parent, worst_change) > 0.0;
  if (10 * j.wins >= 9 * j.pairs && gap > iqr && gap > 0.0) {
    j.verdict = Verdict::kBetter;
  } else if (-gap > allowed) {
    j.verdict = Verdict::kWorse;
  } else if (iqr > allowed && !every_run_better) {
    j.verdict = Verdict::kUnresolved;
  } else {
    j.verdict = Verdict::kUnchanged;
  }
  return j;
}

std::vector<double> Values(const WorkloadRuns& runs, const std::string& name) {
  std::vector<double> out;
  for (const std::map<std::string, double>& run : runs.metrics) {
    const auto it = run.find(name);
    if (it != run.end()) out.push_back(it->second);
  }
  return out;
}

std::string Join(const std::set<std::string>& values) {
  std::string out;
  for (const std::string& v : values) out += (out.empty() ? "" : ",") + v;
  return out.empty() ? "none" : out;
}

}  // namespace

int Compare(const std::string& parent_path, const std::string& change_path,
            const BenchmarkSpec& benchmark) {
  std::map<std::string, WorkloadRuns> parent, change;
  if (!LoadResults(parent_path, &parent) ||
      !LoadResults(change_path, &change)) {
    return 2;
  }
  std::printf("parent %s, change %s\n", parent_path.c_str(),
              change_path.c_str());
  std::printf("%-18s %-14s %-6s %-31s %-31s %-25s %-6s %s\n", "workload",
              "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "change/parent (bases)", "wins",
              "verdict");
  std::map<Verdict, size_t> tally;
  for (const std::string& workload : benchmark.workloads) {
    const WorkloadRuns& p = parent[workload];
    const WorkloadRuns& c = change[workload];
    for (const BenchmarkMetric& metric : benchmark.end_to_end) {
      const Judgement j =
          Judge(Values(p, metric.name), Values(c, metric.name), metric);
      char parent_cell[64], change_cell[64], ratio_cell[64], wins_cell[32];
      std::snprintf(parent_cell, sizeof(parent_cell), "%.4g [%.4g, %.4g]",
                    j.parent.median, j.parent.q1, j.parent.q3);
      std::snprintf(change_cell, sizeof(change_cell), "%.4g [%.4g, %.4g]",
                    j.change.median, j.change.q1, j.change.q3);
      std::snprintf(ratio_cell, sizeof(ratio_cell), "%.4f (%.4g/%.4g)",
                    j.parent.median != 0.0 ? j.change.median / j.parent.median
                                           : 0.0,
                    j.change.median, j.parent.median);
      std::snprintf(wins_cell, sizeof(wins_cell), "%zu/%zu", j.wins, j.pairs);
      std::printf("%-18s %-14s %-6s %-31s %-31s %-25s %-6s %s\n",
                  workload.c_str(), metric.name.c_str(), metric.unit.c_str(),
                  parent_cell, change_cell, ratio_cell, wins_cell,
                  VerdictName(j.verdict));
      ++tally[j.verdict];
    }
    std::printf("%-18s output digest: parent %s, change %s (%s)\n",
                workload.c_str(), Join(p.digests).c_str(),
                Join(c.digests).c_str(),
                p.digests == c.digests ? "same" : "CHANGED");
  }
  std::printf("verdicts: %zu better, %zu worse, %zu unchanged, %zu unresolved\n",
              tally[Verdict::kBetter], tally[Verdict::kWorse],
              tally[Verdict::kUnchanged], tally[Verdict::kUnresolved]);
  return tally[Verdict::kWorse] > 0 ? 1 : 0;
}

}  // namespace hunter::bench_e2e
