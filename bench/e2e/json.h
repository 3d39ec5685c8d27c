// A small JSON reader for the benchmark's own files: BENCHMARK.json and the
// results files bench_e2e writes (one JSON object per line).

#ifndef HUNTER_BENCH_E2E_JSON_H_
#define HUNTER_BENCH_E2E_JSON_H_

#include <map>
#include <string>
#include <vector>

namespace hunter::bench_e2e {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  // Member lookup; null when this is not an object or has no such key.
  const JsonValue* Find(const std::string& key) const;
};

// Parses one JSON document. Returns false and fills `error` on malformed
// input or trailing garbage.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// Reads a whole file into `text`; false if it cannot be opened.
bool ReadFile(const std::string& path, std::string* text);

// One metric declared in BENCHMARK.json.
struct BenchmarkMetric {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;  // end-to-end only: allowed worsening, share of median
};

// The parts of BENCHMARK.json the benchmark itself reads: the metric names
// and units it reports, the bounds compare judges by, and the run length.
struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<BenchmarkMetric> end_to_end;
  std::vector<BenchmarkMetric> per_layer;
  double run_seconds = 0.0;
};

bool LoadBenchmark(const std::string& path, BenchmarkSpec* spec,
                   std::string* error);

}  // namespace hunter::bench_e2e

#endif  // HUNTER_BENCH_E2E_JSON_H_
