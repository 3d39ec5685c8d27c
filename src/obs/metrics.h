// Metrics registry for the observability layer (DESIGN.md §10).
//
// Counters, gauges and histograms are registered by name (engine, controller
// and tuner each register their own families) and snapshotted into the run
// journal. Registration order is the schema: two runs that register the same
// instruments in the same order produce journals with identical metric
// blocks, which is what the determinism property tests pin.
//
// Deliberately simple: single-threaded (all updates happen on the
// Controller's coordination thread, never from Actor worker threads), no
// labels, doubles everywhere.

#ifndef HUNTER_OBS_METRICS_H_
#define HUNTER_OBS_METRICS_H_

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace hunter::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

// Monotone accumulator (events absorbed, retries, train steps, ...).
class Counter {
 public:
  void Increment(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Last-write-wins observation (pool size, current phase, hit ratio, ...).
// Unset gauges snapshot as NaN, never as a fake 0.0 observation.
class Gauge {
 public:
  void Set(double value) {
    value_ = value;
    set_ = true;
  }
  bool has_value() const { return set_; }
  double value() const;

 private:
  double value_ = 0.0;
  bool set_ = false;
};

// Streaming distribution built on common::RunningStat plus a retained value
// list, kept sorted as values arrive, so a snapshot reads its percentiles
// via common::PercentileOfSorted without copying or sorting.
class Histogram {
 public:
  void Observe(double value);
  size_t count() const { return stat_.count(); }
  const common::RunningStat& stat() const { return stat_; }
  double Quantile(double q) const;  // q in [0, 100]; NaN when empty

 private:
  common::RunningStat stat_;
  std::vector<double> values_;  // ascending
};

// One serialized metric in a journal snapshot. For counters and gauges only
// `value` is meaningful; histograms carry the distribution summary (all
// NaN when the histogram is empty — the count disambiguates).
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

class MetricsRegistry {
 public:
  // Get-or-create by name. Re-registering an existing name of the same kind
  // returns the existing instrument (so components re-built mid-run, e.g. a
  // re-optimized Recommender, keep accumulating into the same series);
  // re-registering under a different kind returns nullptr.
  Counter* RegisterCounter(const std::string& name);
  Gauge* RegisterGauge(const std::string& name);
  Histogram* RegisterHistogram(const std::string& name);

  size_t size() const { return order_.size(); }
  // Instrument names in registration order — the journal's metric schema.
  std::vector<std::string> Names() const;
  // Snapshot of every instrument, in registration order.
  std::vector<MetricSnapshot> Snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    size_t index;  // into the kind's deque
  };

  const Entry* Find(const std::string& name) const;

  std::vector<Entry> order_;
  std::map<std::string, size_t> by_name_;  // name -> index into order_
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace hunter::obs

#endif  // HUNTER_OBS_METRICS_H_
