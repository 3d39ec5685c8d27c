#include "obs/metrics.h"

#include <algorithm>
#include <limits>

namespace hunter::obs {

double Gauge::value() const {
  return set_ ? value_ : std::numeric_limits<double>::quiet_NaN();
}

void Histogram::Observe(double value) {
  stat_.Add(value);
  values_.insert(std::upper_bound(values_.begin(), values_.end(), value),
                 value);
}

double Histogram::Quantile(double q) const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return common::PercentileOfSorted(values_, q);
}

const MetricsRegistry::Entry* MetricsRegistry::Find(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return &order_[it->second];
}

Counter* MetricsRegistry::RegisterCounter(const std::string& name) {
  if (const Entry* e = Find(name)) {
    return e->kind == MetricKind::kCounter ? &counters_[e->index] : nullptr;
  }
  by_name_[name] = order_.size();
  order_.push_back({name, MetricKind::kCounter, counters_.size()});
  counters_.emplace_back();
  return &counters_.back();
}

Gauge* MetricsRegistry::RegisterGauge(const std::string& name) {
  if (const Entry* e = Find(name)) {
    return e->kind == MetricKind::kGauge ? &gauges_[e->index] : nullptr;
  }
  by_name_[name] = order_.size();
  order_.push_back({name, MetricKind::kGauge, gauges_.size()});
  gauges_.emplace_back();
  return &gauges_.back();
}

Histogram* MetricsRegistry::RegisterHistogram(const std::string& name) {
  if (const Entry* e = Find(name)) {
    return e->kind == MetricKind::kHistogram ? &histograms_[e->index] : nullptr;
  }
  by_name_[name] = order_.size();
  order_.push_back({name, MetricKind::kHistogram, histograms_.size()});
  histograms_.emplace_back();
  return &histograms_.back();
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(order_.size());
  for (const Entry& e : order_) names.push_back(e.name);
  return names;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(order_.size());
  for (const Entry& e : order_) {
    MetricSnapshot s;
    s.name = e.name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = counters_[e.index].value();
        break;
      case MetricKind::kGauge:
        s.value = gauges_[e.index].value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = histograms_[e.index];
        s.count = h.count();
        s.mean = h.count() == 0
                     ? std::numeric_limits<double>::quiet_NaN()
                     : h.stat().mean();
        s.min = h.stat().min();
        s.max = h.stat().max();
        s.p50 = h.Quantile(50.0);
        s.p95 = h.Quantile(95.0);
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace hunter::obs
