#include "obs/metrics.hpp"

#include <cstdio>

namespace laco::obs {
namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Json MetricsSnapshot::to_json() const {
  Json counters_json = Json::object();
  for (const auto& [name, value] : counters) counters_json[name] = value;
  Json gauges_json = Json::object();
  for (const auto& [name, value] : gauges) gauges_json[name] = value;
  Json out = Json::object();
  out["counters"] = std::move(counters_json);
  out["gauges"] = std::move(gauges_json);
  return out;
}

std::string MetricsSnapshot::to_string(const std::string& prefix) const {
  const auto matches = [&prefix](const std::string& name) {
    return prefix.empty() || name.rfind(prefix, 0) == 0;
  };
  std::string out;
  for (const auto& [name, value] : counters) {
    if (matches(name)) out += name + " = " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    if (matches(name)) out += name + " = " + fmt_double(value) + "\n";
  }
  return out;
}

Counter& MetricRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

MetricsSnapshot MetricRegistry::snapshot() const {
  MetricsSnapshot s;
  MutexLock lock(mutex_);
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  return s;
}

void MetricRegistry::reset() {
  MutexLock lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  return registry;
}

}  // namespace laco::obs
