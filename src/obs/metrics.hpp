// Thread-safe metric registry for telemetry that has no struct of its
// own (docs/OBSERVABILITY.md). Two instrument kinds:
//
//   * Counter — monotonically increasing uint64 (allocations, calls);
//   * Gauge   — last-write-wins double, plus a high-water mark.
//
// Instruments are created on first use and live for the registry's
// lifetime, so references returned by counter()/gauge() are stable and
// may be cached in hot paths (nn.tensor.allocs does). Counters and
// gauges are lock-free atomics; the name maps sit behind a
// LACO_GUARDED_BY-annotated mutex, proven by the clang -Wthread-safety
// CI job (docs/STATIC_ANALYSIS.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/json.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace laco::obs {

/// Monotonic event count. add() is wait-free; value() is a relaxed read
/// (totals are exact once writer threads are quiesced, e.g. joined).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value, plus a max-accumulate for
/// high-water marks.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if `v` is greater (high-water mark).
  void record_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Everything the registry knows, copied at one instant.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;

  /// {"counters": {...}, "gauges": {...}}.
  Json to_json() const;
  /// Human-readable lines ("name = value"), for CLI stats dumps.
  /// `prefix` filters to metric names starting with it.
  std::string to_string(const std::string& prefix = "") const;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Get-or-create by name. The returned reference is stable for the
  /// registry's lifetime.
  Counter& counter(const std::string& name) LACO_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) LACO_EXCLUDES(mutex_);

  MetricsSnapshot snapshot() const LACO_EXCLUDES(mutex_);

  /// Zeroes every registered instrument without destroying it — cached
  /// references stay valid (tests isolate themselves with this).
  void reset() LACO_EXCLUDES(mutex_);

  /// The process-wide registry every subsystem reports into.
  static MetricRegistry& global();

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ LACO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ LACO_GUARDED_BY(mutex_);
};

}  // namespace laco::obs
