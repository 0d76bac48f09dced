// Tracing spans — RAII scopes that record per-thread begin/end events
// and export Chrome `trace_event` JSON, loadable in chrome://tracing or
// https://ui.perfetto.dev (docs/OBSERVABILITY.md).
//
// Recording is off by default: TraceSpan's constructor is one relaxed
// atomic load when disabled, so spans stay in hot paths permanently
// (`laco place --trace-out` flips them on for a run). Events carry a
// small per-thread tid so nested spans from concurrent workers render
// as separate, well-nested tracks.
//
// PhaseSpan is the bridge to the phase tables: one RAII object that
// both accumulates into a RuntimeBreakdown (the Fig. 8 phase tables)
// and emits a trace span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace laco::obs {

/// One completed span (Chrome "X" complete event).
struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;   ///< begin, microseconds since recorder start()
  double dur_us = 0.0;  ///< duration, microseconds
  int tid = 0;          ///< small dense id, assigned per recording thread
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Clears previous events and starts recording (idempotent).
  void start() LACO_EXCLUDES(mutex_);
  /// Stops recording; recorded events stay available for export.
  void stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one completed span for the calling thread. No-op while
  /// disabled (spans racing a stop() may still land; harmless).
  void record(std::string name, std::string category,
              std::chrono::steady_clock::time_point begin,
              std::chrono::steady_clock::time_point end) LACO_EXCLUDES(mutex_);

  std::size_t event_count() const LACO_EXCLUDES(mutex_);
  std::vector<TraceEvent> events() const LACO_EXCLUDES(mutex_);
  void clear() LACO_EXCLUDES(mutex_);

  /// {"traceEvents": [{"name", "cat", "ph": "X", "ts", "dur", "pid",
  /// "tid"}...], "displayTimeUnit": "ms"} — the Chrome trace format.
  Json chrome_trace() const LACO_EXCLUDES(mutex_);
  /// Writes chrome_trace() to `path`; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  /// The process-wide recorder every span reports into.
  static TraceRecorder& global();

 private:
  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_;
  std::chrono::steady_clock::time_point epoch_ LACO_GUARDED_BY(mutex_);
  std::vector<TraceEvent> events_ LACO_GUARDED_BY(mutex_);
  std::map<std::thread::id, int> tids_ LACO_GUARDED_BY(mutex_);
};

/// RAII span against the global recorder. Construction while disabled
/// costs one atomic load; name/category are only copied when recording.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, std::string category = "laco");
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_;
  std::string name_;
  std::string category_;
  std::chrono::steady_clock::time_point begin_;
};

/// RAII phase probe: accumulates elapsed seconds into an optional
/// RuntimeBreakdown (Fig. 8 tables) and emits a trace span under the
/// "phase" category. Null breakdown disables only the breakdown half.
class PhaseSpan {
 public:
  PhaseSpan(RuntimeBreakdown* breakdown, const char* name);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  RuntimeBreakdown* breakdown_;
  const char* name_;
  bool tracing_;
  std::chrono::steady_clock::time_point begin_;
};

}  // namespace laco::obs
