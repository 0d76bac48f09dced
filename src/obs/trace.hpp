// Phase spans and their Chrome `trace_event` export, loadable in
// chrome://tracing or https://ui.perfetto.dev (docs/OBSERVABILITY.md).
//
// obs::Span is the one RAII phase timer: it appends a completed span
// to a run's RuntimeBreakdown (util/timer.hpp). With a null record it
// tests one pointer and reads no clock, so phases stay in paths that
// run untimed (trace collection, serve set-up).
#pragma once

#include <string>

#include "obs/json.hpp"
#include "util/timer.hpp"

namespace laco::obs {

class Span {
 public:
  /// `name` must outlive `record` (a string literal).
  Span(RuntimeBreakdown* record, const char* name) : record_(record), name_(name) {
    if (record_ != nullptr) start_ = RuntimeBreakdown::Clock::now();
  }
  ~Span() {
    if (record_ != nullptr) record_->add(name_, start_, RuntimeBreakdown::Clock::now() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  RuntimeBreakdown* record_;
  const char* name_;
  RuntimeBreakdown::Clock::time_point start_;
};

/// {"traceEvents": [{"name", "cat": "phase", "ph": "X", "ts", "dur",
/// "pid": 1, "tid": 0}...], "displayTimeUnit": "ms"}: one complete
/// event per span, `ts` in microseconds from the record's first start.
Json chrome_trace(const RuntimeBreakdown& record);
/// Writes chrome_trace(record) to `path`; false on I/O failure.
bool write_chrome_trace(const RuntimeBreakdown& record, const std::string& path);

}  // namespace laco::obs
