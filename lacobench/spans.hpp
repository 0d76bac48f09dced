// In-memory span log for the benchmark's traced pass. Spans are opened
// and closed by the benchmark's own code around public library calls;
// nothing inside the library is instrumented. Each span has a name, a
// start and end (seconds since the log was created) and its parent.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace lacobench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into SpanLog::spans(), -1 for a root span
  double duration() const { return end_s - start_s; }
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its id.
  int begin(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  double now() const;
  /// Summed duration of every span called `name`.
  double total(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }
  laco::obs::Json to_json() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Measured cost of one span begin/end pair, for the tracing-overhead
/// estimate (span count × pair cost ÷ traced time).
double span_pair_cost_s();

/// RAII span; a null log makes it a no-op, so untraced code paths can
/// share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace lacobench
