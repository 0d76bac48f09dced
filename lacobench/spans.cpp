#include "spans.hpp"

#include <stdexcept>

namespace lacobench {

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

int SpanLog::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanLog: span '" + spans_.at(static_cast<std::size_t>(id)).name +
                           "' closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_s = now();
  open_.pop_back();
}

double SpanLog::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.duration();
  }
  return sum;
}

std::size_t SpanLog::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

laco::obs::Json SpanLog::to_json() const {
  laco::obs::Json out = laco::obs::Json::array();
  for (const Span& s : spans_) {
    laco::obs::Json row = laco::obs::Json::object();
    row["name"] = s.name;
    row["start_s"] = s.start_s;
    row["end_s"] = s.end_s;
    row["parent"] = s.parent;
    out.push_back(std::move(row));
  }
  return out;
}

double span_pair_cost_s() {
  SpanLog scratch;
  constexpr int kPairs = 20000;
  const double start = scratch.now();
  for (int i = 0; i < kPairs; ++i) ScopedSpan s(&scratch, "x");
  return (scratch.now() - start) / kPairs;
}

}  // namespace lacobench
