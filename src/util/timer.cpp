#include "util/timer.hpp"

#include <algorithm>
#include <map>

namespace laco {
namespace {

double to_seconds(RuntimeBreakdown::Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

double RuntimeBreakdown::seconds(const std::string& phase) const {
  Clock::duration sum{};
  for (const Entry& e : entries_) {
    if (phase == e.name) sum += e.duration;
  }
  return to_seconds(sum);
}

double RuntimeBreakdown::total() const {
  Clock::duration sum{};
  for (const Entry& e : entries_) sum += e.duration;
  return to_seconds(sum);
}

double RuntimeBreakdown::extent() const {
  if (entries_.empty()) return 0.0;
  Clock::time_point first = entries_.front().start;
  Clock::time_point last = first;
  for (const Entry& e : entries_) {
    first = std::min(first, e.start);
    last = std::max(last, e.start + e.duration);
  }
  return to_seconds(last - first);
}

std::vector<std::tuple<std::string, double, double>> RuntimeBreakdown::table() const {
  std::map<std::string, Clock::duration> per_phase;
  for (const Entry& e : entries_) per_phase[e.name] += e.duration;
  const double sum = total();
  std::vector<std::tuple<std::string, double, double>> rows;
  rows.reserve(per_phase.size());
  for (const auto& [phase, d] : per_phase) {
    const double s = to_seconds(d);
    rows.emplace_back(phase, s, sum > 0.0 ? s / sum : 0.0);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return std::get<1>(a) > std::get<1>(b); });
  return rows;
}

}  // namespace laco
