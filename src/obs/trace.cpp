#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace laco::obs {

Json chrome_trace(const RuntimeBreakdown& record) {
  using Micros = std::chrono::duration<double, std::micro>;
  RuntimeBreakdown::Clock::time_point epoch{};
  if (!record.entries().empty()) epoch = record.entries().front().start;
  for (const RuntimeBreakdown::Entry& e : record.entries()) epoch = std::min(epoch, e.start);

  Json events = Json::array();
  for (const RuntimeBreakdown::Entry& e : record.entries()) {
    Json event = Json::object();
    event["name"] = e.name;
    event["cat"] = "phase";
    event["ph"] = "X";
    event["ts"] = Micros(e.start - epoch).count();
    event["dur"] = Micros(e.duration).count();
    event["pid"] = 1;
    event["tid"] = 0;
    events.push_back(std::move(event));
  }
  Json out = Json::object();
  out["traceEvents"] = std::move(events);
  out["displayTimeUnit"] = "ms";
  return out;
}

bool write_chrome_trace(const RuntimeBreakdown& record, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << chrome_trace(record).dump(1);
  return static_cast<bool>(out);
}

}  // namespace laco::obs
