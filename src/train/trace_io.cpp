#include "train/trace_io.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/serial.hpp"

namespace laco {
namespace {

constexpr std::uint32_t kMagic = 0x4c54524bu;  // "LTRK"
// Version 2 moved trace files onto the framed container and the shared
// grid/frame codec; a version-1 file fails to load and is recollected.
constexpr std::uint32_t kVersion = 2;

// Corruption guards: every count is checked before anything is
// allocated from it. A trace holds one run's snapshots (iterations / K).
constexpr std::uint64_t kMaxTraces = 1u << 16;
constexpr std::uint64_t kMaxSnapshots = 1u << 16;
constexpr std::uint32_t kMaxNameBytes = 1u << 12;

std::vector<PlacementTrace> read_traces(std::istream& in, const std::string& source) {
  serial::Reader r(in, source, "load_traces");
  serial::read_frame_header(r, kMagic, kVersion, "trace file");
  const std::uint64_t count = r.u64("trace count");
  if (count > kMaxTraces) r.fail("implausible trace count " + std::to_string(count));
  // Grown as records arrive, not sized from the counts: a corrupt count
  // under its cap then costs a truncated read, not a large allocation.
  std::vector<PlacementTrace> traces;
  for (std::uint64_t t = 0; t < count; ++t) {
    PlacementTrace trace;
    trace.design_name = r.str("design name", kMaxNameBytes);
    trace.spacing = r.i32("spacing");
    trace.final_hpwl = r.f64("final hpwl");
    trace.final_overflow = r.f64("final overflow");
    trace.congestion_label = load_grid(r);
    const std::uint64_t snaps = r.u64("snapshot count");
    if (snaps > kMaxSnapshots) r.fail("implausible snapshot count " + std::to_string(snaps));
    for (std::uint64_t s = 0; s < snaps; ++s) {
      Snapshot snap;
      snap.iteration = r.i32("snapshot iteration");
      snap.frame = load_frame(r);
      snap.lo_frame = load_frame(r);
      trace.snapshots.push_back(std::move(snap));
    }
    traces.push_back(std::move(trace));
  }
  serial::read_frame_trailer(r, "trace file");
  return traces;
}

}  // namespace

void save_traces(const std::vector<PlacementTrace>& traces, std::ostream& out) {
  serial::Writer w(out);
  serial::write_frame_header(w, kMagic, kVersion);
  w.u64(traces.size());
  for (const PlacementTrace& trace : traces) {
    w.str(trace.design_name);
    w.i32(trace.spacing);
    w.f64(trace.final_hpwl);
    w.f64(trace.final_overflow);
    save_grid(w, trace.congestion_label);
    w.u64(trace.snapshots.size());
    for (const Snapshot& snap : trace.snapshots) {
      w.i32(snap.iteration);
      save_frame(w, snap.frame);
      save_frame(w, snap.lo_frame);
    }
  }
  serial::write_frame_trailer(w);
}

bool save_traces_file(const std::vector<PlacementTrace>& traces, const std::string& path) {
  // The trace cache (laco/pipeline.cpp) must never read a half-written
  // file after a crash mid-collection.
  return serial::atomic_write_file(path, [&traces](std::ostream& out) {
    save_traces(traces, out);
    return static_cast<bool>(out);
  });
}

std::vector<PlacementTrace> load_traces(std::istream& in) { return read_traces(in, "<stream>"); }

std::vector<PlacementTrace> load_traces_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_traces: cannot open '" + path + "'");
  return read_traces(in, path);
}

}  // namespace laco
