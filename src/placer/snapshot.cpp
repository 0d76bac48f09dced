#include "placer/snapshot.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace laco {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kSnapshotMagic = 0x4c534e50u;  // "PNSL" little-endian: "LSNP"

// Corruption guards mirroring nn/serialize: a flipped bit in a length
// field must produce a clean error, not a huge allocation.
constexpr std::uint64_t kMaxHistory = std::uint64_t{1} << 22;
constexpr std::uint32_t kMaxRngStateBytes = 1u << 16;

/// Registry mirror for the snapshot subsystem. Saves happen once per
/// snapshot_every iterations — off the hot path.
obs::Counter& snapshot_counter(const char* field) {
  return obs::MetricRegistry::global().counter(std::string("placer.snapshot.") + field);
}

void save_iteration_stats(serial::Writer& w, const IterationStats& s) {
  w.i32(s.iteration);
  w.f64(s.wa_wirelength);
  w.f64(s.hpwl);
  w.f64(s.overflow);
  w.f64(s.lambda);
  w.f64(s.penalty);
  w.f64(s.step_size);
}

IterationStats load_iteration_stats(serial::Reader& r) {
  IterationStats s;
  s.iteration = r.i32("stats iteration");
  s.wa_wirelength = r.f64("stats wirelength");
  s.hpwl = r.f64("stats hpwl");
  s.overflow = r.f64("stats overflow");
  s.lambda = r.f64("stats lambda");
  s.penalty = r.f64("stats penalty");
  s.step_size = r.f64("stats step");
  return s;
}

}  // namespace

void save_nesterov_state(serial::Writer& w, const NesterovState& state) {
  w.doubles(state.ux);
  w.doubles(state.uy);
  w.doubles(state.vx);
  w.doubles(state.vy);
  w.doubles(state.prev_vx);
  w.doubles(state.prev_vy);
  w.doubles(state.prev_gx);
  w.doubles(state.prev_gy);
  w.f64(state.a);
  w.f64(state.initial_step);
  w.f64(state.step_scale);
  w.flag(state.have_prev);
}

NesterovState load_nesterov_state(serial::Reader& r) {
  NesterovState s;
  s.ux = r.doubles("optimizer ux");
  s.uy = r.doubles("optimizer uy");
  s.vx = r.doubles("optimizer vx");
  s.vy = r.doubles("optimizer vy");
  s.prev_vx = r.doubles("optimizer prev_vx");
  s.prev_vy = r.doubles("optimizer prev_vy");
  s.prev_gx = r.doubles("optimizer prev_gx");
  s.prev_gy = r.doubles("optimizer prev_gy");
  s.a = r.f64("optimizer a");
  s.initial_step = r.f64("optimizer initial_step");
  s.step_scale = r.f64("optimizer step_scale");
  s.have_prev = r.flag("optimizer have_prev");
  return s;
}

void PlacementSnapshot::save(serial::Writer& w) const {
  w.str(design_name);
  w.u64(num_movable);
  w.i32(iteration);
  w.f64(ratio);
  w.f64(prev_overflow);
  w.f64(best_overflow);
  w.i32(best_overflow_iter);
  w.u64(rollbacks);
  w.f64(rollback_damp);
  w.i32(last_rollback_iter);
  w.str(rng_state);
  save_nesterov_state(w, optimizer);
  w.u64(history.size());
  for (const IterationStats& s : history) save_iteration_stats(w, s);
  w.str(penalty_state);
}

PlacementSnapshot PlacementSnapshot::load(serial::Reader& r) {
  PlacementSnapshot snap;
  snap.design_name = r.str("design name");
  snap.num_movable = r.u64("movable count");
  snap.iteration = r.i32("iteration");
  snap.ratio = r.f64("lambda ratio");
  snap.prev_overflow = r.f64("prev overflow");
  snap.best_overflow = r.f64("best overflow");
  snap.best_overflow_iter = r.i32("best overflow iter");
  snap.rollbacks = r.u64("rollbacks");
  snap.rollback_damp = r.f64("rollback damp");
  snap.last_rollback_iter = r.i32("last rollback iter");
  snap.rng_state = r.str("rng state", kMaxRngStateBytes);
  snap.optimizer = load_nesterov_state(r);
  const std::uint64_t n = r.u64("history length");
  if (n > kMaxHistory) {
    r.fail("implausible history length " + std::to_string(n));
  }
  snap.history.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) snap.history.push_back(load_iteration_stats(r));
  snap.penalty_state = r.str("penalty state");
  return snap;
}

bool save_snapshot_file(const PlacementSnapshot& snap, const std::string& path) {
  return serial::atomic_write_file(path, [&snap](std::ostream& out) {
    serial::Writer w(out);
    serial::write_frame_header(w, kSnapshotMagic, PlacementSnapshot::kVersion);
    snap.save(w);
    serial::write_frame_trailer(w);
    return static_cast<bool>(out);
  });
}

PlacementSnapshot load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_snapshot: cannot open '" + path + "'");
  serial::Reader r(in, path, "load_snapshot");
  serial::read_frame_header(r, kSnapshotMagic, PlacementSnapshot::kVersion,
                            "placement snapshot");
  PlacementSnapshot snap = PlacementSnapshot::load(r);
  serial::read_frame_trailer(r, "placement snapshot");
  return snap;
}

std::vector<std::string> SnapshotStore::slot_paths(const std::string& dir) {
  return {(fs::path(dir) / "snapshot.a.lsnap").string(),
          (fs::path(dir) / "snapshot.b.lsnap").string()};
}

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {
  // Aim the first save at the slot NOT holding the newest valid
  // snapshot, so a crash mid-save never clobbers the last good file.
  const auto paths = slot_paths(dir_);
  int best_slot = -1;
  int best_iter = -1;
  for (int slot = 0; slot < 2; ++slot) {
    std::error_code ec;
    if (!fs::exists(paths[static_cast<std::size_t>(slot)], ec)) continue;
    try {
      const PlacementSnapshot snap = load_snapshot_file(paths[static_cast<std::size_t>(slot)]);
      if (snap.iteration > best_iter) {
        best_iter = snap.iteration;
        best_slot = slot;
      }
    } catch (const std::exception&) {
      // A corrupt slot is exactly the one to overwrite first.
    }
  }
  next_slot_ = best_slot >= 0 ? best_slot ^ 1 : 0;
}

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

}  // namespace

SnapshotStore::~SnapshotStore() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

bool SnapshotStore::write_slot(const PlacementSnapshot& snap) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  const auto paths = slot_paths(dir_);
  const std::string& path = paths[static_cast<std::size_t>(next_slot_)];
  if (!save_snapshot_file(snap, path)) {
    snapshot_counter("save_failures").add(1);
    LACO_LOG_WARN << "snapshot save failed for '" << path << "' (disk full or unwritable)";
    return false;
  }
  next_slot_ ^= 1;
  snapshot_counter("saves").add(1);
  std::error_code size_ec;
  const auto size = fs::file_size(path, size_ec);
  if (!size_ec) snapshot_counter("bytes").add(static_cast<std::uint64_t>(size));
  return true;
}

void SnapshotStore::save_async(const PlacementSnapshot& snap) {
  // save_ns accumulates wall time the caller was blocked on snapshot
  // work, which is what the bench_fig8_runtime overhead guardrail
  // measures; the background writer's time lands in write_ns instead.
  const auto start = std::chrono::steady_clock::now();
  // The copy is the only work on the caller's critical path. Copy into
  // the recycled buffer from the last completed write when one exists:
  // copy-assignment reuses the vectors' capacity, so steady state is a
  // memcpy, not a round of large allocations.
  std::optional<PlacementSnapshot> buf;
  {
    MutexLock lock(mu_);
    buf.swap(spare_);
  }
  if (buf.has_value()) {
    *buf = snap;
  } else {
    buf.emplace(snap);
  }
  {
    MutexLock lock(mu_);
    if (!writer_.joinable()) writer_ = std::thread(&SnapshotStore::writer_loop, this);
    pending_.swap(buf);  // a superseded pending_ becomes the next spare
    if (buf.has_value() && !spare_.has_value()) spare_.swap(buf);
  }
  cv_.notify_all();
  snapshot_counter("save_ns").add(elapsed_ns(start));
}

void SnapshotStore::flush() {
  MutexLock lock(mu_);
  while (pending_.has_value() || writing_) cv_.wait(mu_);
}

std::uint64_t SnapshotStore::async_failures() const {
  MutexLock lock(mu_);
  return async_failures_;
}

void SnapshotStore::writer_loop() {
  for (;;) {
    std::optional<PlacementSnapshot> job;
    {
      MutexLock lock(mu_);
      while (!pending_.has_value() && !stop_) cv_.wait(mu_);
      if (!pending_.has_value() && stop_) return;
      job = std::move(pending_);
      pending_.reset();
      writing_ = true;
    }
    const auto start = std::chrono::steady_clock::now();
    const bool ok = write_slot(*job);
    snapshot_counter("write_ns").add(elapsed_ns(start));
    {
      MutexLock lock(mu_);
      writing_ = false;
      if (!ok) ++async_failures_;
      if (!spare_.has_value()) spare_.swap(job);  // recycle the buffers
    }
    cv_.notify_all();
  }
}

std::optional<PlacementSnapshot> SnapshotStore::load_latest(std::string* why) const {
  std::optional<PlacementSnapshot> best;
  std::string reasons;
  for (const std::string& path : slot_paths(dir_)) {
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      reasons += path + ": missing; ";
      continue;
    }
    try {
      PlacementSnapshot snap = load_snapshot_file(path);
      snapshot_counter("loads").add(1);
      if (!best || snap.iteration > best->iteration) best = std::move(snap);
    } catch (const std::exception& e) {
      snapshot_counter("load_failures").add(1);
      LACO_LOG_WARN << "snapshot slot rejected: " << e.what();
      reasons += std::string(e.what()) + "; ";
    }
  }
  if (why != nullptr) *why = reasons;
  return best;
}

}  // namespace laco
