// Durable placement snapshots: the complete Nesterov loop state,
// serialized in the project's CRC-32 v2 container (util/serial) and
// published with atomic write-temp-rename into a double-buffered slot
// directory. Restoring a snapshot and continuing reproduces the
// uninterrupted run bitwise, which is what makes placement jobs
// preemptible, migratable, and restartable (docs/RELIABILITY.md
// "Placement snapshots & resume").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "placer/global_placer.hpp"
#include "placer/nesterov.hpp"
#include "util/mutex.hpp"
#include "util/serial.hpp"
#include "util/thread_annotations.hpp"

namespace laco {

/// Everything GlobalPlacer::run() needs to continue from an iteration
/// boundary: optimizer vectors and scalars, the λ-ramp state, overflow
/// bookkeeping, the per-iteration history, RNG stream, rollback
/// bookkeeping, and an opaque penalty-state blob (frame history +
/// stats, owned by the laco layer's codec).
struct PlacementSnapshot {
  static constexpr std::uint32_t kVersion = 1;

  std::string design_name;
  std::uint64_t num_movable = 0;
  int iteration = 0;  ///< next loop iteration to execute
  double ratio = 0.0;
  double prev_overflow = 1.0;
  double best_overflow = 1.0;
  int best_overflow_iter = 0;
  std::uint64_t rollbacks = 0;   ///< cumulative across resumes
  double rollback_damp = 1.0;    ///< compounded watchdog damping in effect
  int last_rollback_iter = -1;
  std::string rng_state;         ///< mt19937_64 stream state (post-init)
  NesterovState optimizer;
  std::vector<IterationStats> history;
  std::string penalty_state;     ///< opaque penalty section (may be empty)

  void save(serial::Writer& w) const;
  static PlacementSnapshot load(serial::Reader& r);
};

/// Serializes the optimizer state as a snapshot sub-section.
void save_nesterov_state(serial::Writer& w, const NesterovState& state);
NesterovState load_nesterov_state(serial::Reader& r);

/// Writes `snap` to `path` atomically (temp + rename); false on failure.
bool save_snapshot_file(const PlacementSnapshot& snap, const std::string& path);
/// Loads and validates a snapshot; throws std::runtime_error naming the
/// source and byte offset on any corruption (bad magic, bad version,
/// truncation, checksum mismatch).
PlacementSnapshot load_snapshot_file(const std::string& path);

/// Double-buffered snapshot slots in one directory: saves alternate
/// between two files, each published atomically, so a crash mid-save
/// always leaves the previous snapshot intact. Writes run on one
/// background writer thread. load_latest() returns the valid slot with
/// the highest iteration, skipping any slot that is missing, truncated,
/// or corrupt.
class SnapshotStore {
 public:
  /// Aims the first save at the slot NOT holding the newest valid
  /// snapshot.
  explicit SnapshotStore(std::string dir);
  /// Drains any pending async save (the handed-off state must land on
  /// disk even when the run unwinds via an exception), then joins the
  /// writer thread.
  ~SnapshotStore();
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Hands `snap` to the background writer and returns after an
  /// in-memory copy — the serialize + CRC + write-temp-rename happens
  /// off the caller's critical path (the placement loop's wall
  /// overhead is the copy, not the I/O). Latest-wins: if a save is
  /// still in flight when the next one arrives, the queued-but-
  /// unwritten older state is replaced, never the file being written.
  void save_async(const PlacementSnapshot& snap);
  /// Blocks until the background writer is idle and every handed-off
  /// snapshot has been written (or failed).
  void flush();
  /// Failed background writes (after flush() this covers everything
  /// handed to save_async that was not superseded).
  std::uint64_t async_failures() const;

  /// Best valid snapshot, or nullopt; `why` (optional) collects the
  /// per-slot failure reasons for logging.
  std::optional<PlacementSnapshot> load_latest(std::string* why = nullptr) const;

  const std::string& dir() const { return dir_; }
  /// The two slot file paths inside `dir`.
  static std::vector<std::string> slot_paths(const std::string& dir);

 private:
  void writer_loop();
  bool write_slot(const PlacementSnapshot& snap);

  std::string dir_;
  /// Set by the constructor, then touched only by the writer thread
  /// (starting the thread orders the two).
  int next_slot_ = 0;

  mutable Mutex mu_;
  CondVar cv_;
  std::optional<PlacementSnapshot> pending_ LACO_GUARDED_BY(mu_);
  /// Written-out snapshot recycled as the next copy's buffer, so the
  /// caller-side copy in save_async reuses vector capacity instead of
  /// allocating (and page-faulting) megabytes per save.
  std::optional<PlacementSnapshot> spare_ LACO_GUARDED_BY(mu_);
  bool stop_ LACO_GUARDED_BY(mu_) = false;
  bool writing_ LACO_GUARDED_BY(mu_) = false;
  std::uint64_t async_failures_ LACO_GUARDED_BY(mu_) = 0;
  /// Started lazily by the first save_async (under mu_); joined by the
  /// destructor after stop_ is set, when no other thread can touch it —
  /// deliberately unannotated, the join must not hold mu_.
  std::thread writer_;
};

}  // namespace laco
