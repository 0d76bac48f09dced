// InferenceService — the resident, concurrent, batched front door to
// the trained LacoModels. Clients submit single-sample NCHW inference
// requests and get std::future results; internally requests coalesce in
// a Batcher (size + linger flush policy) and execute on a fixed
// ThreadPool, one forward pass per batch under NoGradGuard.
//
//   submit ──▶ queue_limit gate ──▶ Batcher buckets ──(full / lingered)──▶ ThreadPool
//                                                                          └─▶ execute ─▶ futures
//
// A flusher thread wakes every max_linger_ms/2 to cut aged partial
// batches, so a lone request is never stranded. ServiceCounters is the
// one record of requests, batches, occupancy and queue depth; per-
// request latency (submit → result set) is kept in a bounded reservoir
// of recent requests, from which percentiles are computed.
//
// Fault tolerance (docs/RELIABILITY.md): every future resolves — with
// the result, or with a typed error — never hangs. Admission is one
// bound: with ServiceConfig::queue_limit set, a submit that finds that
// many requests in flight fails at once with ShedError. Per-request
// deadlines fail expired items with DeadlineExceededError before they
// burn a forward pass. A failed batch fails only its own futures; the
// flusher and pool never inherit the fault.
//
// Thread-safety: submit() may be called from any number of threads.
// Results are independent tensors (no shared autograd state); model
// weights are shared read-only (see nn/tensor.hpp "Concurrency").
// Every member behind mutex_ is LACO_GUARDED_BY-annotated and the
// clang -Wthread-safety CI job proves the locking discipline at
// compile time (docs/STATIC_ANALYSIS.md).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace laco::serve {

/// Per-request completion report, delivered through
/// ServiceConfig::on_complete right after the request's promise
/// resolves, so callers can account per request without polling or
/// wrapper threads.
struct CompletionInfo {
  enum class Outcome {
    kOk,               ///< promise fulfilled with a tensor
    kError,            ///< promise failed (model or shape error, injected fault)
    kDeadlineExpired,  ///< triaged out before the forward pass
    kShed,             ///< failed at submit: queue_limit requests in flight
  };
  ModelKind kind = ModelKind::kCongestion;
  Outcome outcome = Outcome::kOk;
  int tag = 0;                       ///< the caller's submit() tag, echoed
  double latency_ms = 0.0;           ///< submit → promise resolution
  /// Forward wall time divided by the batch's live item count; 0 when
  /// the request never reached a forward pass (expired or shed).
  double exec_ms_per_item = 0.0;
};

/// Invoked once per request, after its promise has resolved, from the
/// worker (or submitting) thread, with no service lock held. Must be
/// thread-safe and cheap; it sits on the completion path of every
/// request.
using CompletionHook = std::function<void(const CompletionInfo&)>;

struct ServiceConfig {
  int num_threads = 4;              ///< worker pool size
  BatcherConfig batcher;

  // Reliability knobs (docs/RELIABILITY.md).
  double deadline_ms = 0.0;        ///< per-request deadline; 0 = none
  /// Admission bound: submit() fails the future at once with ShedError
  /// while this many requests are in flight (submitted, not completed).
  /// 0 = unbounded.
  std::size_t queue_limit = 0;
  CompletionHook on_complete;      ///< per-request completion callback (may be null)

  /// Smallest accepted linger: the flusher wakes every max_linger_ms/2,
  /// so a zero linger would degenerate into a busy loop.
  static constexpr double kMinLingerMs = 0.05;

  /// LACO_CHECKs hard invariants (non-negative durations and counts are
  /// caller bugs, not runtime conditions) and clamps soft knobs (pool
  /// size, batch size, linger) to safe minimums. The service ctor
  /// stores the validated copy.
  ServiceConfig validated() const;
};

struct ServiceCounters {
  std::uint64_t requests = 0;       ///< submitted
  std::uint64_t completed = 0;      ///< promises fulfilled (incl. errors)
  std::uint64_t batches = 0;        ///< forward passes executed
  std::uint64_t batched_items = 0;  ///< requests that went through batches
  std::size_t pending = 0;          ///< waiting in the batcher right now
  std::size_t in_flight = 0;        ///< submitted but not completed
  std::size_t max_in_flight = 0;
  std::size_t pool_queue_depth = 0;
  std::size_t pool_max_queue_depth = 0;

  // Fault-tolerance counters.
  std::uint64_t failed_batches = 0;    ///< batches whose live items received an error
  std::uint64_t deadline_expired = 0;  ///< requests failed with DeadlineExceededError
  std::uint64_t shed = 0;              ///< requests failed at submit with ShedError

  double mean_batch_size() const {
    return batches == 0 ? 0.0 : static_cast<double>(batched_items) / static_cast<double>(batches);
  }
};

class InferenceService {
 public:
  /// Recent request latencies kept for latency_snapshot_ms().
  static constexpr std::size_t kLatencyReservoir = 1 << 14;

  explicit InferenceService(ServiceConfig config = {});
  /// Drains outstanding work, then stops the flusher and the pool.
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Enqueues one inference request. `input` must be [1, C, H, W] with
  /// the channel count the target network expects; the tensor is taken
  /// by value and must not be mutated by the caller afterwards. The
  /// future yields the [1, C_out, H, W] output or a typed error
  /// (serve/errors.hpp) — it always resolves, even under faults. At
  /// queue_limit it is returned already failed with ShedError.
  /// A null model set or an input that is not [1, C, H, W] throws
  /// std::invalid_argument here, before the request is counted.
  /// `tag` is an opaque caller value echoed in CompletionInfo.
  std::future<nn::Tensor> submit(std::shared_ptr<const LacoModels> models, ModelKind kind,
                                 nn::Tensor input,  // analyze-ok(tensor-by-value): sink, moved into the batch
                                 int tag = 0)
      LACO_EXCLUDES(mutex_);

  /// Blocks until every submitted request has completed.
  void drain() LACO_EXCLUDES(mutex_);

  ServiceCounters counters() const LACO_EXCLUDES(mutex_);

  /// Latency (ms, submit → result) of up to kLatencyReservoir recent
  /// requests, unordered. Use `percentile` for p50/p99.
  std::vector<double> latency_snapshot_ms() const LACO_EXCLUDES(mutex_);

  const ServiceConfig& config() const { return config_; }

 private:
  /// Batches the worker pool may hold queued; enqueue blocks beyond it
  /// (backpressure).
  static constexpr std::size_t kPoolQueueCapacity = 256;

  /// Counts the batch and hands it to the pool. Callers must NOT hold
  /// mutex_: the pool's bounded queue blocks, and workers take mutex_.
  void enqueue(Batch batch) LACO_EXCLUDES(mutex_);
  void execute(Batch batch) LACO_EXCLUDES(mutex_);
  void flusher_loop() LACO_EXCLUDES(mutex_);

  ServiceConfig config_;
  ThreadPool pool_;
  mutable Mutex mutex_;
  CondVar drained_;
  Batcher batcher_ LACO_GUARDED_BY(mutex_);
  ServiceCounters counters_ LACO_GUARDED_BY(mutex_);
  std::vector<double> latencies_ms_ LACO_GUARDED_BY(mutex_);
  std::size_t latency_next_ LACO_GUARDED_BY(mutex_) = 0;  ///< reservoir write cursor
  bool stopping_ LACO_GUARDED_BY(mutex_) = false;
  CondVar flusher_wakeup_;
  std::thread flusher_;
};

/// p in [0, 100]; nearest-rank percentile of an unsorted sample set.
double percentile(std::vector<double> values, double p);

}  // namespace laco::serve
