#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "serve/errors.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace laco::serve {

ServiceConfig ServiceConfig::validated() const {
  ServiceConfig v = *this;
  // Hard invariants: negative durations/counts are caller bugs.
  LACO_CHECK(v.batcher.max_linger_ms >= 0.0);
  LACO_CHECK(v.deadline_ms >= 0.0);
  // Soft knobs clamp to safe minimums. A zero linger would make the
  // flusher (which sleeps max_linger_ms / 2 per tick) spin.
  v.num_threads = std::max(1, v.num_threads);
  v.batcher.max_batch = std::max(1, v.batcher.max_batch);
  v.batcher.max_linger_ms = std::max(kMinLingerMs, v.batcher.max_linger_ms);
  return v;
}

InferenceService::InferenceService(ServiceConfig config)
    : config_(config.validated()),
      pool_(config_.num_threads, kPoolQueueCapacity),
      batcher_(config_.batcher) {
  flusher_ = std::thread([this] { flusher_loop(); });
}

InferenceService::~InferenceService() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  flusher_wakeup_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  drain();
  pool_.shutdown();
}

std::future<nn::Tensor> InferenceService::submit(std::shared_ptr<const LacoModels> models,
                                                 ModelKind kind,
                                                 nn::Tensor input,  // analyze-ok(tensor-by-value): sink
                                                 int tag) {
  // Reject a malformed request before it is counted: one counted in
  // flight that never reaches the batcher would block drain() forever.
  if (!models) throw std::invalid_argument("InferenceService::submit: null model set");
  if (!input.defined() || input.shape().size() != 4 || input.dim(0) != 1) {
    throw std::invalid_argument("InferenceService::submit: input must be a [1, C, H, W] tensor");
  }
  const auto now = std::chrono::steady_clock::now();
  BatchItem item;
  item.models = std::move(models);
  item.kind = kind;
  item.input = std::move(input);
  item.enqueue_time = now;
  item.tag = tag;
  if (config_.deadline_ms > 0.0) {
    item.deadline =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(config_.deadline_ms));
  }
  std::future<nn::Tensor> future = item.result.get_future();

  std::optional<Batch> full;
  {
    MutexLock lock(mutex_);
    if (stopping_) throw std::runtime_error("InferenceService::submit after shutdown");
    ++counters_.requests;

    // Admission: at the in-flight bound the request fails now instead
    // of queueing behind work that already fills the service.
    if (config_.queue_limit > 0 && counters_.in_flight >= config_.queue_limit) {
      ++counters_.shed;
      ++counters_.completed;
      item.result.set_exception(std::make_exception_ptr(
          ShedError("InferenceService: request shed, queue_limit (" +
                    std::to_string(config_.queue_limit) + ") requests already in flight")));
      lock.unlock();
      if (config_.on_complete) {
        CompletionInfo info;
        info.kind = kind;
        info.outcome = CompletionInfo::Outcome::kShed;
        info.tag = tag;
        config_.on_complete(info);
      }
      return future;
    }

    ++counters_.in_flight;
    counters_.max_in_flight = std::max(counters_.max_in_flight, counters_.in_flight);
    full = batcher_.add(std::move(item));
  }
  if (full) enqueue(std::move(*full));
  return future;
}

void InferenceService::enqueue(Batch batch) {
  {
    MutexLock lock(mutex_);
    ++counters_.batches;
    counters_.batched_items += batch.items.size();
  }
  // The pool applies backpressure: submit blocks while its queue is
  // full. Never call this while holding mutex_ — workers need it to
  // record completions.
  auto shared = std::make_shared<Batch>(std::move(batch));
  pool_.submit([this, shared] { execute(std::move(*shared)); });
}

void InferenceService::execute(Batch batch) {
  const std::size_t n = batch.items.size();

  // Deadline triage: items already expired fail with a typed error now
  // instead of burning (a share of) a forward pass.
  const auto start = std::chrono::steady_clock::now();
  Batch live;
  Batch expired;
  for (BatchItem& item : batch.items) {
    (item.deadline < start ? expired : live).items.push_back(std::move(item));
  }
  if (!expired.items.empty()) {
    fail_batch(expired, std::make_exception_ptr(DeadlineExceededError(
                            "InferenceService: request deadline (" +
                            std::to_string(config_.deadline_ms) +
                            " ms) expired before execution")));
  }

  // One forward pass; any error fails only this batch's futures.
  // Nothing here can wedge the flusher or the pool.
  bool succeeded = false;
  double exec_ms = 0.0;  ///< forward wall time
  if (!live.items.empty()) {
    Timer exec_timer;
    try {
      const nn::Tensor output = forward_batch(live);
      deliver_batch(live, output);
      succeeded = true;
    } catch (...) {
      fail_batch(live, std::current_exception());
    }
    exec_ms = exec_timer.seconds() * 1e3;
  }

  const auto now = std::chrono::steady_clock::now();
  const auto latency_of = [&now](const BatchItem& item) {
    return std::chrono::duration<double, std::milli>(now - item.enqueue_time).count();
  };

  // Completion reports — after the promises resolved, with no lock held
  // (the hook may take the caller's own lock; never nest it under ours),
  // and BEFORE the in_flight decrement below: drain() returning must
  // imply every hook has run, or the caller's accounting would trail.
  if (config_.on_complete) {
    const double exec_per_item =
        live.items.empty() ? 0.0 : exec_ms / static_cast<double>(live.items.size());
    CompletionInfo info;
    for (const BatchItem& item : expired.items) {
      info.kind = item.kind;
      info.outcome = CompletionInfo::Outcome::kDeadlineExpired;
      info.tag = item.tag;
      info.latency_ms = latency_of(item);
      info.exec_ms_per_item = 0.0;
      config_.on_complete(info);
    }
    for (const BatchItem& item : live.items) {
      info.kind = item.kind;
      info.outcome = succeeded ? CompletionInfo::Outcome::kOk : CompletionInfo::Outcome::kError;
      info.tag = item.tag;
      info.latency_ms = latency_of(item);
      info.exec_ms_per_item = exec_per_item;
      config_.on_complete(info);
    }
  }

  {
    MutexLock lock(mutex_);
    for (const Batch* part : {&expired, &live}) {
      for (const BatchItem& item : part->items) {
        const double ms = latency_of(item);
        if (latencies_ms_.size() < kLatencyReservoir) {
          latencies_ms_.push_back(ms);
        } else {
          latencies_ms_[latency_next_ % kLatencyReservoir] = ms;
        }
        ++latency_next_;
      }
    }
    counters_.completed += n;
    counters_.in_flight -= n;
    counters_.deadline_expired += expired.items.size();
    if (!live.items.empty() && !succeeded) ++counters_.failed_batches;
  }
  drained_.notify_all();
}

void InferenceService::drain() {
  std::vector<Batch> due;
  {
    MutexLock lock(mutex_);
    due = batcher_.flush_due(std::chrono::steady_clock::now(), /*force=*/true);
  }
  for (Batch& batch : due) enqueue(std::move(batch));
  MutexLock lock(mutex_);
  while (counters_.in_flight != 0 || batcher_.pending() != 0) drained_.wait(mutex_);
}

ServiceCounters InferenceService::counters() const {
  ServiceCounters c;
  {
    MutexLock lock(mutex_);
    c = counters_;
    c.pending = batcher_.pending();
  }
  c.pool_queue_depth = pool_.queue_depth();
  c.pool_max_queue_depth = pool_.max_queue_depth();
  return c;
}

std::vector<double> InferenceService::latency_snapshot_ms() const {
  MutexLock lock(mutex_);
  return latencies_ms_;
}

void InferenceService::flusher_loop() {
  // Microsecond resolution: a sub-millisecond linger must not truncate
  // to a zero-length (busy) wait. validated() already clamps the linger
  // to kMinLingerMs, so the tick is always a real sleep.
  const auto tick = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::duration<double, std::milli>(
          std::max(ServiceConfig::kMinLingerMs * 0.5, config_.batcher.max_linger_ms * 0.5)));
  for (;;) {
    std::vector<Batch> due;
    bool exit_after_flush = false;
    {
      MutexLock lock(mutex_);
      // Plain timed wait, no predicate lambda: a spurious or early
      // wakeup just runs one extra (harmless) flush_due pass, and the
      // thread-safety analysis sees every guarded read under the lock.
      if (!stopping_) flusher_wakeup_.wait_for(mutex_, tick);
      exit_after_flush = stopping_;
      due = batcher_.flush_due(std::chrono::steady_clock::now(), /*force=*/stopping_);
    }
    for (Batch& batch : due) enqueue(std::move(batch));
    if (exit_after_flush) return;
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                                static_cast<double>(values.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace laco::serve
