// Request batcher: coalesces independent single-sample inference
// requests into one NCHW batch per forward pass. Requests are bucketed
// by (model set, model kind, input C×H×W) — only shape- and
// model-compatible requests share a batch. A bucket is cut when it
// reaches max_batch (size trigger) or when its oldest request has
// lingered past max_linger_ms (time trigger, driven by the service's
// flusher thread calling flush_due()).
//
// The batcher itself is a passive, lock-free-of-itself data structure:
// the owner provides external synchronization (InferenceService
// declares its batcher_ LACO_GUARDED_BY(mutex_), so the clang
// -Wthread-safety job statically rejects unlocked access).
// forward_batch() does the actual model execution — one forward under
// NoGradGuard over the stacked input (laco-analyze's nograd-forward rule
// enforces the guard) — and deliver_batch() fulfills each request's
// promise with its output sample.
#pragma once

#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "laco/congestion_penalty.hpp"
#include "nn/tensor.hpp"

namespace laco::serve {

/// Which network a request targets within a LacoModels set.
enum class ModelKind {
  kCongestion,  ///< f: [N, Cin, H, W] → [N, 1, H, W]
  kLookAhead,   ///< g: [N, C·cpf, H, W] → [N, cpf, H, W] (prediction)
};

const char* to_string(ModelKind kind);

struct BatchItem {
  std::shared_ptr<const LacoModels> models;
  ModelKind kind = ModelKind::kCongestion;
  nn::Tensor input;  ///< [1, C, H, W]
  std::promise<nn::Tensor> result;
  std::chrono::steady_clock::time_point enqueue_time;
  /// Per-request deadline; an item still unexecuted past it fails with
  /// serve::DeadlineExceededError instead of burning a forward pass.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Caller-defined request tag, echoed verbatim in CompletionInfo.
  int tag = 0;
};

/// A cut batch, ready for execution: every item shares models, kind,
/// and input shape.
struct Batch {
  std::vector<BatchItem> items;
};

struct BatcherConfig {
  int max_batch = 8;          ///< size trigger (clamped to ≥1)
  double max_linger_ms = 2.0; ///< time trigger for partial buckets
};

class Batcher {
 public:
  explicit Batcher(BatcherConfig config);

  /// Adds an item to its bucket; returns the bucket as a full batch when
  /// it reaches max_batch, std::nullopt otherwise. The item must carry a
  /// model set and a [1, C, H, W] input (InferenceService::submit
  /// rejects anything else before it is counted).
  std::optional<Batch> add(BatchItem item);

  /// Cuts every bucket whose oldest item has waited ≥ max_linger_ms as
  /// of `now` (every non-empty bucket when `force`).
  std::vector<Batch> flush_due(std::chrono::steady_clock::time_point now, bool force = false);

  std::size_t pending() const;
  const BatcherConfig& config() const { return config_; }

 private:
  // Model identity by address: registry/service users hold stable
  // shared_ptrs, so pointer equality is the sharing contract.
  using BucketKey = std::tuple<const LacoModels*, int, int, int, int>;
  static BucketKey key_of(const BatchItem& item);

  BatcherConfig config_;
  std::map<BucketKey, std::vector<BatchItem>> buckets_;
  std::size_t pending_ = 0;
};

// Batch assembly reuses nn::stack_batch (ops.hpp): samples are
// contiguous in NCHW, so stacking [1, C, H, W] inputs is a straight
// copy into one [N, C, H, W] tensor.

/// Extracts sample `n` of an NCHW batch as a fresh [1, C, H, W] tensor.
nn::Tensor take_sample(const nn::Tensor& batch, int n);

/// One forward pass over the stacked batch under NoGradGuard. Throws on
/// model/shape errors (and when the "serve.forward" failpoint fires);
/// it never touches the items' promises.
nn::Tensor forward_batch(const Batch& batch);

/// Fulfills each item's promise with its sample of `output`.
void deliver_batch(Batch& batch, const nn::Tensor& output);

/// Delivers `error` to every not-yet-fulfilled promise in the batch.
void fail_batch(Batch& batch, std::exception_ptr error);

}  // namespace laco::serve
