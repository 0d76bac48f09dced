#include "serve/batcher.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/ops.hpp"
#include "util/failpoint.hpp"

namespace laco::serve {

const char* to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kCongestion: return "congestion";
    case ModelKind::kLookAhead: return "lookahead";
  }
  return "?";
}

Batcher::Batcher(BatcherConfig config) : config_(config) {
  config_.max_batch = std::max(1, config_.max_batch);
  config_.max_linger_ms = std::max(0.0, config_.max_linger_ms);
}

Batcher::BucketKey Batcher::key_of(const BatchItem& item) {
  return {item.models.get(), static_cast<int>(item.kind), item.input.dim(1),
          item.input.dim(2), item.input.dim(3)};
}

std::optional<Batch> Batcher::add(BatchItem item) {
  auto& bucket = buckets_[key_of(item)];
  bucket.push_back(std::move(item));
  ++pending_;
  if (static_cast<int>(bucket.size()) < config_.max_batch) return std::nullopt;
  Batch batch;
  batch.items = std::move(bucket);
  buckets_.erase(key_of(batch.items.front()));
  pending_ -= batch.items.size();
  return batch;
}

std::vector<Batch> Batcher::flush_due(std::chrono::steady_clock::time_point now, bool force) {
  const auto linger = std::chrono::duration<double, std::milli>(config_.max_linger_ms);
  std::vector<Batch> due;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    auto& bucket = it->second;
    // Items append in arrival order, so the oldest is at the front.
    const bool aged = !bucket.empty() && (now - bucket.front().enqueue_time) >= linger;
    if (force || aged) {
      Batch batch;
      batch.items = std::move(bucket);
      pending_ -= batch.items.size();
      due.push_back(std::move(batch));
      it = buckets_.erase(it);
    } else {
      ++it;
    }
  }
  return due;
}

std::size_t Batcher::pending() const { return pending_; }

nn::Tensor take_sample(const nn::Tensor& batch, int n) {
  if (batch.shape().size() != 4) throw std::invalid_argument("take_sample: expected NCHW");
  if (n < 0 || n >= batch.dim(0)) throw std::out_of_range("take_sample: sample index");
  const std::size_t sample =
      static_cast<std::size_t>(batch.dim(1)) * batch.dim(2) * batch.dim(3);
  nn::Tensor out = nn::Tensor::zeros({1, batch.dim(1), batch.dim(2), batch.dim(3)});
  std::memcpy(out.data().data(), batch.data().data() + static_cast<std::size_t>(n) * sample,
              sample * sizeof(float));
  return out;
}

nn::Tensor forward_batch(const Batch& batch) {
  nn::NoGradGuard guard;
  LACO_FAILPOINT("serve.forward");
  std::vector<nn::Tensor> inputs;
  inputs.reserve(batch.items.size());
  for (const BatchItem& item : batch.items) inputs.push_back(item.input);
  const nn::Tensor stacked = nn::stack_batch(inputs);

  const LacoModels& models = *batch.items.front().models;
  const ModelKind kind = batch.items.front().kind;
  if (kind == ModelKind::kCongestion && !models.congestion) {
    throw std::runtime_error("forward_batch: model set has no f");
  }
  if (kind == ModelKind::kLookAhead && !models.lookahead) {
    throw std::runtime_error("forward_batch: model set has no g");
  }

  if (kind == ModelKind::kCongestion) return models.congestion->forward(stacked);
  return models.lookahead->forward(stacked).prediction;
}

void deliver_batch(Batch& batch, const nn::Tensor& output) {
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    batch.items[i].result.set_value(take_sample(output, static_cast<int>(i)));
  }
}

void fail_batch(Batch& batch, std::exception_ptr error) {
  for (BatchItem& item : batch.items) {
    // A promise whose value was already set cannot fail again; guard so
    // one satisfied promise cannot mask the batch error for the rest.
    try {
      item.result.set_exception(error);
    } catch (const std::future_error&) {
    }
  }
}

}  // namespace laco::serve
