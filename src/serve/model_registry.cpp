#include "serve/model_registry.hpp"

#include <stdexcept>
#include <string>

#include "laco/model_zoo.hpp"
#include "models/congestion_fcn.hpp"
#include "models/lookahead_simvp.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace laco::serve {
namespace {

void freeze(const nn::Module& module) {
  for (nn::Tensor p : module.parameters()) {
    // Conditional write: frozen weights are shared read-only across
    // threads, so avoid dirtying them when already frozen.
    if (p.requires_grad()) p.set_requires_grad(false);
  }
}

/// Copies parameter values src → dst positionally. Both nets were built
/// from the same config, so parameters() walks the same module tree in
/// the same depth-first order; a count or shape mismatch is a bug.
void copy_parameters(const nn::Module& src, const nn::Module& dst) {
  const std::vector<nn::Tensor> from = src.parameters();
  std::vector<nn::Tensor> to = dst.parameters();
  LACO_CHECK(from.size() == to.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    LACO_CHECK(from[i].numel() == to[i].numel());
    to[i].data() = from[i].data();
  }
}

}  // namespace

std::shared_ptr<const LacoModels> clone_frozen(const LacoModels& src) {
  auto clone = std::make_shared<LacoModels>();
  clone->scheme = src.scheme;
  clone->scale_hi = src.scale_hi;
  clone->scale_lo = src.scale_lo;
  if (src.congestion) {
    auto f = std::make_shared<CongestionFcn>(src.congestion->config());
    copy_parameters(*src.congestion, *f);
    freeze(*f);
    clone->congestion = std::move(f);
  }
  if (src.lookahead) {
    auto g = std::make_shared<LookAheadModel>(src.lookahead->config());
    copy_parameters(*src.lookahead, *g);
    freeze(*g);
    clone->lookahead = std::move(g);
  }
  return clone;
}

std::size_t model_footprint_bytes(const LacoModels& models) {
  std::int64_t scalars = 0;
  if (models.congestion) scalars += models.congestion->num_parameters();
  if (models.lookahead) scalars += models.lookahead->num_parameters();
  return static_cast<std::size_t>(scalars) * sizeof(float);
}

ModelRegistry::ModelRegistry(RegistryConfig config) : config_(config) {}

std::shared_ptr<const LacoModels> ModelRegistry::get(const std::string& dir) {
  MutexLock lock(mutex_);
  const auto it = entries_.find(dir);
  if (it != entries_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.models;
  }
  const auto pending_it = pending_.find(dir);
  if (pending_it != pending_.end()) {
    // Another thread is loading this directory; wait on its result.
    auto future = pending_it->second;
    lock.unlock();
    return future.get();  // rethrows the loader's exception, if any
  }

  // Become the loader for this directory.
  std::promise<std::shared_ptr<const LacoModels>> promise;
  pending_.emplace(dir, promise.get_future().share());
  lock.unlock();

  std::shared_ptr<const LacoModels> shared;
  try {
    LACO_FAILPOINT("registry.load");
    auto models = std::make_shared<LacoModels>(load_models(dir));
    if (models->congestion) freeze(*models->congestion);
    if (models->lookahead) freeze(*models->lookahead);
    shared = std::move(models);
  } catch (const std::exception& e) {
    // Path-qualify the failure (corrupt checkpoint, bad manifest, fault
    // injection) and deliver it to every waiter before rethrowing; a
    // rejected load leaves no pending or cached entry behind.
    const auto wrapped = std::make_exception_ptr(std::runtime_error(
        "ModelRegistry: failed to load model set from '" + dir + "': " + e.what()));
    lock.lock();
    pending_.erase(dir);
    lock.unlock();
    promise.set_exception(wrapped);
    std::rethrow_exception(wrapped);
  } catch (...) {
    lock.lock();
    pending_.erase(dir);
    lock.unlock();
    promise.set_exception(std::current_exception());
    throw;
  }

  lock.lock();
  ++stats_.misses;
  lru_.push_front(dir);
  Entry entry;
  entry.models = shared;
  entry.bytes = model_footprint_bytes(*shared);
  entry.lru_pos = lru_.begin();
  stats_.resident_bytes += entry.bytes;
  entries_.emplace(dir, std::move(entry));
  stats_.resident_models = entries_.size();
  enforce_budget_locked();
  pending_.erase(dir);
  lock.unlock();
  promise.set_value(shared);
  return shared;
}

bool ModelRegistry::resident(const std::string& dir) const {
  MutexLock lock(mutex_);
  return entries_.count(dir) != 0;
}

RegistryStats ModelRegistry::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void ModelRegistry::clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  lru_.clear();
  stats_.resident_models = 0;
  stats_.resident_bytes = 0;
}

void ModelRegistry::enforce_budget_locked() {
  while (entries_.size() > 1 && stats_.resident_bytes > config_.memory_budget_bytes) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    stats_.resident_bytes -= it->second.bytes;
    entries_.erase(it);
    ++stats_.evictions;
  }
  stats_.resident_models = entries_.size();
}

ModelRegistry& shared_registry() {
  static ModelRegistry registry;
  return registry;
}

}  // namespace laco::serve
