// Shape-keyed program cache for compiled inference plans, mirrored on
// serve::ModelRegistry's coalescing LRU (and tt-metal's program_cache
// keying-by-op-parameters idea): a plan is compiled at most once per
// (model identity, variant, input signature), concurrent requests for
// the same key wait on the in-flight compile, and the cache is LRU-
// bounded by plan count. Failed compiles (unsupported op in the
// trace) are negatively cached so the eager fallback never pays the
// trace cost twice. See docs/PLAN.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "plan/plan.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace laco::plan {

/// Cache key: `identity` is the frozen network's address (the caller
/// passes a keep-alive anchor so the pointer can never be recycled
/// while the entry lives), `variant` disambiguates distinct traced
/// functions over one network (e.g. serve::ModelKind or a scheme tag),
/// `dims` is the flattened input-shape signature.
struct PlanKey {
  const void* identity = nullptr;
  int variant = 0;
  std::vector<int> dims;

  bool operator<(const PlanKey& o) const {
    if (identity != o.identity) return identity < o.identity;
    if (variant != o.variant) return variant < o.variant;
    return dims < o.dims;
  }
};

/// Flattened shape signature for PlanKey::dims: rank then extents per
/// input, so [2,3,8,8] and [2,3],[8,8] cannot collide.
std::vector<int> shape_signature(const std::vector<nn::Tensor>& inputs);

struct PlanCacheConfig {
  std::size_t max_plans = 64;  ///< LRU bound (compiled + negative entries)
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< compiles attempted (including failures)
  std::uint64_t evictions = 0;
  std::uint64_t compile_failures = 0;
  std::size_t size = 0;  ///< resident entries
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheConfig config = {});

  using CompileFn = std::function<CompileResult()>;

  /// Returns the cached plan for `key`, compiling via `compile_fn` on
  /// first use (concurrent callers for one key coalesce onto a single
  /// compile). Returns nullptr when compilation failed — the failure
  /// is cached, and callers run the eager path. `anchor` keeps the
  /// model alive while the entry exists so `key.identity` can never
  /// be recycled into a different model (pointer ABA).
  std::shared_ptr<const Plan> get_or_compile(const PlanKey& key,
                                             std::shared_ptr<const void> anchor,
                                             const CompileFn& compile_fn) LACO_EXCLUDES(mutex_);

  /// Drops every entry whose key matches `identity` (model reloaded or
  /// evicted from the registry).
  void invalidate(const void* identity) LACO_EXCLUDES(mutex_);

  void clear() LACO_EXCLUDES(mutex_);

  PlanCacheStats stats() const LACO_EXCLUDES(mutex_);

  const PlanCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::shared_ptr<const Plan> plan;  ///< null = negative (fallback) entry
    std::shared_ptr<const void> anchor;
    std::uint64_t last_used = 0;
  };

  void evict_locked() LACO_REQUIRES(mutex_);

  PlanCacheConfig config_;
  mutable Mutex mutex_;
  std::map<PlanKey, Entry> entries_ LACO_GUARDED_BY(mutex_);
  /// In-flight compiles, so concurrent gets of one key compile once.
  std::map<PlanKey, std::shared_future<std::shared_ptr<const Plan>>> pending_
      LACO_GUARDED_BY(mutex_);
  std::uint64_t tick_ LACO_GUARDED_BY(mutex_) = 0;
  PlanCacheStats stats_ LACO_GUARDED_BY(mutex_);
};

/// Process-wide cache behind serve::Batcher forwards; hung off
/// serve::ModelRegistry (which invalidates entries for evicted models).
PlanCache& shared_plan_cache();

/// Global plan-path switch (default on). `laco serve --no-plan` and
/// benches flip it; when off, integration points skip the cache and
/// run eagerly.
bool plans_enabled();
void set_plans_enabled(bool enabled);

}  // namespace laco::plan
