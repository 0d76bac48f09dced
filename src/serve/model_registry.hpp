// Resident model cache layered on laco/model_zoo: each model directory
// is loaded from disk at most once per process and shared, immutable,
// across every thread that asks for it. Entries are LRU-evicted when
// the resident set exceeds a configurable memory budget; callers that
// already hold a shared_ptr keep their models alive past eviction.
//
// Thread-safety contract: the registry freezes every parameter
// (requires_grad = false) before publishing a model set, so concurrent
// forward passes over the shared weights never touch grad/parents/
// backward_fn (see nn/tensor.hpp "Concurrency" notes). Concurrent
// get() calls for the same directory coalesce into one disk load.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "laco/congestion_penalty.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace laco::serve {

struct RegistryConfig {
  /// Budget for resident (cached) model parameter bytes. The most
  /// recently used model is never evicted, so a single set larger than
  /// the budget still stays resident.
  std::size_t memory_budget_bytes = 256ull << 20;
};

struct RegistryStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       ///< disk loads performed
  std::uint64_t evictions = 0;
  std::size_t resident_models = 0;
  std::size_t resident_bytes = 0;
};

/// Approximate parameter footprint of a model set (float32 bytes).
std::size_t model_footprint_bytes(const LacoModels& models);

/// Deep-copies a model set: fresh networks rebuilt from each source
/// net's config with the source's parameter values copied in, frozen
/// (requires_grad = false) before publishing. The clone has DISTINCT
/// pointer identity from the source, so its batcher buckets never
/// alias the source's. Use it to
/// serve a set loaded outside the registry without freezing the
/// caller's copy.
std::shared_ptr<const LacoModels> clone_frozen(const LacoModels& src);

class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryConfig config = {});

  /// Returns the (frozen, shareable) model set for `dir`, loading it on
  /// first use. Throws std::runtime_error like load_models on missing or
  /// corrupt directories; a failed load is not cached.
  std::shared_ptr<const LacoModels> get(const std::string& dir) LACO_EXCLUDES(mutex_);

  /// Whether `dir` is currently resident (for tests; racy by nature).
  bool resident(const std::string& dir) const LACO_EXCLUDES(mutex_);

  RegistryStats stats() const LACO_EXCLUDES(mutex_);

  /// Drops every cached entry (in-flight shared_ptrs stay valid).
  void clear() LACO_EXCLUDES(mutex_);

  const RegistryConfig& config() const { return config_; }

 private:
  struct Entry {
    std::shared_ptr<const LacoModels> models;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru_pos;
  };

  /// Evicts LRU entries until within budget, keeping at least the most
  /// recently used one.
  void enforce_budget_locked() LACO_REQUIRES(mutex_);

  RegistryConfig config_;
  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ LACO_GUARDED_BY(mutex_);
  /// In-flight loads, so concurrent get() of one dir loads once.
  std::map<std::string, std::shared_future<std::shared_ptr<const LacoModels>>> pending_
      LACO_GUARDED_BY(mutex_);
  std::list<std::string> lru_ LACO_GUARDED_BY(mutex_);  ///< front = most recently used
  RegistryStats stats_ LACO_GUARDED_BY(mutex_);
};

/// Process-wide registry shared by the CLI, services, and examples.
ModelRegistry& shared_registry();

}  // namespace laco::serve
