#include "nn/kernel_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace laco::nn {
namespace {

int default_threads() {
  if (const char* env = std::getenv("LACO_NN_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// The shared pool is created lazily on first parallel call and swapped
// by set_kernel_threads(). The mutex only guards the pointer/count —
// tile execution never holds it.
Mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool LACO_GUARDED_BY(g_pool_mutex);
int g_threads LACO_GUARDED_BY(g_pool_mutex) = 0;  // 0 = not yet resolved

/// Shared state of one parallel_tiles() call. Tasks capture a
/// shared_ptr so a worker finishing its last tile after the caller
/// already returned never touches freed memory.
struct TileRun {
  TileRun(std::size_t count, const std::function<void(std::size_t)>& tile_fn)
      : tile_count(count), fn(tile_fn) {}

  const std::size_t tile_count;
  const std::function<void(std::size_t)>& fn;  // outlives the run: caller blocks
  std::atomic<std::size_t> next{0};
  Mutex mutex;
  CondVar done_cv;
  std::size_t finished LACO_GUARDED_BY(mutex) = 0;
  std::exception_ptr error LACO_GUARDED_BY(mutex);

  /// Claims tiles until none remain. Runs on pool workers and on the
  /// calling thread alike.
  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tile_count) return;
      std::exception_ptr tile_error;
      try {
        fn(i);
      } catch (...) {
        tile_error = std::current_exception();
      }
      MutexLock lock(mutex);
      if (tile_error != nullptr && error == nullptr) error = tile_error;
      if (++finished == tile_count) done_cv.notify_all();
    }
  }
};

}  // namespace

int kernel_threads() {
  MutexLock lock(g_pool_mutex);
  if (g_threads == 0) g_threads = default_threads();
  return g_threads;
}

void set_kernel_threads(int n) {
  if (n < 1) n = 1;
  std::unique_ptr<ThreadPool> retired;
  MutexLock lock(g_pool_mutex);
  g_threads = n;
  retired = std::move(g_pool);  // destroyed (joined) after the lock drops
}

void parallel_tiles(std::size_t tile_count, const std::function<void(std::size_t)>& fn) {
  if (tile_count == 0) return;
  int threads;
  ThreadPool* pool = nullptr;
  {
    MutexLock lock(g_pool_mutex);
    if (g_threads == 0) g_threads = default_threads();
    threads = g_threads;
    if (threads > 1 && tile_count > 1) {
      // The pool runs `threads - 1` workers: the calling thread is the
      // remaining lane, so a kernel never waits on a fully busy pool.
      if (g_pool == nullptr) g_pool = std::make_unique<ThreadPool>(threads - 1);
      pool = g_pool.get();
    }
  }

  if (pool == nullptr) {
    for (std::size_t i = 0; i < tile_count; ++i) fn(i);
    return;
  }

  auto run = std::make_shared<TileRun>(tile_count, fn);
  const std::size_t helpers =
      std::min<std::size_t>(static_cast<std::size_t>(pool->num_threads()), tile_count - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    pool->submit([run] { run->drain(); });
  }
  run->drain();
  {
    MutexLock lock(run->mutex);
    while (run->finished != run->tile_count) run->done_cv.wait(run->mutex);
    if (run->error != nullptr) std::rethrow_exception(run->error);
  }
}

}  // namespace laco::nn
