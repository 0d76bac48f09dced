// Annotated mutual-exclusion primitives: thin wrappers over std::mutex
// and std::condition_variable that carry Clang Thread Safety Analysis
// capability attributes (util/thread_annotations.hpp). libstdc++'s
// std::mutex is not annotated, so locking through these wrappers is
// what makes -Wthread-safety actually prove LACO_GUARDED_BY contracts
// in thread_pool / serve at compile time; at runtime they compile to
// exactly the std:: primitives, so TSan instrumentation still applies.
//
// Condition-variable waits deliberately take the Mutex itself
// (`cv.wait(mutex_)`) instead of a predicate lambda: the analysis
// cannot see that a predicate runs under the lock, so callers write
//   MutexLock lock(mutex_);
//   while (!ready_) cv_.wait(mutex_);
// which keeps every guarded read inside the locked scope it checks.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace laco {

class CondVar;

/// Annotated exclusive lock. Prefer MutexLock over manual lock()/unlock().
class LACO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LACO_ACQUIRE() { raw_.lock(); }
  void unlock() LACO_RELEASE() { raw_.unlock(); }
  bool try_lock() LACO_TRY_ACQUIRE(true) { return raw_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex raw_;
};

/// RAII scoped lock over Mutex, with an explicit unlock() for the
/// drop-the-lock-before-a-callback pattern (see
/// serve::InferenceService::submit). The destructor releases only if
/// still held.
class LACO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) LACO_ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }
  ~MutexLock() LACO_RELEASE() {
    if (held_) mutex_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (e.g. before running a caller's callback).
  void unlock() LACO_RELEASE() {
    mutex_.unlock();
    held_ = false;
  }

 private:
  Mutex& mutex_;
  bool held_ = true;
};

/// Condition variable waiting on an annotated Mutex. Backed by
/// std::condition_variable via the adopt/release trick, so there is no
/// condition_variable_any overhead.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex`, sleeps, re-acquires before returning.
  /// Spurious wakeups happen: always wait in a `while (!condition)` loop.
  void wait(Mutex& mutex) LACO_REQUIRES(mutex) {
    std::unique_lock<std::mutex> adopted(mutex.raw_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();
  }

  /// wait() with a timeout; returns std::cv_status::timeout when the
  /// relative deadline passed without a notification.
  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& mutex, const std::chrono::duration<Rep, Period>& rel_time)
      LACO_REQUIRES(mutex) {
    std::unique_lock<std::mutex> adopted(mutex.raw_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(adopted, rel_time);
    adopted.release();
    return status;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace laco
