// Clang Thread Safety Analysis annotations — the compile-time race
// detector that complements the TSan CI job. Under clang these expand
// to capability attributes checked by -Wthread-safety; under every
// other compiler they vanish, so annotated code stays portable.
//
// Usage (see util/mutex.hpp for the annotated primitives):
//   laco::Mutex mutex_;
//   int value_ LACO_GUARDED_BY(mutex_);
//   void touch() LACO_EXCLUDES(mutex_);         // takes the lock itself
//   void touch_locked() LACO_REQUIRES(mutex_);  // caller holds the lock
//
// The CI job `clang-thread-safety` builds with
// -Wthread-safety -Werror=thread-safety, so a missing or wrong
// annotation is a build failure, not a maybe-flaky TSan report.
#pragma once

#if defined(__clang__)
#define LACO_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define LACO_THREAD_ANNOTATION_ATTRIBUTE(x)
#endif

/// Marks a class as a lockable capability (mutexes).
#define LACO_CAPABILITY(x) LACO_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define LACO_SCOPED_CAPABILITY LACO_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Data member that may only be read or written while holding `x`.
#define LACO_GUARDED_BY(x) LACO_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define LACO_PT_GUARDED_BY(x) LACO_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Function that may only be called while holding the given capabilities.
#define LACO_REQUIRES(...) \
  LACO_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function that may only be called while holding the capabilities shared.
#define LACO_REQUIRES_SHARED(...) \
  LACO_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// Function that acquires the given capabilities and does not release them.
#define LACO_ACQUIRE(...) \
  LACO_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function that releases the given capabilities.
#define LACO_RELEASE(...) \
  LACO_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function that acquires the capability when it returns `ret`.
#define LACO_TRY_ACQUIRE(ret, ...) \
  LACO_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(ret, __VA_ARGS__))

/// Function that must NOT be called while holding the given capabilities
/// (it acquires them itself, or would deadlock).
#define LACO_EXCLUDES(...) LACO_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the capability guarding its result.
#define LACO_RETURN_CAPABILITY(x) LACO_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Lock-ordering declarations (deadlock prevention).
#define LACO_ACQUIRED_BEFORE(...) \
  LACO_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define LACO_ACQUIRED_AFTER(...) \
  LACO_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Escape hatch: disables analysis for one function. Every use must
/// carry a justification comment (enforced by review, not laco-analyze).
#define LACO_NO_THREAD_SAFETY_ANALYSIS \
  LACO_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)
