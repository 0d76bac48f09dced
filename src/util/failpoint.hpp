// Deterministic fault injection for chaos testing. A failpoint is a
// named hook compiled into a code path (LACO_FAILPOINT("serve.forward"))
// that normally does nothing; tests, the chaos CLI, or the
// LACO_FAILPOINTS environment variable arm it with a mode:
//
//   error  — throw FailpointError (a TransientError, so fallback and
//            failure-isolation paths exercise their real recovery logic)
//   delay  — sleep delay_ms (latency injection: deadlines, backpressure)
//   crash  — abort the process (crash-the-worker drills)
//
// Firing is DETERMINISTIC: each armed point keeps an evaluation
// counter, and evaluation n fires iff hash(seed, n) < probability. The
// same seed always yields the same fire pattern, so a chaos failure
// reproduces exactly — no wall clock, no global RNG.
//
// Hook sites compile to a no-op statement unless the build defines
// LACO_FAILPOINTS (CMake -DLACO_FAILPOINTS=ON; the chaos CI job). The
// registry API itself is always compiled so tests and tooling link in
// every configuration. The catalog of hook sites lives in
// docs/RELIABILITY.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/errors.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace laco {

enum class FailpointMode { kOff, kError, kDelay, kCrash };

const char* to_string(FailpointMode mode);

struct FailpointSpec {
  FailpointMode mode = FailpointMode::kOff;
  double probability = 1.0;      ///< chance each evaluation fires, in [0, 1]
  std::uint64_t seed = 0x1ac0;   ///< fire pattern is a pure function of this
  double delay_ms = 1.0;         ///< sleep length for kDelay fires
};

struct FailpointStats {
  std::uint64_t evaluations = 0;  ///< times the armed hook was reached
  std::uint64_t fires = 0;        ///< times it actually fired
};

/// Thrown by a fired `error` failpoint. Derives TransientError: an
/// injected fault is the kind of failure a fresh attempt may not see.
class FailpointError : public TransientError {
 public:
  explicit FailpointError(const std::string& name)
      : TransientError("failpoint '" + name + "' fired"), name_(name) {}
  const std::string& failpoint() const { return name_; }

 private:
  std::string name_;
};

/// Process-wide failpoint table. Thread-safe: hooks evaluate under the
/// registry mutex, and the blocking/throwing action happens after the
/// lock is released.
class FailpointRegistry {
 public:
  static FailpointRegistry& instance();

  FailpointRegistry(const FailpointRegistry&) = delete;
  FailpointRegistry& operator=(const FailpointRegistry&) = delete;

  void arm(const std::string& name, FailpointSpec spec) LACO_EXCLUDES(mutex_);
  void disarm(const std::string& name) LACO_EXCLUDES(mutex_);
  void disarm_all() LACO_EXCLUDES(mutex_);

  /// Hook-site entry point (use the LACO_FAILPOINT macro, not this).
  /// Deterministically decides from (seed, per-name counter) whether to
  /// fire; unarmed names return immediately.
  void evaluate(const char* name) LACO_EXCLUDES(mutex_);

  FailpointStats stats(const std::string& name) const LACO_EXCLUDES(mutex_);
  std::vector<std::string> armed() const LACO_EXCLUDES(mutex_);

  /// Arms points from a spec string:
  ///   name=mode[:prob[:seed[:delay_ms]]][,name=mode...]
  /// e.g. "serve.forward=error:0.1:42,placer.iteration=delay:1:7:5".
  /// Returns the number of points armed; throws std::invalid_argument
  /// on a malformed spec.
  int configure_from_spec(const std::string& spec) LACO_EXCLUDES(mutex_);

  /// configure_from_spec(getenv("LACO_FAILPOINTS")); 0 when unset.
  int configure_from_env() LACO_EXCLUDES(mutex_);

 private:
  struct Point {
    FailpointSpec spec;
    FailpointStats stats;
  };

  FailpointRegistry() = default;

  mutable Mutex mutex_;
  std::map<std::string, Point> points_ LACO_GUARDED_BY(mutex_);
};

/// Whether LACO_FAILPOINT hook sites are active in this build.
constexpr bool failpoints_compiled_in() {
#ifdef LACO_FAILPOINTS
  return true;
#else
  return false;
#endif
}

}  // namespace laco

#ifdef LACO_FAILPOINTS
#define LACO_FAILPOINT(name) ::laco::FailpointRegistry::instance().evaluate(name)
#else
/// Hook sites vanish entirely outside chaos builds: no lookup, no lock.
#define LACO_FAILPOINT(name) \
  do {                       \
  } while (0)
#endif
