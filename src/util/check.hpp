// Runtime invariant checks that survive Release builds. The placement
// pipeline feeds congestion maps and gradients through tight index
// arithmetic; a bounds bug that `assert` would have caught in Debug
// silently corrupts those maps under NDEBUG. LACO_CHECK aborts with
// file:line in every build type; LACO_DCHECK keeps assert's
// debug-only cost model for hot-loop checks that are too expensive to
// ship. laco-analyze rejects bare assert() in src/ in favor of these.
//
// The failure path writes to stderr with fprintf (not util/logging):
// a failed invariant must report even when the logger itself is the
// broken invariant, and abort handlers should not allocate.
#pragma once

#include <cstdio>
#include <cstdlib>

/// Aborts with `file:line: condition` when `condition` is false.
/// Enabled in ALL build types, including NDEBUG Release.
#define LACO_CHECK(condition)                                                      \
  do {                                                                             \
    if (!(condition)) {                                                            \
      std::fprintf(stderr, "LACO_CHECK failed at %s:%d: %s\n", __FILE__, __LINE__, \
                   #condition);                                                    \
      std::fflush(stderr);                                                         \
      std::abort();                                                                \
    }                                                                              \
  } while (0)

#ifdef NDEBUG
/// Debug-only check: compiled out under NDEBUG (condition NOT
/// evaluated), aborts like LACO_CHECK otherwise. The sizeof keeps the
/// operands name-checked in all builds without evaluating them.
#define LACO_DCHECK(condition) \
  do {                         \
    (void)sizeof(!(condition)); \
  } while (0)
#else
#define LACO_DCHECK(condition) LACO_CHECK(condition)
#endif
