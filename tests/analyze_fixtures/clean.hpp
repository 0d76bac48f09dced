// Fixture: a header that satisfies every laco-analyze rule. Expected:
// zero diagnostics under any relpath.
#pragma once

#include <mutex>

#define LACO_GUARDED_BY(x)

class FixtureClean {
 public:
  int value() const;

 private:
  mutable std::mutex mutex_;
  int value_ LACO_GUARDED_BY(mutex_) = 0;
};
