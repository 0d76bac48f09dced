// Error taxonomy shared by the fault-tolerance layer. The distinction
// is transient vs. permanent: a transient failure (injected fault,
// interrupted I/O, overloaded dependency) may succeed on a fresh
// attempt, while a permanent one (shape mismatch, missing model) never
// will. Nothing in the library retries on TransientError: the service
// fails the batch's futures and callers decide (the chaos drill counts
// transient failures separately). Its one subclass today is
// FailpointError, so callers can tell injected faults from real ones
// without parsing message strings.
#pragma once

#include <stdexcept>
#include <string>

namespace laco {

/// A failure that retrying the same operation may resolve. Throw this
/// (or a subclass) from any operation whose failure is not a caller
/// bug; std::runtime_error siblings are treated as permanent.
class TransientError : public std::runtime_error {
 public:
  explicit TransientError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace laco
