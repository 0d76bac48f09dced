// Typed request-failure errors for the inference service. Every future
// the service hands out resolves with either a tensor or one of these
// (or the underlying model error) — never hangs. Clients switch on the
// type to decide between backing off, degrading to an analytic path,
// or surfacing the failure.
#pragma once

#include <stdexcept>
#include <string>

namespace laco::serve {

/// The request's deadline passed before a forward pass produced its
/// result; the input was never (or no longer) worth computing.
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(const std::string& what) : std::runtime_error(what) {}
};

/// The service refused the request at submit: ServiceConfig::queue_limit
/// requests were already in flight. NOT a TransientError on purpose —
/// an overloaded service must not absorb an immediate retry storm on
/// top of the overload. Clients degrade instead (e.g. the analytic
/// RUDY penalty) or retry after their own backoff.
class ShedError : public std::runtime_error {
 public:
  explicit ShedError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace laco::serve
