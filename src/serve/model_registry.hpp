// Frozen deep copies of a model set, for serving: the service shares a
// set's weights read-only across its worker threads.
//
// Thread-safety contract: clone_frozen freezes every parameter
// (requires_grad = false) before publishing the copy, so concurrent
// forward passes over the shared weights never touch grad/parents/
// backward_fn (see nn/tensor.hpp "Concurrency" notes).
#pragma once

#include <memory>

#include "laco/congestion_penalty.hpp"

namespace laco::serve {

/// Deep-copies a model set: fresh networks rebuilt from each source
/// net's config with the source's parameter values copied in, frozen
/// (requires_grad = false) before publishing. The clone has DISTINCT
/// pointer identity from the source, so its batcher buckets never
/// alias the source's, and the caller's copy stays unfrozen.
std::shared_ptr<const LacoModels> clone_frozen(const LacoModels& src);

}  // namespace laco::serve
