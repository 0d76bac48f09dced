#include "serve/model_registry.hpp"

#include <utility>
#include <vector>

#include "models/congestion_fcn.hpp"
#include "models/lookahead_simvp.hpp"
#include "util/check.hpp"

namespace laco::serve {
namespace {

void freeze(const nn::Module& module) {
  for (nn::Tensor p : module.parameters()) {
    // Conditional write: frozen weights are shared read-only across
    // threads, so avoid dirtying them when already frozen.
    if (p.requires_grad()) p.set_requires_grad(false);
  }
}

/// Copies parameter values src → dst positionally. Both nets were built
/// from the same config, so parameters() walks the same module tree in
/// the same depth-first order; a count or shape mismatch is a bug.
void copy_parameters(const nn::Module& src, const nn::Module& dst) {
  const std::vector<nn::Tensor> from = src.parameters();
  std::vector<nn::Tensor> to = dst.parameters();
  LACO_CHECK(from.size() == to.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    LACO_CHECK(from[i].numel() == to[i].numel());
    to[i].data() = from[i].data();
  }
}

}  // namespace

std::shared_ptr<const LacoModels> clone_frozen(const LacoModels& src) {
  auto clone = std::make_shared<LacoModels>();
  clone->scheme = src.scheme;
  clone->scale_hi = src.scale_hi;
  clone->scale_lo = src.scale_lo;
  if (src.congestion) {
    auto f = std::make_shared<CongestionFcn>(src.congestion->config());
    copy_parameters(*src.congestion, *f);
    freeze(*f);
    clone->congestion = std::move(f);
  }
  if (src.lookahead) {
    auto g = std::make_shared<LookAheadModel>(src.lookahead->config());
    copy_parameters(*src.lookahead, *g);
    freeze(*g);
    clone->lookahead = std::move(g);
  }
  return clone;
}

}  // namespace laco::serve
