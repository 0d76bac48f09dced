#include "laco/laco_placer.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/serial.hpp"

namespace laco {

LacoRunResult run_laco_placement(Design& design, const LacoPlacerConfig& config,
                                 const LacoModels* models) {
  LacoRunResult result;
  const SchemeTraits traits = traits_of(config.scheme);

  GlobalPlacer placer(design, config.placer);
  placer.set_runtime_breakdown(&result.breakdown);

  std::optional<CongestionPenalty> penalty;
  if (traits.uses_penalty) {
    if (models == nullptr) {
      throw std::invalid_argument("run_laco_placement: scheme " + to_string(config.scheme) +
                                  " requires trained models");
    }
    if (models->scheme != config.scheme) {
      throw std::invalid_argument("run_laco_placement: models trained for " +
                                  to_string(models->scheme) + ", requested " +
                                  to_string(config.scheme));
    }
    penalty.emplace(config.penalty, *models);
    penalty->set_runtime_breakdown(&result.breakdown);
    placer.set_penalty_hook([&penalty](const Design& d, int iter, std::vector<double>& gx,
                                       std::vector<double>& gy) {
      return (*penalty)(d, iter, gx, gy);
    });
    // Snapshot codec: the penalty's frame history and degradation state
    // ride along in placement snapshots as an opaque blob, so resumed
    // runs replay the penalty schedule bitwise (docs/RELIABILITY.md).
    placer.set_penalty_state_codec(
        [&penalty]() {
          std::ostringstream out;
          serial::Writer w(out);
          penalty->save_state(w);
          return out.str();
        },
        [&penalty](const std::string& blob) {
          if (blob.empty()) return;  // snapshot predates the penalty hook
          std::istringstream in(blob);
          serial::Reader r(in, "<placement snapshot>", "restore_penalty_state");
          penalty->restore_state(r);
        });
  }

  result.placement = placer.run();
  if (penalty) result.penalty_stats = penalty->stats();
  {
    obs::Span phase(&result.breakdown, "evaluation");
    result.evaluation = evaluate_placement(design, config.router);
  }
  return result;
}

}  // namespace laco
