// The congestion-optimization schemes compared in the paper's
// experiments (Sec. IV-B and the Sec. IV-C ablations), and the traits
// that configure models and penalty plumbing per scheme.
#pragma once

#include <string>

namespace laco {

enum class LacoScheme {
  kDreamPlace,     ///< no congestion penalty (baseline placer)
  kDreamCong,      ///< congestion prediction only [22]
  kLookAheadOnly,  ///< predicted [r̄, p̄, m̄], no flow, no VAE
  kCellFlow,       ///< + cell flow channels into g and f
  kCellFlowKL,     ///< + VAE invariant feature space — the full LACO
  kNoFlowKL,       ///< CellFlowKL minus everything about flow (Fig. 7)
  kLessFlowKL,     ///< g keeps flow, f does not consume it (Fig. 7)
};

struct SchemeTraits {
  bool uses_lookahead = false;  ///< has a look-ahead model g
  bool g_uses_flow = false;     ///< g's frames include the flow pair
  bool f_uses_flow = false;     ///< f consumes predicted + current flow
  bool uses_vae = false;        ///< invariant-feature-space branch on g
  bool uses_penalty = false;    ///< placement objective includes η·L
};

constexpr SchemeTraits traits_of(LacoScheme scheme) {
  switch (scheme) {
    case LacoScheme::kDreamPlace:
      return {false, false, false, false, false};
    case LacoScheme::kDreamCong:
      return {false, false, false, false, true};
    case LacoScheme::kLookAheadOnly:
      return {true, false, false, false, true};
    case LacoScheme::kCellFlow:
      return {true, true, true, false, true};
    case LacoScheme::kCellFlowKL:
      return {true, true, true, true, true};
    case LacoScheme::kNoFlowKL:
      return {true, false, false, true, true};
    case LacoScheme::kLessFlowKL:
      return {true, true, false, true, true};
  }
  return {};
}

/// Channels per frame for the look-ahead model under this scheme.
constexpr int g_channels(LacoScheme scheme) {
  return traits_of(scheme).g_uses_flow ? 5 : 3;
}

/// Channels per frame that the congestion model f sees: the flow pair
/// only for look-ahead schemes whose f consumes flow, else RUDY,
/// PinRUDY and MacroRegion.
constexpr int f_frame_channels(LacoScheme scheme) {
  const SchemeTraits t = traits_of(scheme);
  return t.uses_lookahead ? (t.f_uses_flow ? 5 : 3) : 3;
}

/// Input channels for the congestion model f under this scheme:
/// DREAM-Cong sees the current frame alone; look-ahead schemes see the
/// predicted frame plus the current frame as a residual shortcut.
constexpr int f_in_channels(LacoScheme scheme) {
  const int per = f_frame_channels(scheme);
  return traits_of(scheme).uses_lookahead ? per * 2 : per;
}

inline std::string to_string(LacoScheme scheme) {
  switch (scheme) {
    case LacoScheme::kDreamPlace: return "DREAMPlace";
    case LacoScheme::kDreamCong: return "DREAM-Cong";
    case LacoScheme::kLookAheadOnly: return "Look-ahead-only";
    case LacoScheme::kCellFlow: return "Cell-flow";
    case LacoScheme::kCellFlowKL: return "Cell-flow+KL";
    case LacoScheme::kNoFlowKL: return "No-flow-KL";
    case LacoScheme::kLessFlowKL: return "Less-flow-KL";
  }
  return "?";
}

}  // namespace laco
