// Persistence for a complete trained model set (LacoModels): the
// scheme, both network configurations, all parameters, and the feature
// normalization — one directory, reload-and-run. Used by the examples so
// training and placement can live in different processes.
#pragma once

#include <string>

#include "laco/congestion_penalty.hpp"

namespace laco {

/// Writes <dir>/manifest.txt, congestion.bin, lookahead.bin (when
/// applicable), scale_hi.txt, scale_lo.txt. Creates the directory.
/// Returns false on I/O failure.
bool save_models(const LacoModels& models, const std::string& dir);

/// Rebuilds models from a directory written by save_models; throws
/// std::runtime_error naming the file on missing/corrupt files. Every
/// manifest value is checked before any network is built: each must
/// parse whole, counts must lie in [1, 1024], the scheme must be a
/// LacoScheme, f's input channels, g's presence and g's channels per
/// frame must match the scheme, and g.groups must divide g.base_width;
/// the error also names the key.
LacoModels load_models(const std::string& dir);

}  // namespace laco
