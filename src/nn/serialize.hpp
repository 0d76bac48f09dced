// Binary (de)serialization of a module's named parameters — a minimal
// state_dict so trained congestion / look-ahead models can be saved and
// reloaded by examples and benches.
//
// Format v2 (current): [magic "LACO"][0xFFFFFFFF][version][count]
// [name, rank, dims, f32 data]×count [CRC-32]. The CRC covers every
// byte from the version word through the last tensor, so bit rot and
// truncation are detected before corrupt weights reach a model. The
// sentinel after the magic distinguishes v2 from the unversioned v1
// layout ([magic][count][entries], no checksum) — v1 files keep
// loading, they just skip CRC verification. See docs/RELIABILITY.md.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/module.hpp"

namespace laco::nn {

void save_parameters(const Module& module, std::ostream& out);

/// Atomic save: writes to `path + ".tmp"` then renames over `path`, so
/// a crash mid-write can never leave a half-written checkpoint at the
/// published path. Returns false (and removes the temp file) on any
/// write or rename failure.
bool save_parameters_file(const Module& module, const std::string& path);

/// Loads parameters by name; throws std::runtime_error on missing names
/// or shape mismatches (a strict load, matching PyTorch strict=True).
/// Corrupt or truncated streams throw with `source` and the byte offset
/// of the failed read; v2 streams additionally verify the CRC-32. A NaN
/// or ±inf value throws too, naming the parameter: the conv input
/// gradients are exact only for finite weights (docs/KERNELS.md).
void load_parameters(Module& module, std::istream& in, const std::string& source = "<stream>");
void load_parameters_file(Module& module, const std::string& path);

}  // namespace laco::nn
