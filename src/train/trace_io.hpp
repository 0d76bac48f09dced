// Binary (de)serialization of placement traces — the training dataset.
// Collecting traces (placement + routing per run) dominates experiment
// turnaround; caching them on disk lets benches and notebooks reuse one
// collection across schemes and runs. Files use util/serial's
// framed container (magic "LTRK", CRC-32 trailer) and the grid and frame
// codec the penalty's snapshot state uses.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "train/dataset.hpp"

namespace laco {

void save_traces(const std::vector<PlacementTrace>& traces, std::ostream& out);
bool save_traces_file(const std::vector<PlacementTrace>& traces, const std::string& path);

/// Throws std::runtime_error naming the source and byte offset on
/// malformed input (docs/RELIABILITY.md "Checkpoint integrity").
std::vector<PlacementTrace> load_traces(std::istream& in);
std::vector<PlacementTrace> load_traces_file(const std::string& path);

}  // namespace laco
