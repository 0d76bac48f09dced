// Wall-clock timing helpers. RuntimeBreakdown accumulates named phase
// timings — used to reproduce the paper's Fig. 8 runtime breakdown.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace laco {

class Timer {
 public:
  Timer() { reset(); }
  void reset() { start_ = std::chrono::steady_clock::now(); }
  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Accumulates seconds per named phase across many invocations.
class RuntimeBreakdown {
 public:
  void add(const std::string& phase, double seconds) { seconds_[phase] += seconds; }
  double seconds(const std::string& phase) const;
  double total() const;
  /// (phase, seconds, fraction-of-total), sorted by descending seconds.
  std::vector<std::tuple<std::string, double, double>> table() const;
  void clear() { seconds_.clear(); }

 private:
  std::map<std::string, double> seconds_;
};

}  // namespace laco
