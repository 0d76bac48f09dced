// Wall-clock timing. Timer measures one interval. RuntimeBreakdown is a
// placement run's record of its timed phases: the Fig. 8 phase table,
// the `laco place --trace-out` Chrome trace (obs/trace.hpp) and the
// snapshot overhead are all views of it.
#pragma once

#include <chrono>
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

/// The completed phase spans of one run, in the order they close
/// (obs::Span appends them). Phases are flat: a run's spans never
/// overlap, so their sum is the timed share of the run's extent.
///
/// One thread writes a record, the thread that runs the placement, so
/// it takes no lock. It grows by one entry per phase per iteration.
class RuntimeBreakdown {
 public:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    const char* name;  ///< static storage (a string literal)
    Clock::time_point start;
    Clock::duration duration;
  };

  /// Appends one completed span.
  void add(const char* name, Clock::time_point start, Clock::duration duration) {
    entries_.push_back({name, start, duration});
  }

  const std::vector<Entry>& entries() const { return entries_; }
  /// Seconds summed over the spans named `phase`.
  double seconds(const std::string& phase) const;
  /// Seconds summed over every span.
  double total() const;
  /// Seconds from the first span's start to the last span's end; the
  /// part of it that total() leaves is time no phase covers.
  double extent() const;
  /// (phase, seconds, fraction-of-total), sorted by descending seconds.
  std::vector<std::tuple<std::string, double, double>> table() const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace laco
