// Wall-clock timing utilities used by the benchmark harnesses and the
// weak-scaling experiment.
//
// Stopwatch is a plain start/stop accumulator; TimingRegistry aggregates
// named sections (count / total / min / max) so a bench binary can print a
// per-phase breakdown, e.g. local-QR vs gather vs root-SVD in APMOS.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace parsvd {

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// Unlike wall time this excludes scheduler contention, so timing a
/// thread-backed "rank" with it approximates the cost on a dedicated
/// core — the quantity the weak-scaling bench models (DESIGN.md §1).
double thread_cpu_seconds();

/// Monotonic wall-clock stopwatch with lap accumulation.
class Stopwatch {
 public:
  using clock = std::chrono::steady_clock;

  /// Starts (or restarts) the current lap.
  void start() { start_ = clock::now(); running_ = true; }

  /// Ends the current lap and folds it into the running total.
  /// Returns the lap duration in seconds; 0 if not running.
  double stop();

  /// Total accumulated seconds over all completed laps.
  double total_seconds() const { return total_; }

  /// Seconds elapsed in the current lap (0 when stopped).
  double lap_seconds() const;

  /// Number of completed laps.
  std::size_t laps() const { return laps_; }

  void reset() { total_ = 0.0; laps_ = 0; running_ = false; }

 private:
  clock::time_point start_{};
  double total_ = 0.0;
  std::size_t laps_ = 0;
  bool running_ = false;
};

/// Aggregated statistics for one named timing section.
struct TimingStats {
  std::size_t count = 0;
  double total = 0.0;
  double min = 0.0;
  double max = 0.0;

  double mean() const { return count == 0 ? 0.0 : total / static_cast<double>(count); }
};

/// Thread-safe registry of named section timings.
class TimingRegistry {
 public:
  /// Record one observation of `seconds` under `name`.
  void record(const std::string& name, double seconds);

  /// Snapshot of all sections, sorted by name.
  std::vector<std::pair<std::string, TimingStats>> snapshot() const;

  TimingStats stats(const std::string& name) const;

  void clear();

  /// Render a fixed-width table (one row per section) for bench output.
  std::string format_table() const;

  /// Process-wide registry used by default by ScopedTimer.
  static TimingRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, TimingStats> sections_;
};

/// RAII timer: records elapsed wall time into a registry on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string name,
                       TimingRegistry& registry = TimingRegistry::global())
      : name_(std::move(name)), registry_(registry) {
    watch_.start();
  }
  ~ScopedTimer() { registry_.record(name_, watch_.stop()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string name_;
  TimingRegistry& registry_;
  Stopwatch watch_;
};

}  // namespace parsvd
