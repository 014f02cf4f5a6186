#include "support/timer.hpp"

#include <ctime>

#include <algorithm>
#include <cstdio>

namespace parsvd {

double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Stopwatch::stop() {
  if (!running_) return 0.0;
  const double lap = lap_seconds();
  total_ += lap;
  ++laps_;
  running_ = false;
  return lap;
}

double Stopwatch::lap_seconds() const {
  if (!running_) return 0.0;
  const auto now = clock::now();
  return std::chrono::duration<double>(now - start_).count();
}

void TimingRegistry::record(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sections_.try_emplace(name);
  TimingStats& s = it->second;
  if (inserted || s.count == 0) {
    s.min = seconds;
    s.max = seconds;
  } else {
    s.min = std::min(s.min, seconds);
    s.max = std::max(s.max, seconds);
  }
  s.total += seconds;
  ++s.count;
}

std::vector<std::pair<std::string, TimingStats>> TimingRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {sections_.begin(), sections_.end()};
}

TimingStats TimingRegistry::stats(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sections_.find(name);
  return it == sections_.end() ? TimingStats{} : it->second;
}

void TimingRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sections_.clear();
}

std::string TimingRegistry::format_table() const {
  const auto rows = snapshot();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-32s %8s %12s %12s %12s %12s\n",
                "section", "count", "total[s]", "mean[s]", "min[s]", "max[s]");
  out += line;
  for (const auto& [name, s] : rows) {
    std::snprintf(line, sizeof(line), "%-32s %8zu %12.6f %12.6f %12.6f %12.6f\n",
                  name.c_str(), s.count, s.total, s.mean(), s.min, s.max);
    out += line;
  }
  return out;
}

TimingRegistry& TimingRegistry::global() {
  static TimingRegistry registry;
  return registry;
}

}  // namespace parsvd
