// Small numeric and process helpers shared by the benchmark program and its
// self-test: percentiles, a monotonic clock, and peak-RSS readers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_since(Clock::time_point from,
                                           Clock::time_point to) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point from) noexcept {
  return static_cast<double>(ns_since(from, Clock::now())) * 1e-9;
}

/// Percentile `q` in [0, 1] of `samples` by linear interpolation between
/// closest ranks (numpy's default, Python's statistics "inclusive" rule).
/// Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

[[nodiscard]] double mean(const std::vector<double>& samples);


/// Peak resident set (VmHWM) of process `pid` in MiB, or -1 when
/// /proc/<pid>/status cannot be read.
[[nodiscard]] double vm_hwm_mb(pid_t pid);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Start a fresh peak: hand freed heap back to the kernel, then reset
/// VmHWM to the current RSS through /proc/self/clear_refs (Linux 4.0 and
/// later). False when the kernel refuses the reset.
bool reset_peak_rss();

}  // namespace perfbench
