// Machine fingerprint printed beside every run's metrics. It is context for
// reading the numbers — which box, which compiler, how fast a fixed spin
// loop ran just now and how many such loops the box really runs at once —
// and gates nothing.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

struct Fingerprint {
  std::string cpu_model;
  std::size_t nproc = 0;  ///< CPUs this process may run on
  std::string compiler;
  std::string build_type;
  /// Fixed-length spin probe rate on one thread, M iterations/s (median
  /// of several probes).
  double spin_mips = 0.0;
  /// Aggregate spin rate of `nproc` concurrent probes over the
  /// single-thread rate: the parallelism the box delivers right now.
  double effective_parallelism = 0.0;

  [[nodiscard]] std::string to_json() const;
};

/// Takes about a quarter of a second.
[[nodiscard]] Fingerprint measure_fingerprint();

}  // namespace perfbench
