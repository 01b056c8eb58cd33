// Named metrics with units, and the per-layer metrics of a traced run.
#pragma once

#include <string>
#include <vector>

#include "acp/scenario/spec.hpp"
#include "workloads.hpp"

namespace perfbench {

/// An ordered set of named values with units, printed as JSON
/// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Adds `name`, or replaces its value if already present.
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Per-layer metrics of the traced trials: means over trials, percentiles
/// over the pooled samples, and trace.overhead_ms against the run times of
/// the untraced twins. Layers a workload bypasses read 0.
[[nodiscard]] MetricSet layer_metrics(
    const acp::scenario::ScenarioSpec& spec,
    const std::vector<double>& untraced_run_s,
    const std::vector<TrialResult>& traced);

}  // namespace perfbench
