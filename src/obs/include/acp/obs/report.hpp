// RunReport — a machine-readable summary of one experiment invocation:
// the configuration that produced it, one stats Summary per measured
// metric, one metrics-registry snapshot (counters, gauges, timers,
// histograms) taken after the run.
//
// Serialized as versioned JSON ("acp.report.v4"):
//   {
//     "schema": "acp.report.v4",
//     "config":  {"n": 256, "protocol": "distill", ...},   // echo, insertion order
//     "metrics": {"probes_per_player": {"count":..,"mean":..,"stddev":..,
//                 "min":..,"p50":..,"p90":..,"p99":..,"max":..,
//                 "ci95_low":..,"ci95_high":..}, ...},
//     "counters": {"name": value, ...},
//     "gauges":   {"name": value, ...},
//     "timers":   {"name": {"count":..,"total_ns":..}, ...},
//     "histograms": {"name": {"lo":..,"hi":..,"buckets":[..],
//                    "underflow":..,"overflow":..}, ...}
//   }
// v2 -> v3: the "phases" section is gone. The kernel's seams are ordinary
// registry entries (engine.kernel.* timers, the engine.kernel.imbalance
// histogram), so the four registry sections render one snapshot as is.
// v3 -> v4: the "bandwidth" section is gone. Each IO channel is four
// io.<channel>.{read_ops,read_bits,write_ops,write_bits} counters.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "acp/obs/metrics.hpp"
#include "acp/stats/summary.hpp"

namespace acp::obs {

class RunReport {
 public:
  static constexpr std::string_view kSchema = "acp.report.v4";

  /// Config echo; entries serialize in insertion order.
  void set_config(std::string key, std::string value);
  void set_config(std::string key, const char* value) {
    set_config(std::move(key), std::string(value));
  }
  void set_config(std::string key, double value);
  void set_config(std::string key, std::uint64_t value);
  // Note: no std::size_t overload — on LP64 it IS std::uint64_t.
  void set_config(std::string key, bool value);

  /// Named metric summary; serialized in insertion order.
  void add_metric(std::string name, const Summary& summary);

  /// Attach the registry totals (typically MetricsRegistry::global()
  /// .snapshot() taken right after the run).
  void set_metrics_snapshot(MetricsSnapshot snapshot);

  void write_json(std::ostream& os) const;

 private:
  using ConfigValue = std::variant<std::string, double, std::uint64_t, bool>;

  std::vector<std::pair<std::string, ConfigValue>> config_;
  std::vector<std::pair<std::string, Summary>> metrics_;
  MetricsSnapshot snapshot_;
};

}  // namespace acp::obs
