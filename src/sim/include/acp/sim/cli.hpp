// Command-line experiment runner (the `acpsim` tool).
//
// Lets a user run any registered protocol/adversary combination from the
// shell without writing C++ — either from flags:
//
//   acpsim --n 1024 --alpha 0.5 --protocol distill --adversary splitvote
//
// or from a checked-in scenario file, with key overrides:
//
//   acpsim --scenario scenarios/fig1_cost_vs_n.json --set n=256 --set m=256
//
// Precedence is scenario file < flags < --set (left to right within each).
// The configuration is a ScenarioSpec; flags are just spelling. Parsing
// and execution live in the library so they are testable; tools/acpsim.cpp
// is a thin main().
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "acp/scenario/spec.hpp"

namespace acp::cli {

struct CliConfig {
  /// The experiment itself — everything a run needs is in the spec.
  scenario::ScenarioSpec spec;

  bool csv = false;
  bool help = false;

  /// Profile the run: enables the metrics registry (which times the
  /// kernel's seams and counts the io.* channel bits) and prints a summary
  /// after the result table. With --report-json the snapshot also lands
  /// in the report. Not available with --sweep.
  bool profile = false;

  /// Write a per-round trace CSV of the FIRST trial to this path
  /// (engines sync and lockstep). Empty = no trace.
  std::string trace_path;

  /// Write a per-round JSONL trace ("acp.trace.v1") of the FIRST trial to
  /// this path (engines sync and lockstep). Empty = no trace.
  std::string trace_jsonl_path;

  /// Write a machine-readable JSON run report ("acp.report.v4") — config
  /// echo, per-metric summaries, metrics-registry counters (io.* bits
  /// included) and timer totals — to this path. Enables metrics collection for the run.
  /// Empty = no report. Not available with --sweep.
  std::string report_json_path;

  /// Optional one-dimensional parameter sweep (--sweep name=lo:hi:step).
  /// Supported names: alpha, n, good, f, err, veto. Empty = no sweep.
  std::string sweep_param;
  double sweep_lo = 0.0;
  double sweep_hi = 0.0;
  double sweep_step = 0.0;
};

/// Parse argv-style arguments (without argv[0]). Loads --scenario first,
/// then applies flags, then --set overrides; validates ranges and registry
/// names. Throws std::invalid_argument with a human-readable message on
/// bad input.
[[nodiscard]] CliConfig parse_args(const std::vector<std::string>& args);

/// The --help text.
[[nodiscard]] std::string usage();

/// Run the configured experiment and print a result table (or CSV) to
/// `out`. Returns the process exit code.
int run(const CliConfig& config, std::ostream& out);

}  // namespace acp::cli
