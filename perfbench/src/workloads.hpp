// The benchmark's workloads and one trial of each.
//
// A trial is built by hand from the workload's ScenarioSpec through the
// public scenario layer (build_world, build_population, the registries),
// so set-up is timed apart from the run; the self-test pins that every
// hand-wired trial equals scenario::run_scenario_trial for the same spec
// and seed.
//
//   sync_n100k_t1       DISTILL vs splitvote, n = m = 100k, one kernel thread
//   sync_n100k_t2       the same at engine_threads = 2 (the parallel kernel)
//   gossip_n1024        scenarios/gossip_large.json at n = m = 1024
//   remote_async_n8192  async collab baseline against a private
//                       acp_billboardd over a Unix socket, pipeline 1
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "acp/engine/run_result.hpp"
#include "acp/scenario/spec.hpp"
#include "daemon.hpp"
#include "decorators.hpp"

namespace perfbench {

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Full-size spec of a named workload. gossip_n1024 reads
/// scenarios/gossip_large.json relative to the working directory (the
/// repository root). Throws std::invalid_argument on an unknown name.
[[nodiscard]] acp::scenario::ScenarioSpec workload_spec(const std::string& name);

/// Remote workloads run against a per-trial daemon.
[[nodiscard]] inline bool is_remote(const acp::scenario::ScenarioSpec& spec) {
  return spec.engine == "async";
}

/// Seed of trial `trial` of a run seeded `run_seed`.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t run_seed,
                                       std::size_t trial);

struct TrialOptions {
  bool traced = false;
  /// Build everything, skip the run: more set-up samples per run.
  bool setup_only = false;
  std::string daemon_binary;  ///< remote trials
  std::string socket_path;    ///< remote trials: private to the trial
};

/// The service path of the committed batches, replayed from outside:
/// client encode, a standalone server core, and the client mirror.
struct ServicePath {
  double encode_ns_mean = 0.0;
  double server_apply_ns_mean = 0.0;
  double mirror_apply_ns_mean = 0.0;
};

struct TrialResult {
  acp::RunResult result;
  /// Every honest player that did not depart is satisfied.
  bool live_honest_satisfied = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  double world_ms = 0.0;
  double population_ms = 0.0;
  double connect_ms = 0.0;
  /// VmHWM after the trial, from a peak reset just before it (set by the
  /// caller).
  double peak_rss_mb = 0.0;
  /// Remote trials: commit round trips and the daemon's view.
  std::vector<double> rpc_ns;
  std::optional<ServerStats> server;

  // Traced trials only.
  std::unique_ptr<TrialTrace> trace;
  std::uint64_t billboard_bytes = 0;  ///< final board, encoded post sizes
  std::uint64_t replica_posts = 0;    ///< gossip: over final replicas
  std::optional<ServicePath> service;
};

/// Set up and run one trial. Throws on a failed set-up, a failed run, or
/// a daemon that does not start or stop cleanly.
[[nodiscard]] TrialResult run_trial(const acp::scenario::ScenarioSpec& spec,
                                    std::uint64_t seed,
                                    const TrialOptions& options);

/// Field-by-field RunResult equality (doubles compared exactly: runs are
/// bit-identical by contract).
[[nodiscard]] bool same_result(const acp::RunResult& a,
                               const acp::RunResult& b);

[[nodiscard]] ServicePath replay_service_path(std::size_t num_players,
                                              std::size_t num_objects,
                                              const CommitLog& log);

}  // namespace perfbench
