// perfbench_selftest — checks the benchmark harness itself.
//
//   perfbench_selftest --daemon PATH --work-dir DIR
//
// Run from the repository root. At small sizes, for every workload:
//  * the hand-wired trial equals scenario::run_scenario_trial for the same
//    spec and seed (remote: against a daemon of its own);
//  * every decorator is transparent: the traced trial equals the untraced;
//  * the traced sync_n100k_t2 trial really ran two protocol lanes.
// Plus the percentile helper on known samples, the daemon stats-line
// parser, and a daemon that never becomes ready failing within its
// deadline. Prints one line per check; exits 1 if any failed.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "acp/scenario/build.hpp"
#include "daemon.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentile_checks() {
  using perfbench::percentile;
  check(near(percentile({1, 2, 3, 4}, 0.5), 2.5), "percentile: even median");
  check(near(percentile({3, 1, 2}, 0.5), 2.0), "percentile: unsorted input");
  check(near(percentile({1, 2, 3, 4}, 0.25), 1.75),
        "percentile: interpolated quartile");
  check(near(percentile({1, 2, 3, 4}, 0.0), 1.0) &&
            near(percentile({1, 2, 3, 4}, 1.0), 4.0),
        "percentile: extremes");
  std::vector<double> hundred_one;
  for (int i = 1; i <= 101; ++i) hundred_one.push_back(i);
  check(near(percentile(hundred_one, 0.99), 100.0), "percentile: p99 of 1..101");
  check(near(percentile({5}, 0.99), 5.0) && near(percentile({}, 0.5), 0.0),
        "percentile: single and empty samples");
}

void daemon_checks(const std::string& work_dir) {
  perfbench::ServerStats stats;
  const bool parsed = perfbench::parse_server_stats(
      "acp_billboardd: Terminated — shutting down (sessions=2 boards=0 "
      "commits=147 posts=139 queries=0 pulls=0 forwarded=0 errors=3)",
      stats);
  check(parsed && stats.commits == 147 && stats.posts == 139 &&
            stats.errors == 3,
        "daemon: shutdown stats line parses");
  const auto start = perfbench::Clock::now();
  bool threw = false;
  try {
    perfbench::Daemon never_ready("/bin/false", work_dir + "/never.sock",
                                  std::chrono::milliseconds(2000));
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw && perfbench::seconds_since(start) < 3.0,
        "daemon: a daemon that never listens fails within its deadline");
}

acp::scenario::ScenarioSpec small(const std::string& name) {
  acp::scenario::ScenarioSpec spec = perfbench::workload_spec(name);
  const std::size_t n = spec.engine == "sync"     ? 3000
                        : spec.engine == "gossip" ? 128
                                                  : 512;
  spec.n = n;
  spec.m = n;
  return spec;
}

void workload_checks(const std::string& name, const std::string& daemon,
                     const std::string& work_dir) {
  const acp::scenario::ScenarioSpec spec = small(name);
  const std::uint64_t seed = 7;
  const std::string sock = work_dir + "/selftest-" +
                           std::to_string(::getpid()) + "-" + name;
  perfbench::TrialOptions options;
  options.daemon_binary = daemon;
  options.socket_path = sock + "-a.sock";
  const perfbench::TrialResult plain = perfbench::run_trial(spec, seed, options);
  options.traced = true;
  options.socket_path = sock + "-b.sock";
  const perfbench::TrialResult traced =
      perfbench::run_trial(spec, seed, options);

  acp::RunResult reference;
  if (perfbench::is_remote(spec)) {
    perfbench::Daemon own(daemon, sock + "-c.sock");
    acp::scenario::ScenarioSpec remote = spec;
    remote.billboard = own.backend();
    reference = acp::scenario::run_scenario_trial(remote, seed);
    (void)own.stop();
  } else {
    reference = acp::scenario::run_scenario_trial(spec, seed);
  }

  check(plain.live_honest_satisfied,
        name + ": every live honest player satisfied");
  check(perfbench::same_result(plain.result, reference),
        name + ": hand-wired trial equals run_scenario_trial");
  check(perfbench::same_result(traced.result, plain.result),
        name + ": decorators are transparent");
  check(traced.trace && !traced.trace->rounds.empty(),
        name + ": traced trial recorded rounds");
  if (spec.engine_threads == 2) {
    check(traced.trace->core.lanes_used() == 2,
          name + ": traced trial ran the parallel kernel on two lanes");
  }
  if (perfbench::is_remote(spec)) {
    check(plain.server && plain.server->errors == 0 &&
              plain.server->commits == plain.rpc_ns.size(),
          name + ": daemon counted every commit RPC and no errors");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string daemon;
  std::string work_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--daemon") daemon = argv[i + 1];
    if (flag == "--work-dir") work_dir = argv[i + 1];
  }
  try {
    percentile_checks();
    daemon_checks(work_dir);
    for (const std::string& name : perfbench::workload_names()) {
      workload_checks(name, daemon, work_dir);
    }
  } catch (const std::exception& e) {
    check(false, std::string("exception: ") + e.what());
  }
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}
