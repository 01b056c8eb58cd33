// perfbench — runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --daemon PATH --work-dir DIR
//
// Untraced (--trace 0): trials of the workload, each with its own seed
// derived from --seed, until S seconds of measured run time have passed.
// Every trial's output is checked; end-to-end metrics come from these runs.
//
// Traced (--trace 1): pairs of an untraced and a traced trial on the same
// seed. The traced trial wraps every layer seam in a timing decorator and
// yields the per-layer metrics, their accounting against the wall time,
// and the tracing overhead (traced median minus untraced median). Spans of
// the last traced trial are written to DIR.
//
// The result is one JSON object on the last line of stdout; progress and
// errors go to stderr. Exits 1 when any output check failed.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "acp/scenario/build.hpp"
#include "fingerprint.hpp"
#include "metrics.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::TrialResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;
  std::string work_dir = ".";
};

/// Trials per run, whatever --seconds says: medians need a few samples.
constexpr std::size_t kMinTrials = 3;
/// Set-up-only repetitions after each trial, and the fewest set-ups behind
/// the setup_s median. A set-up takes milliseconds; spreading the samples
/// over the whole run lets them see the same machine as the trials.
constexpr std::size_t kSetupsPerTrial = 8;
constexpr std::size_t kSetupSamples = 51;
/// Stop starting trials after this much wall time, so a run always ends
/// well inside the three minutes a run may take.
constexpr double kWallCapSeconds = 120.0;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  return args;
}

/// Pin this process (and the daemons it forks) to one CPU: client and
/// server then share a core, so RPC latency measures the program's
/// per-call cost rather than cross-CPU wake-ups.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

struct RunTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    std::cerr << "perfbench: FAILED: " << why << "\n";
  }
};

class Runner {
 public:
  Runner(const Args& args, acp::scenario::ScenarioSpec spec)
      : args_(args), spec_(std::move(spec)) {}

  /// One checked trial; nullopt when it threw.
  std::optional<TrialResult> trial(std::size_t index, bool traced) {
    const std::uint64_t seed = perfbench::trial_seed(args_.seed, index);
    ++tally.attempted;
    if (!perfbench::reset_peak_rss() && !warned_rss_) {
      std::cerr << "perfbench: cannot reset VmHWM; peak_rss_mb is the "
                   "process peak so far\n";
      warned_rss_ = true;
    }
    try {
      TrialResult r = perfbench::run_trial(spec_, seed, options(traced, false));
      // Before the checks below, which run more trials' worth of work.
      r.peak_rss_mb = perfbench::peak_rss_mb();
      tally.attempted += r.rpc_ns.size();
      if (!traced) setups.push_back(r.setup_s);
      std::cerr << "perfbench: " << spec_.name << " trial " << index
                << (traced ? " traced" : "") << " seed " << seed
                << " setup " << r.setup_s << " s run " << r.run_s
                << " s probes " << r.result.total_honest_probes() << "\n";
      if (!r.live_honest_satisfied) {
        tally.fail("trial " + std::to_string(index) +
                   ": a live honest player is unsatisfied");
      }
      if (perfbench::is_remote(spec_)) check_against_in_process(r, seed, index);
      return r;
    } catch (const std::exception& e) {
      tally.fail("trial " + std::to_string(index) + ": " + e.what());
      return std::nullopt;
    }
  }

  /// Set up trial `index` again without running it; false if it threw.
  bool setup_sample(std::size_t index) {
    ++tally.attempted;
    try {
      setups.push_back(
          perfbench::run_trial(spec_, perfbench::trial_seed(args_.seed, index),
                               options(false, true))
              .setup_s);
      return true;
    } catch (const std::exception& e) {
      tally.fail("set-up " + std::to_string(index) + ": " + e.what());
      return false;
    }
  }

  /// The sync pair must agree across kernel thread counts: rerun trial 0's
  /// seed at the other count (untimed).
  void check_thread_parity(const TrialResult& first) {
    if (spec_.engine != "sync") return;
    acp::scenario::ScenarioSpec other = spec_;
    other.engine_threads = spec_.engine_threads == 1 ? 2 : 1;
    ++tally.attempted;
    try {
      const TrialResult r = perfbench::run_trial(
          other, perfbench::trial_seed(args_.seed, 0), options(false, false));
      if (!perfbench::same_result(r.result, first.result)) {
        tally.fail("engine_threads " + std::to_string(other.engine_threads) +
                   " gives a different RunResult");
      }
    } catch (const std::exception& e) {
      tally.fail(std::string("thread-parity rerun: ") + e.what());
    }
  }

  RunTally tally;
  std::vector<double> setups;

 private:
  /// Options for one trial; every trial gets a socket path of its own.
  perfbench::TrialOptions options(bool traced, bool setup_only) {
    perfbench::TrialOptions o;
    o.traced = traced;
    o.setup_only = setup_only;
    o.daemon_binary = args_.daemon;
    o.socket_path = args_.work_dir + "/bb-" + std::to_string(::getpid()) +
                    "-" + std::to_string(sockets_++) + ".sock";
    return o;
  }

  void check_against_in_process(const TrialResult& r, std::uint64_t seed,
                                std::size_t index) {
    acp::scenario::ScenarioSpec local = spec_;
    local.billboard = "inproc";
    const acp::RunResult reference =
        acp::scenario::run_scenario_trial(local, seed);
    if (!perfbench::same_result(r.result, reference)) {
      tally.fail("trial " + std::to_string(index) +
                 ": remote RunResult differs from the in-process run");
    }
    if (r.server && r.server->errors != 0) {
      tally.fail("trial " + std::to_string(index) + ": daemon reported " +
                 std::to_string(r.server->errors) + " errors");
    }
  }

  const Args& args_;
  acp::scenario::ScenarioSpec spec_;
  std::size_t sockets_ = 0;
  bool warned_rss_ = false;
};

/// What an untraced trial contributes to the end-to-end metrics.
struct TrialSummary {
  double run_s = 0.0;
  double probes_per_s = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t rpc_samples = 0;
  double rpc_us_p50 = 0.0;
  double rpc_us_p99 = 0.0;
  double server_rss_mb = 0.0;

  explicit TrialSummary(const TrialResult& t)
      : run_s(t.run_s),
        probes_per_s(static_cast<double>(t.result.total_honest_probes()) /
                     t.run_s),
        peak_rss_mb(t.peak_rss_mb),
        rpc_samples(t.rpc_ns.size()),
        rpc_us_p50(perfbench::percentile(t.rpc_ns, 0.50) * 1e-3),
        rpc_us_p99(perfbench::percentile(t.rpc_ns, 0.99) * 1e-3),
        server_rss_mb(t.server ? t.server->peak_rss_mb : 0.0) {}
};

/// End-to-end metrics over untraced trials. Times are medians over trials,
/// so one trial hit by a burst from a neighbour on the machine moves
/// nothing.
perfbench::MetricSet end_to_end(const std::vector<TrialSummary>& trials,
                                const std::vector<double>& setup,
                                const RunTally& tally, bool remote) {
  std::vector<double> rates;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> server_rss;
  std::size_t rpc_samples = 0;
  std::vector<double> peak_rss;
  for (const TrialSummary& t : trials) {
    rates.push_back(t.probes_per_s);
    peak_rss.push_back(t.peak_rss_mb);
    p50.push_back(t.rpc_us_p50);
    p99.push_back(t.rpc_us_p99);
    server_rss.push_back(t.server_rss_mb);
    rpc_samples += t.rpc_samples;
  }
  perfbench::MetricSet m;
  m.set("setup_s", perfbench::median(setup), "s");
  m.set("probes_per_s", perfbench::median(rates), "1/s");
  // Per-trial peaks are lumpy: they jump where a vector crosses a capacity
  // doubling, and a rare long gossip instance doubles them. The upper
  // quartile sits on the common high step and ignores the rare.
  m.set("peak_rss_mb", perfbench::percentile(peak_rss, 0.75), "MB");
  m.set("error_rate",
        tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                  static_cast<double>(tally.attempted)
                            : 1.0,
        "fraction");
  if (remote) {
    m.set("rpc_us_p50", perfbench::median(p50), "us");
    m.set("rpc_us_p99", perfbench::median(p99), "us");
    m.set("rpc_samples", static_cast<double>(rpc_samples), "count");
    m.set("server_rss_mb", perfbench::median(server_rss), "MB");
  }
  return m;
}

void print_result(const Args& args, const perfbench::Fingerprint& fp,
                  const RunTally& tally, std::size_t trials,
                  const perfbench::MetricSet& e2e,
                  const perfbench::MetricSet* layers) {
  std::cout << "{\"workload\": \"" << args.workload << "\", \"seed\": "
            << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"trials\": " << trials << ", \"correct\": "
            << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"end_to_end\": " << e2e.to_json();
  if (layers != nullptr) std::cout << ", \"per_layer\": " << layers->to_json();
  std::cout << ", \"fingerprint\": " << fp.to_json() << "}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    const perfbench::Fingerprint fp = perfbench::measure_fingerprint();
    acp::scenario::ScenarioSpec spec = perfbench::workload_spec(args.workload);
    const bool remote = perfbench::is_remote(spec);
    if (remote) {
      const int cpu = pin_to_one_cpu();
      std::cerr << "perfbench: client and daemon pinned to cpu " << cpu << "\n";
    }
    Runner runner(args, spec);
    const auto started = perfbench::Clock::now();
    const auto out_of_time = [&](double measured, std::size_t done) {
      if (perfbench::seconds_since(started) > kWallCapSeconds) return true;
      return done >= kMinTrials && measured >= args.seconds;
    };

    std::vector<TrialSummary> untraced;
    std::vector<double> untraced_run_s;
    std::vector<TrialResult> traced;
    double measured = 0.0;
    for (std::size_t i = 0; !out_of_time(measured, untraced.size()); ++i) {
      auto plain = runner.trial(i, false);
      if (!plain) break;
      measured += plain->run_s;
      if (untraced.empty()) runner.check_thread_parity(*plain);
      untraced.emplace_back(*plain);
      for (std::size_t k = 0; k < kSetupsPerTrial; ++k) {
        if (!runner.setup_sample(i)) break;
      }
      if (!args.trace) continue;
      auto with_trace = runner.trial(i, true);
      if (!with_trace) break;
      if (!perfbench::same_result(with_trace->result, plain->result)) {
        runner.tally.fail("trial " + std::to_string(i) +
                          ": traced RunResult differs from untraced");
      }
      measured += with_trace->run_s;
      untraced_run_s.push_back(plain->run_s);
      traced.push_back(std::move(*with_trace));
    }

    for (std::size_t i = 0; runner.setups.size() < kSetupSamples; ++i) {
      if (!runner.setup_sample(i % std::max<std::size_t>(untraced.size(), 1))) {
        break;
      }
    }
    const perfbench::MetricSet e2e =
        end_to_end(untraced, runner.setups, runner.tally, remote);
    if (args.trace && !traced.empty()) {
      const perfbench::MetricSet layers =
          perfbench::layer_metrics(spec, untraced_run_s, traced);
      const std::string spans = args.work_dir + "/spans-" + args.workload +
                                "-seed" + std::to_string(args.seed) + ".jsonl";
      std::ofstream os(spans);
      traced.back().trace->write_spans(os);
      std::cerr << "perfbench: spans of the last traced trial in " << spans
                << "\n";
      print_result(args, fp, runner.tally, untraced.size() + traced.size(),
                   e2e, &layers);
    } else {
      print_result(args, fp, runner.tally, untraced.size(), e2e, nullptr);
    }
    return runner.tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
