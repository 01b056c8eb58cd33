#include "acp/sim/cli.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "acp/concurrency/thread_pool.hpp"
#include "acp/engine/trace.hpp"
#include "acp/obs/bandwidth.hpp"
#include "acp/obs/jsonl_trace.hpp"
#include "acp/obs/metrics.hpp"
#include "acp/obs/observer_mux.hpp"
#include "acp/obs/report.hpp"
#include "acp/scenario/build.hpp"
#include "acp/scenario/registry.hpp"
#include "acp/sim/runner.hpp"
#include "acp/sim/scenario_driver.hpp"
#include "acp/stats/table.hpp"

namespace acp::cli {

std::string usage() {
  return R"(acpsim — billboard collaboration simulator (ICDCS'05 DISTILL)

usage: acpsim [options]

scenario files:
  --scenario FILE  load an "acp.scenario.v1" JSON spec (see scenarios/);
                   later flags override the file, --set overrides both
  --set KEY=VALUE  override one spec key (n, m, alpha, protocol, engine,
                   seed, ..., plus protocol.<param> and adversary.<param>);
                   applied last, in order

world:
  --n N            players (default 256)
  --m M            objects (default 256)
  --good G         good objects (default 1)
  --alpha A        honest fraction in (0,1] (default 0.5)
  --world W        auto | simple | cost-classes | top-beta (default auto:
                   derived from the protocol)
  --cost-classes C     cost classes for --protocol cost-classes (default 4)
  --cheapest-good K    class of the cheapest good object (default 0)

algorithm:
  --protocol P     any registered protocol: distill | distill-hp |
                   guess-alpha | cost-classes | no-lt | collab | trivial |
                   popularity | full-coop (default distill)
  --f F            positive votes per player (default 1)
  --err E          honest false-positive vote probability (default 0)
  --veto V         negative-vote veto fraction, 0 disables (default 0)
  --no-advice      disable the SeekAdvice half of PROBE&SEEKADVICE
  --trust          trust-weighted SeekAdvice (distill/distill-hp only)

adversary:
  --adversary A    any registered adversary: silent | slander | eager |
                   collude | spam | splitvote | liar | targeted-slander
                   (default silent)

substrate:
  --engine E       sync | async | lockstep | gossip (default sync):
                   the shared-billboard round model; asynchronous basic
                   steps under a scheduler (protocols collab/trivial only);
                   a synchronous protocol over the asynchronous engine via
                   the timestamp synchronizer; or per-node replicas
                   synchronized by push gossip
  --gossip         alias for --engine gossip
  --fanout F       gossip push fanout (default 2)
  --scheduler S    rr | random — async/lockstep schedule (default rr)
  --billboard B    billboard backend: inproc (default, in-process board) |
                   socket:<path> | tcp:<host>:<port> — a running
                   acp_billboardd; results are bit-identical across
                   backends (each trial opens a private board)

churn:
  --arrival-window W   stagger honest arrivals over [0, W) on the engine's
                       churn clock (rounds; basic steps for --engine
                       async); the i-th honest player joins at i*W/h
  --depart-frac F      fraction of honest players that crash-stop mid-run
  --depart-round R     round (or step) at which the departing fraction
                       leaves (requires --depart-frac)

execution:
  --sweep P=LO:HI:STEP   sweep one parameter (alpha|n|good|f|err|veto),
                         printing one row per value
  --trials T       independent seeded trials (default 20)
  --seed S         base seed (default 1); per-trial seeds are a splitmix64
                   stream derived from it
  --threads T      trial-driver worker threads, 0 = all cores (default 1);
                   results are bit-identical at any thread count
  --engine-threads T   round-kernel worker threads inside each trial,
                       0 = all cores (default 1); sync engine only,
                       bit-identical at any value, sequential fallback
                       for protocols without parallel_choose_safe
  --max-rounds R   per-trial round cap, sync/gossip (default 500000)
  --max-steps S    per-trial honest-step cap, async/lockstep
                   (default 10000000)
  --csv            machine-readable output
  --trace FILE     write a per-round trace CSV of the first trial
                   (engines sync, lockstep and gossip)
  --trace-jsonl FILE   write a per-round JSONL trace (acp.trace.v1) of the
                       first trial (engines sync, lockstep and gossip)
  --report-json FILE   write a machine-readable run report (acp.report.v4):
                       config echo, metric summaries and the metrics
                       registry snapshot (counters including the io.*
                       bits per channel, timers including the kernel's
                       engine.kernel.* seams, histograms); turns the
                       registry on (not available with --sweep)
  --profile        turn the metrics registry on and print where the
                   kernel thread's slice time went (adversary, players,
                   commit, accounting, leftover), the parallel kernel's
                   lane work, and the bits moved per io.* channel (not
                   available with --sweep)
  --help           this text
)";
}

namespace {

[[noreturn]] void unknown_registry_name(const char* what,
                                        const std::string& name,
                                        const std::vector<std::string>& known) {
  std::string message =
      std::string("unknown ") + what + " '" + name + "' (registered:";
  bool first = true;
  for (const std::string& k : known) {
    message += first ? " " : ", ";
    message += k;
    first = false;
  }
  message += ")";
  throw std::invalid_argument(message);
}

}  // namespace

CliConfig parse_args(const std::vector<std::string>& args) {
  CliConfig config;
  auto need_value = [&](std::size_t i) -> const std::string& {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value after " + args[i]);
    }
    return args[i + 1];
  };
  auto to_size = [](const std::string& flag, const std::string& text) {
    try {
      const long long value = std::stoll(text);
      if (value < 0) throw std::invalid_argument("");
      return static_cast<std::size_t>(value);
    } catch (...) {
      throw std::invalid_argument("bad value for " + flag + ": " + text);
    }
  };
  auto to_double = [](const std::string& flag, const std::string& text) {
    try {
      return std::stod(text);
    } catch (...) {
      throw std::invalid_argument("bad value for " + flag + ": " + text);
    }
  };

  // The scenario file is the base layer: load it before any flag lands on
  // the spec, regardless of where --scenario sits on the command line.
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scenario") {
      config.spec = scenario::ScenarioSpec::load_file(need_value(i));
      ++i;
    }
  }

  scenario::ScenarioSpec& spec = config.spec;
  std::vector<std::string> overrides;  // --set, applied after all flags

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      config.help = true;
    } else if (arg == "--csv") {
      config.csv = true;
    } else if (arg == "--profile") {
      config.profile = true;
    } else if (arg == "--scenario") {
      ++i;  // already loaded above
    } else if (arg == "--set") {
      overrides.push_back(need_value(i));
      ++i;
    } else if (arg == "--no-advice") {
      spec.protocol_params.set("use_advice", 0.0);
    } else if (arg == "--trust") {
      spec.protocol_params.set("trust", 1.0);
    } else if (arg == "--gossip") {
      spec.engine = "gossip";
    } else if (arg == "--engine") {
      spec.engine = need_value(i);
      ++i;
    } else if (arg == "--scheduler") {
      spec.scheduler = need_value(i);
      ++i;
    } else if (arg == "--billboard") {
      spec.billboard = need_value(i);
      ++i;
    } else if (arg == "--world") {
      spec.world = need_value(i);
      ++i;
    } else if (arg == "--max-steps") {
      spec.max_steps = static_cast<Count>(to_size(arg, need_value(i)));
      ++i;
    } else if (arg == "--arrival-window") {
      spec.arrival_window = static_cast<Round>(to_size(arg, need_value(i)));
      ++i;
    } else if (arg == "--depart-frac") {
      spec.depart_frac = to_double(arg, need_value(i));
      ++i;
    } else if (arg == "--depart-round") {
      spec.depart_round = static_cast<Round>(to_size(arg, need_value(i)));
      ++i;
    } else if (arg == "--fanout") {
      spec.fanout = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--trace") {
      config.trace_path = need_value(i);
      ++i;
    } else if (arg == "--trace-jsonl") {
      config.trace_jsonl_path = need_value(i);
      ++i;
    } else if (arg == "--report-json") {
      config.report_json_path = need_value(i);
      ++i;
    } else if (arg == "--n") {
      spec.n = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--m") {
      spec.m = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--good") {
      spec.good = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--alpha") {
      spec.alpha = to_double(arg, need_value(i));
      ++i;
    } else if (arg == "--protocol") {
      spec.protocol = need_value(i);
      ++i;
    } else if (arg == "--adversary") {
      spec.adversary = need_value(i);
      ++i;
    } else if (arg == "--trials") {
      spec.trials = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--seed") {
      spec.seed = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--threads") {
      spec.threads = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--engine-threads") {
      spec.engine_threads = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--max-rounds") {
      spec.max_rounds = static_cast<Round>(to_size(arg, need_value(i)));
      ++i;
    } else if (arg == "--f") {
      spec.protocol_params.set("f",
                               static_cast<double>(to_size(arg, need_value(i))));
      ++i;
    } else if (arg == "--err") {
      spec.protocol_params.set("err", to_double(arg, need_value(i)));
      ++i;
    } else if (arg == "--veto") {
      spec.protocol_params.set("veto", to_double(arg, need_value(i)));
      ++i;
    } else if (arg == "--cost-classes") {
      spec.cost_classes = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--cheapest-good") {
      spec.cheapest_good_class = to_size(arg, need_value(i));
      ++i;
    } else if (arg == "--sweep") {
      // name=lo:hi:step
      const std::string& sweep = need_value(i);
      ++i;
      const auto eq = sweep.find('=');
      const auto c1 = sweep.find(':', eq == std::string::npos ? 0 : eq);
      const auto c2 = c1 == std::string::npos ? std::string::npos
                                              : sweep.find(':', c1 + 1);
      if (eq == std::string::npos || c1 == std::string::npos ||
          c2 == std::string::npos) {
        throw std::invalid_argument(
            "--sweep wants name=lo:hi:step, got: " + sweep);
      }
      config.sweep_param = sweep.substr(0, eq);
      config.sweep_lo = to_double(arg, sweep.substr(eq + 1, c1 - eq - 1));
      config.sweep_hi = to_double(arg, sweep.substr(c1 + 1, c2 - c1 - 1));
      config.sweep_step = to_double(arg, sweep.substr(c2 + 1));
    } else {
      throw std::invalid_argument("unknown option: " + arg +
                                  " (try --help)");
    }
  }

  for (const std::string& assignment : overrides) {
    scenario::apply_override(spec, assignment);
  }

  if (config.help) return config;
  spec.validate();

  // Fail fast on unknown names — a typo should die in argument parsing,
  // not in the middle of trial 0.
  const scenario::Registries& reg = scenario::registries();
  if (!reg.protocols.contains(spec.protocol)) {
    unknown_registry_name("protocol", spec.protocol, reg.protocols.names());
  }
  if (!reg.adversaries.contains(spec.adversary)) {
    unknown_registry_name("adversary", spec.adversary,
                          reg.adversaries.names());
  }

  if (!config.sweep_param.empty()) {
    static const std::vector<std::string> kSweepable = {
        "alpha", "n", "good", "f", "err", "veto"};
    if (std::find(kSweepable.begin(), kSweepable.end(),
                  config.sweep_param) == kSweepable.end()) {
      throw std::invalid_argument("--sweep: unknown parameter " +
                                  config.sweep_param);
    }
    if (config.sweep_step <= 0.0 || config.sweep_hi < config.sweep_lo) {
      throw std::invalid_argument("--sweep: need lo <= hi and step > 0");
    }
    if (!config.report_json_path.empty()) {
      throw std::invalid_argument(
          "--report-json is not available with --sweep (one report "
          "describes one configuration point)");
    }
    if (config.profile) {
      throw std::invalid_argument(
          "--profile is not available with --sweep (the profile "
          "describes one configuration point)");
    }
  }
  return config;
}

namespace {

/// Six metric summaries for one configuration point, honoring the
/// first-trial trace options.
std::vector<Summary> measure_point(const CliConfig& config) {
  const scenario::ScenarioSpec& spec = config.spec;
  const TrialPlan plan = sim::scenario_trial_plan(spec);
  const std::uint64_t first_seed =
      derive_trial_seeds(plan.base_seed, plan.trials).front();

  return run_trials_multi(
      plan, sim::kNumScenarioMetrics, [&](std::uint64_t seed) {
        // Traces cover the FIRST trial only, on the engines whose observer
        // sees synchronous rounds (lockstep observers see virtual rounds,
        // gossip observers the union log — the same shape). The mux lets
        // the CSV and JSONL recorders share the engine's single observer
        // slot.
        const bool first_trial = seed == first_seed;
        const bool traces_ok = spec.engine != "async";
        obs::ObserverMux mux;
        TraceRecorder trace;
        const bool want_trace =
            traces_ok && !config.trace_path.empty() && first_trial;
        if (want_trace) mux.add(&trace);
        std::ofstream jsonl_file;
        std::optional<obs::JsonlTraceWriter> jsonl;
        if (traces_ok && !config.trace_jsonl_path.empty() && first_trial) {
          jsonl_file.open(config.trace_jsonl_path);
          if (!jsonl_file) {
            throw std::invalid_argument("--trace-jsonl: cannot open " +
                                        config.trace_jsonl_path);
          }
          jsonl.emplace(jsonl_file);
          mux.add(&*jsonl);
        }
        RunObserver* observer = mux.empty() ? nullptr : &mux;

        const RunResult result =
            scenario::run_scenario_trial(spec, seed, observer);
        if (want_trace) {
          std::ofstream file(config.trace_path);
          if (!file) {
            throw std::invalid_argument("--trace: cannot open " +
                                        config.trace_path);
          }
          trace.write_csv(file);
        }
        return sim::scenario_metrics(result);
      });
}

/// A slice timer and the timers that split it on the kernel thread.
struct SliceParts {
  const char* slice;
  std::vector<const char*> parts;
};

const std::vector<SliceParts>& slice_parts() {
  static const std::vector<const char*> kernel = {
      "engine.kernel.adversary", "engine.kernel.players",
      "engine.kernel.commit", "engine.kernel.accounting"};
  static const std::vector<SliceParts> table = {
      {"engine.sync.round", kernel},
      {"engine.async.step", kernel},
      {"engine.gossip.round",
       {"engine.gossip.exchange", "engine.gossip.step",
        "engine.gossip.commit"}},
  };
  return table;
}

/// Human-readable digest of a --profile run, read from the registry
/// snapshot: the slice timer's parts on the kernel thread (with the
/// leftover, so the shares sum to 100%), the parallel kernel's lane-summed
/// work, the trial pool, and the bits moved per io.* channel. The report
/// JSON has the rest.
void print_profile_summary(const obs::MetricsSnapshot& metrics,
                           std::size_t lanes, std::ostream& out) {
  const auto timer = [&metrics](std::string_view name) {
    for (const obs::TimerSample& sample : metrics.timers) {
      if (sample.name == name) return sample;
    }
    return obs::TimerSample{std::string(name), 0, 0};
  };
  const auto counter = [&metrics](const std::string& name) {
    for (const obs::CounterSample& sample : metrics.counters) {
      if (sample.name == name) return sample.value;
    }
    return std::uint64_t{0};
  };
  const auto label = [&out](std::string_view name) -> std::ostream& {
    return out << "  " << std::left << std::setw(26) << name << ' '
               << std::right;
  };

  for (const SliceParts& entry : slice_parts()) {
    const obs::TimerSample slice = timer(entry.slice);
    if (slice.count == 0) continue;
    const auto row = [&](std::string_view name, std::uint64_t ns) {
      const double share =
          slice.total_ns == 0 ? 0.0
                              : 100.0 * static_cast<double>(ns) /
                                    static_cast<double>(slice.total_ns);
      label(name) << ns << " ns (" << Table::cell(share, 1) << "%)\n";
    };
    out << "\nprofile: " << entry.slice << " on the kernel thread, "
        << slice.count << " slices, " << slice.total_ns << " ns\n";
    std::uint64_t parts_ns = 0;
    for (const char* part : entry.parts) {
      const std::uint64_t ns = timer(part).total_ns;
      parts_ns += ns;
      row(part, ns);
    }
    row("leftover", slice.total_ns > parts_ns ? slice.total_ns - parts_ns : 0);
  }

  const obs::TimerSample work = timer("engine.kernel.work");
  if (work.count > 0) {
    const obs::TimerSample wake = timer("engine.kernel.wake");
    out << "profile: parallel kernel, " << lanes
        << " lanes (lane time, not kernel-thread time)\n";
    label("engine.kernel.work")
        << work.total_ns << " ns over " << work.count << " shards\n";
    label("engine.kernel.wake")
        << wake.total_ns << " ns over " << wake.count << " lane wakes\n";
    for (const char* name : {"engine.kernel.barrier", "engine.kernel.merge"}) {
      label(name) << timer(name).total_ns
                  << " ns (inside engine.kernel.players)\n";
    }
  }

  const obs::TimerSample pool = timer("concurrency.pool.wake");
  if (pool.count > 0) {
    out << "profile: trial pool, " << pool.count << " tasks, "
        << pool.total_ns << " ns submit->start\n";
  }

  out << "profile: io bits per channel\n";
  for (std::size_t c = 0; c < static_cast<std::size_t>(obs::IoChannel::kCount);
       ++c) {
    const auto channel = static_cast<obs::IoChannel>(c);
    const std::uint64_t read_ops =
        counter(obs::io_metric_name(channel, "read_ops"));
    const std::uint64_t write_ops =
        counter(obs::io_metric_name(channel, "write_ops"));
    if (read_ops == 0 && write_ops == 0) continue;
    out << "  " << obs::io_channel_name(channel) << ": read "
        << counter(obs::io_metric_name(channel, "read_bits")) << " bits ("
        << read_ops << " ops), wrote "
        << counter(obs::io_metric_name(channel, "write_bits")) << " bits ("
        << write_ops << " ops)\n";
  }
}

/// Apply a sweep value to a copy of the configuration.
CliConfig with_sweep_value(const CliConfig& base, double value) {
  CliConfig config = base;
  if (base.sweep_param == "alpha") {
    config.spec.alpha = value;
  } else if (base.sweep_param == "n") {
    config.spec.n = static_cast<std::size_t>(value);
  } else if (base.sweep_param == "good") {
    config.spec.good = static_cast<std::size_t>(value);
  } else if (base.sweep_param == "f") {
    config.spec.protocol_params.set("f", static_cast<double>(
                                             static_cast<std::size_t>(value)));
  } else if (base.sweep_param == "err") {
    config.spec.protocol_params.set("err", value);
  } else if (base.sweep_param == "veto") {
    config.spec.protocol_params.set("veto", value);
  }
  return config;
}

}  // namespace

int run(const CliConfig& config, std::ostream& out) {
  if (config.help) {
    out << usage();
    return 0;
  }

  const scenario::ScenarioSpec& spec = config.spec;

  if (!config.sweep_param.empty()) {
    Table table({config.sweep_param, "probes/player", "worst", "cost",
                 "rounds", "success", "completed"});
    int exit_code = 0;
    for (double value = config.sweep_lo; value <= config.sweep_hi + 1e-12;
         value += config.sweep_step) {
      const auto summaries = measure_point(with_sweep_value(config, value));
      table.add_row({Table::cell(value, 3),
                     Table::cell(summaries[sim::kMeanProbes].mean()),
                     Table::cell(summaries[sim::kMaxProbes].mean()),
                     Table::cell(summaries[sim::kMeanCost].mean()),
                     Table::cell(summaries[sim::kRounds].mean()),
                     Table::cell(summaries[sim::kSuccessFraction].mean(), 4),
                     Table::cell(summaries[sim::kCompleted].min(), 0)});
      if (summaries[sim::kCompleted].min() < 1.0) exit_code = 2;
    }
    if (config.csv) {
      table.print_csv(out);
    } else {
      out << "acpsim sweep over " << config.sweep_param << "\n\n";
      table.print(out);
    }
    return exit_code;
  }

  // --report-json and --profile turn on the metrics registry (engine
  // counters, io.* bits, hot-path timers, the kernel's seams).
  const bool want_report = !config.report_json_path.empty();
  const bool want_metrics = want_report || config.profile;
  if (want_metrics) {
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::set_enabled(true);
  }
  const auto summaries = measure_point(config);
  obs::MetricsSnapshot metrics;
  if (want_metrics) {
    obs::MetricsRegistry::set_enabled(false);
    metrics = obs::MetricsRegistry::global().snapshot();
  }
  if (want_report) {
    obs::RunReport report;
    report.set_config("n", spec.n);
    report.set_config("m", spec.m);
    report.set_config("good", spec.good);
    report.set_config("alpha", spec.alpha);
    report.set_config("protocol", spec.protocol);
    report.set_config("adversary", spec.adversary);
    report.set_config("trials", spec.trials);
    report.set_config("seed", spec.seed);
    report.set_config("max_rounds",
                      static_cast<std::uint64_t>(spec.max_rounds));
    report.set_config("f", spec.protocol_params.get_size("f", 1));
    report.set_config("err", spec.protocol_params.get("err", 0.0));
    report.set_config("veto", spec.protocol_params.get("veto", 0.0));
    report.set_config("use_advice",
                      spec.protocol_params.get_bool("use_advice", true));
    report.set_config("trust_advice",
                      spec.protocol_params.get_bool("trust", false));
    report.set_config("engine", spec.engine);
    report.set_config("billboard", spec.billboard);
    report.set_config("threads", spec.threads);
    // Requested vs hardware-resolved round-kernel threads. The count a
    // specific run actually used (1 under the sequential fallback) is in
    // the JSONL trace header's engine_threads field.
    report.set_config("engine_threads", spec.engine_threads);
    report.set_config("engine_threads_resolved",
                      ThreadPool::resolve(spec.engine_threads));
    report.set_config("gossip", spec.engine == "gossip");
    if (spec.engine == "gossip") {
      report.set_config("fanout", spec.fanout);
    }
    if (spec.engine == "async" || spec.engine == "lockstep") {
      report.set_config("scheduler", spec.scheduler);
      report.set_config("max_steps",
                        static_cast<std::uint64_t>(spec.max_steps));
    }
    if (spec.arrival_window > 0) {
      report.set_config("arrival_window",
                        static_cast<std::uint64_t>(spec.arrival_window));
    }
    if (spec.depart_frac > 0.0) {
      report.set_config("depart_frac", spec.depart_frac);
      report.set_config("depart_round",
                        static_cast<std::uint64_t>(spec.depart_round));
    }
    report.add_metric("probes_per_player", summaries[sim::kMeanProbes]);
    report.add_metric("worst_player_probes", summaries[sim::kMaxProbes]);
    report.add_metric("cost_per_player", summaries[sim::kMeanCost]);
    report.add_metric("rounds", summaries[sim::kRounds]);
    report.add_metric("success_fraction", summaries[sim::kSuccessFraction]);
    report.add_metric("run_completed", summaries[sim::kCompleted]);
    report.set_metrics_snapshot(metrics);
    std::ofstream file(config.report_json_path);
    if (!file) {
      throw std::invalid_argument("--report-json: cannot open " +
                                  config.report_json_path);
    }
    report.write_json(file);
  }
  Table table({"metric", "mean", "p50", "p90", "min", "max"});
  const std::vector<std::string> names = {
      "probes/player",  "worst player probes", "cost/player",
      "rounds",         "success fraction",    "run completed"};
  for (std::size_t metric = 0; metric < names.size(); ++metric) {
    const Summary& s = summaries[metric];
    table.add_row({names[metric], Table::cell(s.mean()),
                   Table::cell(s.median()), Table::cell(s.p90()),
                   Table::cell(s.min()), Table::cell(s.max())});
  }
  if (config.csv) {
    table.print_csv(out);
  } else {
    out << "acpsim: n=" << spec.n << " m=" << spec.m
        << " good=" << spec.good << " alpha=" << spec.alpha
        << " trials=" << spec.trials << "\n\n";
    table.print(out);
    if (config.profile) {
      print_profile_summary(metrics, ThreadPool::resolve(spec.engine_threads),
                            out);
    }
  }
  // Signal failure if any trial failed to satisfy all honest players.
  return summaries[sim::kCompleted].min() >= 1.0 ? 0 : 2;
}

}  // namespace acp::cli
