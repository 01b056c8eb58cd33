// The observability layer: metrics registry, scoped timers, JSON writer,
// observer mux, JSONL traces, run reports — plus TraceRecorder edge cases.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "acp/adversary/strategies.hpp"
#include "acp/baseline/collab_baseline.hpp"
#include "acp/engine/lockstep.hpp"
#include "acp/engine/trace.hpp"
#include "acp/obs/json.hpp"
#include "acp/obs/jsonl_trace.hpp"
#include "acp/obs/metrics.hpp"
#include "acp/obs/observer_mux.hpp"
#include "acp/obs/report.hpp"
#include "acp/obs/timer.hpp"
#include "test_support.hpp"

namespace acp::test {
namespace {

using obs::JsonWriter;
using obs::MetricsRegistry;

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeTimerBasics) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);

  obs::Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);

  obs::TimerStat timer;
  timer.record(100);
  timer.record(50);
  EXPECT_EQ(timer.count(), 2u);
  EXPECT_EQ(timer.total_ns(), 150u);
  timer.reset();
  EXPECT_EQ(timer.count(), 0u);
  EXPECT_EQ(timer.total_ns(), 0u);
}

TEST(Metrics, HistogramMetricObservesAndResets) {
  obs::HistogramMetric hist(0.0, 10.0, 5);
  hist.observe(1.0);
  hist.observe(1.5);
  hist.observe(-1.0);  // underflow
  hist.observe(99.0);  // overflow
  const Histogram snap = hist.snapshot();
  EXPECT_EQ(snap.bin_count(0), 2u);
  EXPECT_EQ(snap.underflow(), 1u);
  EXPECT_EQ(snap.overflow(), 1u);
  hist.reset();
  EXPECT_EQ(hist.snapshot().total(), 0u);
}

TEST(Metrics, RegistryFindOrCreateReturnsStableReferences) {
  MetricsRegistry registry;
  obs::Counter& a = registry.counter("a");
  obs::Counter& b = registry.counter("b");
  // Same name finds the same object; new names never invalidate old refs.
  EXPECT_EQ(&registry.counter("a"), &a);
  EXPECT_EQ(&registry.counter("b"), &b);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&registry.timer("t"), &registry.timer("t"));
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
  EXPECT_EQ(&registry.histogram("h", 0, 1, 4),
            &registry.histogram("h", 0, 1, 4));
}

TEST(Metrics, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.counter("zeta").add(1);
  registry.counter("alpha").add(2);
  registry.counter("mid").add(3);
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zeta");
  EXPECT_EQ(snap.counters[0].value, 2u);
}

TEST(Metrics, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  obs::Counter& counter = registry.counter("c");
  counter.add(7);
  registry.timer("t").record(9);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(registry.timer("t").count(), 0u);
  // Registration (and the reference) survives the reset.
  EXPECT_EQ(&registry.counter("c"), &counter);
  EXPECT_EQ(registry.snapshot().counters.size(), 1u);
}

TEST(Metrics, TimedScopeRespectsGlobalGate) {
  // Collection is off by default — the scoped timer must record nothing.
  ASSERT_FALSE(MetricsRegistry::enabled());
  obs::TimerStat& stat = MetricsRegistry::global().timer("test.gate");
  stat.reset();
  {
    ACP_OBS_TIMED_SCOPE("test.gate");
  }
  EXPECT_EQ(stat.count(), 0u);

  MetricsRegistry::set_enabled(true);
  {
    ACP_OBS_TIMED_SCOPE("test.gate");
  }
  MetricsRegistry::set_enabled(false);
  EXPECT_EQ(stat.count(), 1u);
}

TEST(Metrics, EveryEngineRegistersItsCounters) {
  // All engines run on the shared kernel, so each registers its slice and
  // probe counters under the same naming scheme when collection is on.
  ASSERT_FALSE(MetricsRegistry::enabled());
  MetricsRegistry::global().reset();
  MetricsRegistry::set_enabled(true);

  auto scenario = Scenario::make(24, 12, 24, 1, 41);
  {
    DistillProtocol protocol(basic_params(0.5));
    SilentAdversary adversary;
    SyncRunConfig config;
    config.seed = 3;
    (void)SyncEngine::run(scenario.world, scenario.population, protocol,
                          adversary, config);
  }
  {
    AsyncCollabProtocol protocol;
    SilentAdversary adversary;
    RoundRobinScheduler scheduler;
    AsyncRunConfig config;
    config.seed = 3;
    (void)AsyncEngine::run(scenario.world, scenario.population, protocol,
                           adversary, scheduler, config);
  }
  {
    DistillProtocol protocol(basic_params(0.5));
    SilentAdversary adversary;
    RoundRobinScheduler scheduler;
    LockstepRunConfig config;
    config.seed = 3;
    (void)LockstepEngine::run(scenario.world, scenario.population, protocol,
                              adversary, scheduler, config);
  }
  MetricsRegistry::set_enabled(false);

  const obs::MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  auto counter_value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& counter : snap.counters) {
      if (counter.name == name) return counter.value;
    }
    return 0;
  };
  EXPECT_GT(counter_value("engine.sync.rounds"), 0u);
  EXPECT_GT(counter_value("engine.sync.probes"), 0u);
  EXPECT_GT(counter_value("engine.async.steps"), 0u);
  EXPECT_GT(counter_value("engine.async.probes"), 0u);
  EXPECT_GT(counter_value("engine.lockstep.rounds"), 0u);
  MetricsRegistry::global().reset();
}

// ------------------------------------------------------------ JSON writer

TEST(JsonWriterTest, NestedStructure) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .member("a", 1)
      .key("b")
      .begin_array()
      .value(true)
      .null()
      .value("x")
      .end_array()
      .member("c", -2.5)
      .end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":[true,null,"x"],"c":-2.5})");
}

TEST(JsonWriterTest, DeterministicDoubleFormatting) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_array().value(3.0).value(0.5).value(17.25).value(0.0).end_array();
  EXPECT_EQ(os.str(), "[3,0.5,17.25,0]");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::escape("say \"hi\"\\"), "say \\\"hi\\\"\\\\");
  EXPECT_EQ(JsonWriter::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, NonFiniteDoublesSerializeAsNull) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

// ----------------------------------------------------------- observer mux

/// Records every callback as a comparable string line.
class CallbackLog final : public RunObserver {
 public:
  void on_run_begin(const RunContext& context) override {
    std::ostringstream os;
    os << "begin " << context.num_players << ' ' << context.num_honest << ' '
       << context.num_objects << ' ' << context.seed;
    lines.push_back(os.str());
  }
  void on_round_end(Round round, const Billboard& billboard,
                    std::size_t active_honest, std::size_t satisfied_honest,
                    std::size_t probes_this_round) override {
    std::ostringstream os;
    os << "round " << round << ' ' << billboard.size() << ' ' << active_honest
       << ' ' << satisfied_honest << ' ' << probes_this_round;
    lines.push_back(os.str());
  }
  void on_run_end(const RunResult& result) override {
    std::ostringstream os;
    os << "end " << result.rounds_executed << ' '
       << result.all_honest_satisfied << ' ' << result.total_posts;
    lines.push_back(os.str());
  }

  std::vector<std::string> lines;
};

TEST(ObserverMux, DeliversIdenticalSequencesToAllObservers) {
  // Drive a real run three ways: observer directly, and two observers
  // behind a mux. All three must see the identical callback sequence.
  auto scenario = Scenario::make(16, 16, 16, 1, 314);
  CallbackLog direct;
  CallbackLog muxed_a;
  CallbackLog muxed_b;

  {
    DistillProtocol protocol(basic_params(1.0));
    SilentAdversary adversary;
    SyncRunConfig config;
    config.seed = 11;
    config.observer = &direct;
    (void)SyncEngine::run(scenario.world, scenario.population, protocol,
                          adversary, config);
  }
  {
    DistillProtocol protocol(basic_params(1.0));
    SilentAdversary adversary;
    obs::ObserverMux mux;
    mux.add(&muxed_a);
    mux.add(nullptr);  // ignored
    mux.add(&muxed_b);
    EXPECT_EQ(mux.size(), 2u);
    SyncRunConfig config;
    config.seed = 11;
    config.observer = &mux;
    (void)SyncEngine::run(scenario.world, scenario.population, protocol,
                          adversary, config);
  }

  ASSERT_FALSE(direct.lines.empty());
  EXPECT_EQ(direct.lines.front().substr(0, 5), "begin");
  EXPECT_EQ(direct.lines.back().substr(0, 3), "end");
  EXPECT_EQ(muxed_a.lines, direct.lines);
  EXPECT_EQ(muxed_b.lines, direct.lines);
}

TEST(ObserverMux, EmptyMuxIsUsable) {
  obs::ObserverMux mux;
  EXPECT_TRUE(mux.empty());
  mux.add(nullptr);
  EXPECT_TRUE(mux.empty());
  // Forwarding into an empty mux is a no-op, not a crash.
  mux.on_run_begin(RunContext{});
  mux.on_run_end(RunResult{});
}

// ------------------------------------------------------------ JSONL trace

TEST(JsonlTrace, GoldenLineFormats) {
  std::ostringstream os;
  obs::JsonlTraceWriter writer(os);

  writer.on_run_begin(RunContext{4, 3, 8, 42});

  const Billboard empty_billboard(4, 8);
  writer.on_round_end(0, empty_billboard, 3, 1, 5);

  RunResult result;
  result.players.resize(3);
  result.players[0].honest = true;
  result.players[0].probes = 2;
  result.players[1].honest = true;
  result.players[1].probes = 4;
  result.players[2].honest = false;
  result.players[2].probes = 7;  // dishonest: excluded from aggregates
  result.rounds_executed = 6;
  result.all_honest_satisfied = true;
  result.total_posts = 9;
  writer.on_run_end(result);

  EXPECT_EQ(os.str(),
            "{\"schema\":\"acp.trace.v1\",\"type\":\"run_begin\","
            "\"players\":4,\"honest\":3,\"objects\":8,\"seed\":42,"
            "\"engine_threads\":1}\n"
            "{\"type\":\"round\",\"round\":0,\"active\":3,\"satisfied\":1,"
            "\"probes\":5,\"posts\":0}\n"
            "{\"type\":\"run_end\",\"rounds\":6,\"all_satisfied\":true,"
            "\"total_posts\":9,\"total_probes\":6,\"mean_probes\":3,"
            "\"max_probes\":4}\n");
}

TEST(JsonlTrace, OneLinePerRoundFromRealRun) {
  auto scenario = Scenario::make(16, 16, 16, 1, 217);
  std::ostringstream os;
  obs::JsonlTraceWriter writer(os);
  DistillProtocol protocol(basic_params(1.0));
  SilentAdversary adversary;
  SyncRunConfig config;
  config.seed = 5;
  config.observer = &writer;
  const RunResult result = SyncEngine::run(
      scenario.world, scenario.population, protocol, adversary, config);

  std::size_t lines = 0;
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  // run_begin + one per round + run_end.
  EXPECT_EQ(lines, static_cast<std::size_t>(result.rounds_executed) + 2);
}

// -------------------------------------------------------------- run report

TEST(RunReport, GoldenJson) {
  obs::RunReport report;
  report.set_config("n", std::uint64_t{2});
  report.set_config("protocol", "distill");
  report.set_config("alpha", 0.5);
  report.set_config("gossip", false);
  // Two identical samples: every summary statistic collapses to 2 (or 0).
  report.add_metric("rounds", Summary::from_samples({2.0, 2.0}));

  obs::MetricsSnapshot snapshot;
  snapshot.counters.push_back(obs::CounterSample{"a", 3});
  snapshot.timers.push_back(obs::TimerSample{"t", 1, 5});
  report.set_metrics_snapshot(std::move(snapshot));

  std::ostringstream os;
  report.write_json(os);
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"acp.report.v3\","
      "\"config\":{\"n\":2,\"protocol\":\"distill\",\"alpha\":0.5,"
      "\"gossip\":false},"
      "\"metrics\":{\"rounds\":{\"count\":2,\"mean\":2,\"stddev\":0,"
      "\"min\":2,\"p50\":2,\"p90\":2,\"p99\":2,\"max\":2,\"ci95_low\":2,"
      "\"ci95_high\":2}},"
      "\"counters\":{\"a\":3},"
      "\"gauges\":{},"
      "\"timers\":{\"t\":{\"count\":1,\"total_ns\":5}},"
      "\"histograms\":{},"
      "\"bandwidth\":{}}\n");
}

TEST(RunReport, GoldenJsonWithProfileSections) {
  obs::RunReport report;
  report.set_config("n", std::uint64_t{2});

  // The kernel's seams are ordinary registry entries: a timer and the
  // imbalance histogram render straight from the snapshot.
  obs::MetricsSnapshot snapshot;
  snapshot.timers.push_back(obs::TimerSample{"engine.kernel.work", 8, 30});
  obs::HistogramSample imbalance;
  imbalance.name = "engine.kernel.imbalance";
  imbalance.lo = 1.0;
  imbalance.hi = 3.0;
  imbalance.bucket_counts = {0, 1};
  snapshot.histograms.push_back(imbalance);
  report.set_metrics_snapshot(std::move(snapshot));

  obs::BandwidthSnapshot bandwidth;
  auto& commit = bandwidth.channels[static_cast<std::size_t>(
      obs::IoChannel::kBillboardCommit)];
  commit.write_ops = 2;
  commit.write_bits = 2 * obs::kPostWireBits;
  bandwidth.bits_written = commit.write_bits;
  bandwidth.per_player.players = 2;
  bandwidth.per_player.write_bits_sum = 2 * obs::kPostWireBits;
  bandwidth.per_player.write_bits_max = obs::kPostWireBits;
  report.set_bandwidth(bandwidth);

  std::ostringstream os;
  report.write_json(os);
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"acp.report.v3\","
      "\"config\":{\"n\":2},"
      "\"metrics\":{},\"counters\":{},\"gauges\":{},"
      "\"timers\":{\"engine.kernel.work\":{\"count\":8,\"total_ns\":30}},"
      "\"histograms\":{\"engine.kernel.imbalance\":{\"lo\":1,\"hi\":3,"
      "\"buckets\":[0,1],\"underflow\":0,\"overflow\":0}},"
      "\"bandwidth\":{"
      "\"engine.io.bits_read\":0,\"engine.io.bits_written\":322,"
      "\"channels\":{"
      "\"billboard.commit\":{\"read_ops\":0,\"read_bits\":0,"
      "\"write_ops\":2,\"write_bits\":322},"
      "\"ledger.ingest\":{\"read_ops\":0,\"read_bits\":0,"
      "\"write_ops\":0,\"write_bits\":0},"
      "\"ledger.window_query\":{\"read_ops\":0,\"read_bits\":0,"
      "\"write_ops\":0,\"write_bits\":0},"
      "\"gossip.exchange\":{\"read_ops\":0,\"read_bits\":0,"
      "\"write_ops\":0,\"write_bits\":0},"
      "\"gossip.digest\":{\"read_ops\":0,\"read_bits\":0,"
      "\"write_ops\":0,\"write_bits\":0},"
      "\"gossip.delta\":{\"read_ops\":0,\"read_bits\":0,"
      "\"write_ops\":0,\"write_bits\":0},"
      "\"billboard.rpc.post\":{\"read_ops\":0,\"read_bits\":0,"
      "\"write_ops\":0,\"write_bits\":0},"
      "\"billboard.rpc.query\":{\"read_ops\":0,\"read_bits\":0,"
      "\"write_ops\":0,\"write_bits\":0},"
      "\"billboard.rpc.snapshot\":{\"read_ops\":0,\"read_bits\":0,"
      "\"write_ops\":0,\"write_bits\":0}},"
      "\"per_player\":{\"players\":2,\"read_bits_mean\":0,"
      "\"read_bits_max\":0,\"write_bits_mean\":161,"
      "\"write_bits_max\":161}}}\n");
}

// --------------------------------------------- TraceRecorder edge cases

TEST(TraceRecorderEdge, EmptyRecorderWritesHeaderOnlyCsv) {
  TraceRecorder trace;
  EXPECT_TRUE(trace.rows().empty());
  EXPECT_EQ(trace.total_probes(), 0u);
  std::ostringstream os;
  trace.write_csv(os);
  EXPECT_EQ(os.str(),
            "round,active_honest,satisfied_honest,probes,billboard_posts\n");
}

TEST(TraceRecorderEdge, RoundReachingSatisfiedCountZero) {
  // count == 0 is satisfied by any recorded row (>= 0 always holds), so
  // the answer is the first recorded round; with no rows it is -1.
  TraceRecorder trace;
  EXPECT_EQ(trace.round_reaching_satisfied(0), -1);

  const Billboard billboard(4, 4);
  trace.on_round_end(3, billboard, 4, 0, 2);
  EXPECT_EQ(trace.round_reaching_satisfied(0), 3);
}

TEST(TraceRecorderEdge, RoundReachingSatisfiedNeverReached) {
  TraceRecorder trace;
  const Billboard billboard(4, 4);
  trace.on_round_end(0, billboard, 4, 0, 4);
  trace.on_round_end(1, billboard, 3, 1, 3);
  EXPECT_EQ(trace.round_reaching_satisfied(1), 1);
  EXPECT_EQ(trace.round_reaching_satisfied(2), -1);  // never got there
}

}  // namespace
}  // namespace acp::test
