// Profiling through the one metrics surface: the kernel's seam timers,
// the thread pool's wake/queue metrics and BandwidthMeter attribution,
// and their contract with the kernel — profiling ON must never change a
// RunResult (bit-identity with the unprofiled run at engine_threads 1, 2
// and 8), and profiling OFF must collect nothing. Also pins the
// trial-driver metrics hygiene guarantee: registry totals are trial-order
// invariant, so the same totals come out at 1 and 8 driver threads. The
// concurrency suites (MetricsConcurrency, ParallelKernelProfile,
// ThreadPoolMetrics, Runner) run under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "acp/concurrency/thread_pool.hpp"
#include "acp/obs/bandwidth.hpp"
#include "acp/obs/metrics.hpp"
#include "acp/scenario/build.hpp"
#include "acp/scenario/spec.hpp"
#include "acp/sim/scenario_driver.hpp"
#include "test_support.hpp"

namespace acp::test {
namespace {

/// Arms the registry + meter for one test (what `acpsim --profile` does)
/// and guarantees both are disabled and wiped afterwards, whatever the
/// test does.
class ProfilingScope {
 public:
  ProfilingScope() {
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::set_enabled(true);
    obs::BandwidthMeter::global().reset();
    obs::BandwidthMeter::set_enabled(true);
  }
  ~ProfilingScope() {
    obs::MetricsRegistry::set_enabled(false);
    obs::MetricsRegistry::global().reset();
    obs::BandwidthMeter::set_enabled(false);
    obs::BandwidthMeter::global().reset();
  }
  ProfilingScope(const ProfilingScope&) = delete;
  ProfilingScope& operator=(const ProfilingScope&) = delete;
};

obs::TimerStat& timer(const char* name) {
  return obs::MetricsRegistry::global().timer(name);
}

std::uint64_t histogram_total(const char* name) {
  for (const obs::HistogramSample& sample :
       obs::MetricsRegistry::global().snapshot().histograms) {
    if (sample.name != name) continue;
    std::uint64_t total = sample.underflow + sample.overflow;
    for (const std::uint64_t count : sample.bucket_counts) total += count;
    return total;
  }
  return 0;
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolMetrics, WakeAndQueueDepthRecordedOnlyWhenEnabled) {
  static constexpr std::size_t kTasks = 16;
  const auto run_tasks = [] {
    ThreadPool pool(2);
    std::atomic<std::size_t> done{0};
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), kTasks);
  };

  obs::MetricsRegistry::global().reset();
  run_tasks();  // registry off: nothing recorded
  EXPECT_EQ(timer("concurrency.pool.wake").count(), 0u);
  EXPECT_EQ(histogram_total("concurrency.pool.queue_depth"), 0u);

  ProfilingScope scope;
  run_tasks();
  // One submit->start latency and one queue-depth sample per task.
  EXPECT_EQ(timer("concurrency.pool.wake").count(), kTasks);
  EXPECT_EQ(histogram_total("concurrency.pool.queue_depth"), kTasks);
}

// --------------------------------------------------------- BandwidthMeter

TEST(BandwidthMeterUnit, ChannelsAndPerPlayerAttribution) {
  ProfilingScope scope;
  {
    obs::BandwidthMeter::RunScope run(4);
    ASSERT_NE(run.sink(), nullptr);
    {
      const obs::BandwidthMeter::PlayerScope player(PlayerId{1});
      obs::BandwidthMeter::add_read(obs::IoChannel::kLedgerIngest, 100);
    }
    obs::BandwidthMeter::add_write_for(obs::IoChannel::kBillboardCommit,
                                       obs::kPostWireBits, PlayerId{2});
    // No player scope and no explicit player: aggregates only.
    obs::BandwidthMeter::add_read(obs::IoChannel::kWindowQuery, 50);
  }  // RunScope folds per-player totals here

  const obs::BandwidthSnapshot snapshot =
      obs::BandwidthMeter::global().snapshot();
  EXPECT_EQ(snapshot.bits_read, 150u);
  EXPECT_EQ(snapshot.bits_written, obs::kPostWireBits);
  const auto& ingest = snapshot.channels[static_cast<std::size_t>(
      obs::IoChannel::kLedgerIngest)];
  EXPECT_EQ(ingest.read_ops, 1u);
  EXPECT_EQ(ingest.read_bits, 100u);
  const auto& commit = snapshot.channels[static_cast<std::size_t>(
      obs::IoChannel::kBillboardCommit)];
  EXPECT_EQ(commit.write_ops, 1u);
  EXPECT_EQ(commit.write_bits, obs::kPostWireBits);
  // Players 1 and 2 had attributed traffic; the scopeless read did not.
  EXPECT_EQ(snapshot.per_player.players, 2u);
  EXPECT_EQ(snapshot.per_player.read_bits_sum, 100u);
  EXPECT_EQ(snapshot.per_player.read_bits_max, 100u);
  EXPECT_EQ(snapshot.per_player.write_bits_sum, obs::kPostWireBits);
}

TEST(BandwidthMeterUnit, DisabledMeterCollectsNothing) {
  obs::BandwidthMeter::global().reset();
  ASSERT_FALSE(obs::BandwidthMeter::enabled());
  obs::BandwidthMeter::RunScope run(4);
  EXPECT_EQ(run.sink(), nullptr);  // disabled: no allocation either
  obs::BandwidthMeter::add_read(obs::IoChannel::kLedgerIngest, 100);
  obs::BandwidthMeter::add_write_for(obs::IoChannel::kBillboardCommit, 161,
                                     PlayerId{0});
  const obs::BandwidthSnapshot snapshot =
      obs::BandwidthMeter::global().snapshot();
  EXPECT_EQ(snapshot.bits_read, 0u);
  EXPECT_EQ(snapshot.bits_written, 0u);
  EXPECT_EQ(snapshot.per_player.players, 0u);
}

// ----------------------------------------- profiled runs stay deterministic

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.players.size(), b.players.size());
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.all_honest_satisfied, b.all_honest_satisfied);
  EXPECT_EQ(a.total_posts, b.total_posts);
  for (std::size_t p = 0; p < a.players.size(); ++p) {
    SCOPED_TRACE("player " + std::to_string(p));
    EXPECT_EQ(a.players[p].probes, b.players[p].probes);
    EXPECT_EQ(a.players[p].cost_paid, b.players[p].cost_paid);
    EXPECT_EQ(a.players[p].satisfied_round, b.players[p].satisfied_round);
  }
}

scenario::ScenarioSpec small_spec(std::size_t engine_threads) {
  scenario::ScenarioSpec spec;
  spec.n = 97;  // prime: shard boundaries land mid-roster
  spec.m = 50;
  spec.good = 2;
  spec.alpha = 0.72;
  spec.max_rounds = 5000;
  spec.engine_threads = engine_threads;
  spec.validate();
  return spec;
}

TEST(ParallelKernelProfile, ProfiledRunIsBitIdenticalToUnprofiled) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("engine_threads " + std::to_string(threads));
    const RunResult plain =
        scenario::run_scenario_trial(small_spec(threads), 41);
    ProfilingScope scope;
    const RunResult profiled =
        scenario::run_scenario_trial(small_spec(threads), 41);
    expect_bit_identical(plain, profiled);

    // The kernel thread timed each round once at every seam.
    const auto rounds = static_cast<std::uint64_t>(profiled.rounds_executed);
    EXPECT_EQ(timer("engine.sync.round").count(), rounds);
    for (const char* part :
         {"engine.kernel.adversary", "engine.kernel.players",
          "engine.kernel.commit", "engine.kernel.accounting"}) {
      SCOPED_TRACE(part);
      EXPECT_EQ(timer(part).count(), rounds);
      EXPECT_LE(timer(part).total_ns(), timer("engine.sync.round").total_ns());
    }
    if (threads == 1) {
      EXPECT_EQ(timer("engine.kernel.work").count(), 0u);
      continue;
    }
    // Lanes clock each claimed shard once: while the roster is wide there
    // are kShardsPerLane * lanes of them per round, and every round with
    // at least two shards gives one imbalance sample.
    EXPECT_GE(timer("engine.kernel.work").count(), 4 * threads);
    EXPECT_LE(timer("engine.kernel.work").count(), 4 * threads * rounds);
    EXPECT_GT(timer("engine.kernel.work").total_ns(), 0u);
    EXPECT_GE(timer("engine.kernel.wake").count(), rounds);
    EXPECT_EQ(timer("engine.kernel.barrier").count(), rounds);
    EXPECT_EQ(timer("engine.kernel.merge").count(), rounds);
    EXPECT_GT(histogram_total("engine.kernel.imbalance"), 0u);
    EXPECT_LE(histogram_total("engine.kernel.imbalance"), rounds);
    // The round gang parks its workers on a barrier instead of queueing
    // pool tasks.
    EXPECT_EQ(timer("concurrency.pool.wake").count(), 0u);
  }
}

TEST(ParallelKernelProfile, SequentialEngineRecordsSequentialRounds) {
  ProfilingScope scope;
  const RunResult result = scenario::run_scenario_trial(small_spec(1), 41);
  EXPECT_GT(result.rounds_executed, 0);
  const auto rounds = static_cast<std::uint64_t>(result.rounds_executed);
  EXPECT_EQ(timer("engine.kernel.players").count(), rounds);
  EXPECT_GT(timer("engine.kernel.players").total_ns(), 0u);
  // No lanes, no shards: the parallel seams stay silent.
  EXPECT_EQ(timer("engine.kernel.work").count(), 0u);
  EXPECT_EQ(timer("engine.kernel.barrier").count(), 0u);
  EXPECT_EQ(histogram_total("engine.kernel.imbalance"), 0u);
}

TEST(ParallelKernelProfile, DisabledRegistryTimesNothing) {
  obs::MetricsRegistry::global().reset();
  ASSERT_FALSE(obs::MetricsRegistry::enabled());
  (void)scenario::run_scenario_trial(small_spec(2), 41);
  for (const obs::TimerSample& sample :
       obs::MetricsRegistry::global().snapshot().timers) {
    EXPECT_EQ(sample.count, 0u) << sample.name;
  }
  EXPECT_EQ(histogram_total("engine.kernel.imbalance"), 0u);
}

TEST(ParallelKernelProfile, SyncRunMetersBillboardAndLedgerTraffic) {
  ProfilingScope scope;
  const RunResult result = scenario::run_scenario_trial(small_spec(2), 41);
  EXPECT_GT(result.total_posts, 0u);
  const obs::BandwidthSnapshot bandwidth =
      obs::BandwidthMeter::global().snapshot();
  const auto& commit = bandwidth.channels[static_cast<std::size_t>(
      obs::IoChannel::kBillboardCommit)];
  const auto& ingest = bandwidth.channels[static_cast<std::size_t>(
      obs::IoChannel::kLedgerIngest)];
  // Every committed post was written once at kPostWireBits...
  EXPECT_EQ(commit.write_bits, result.total_posts * obs::kPostWireBits);
  // ...and the shared DISTILL ledger read each post back at most once
  // (posts committed in the final round are never ingested).
  EXPECT_GT(ingest.read_bits, 0u);
  EXPECT_LE(ingest.read_bits, commit.write_bits);
  EXPECT_GT(bandwidth.per_player.players, 0u);
  EXPECT_GT(bandwidth.per_player.write_bits_max, 0u);
}

TEST(ParallelKernelProfile, GossipRunMetersExchangeTraffic) {
  scenario::ScenarioSpec spec;
  spec.n = 64;
  spec.m = 32;
  spec.good = 2;
  spec.engine = "gossip";
  spec.fanout = 2;
  spec.max_rounds = 5000;
  spec.validate();

  const RunResult plain = scenario::run_scenario_trial(spec, 17);
  ProfilingScope scope;
  const RunResult profiled = scenario::run_scenario_trial(spec, 17);
  expect_bit_identical(plain, profiled);

  const obs::BandwidthSnapshot bandwidth =
      obs::BandwidthMeter::global().snapshot();
  // The default substrate is digest anti-entropy: control traffic
  // (summaries, digests, want-lists) on gossip.digest, payload ranges on
  // gossip.delta, and nothing on the legacy exchange channel.
  const auto& digest = bandwidth.channels[static_cast<std::size_t>(
      obs::IoChannel::kGossipDigest)];
  const auto& delta = bandwidth.channels[static_cast<std::size_t>(
      obs::IoChannel::kGossipDelta)];
  const auto& exchange = bandwidth.channels[static_cast<std::size_t>(
      obs::IoChannel::kGossipExchange)];
  EXPECT_GT(digest.write_bits, 0u);
  EXPECT_GT(delta.write_bits, 0u);
  EXPECT_EQ(exchange.write_bits, 0u);
  // Every metered bit was sent by some node and received by some node
  // (absorbed deltas are simply never sent), so the two sides of each
  // channel balance exactly.
  EXPECT_EQ(digest.read_bits, digest.write_bits);
  EXPECT_EQ(delta.read_bits, delta.write_bits);
  EXPECT_GT(bandwidth.per_player.players, 0u);
}

// ------------------------------------------- trial-driver metrics hygiene

/// Counter totals (not wall-clock timers) from a profiled multi-trial
/// invocation. Counts are commutative sums of per-trial contributions, so
/// they must not depend on driver threading or trial execution order.
std::vector<obs::CounterSample> counter_totals(std::size_t driver_threads) {
  scenario::ScenarioSpec spec;
  spec.n = 48;
  spec.m = 32;
  spec.good = 2;
  spec.trials = 16;
  spec.threads = driver_threads;
  spec.max_rounds = 5000;
  spec.validate();

  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::set_enabled(true);
  (void)sim::run_scenario_stats(spec);
  obs::MetricsRegistry::set_enabled(false);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  obs::MetricsRegistry::global().reset();
  return snapshot.counters;
}

/// Segments the trials' boards took. Whether a segment came from the free
/// list of released logs or from the allocator depends on which boards
/// were alive at once, so only the sum of the two counters is per-trial
/// work.
std::uint64_t segments_taken(const std::vector<obs::CounterSample>& totals) {
  std::uint64_t taken = 0;
  for (const obs::CounterSample& sample : totals) {
    if (sample.name.rfind("billboard.segments.", 0) == 0) taken += sample.value;
  }
  return taken;
}

TEST(Runner, MetricTotalsAreDriverThreadCountInvariant) {
  const std::vector<obs::CounterSample> t1 = counter_totals(1);
  const std::vector<obs::CounterSample> t8 = counter_totals(8);
  ASSERT_FALSE(t1.empty());
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    SCOPED_TRACE(t1[i].name);
    EXPECT_EQ(t1[i].name, t8[i].name);
    if (t1[i].name.rfind("billboard.segments.", 0) == 0) continue;
    // No bleed between trials and no lost updates: the totals are the
    // same sums in any trial order, at any driver thread count.
    EXPECT_EQ(t1[i].value, t8[i].value);
  }
  EXPECT_GT(segments_taken(t1), 0u);
  EXPECT_EQ(segments_taken(t1), segments_taken(t8));
}

// --------------------------------------------------- metrics concurrency

TEST(MetricsConcurrency, CounterTotalsSurviveConcurrentRecording) {
  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::set_enabled(true);
  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("test.concurrent.counter");

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter.value(), kThreads * kIncrements);
  obs::MetricsRegistry::set_enabled(false);
  obs::MetricsRegistry::global().reset();
}

TEST(MetricsConcurrency, HistogramTotalsSurviveConcurrentRecording) {
  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::set_enabled(true);
  obs::HistogramMetric& histogram = obs::MetricsRegistry::global().histogram(
      "test.concurrent.histogram", 0.0, 8.0, 8);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kObservations = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::size_t i = 0; i < kObservations; ++i) {
        histogram.observe(static_cast<double>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const Histogram sample = histogram.snapshot();
  EXPECT_EQ(sample.total(), kThreads * kObservations);
  EXPECT_EQ(sample.underflow(), 0u);
  EXPECT_EQ(sample.overflow(), 0u);
  // Every thread's observations hit exactly one bucket.
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sample.bin_count(t), kObservations);
  }
  obs::MetricsRegistry::set_enabled(false);
  obs::MetricsRegistry::global().reset();
}

TEST(MetricsConcurrency, SnapshotWhileRecordingIsSafe) {
  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::set_enabled(true);
  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("test.concurrent.snapshot.c");
  obs::HistogramMetric& histogram = obs::MetricsRegistry::global().histogram(
      "test.concurrent.snapshot.h", 0.0, 1.0, 4);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        counter.add(1);
        histogram.observe(0.5);
      }
    });
  }
  // Snapshots taken mid-recording must be internally consistent (no
  // torn histogram state) even though the totals are still moving.
  for (int i = 0; i < 200; ++i) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    for (const obs::HistogramSample& h : snapshot.histograms) {
      std::uint64_t total = h.underflow + h.overflow;
      for (const std::uint64_t count : h.bucket_counts) total += count;
      // All observations land in bucket [0.25, 0.5): one bucket holds
      // the entire total.
      EXPECT_EQ(h.bucket_counts[2], total);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  obs::MetricsRegistry::set_enabled(false);
  obs::MetricsRegistry::global().reset();
}

}  // namespace
}  // namespace acp::test
