// Profiling through the one metrics surface: the kernel's seam timers,
// the thread pool's wake/queue metrics and the io.* channel counters,
// and their contract with the kernel — profiling ON must never change a
// RunResult (bit-identity with the unprofiled run at engine_threads 1, 2
// and 8), and profiling OFF must collect nothing. Also pins the
// trial-driver metrics hygiene guarantee: registry totals are trial-order
// invariant, so the same totals come out at 1 and 8 driver threads. The
// concurrency suites (MetricsConcurrency, ParallelKernelProfile,
// ThreadPoolMetrics, Runner) run under the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
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

/// Arms the registry for one test (what `acpsim --profile` does) and
/// guarantees it is disabled and wiped afterwards, whatever the test does.
class ProfilingScope {
 public:
  ProfilingScope() {
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::set_enabled(true);
  }
  ~ProfilingScope() {
    obs::MetricsRegistry::set_enabled(false);
    obs::MetricsRegistry::global().reset();
  }
  ProfilingScope(const ProfilingScope&) = delete;
  ProfilingScope& operator=(const ProfilingScope&) = delete;
};

obs::TimerStat& timer(const char* name) {
  return obs::MetricsRegistry::global().timer(name);
}

/// One io.<channel>.<field> counter's value.
std::uint64_t io(obs::IoChannel channel, const char* field) {
  return obs::MetricsRegistry::global()
      .counter(obs::io_metric_name(channel, field))
      .value();
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

// ----------------------------------------------------- io.* channel counters

TEST(IoCounters, ChannelsAreRegistryCounters) {
  ProfilingScope scope;
  obs::meter_read(obs::IoChannel::kLedgerIngest, 1, 100);
  obs::meter_write(obs::IoChannel::kBillboardCommit, 2,
                   2 * obs::kPostWireBits);
  obs::meter_read(obs::IoChannel::kLedgerWindow, 1, 50);
  obs::meter_transfer(obs::IoChannel::kGossipDelta, 64);

  EXPECT_EQ(io(obs::IoChannel::kLedgerIngest, "read_ops"), 1u);
  EXPECT_EQ(io(obs::IoChannel::kLedgerIngest, "read_bits"), 100u);
  EXPECT_EQ(io(obs::IoChannel::kLedgerIngest, "write_ops"), 0u);
  EXPECT_EQ(io(obs::IoChannel::kBillboardCommit, "write_ops"), 2u);
  EXPECT_EQ(io(obs::IoChannel::kBillboardCommit, "write_bits"),
            2 * obs::kPostWireBits);
  EXPECT_EQ(io(obs::IoChannel::kBillboardCommit, "read_bits"), 0u);
  EXPECT_EQ(io(obs::IoChannel::kLedgerWindow, "read_bits"), 50u);
  // A transfer is one write at the sender and one read at the receiver.
  for (const char* field : {"read_ops", "write_ops"}) {
    EXPECT_EQ(io(obs::IoChannel::kGossipDelta, field), 1u) << field;
  }
  EXPECT_EQ(io(obs::IoChannel::kGossipDelta, "read_bits"), 64u);
  EXPECT_EQ(io(obs::IoChannel::kGossipDelta, "write_bits"), 64u);

  // Every channel's four counters are in the snapshot under its name.
  std::size_t io_counters = 0;
  for (const obs::CounterSample& sample :
       obs::MetricsRegistry::global().snapshot().counters) {
    if (sample.name.rfind("io.", 0) == 0) ++io_counters;
  }
  EXPECT_EQ(io_counters, 4 * static_cast<std::size_t>(obs::IoChannel::kCount));
  EXPECT_EQ(obs::io_metric_name(obs::IoChannel::kBillboardCommit, "write_bits"),
            "io.billboard.commit.write_bits");
}

TEST(IoCounters, DisabledRegistryMetersNothing) {
  obs::MetricsRegistry::global().reset();
  ASSERT_FALSE(obs::MetricsRegistry::enabled());
  obs::meter_read(obs::IoChannel::kLedgerIngest, 1, 100);
  obs::meter_write(obs::IoChannel::kBillboardCommit, 1, 161);
  obs::meter_transfer(obs::IoChannel::kGossipDigest, 128);
  for (const obs::CounterSample& sample :
       obs::MetricsRegistry::global().snapshot().counters) {
    EXPECT_EQ(sample.value, 0u) << sample.name;
  }
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
  std::vector<obs::CounterSample> first;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("engine_threads " + std::to_string(threads));
    ProfilingScope scope;
    const RunResult result =
        scenario::run_scenario_trial(small_spec(threads), 41);
    ASSERT_GT(result.total_posts, 0u);
    // Every committed post was written once at kPostWireBits, metered
    // once per commit batch...
    EXPECT_EQ(io(obs::IoChannel::kBillboardCommit, "write_ops"),
              result.total_posts);
    EXPECT_EQ(io(obs::IoChannel::kBillboardCommit, "write_bits"),
              result.total_posts * obs::kPostWireBits);
    // ...and the shared DISTILL ledger read each post back at most once
    // (posts committed in the final round are never ingested).
    const std::uint64_t ingest_bits =
        io(obs::IoChannel::kLedgerIngest, "read_bits");
    EXPECT_GT(ingest_bits, 0u);
    EXPECT_LE(ingest_bits, result.total_posts * obs::kPostWireBits);

    // The kernel's lanes change none of the io.* values.
    std::vector<obs::CounterSample> io_values;
    for (const obs::CounterSample& sample :
         obs::MetricsRegistry::global().snapshot().counters) {
      if (sample.name.rfind("io.", 0) == 0) io_values.push_back(sample);
    }
    ASSERT_FALSE(io_values.empty());
    if (first.empty()) {
      first = io_values;
      continue;
    }
    ASSERT_EQ(io_values.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(io_values[i].name, first[i].name);
      EXPECT_EQ(io_values[i].value, first[i].value) << first[i].name;
    }
  }
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

  // The default substrate is digest anti-entropy: control traffic
  // (summaries, digests, want-lists) on gossip.digest, payload ranges on
  // gossip.delta, and nothing on the legacy exchange channel.
  EXPECT_GT(io(obs::IoChannel::kGossipDigest, "write_bits"), 0u);
  EXPECT_GT(io(obs::IoChannel::kGossipDelta, "write_bits"), 0u);
  EXPECT_EQ(io(obs::IoChannel::kGossipExchange, "write_bits"), 0u);
  // Every metered bit was sent by some node and received by some node
  // (absorbed deltas are simply never sent), so the two sides of each
  // channel balance exactly.
  for (const obs::IoChannel channel :
       {obs::IoChannel::kGossipDigest, obs::IoChannel::kGossipDelta}) {
    EXPECT_EQ(io(channel, "read_bits"), io(channel, "write_bits"));
    EXPECT_EQ(io(channel, "read_ops"), io(channel, "write_ops"));
  }
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
  // The io.* channel counters are among the totals compared exactly.
  EXPECT_TRUE(std::any_of(t1.begin(), t1.end(), [](const auto& sample) {
    return sample.name == "io.billboard.commit.write_bits" && sample.value > 0;
  }));
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
