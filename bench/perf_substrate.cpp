// PERF — microbenchmark suite of the simulation substrate: billboard
// commit throughput, ledger ingest (in-order and gossip-replica
// out-of-order), window queries at production scale (n=10k players,
// m=100k objects), a full DISTILL round at that scale, and a gossip
// round. These are the hot paths every protocol pays once per player per
// round; the suite justifies the simulator's scalability claims and CI
// gates gross regressions against the checked-in baseline
// (bench/BENCH_PERF.json, compared by scripts/check_perf.py).
//
// For the two paths this repo rewrote — the O(m)-scratch window query and
// the O(events) mid-vector insert for late replica posts — the suite also
// times a faithful reimplementation of the pre-rewrite code ("legacy_*"
// rows) and records the speedup, so the gain itself is a tested,
// machine-checked number rather than a claim in a commit message.
//
// Output: a table on stdout; under ACP_BENCH_JSON=<dir>, additionally
// <dir>/BENCH_PERF.json ("acp.perf.v1" — see docs/architecture.md,
// "Performance baseline"). ACP_PERF_REPS overrides the repetition count
// (median-of-reps is reported; strict parsing, like all ACP_BENCH_*
// knobs).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "acp/adversary/strategies.hpp"
#include "acp/billboard/billboard.hpp"
#include "acp/billboard/loadgen.hpp"
#include "acp/billboard/server.hpp"
#include "acp/billboard/vote_ledger.hpp"
#include "acp/core/distill.hpp"
#include "acp/engine/sync_engine.hpp"
#include "acp/gossip/gossip_engine.hpp"
#include "acp/obs/bandwidth.hpp"
#include "acp/obs/json.hpp"
#include "acp/rng/rng.hpp"
#include "acp/stats/table.hpp"
#include "acp/world/builders.hpp"
#include "acp/world/population.hpp"
#include "bench_support.hpp"

namespace {

using namespace acp;

/// Optimization barrier for computed results (hand-rolled harness — no
/// google-benchmark dependency).
volatile std::uint64_t g_sink = 0;

void sink(std::uint64_t v) { g_sink = g_sink + v; }

struct BenchResult {
  std::string name;
  std::size_t reps = 0;
  std::int64_t items = 0;     // per repetition
  double ns_per_op = 0.0;     // median repetition / items
  double items_per_sec = 0.0;
  double total_ms = 0.0;      // wall time across all repetitions
};

/// Times `fn` `reps` times and reports the median repetition, normalized
/// by `items` operations per repetition.
BenchResult run_bench(const std::string& name, std::int64_t items,
                      std::size_t reps, const std::function<void()>& fn) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::nano>(
                          Clock::now() - start)
                          .count());
  }
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  BenchResult result;
  result.name = name;
  result.reps = reps;
  result.items = items;
  result.ns_per_op = median / static_cast<double>(items);
  result.items_per_sec = 1e9 * static_cast<double>(items) / median;
  double total = 0.0;
  for (const double s : samples) total += s;
  result.total_ms = total / 1e6;
  return result;
}

// ---------------------------------------------------------------------------
// Legacy reference implementations (the pre-rewrite substrate, verbatim in
// structure): these exist only to measure the speedup of the new paths.

/// Pre-rewrite objects_with_votes_in_window: a fresh O(m) scratch vector
/// allocated and zeroed on every call.
std::vector<ObjectId> legacy_objects_with_votes_in_window(
    const std::vector<VoteEvent>& events, const std::vector<Round>& rounds,
    std::size_t num_objects, Round begin, Round end, Count min_count) {
  const auto lo =
      std::lower_bound(rounds.begin(), rounds.end(), begin) - rounds.begin();
  const auto hi = std::lower_bound(rounds.begin() +
                                       static_cast<std::ptrdiff_t>(lo),
                                   rounds.end(), end) -
                  rounds.begin();
  std::vector<ObjectId> touched;
  std::vector<Count> scratch(num_objects, 0);
  for (auto idx = static_cast<std::size_t>(lo);
       idx < static_cast<std::size_t>(hi); ++idx) {
    const ObjectId obj = events[idx].object;
    if (scratch[obj.value()] == 0) touched.push_back(obj);
    ++scratch[obj.value()];
  }
  std::vector<ObjectId> result;
  for (const ObjectId obj : touched) {
    if (scratch[obj.value()] >= min_count) result.push_back(obj);
  }
  std::sort(result.begin(), result.end());
  return result;
}

/// Pre-rewrite record_vote event-log maintenance: an out-of-order post
/// pays an O(events) mid-vector insert into the global log (plus the
/// per-object list and voter dedup, kept for faithfulness).
struct LegacyVoteLog {
  std::vector<VoteEvent> events;
  std::vector<Round> event_rounds;
  std::vector<std::vector<Round>> object_rounds;
  std::vector<std::vector<PlayerId>> object_voters;

  explicit LegacyVoteLog(std::size_t num_objects)
      : object_rounds(num_objects), object_voters(num_objects) {}

  void record(PlayerId voter, ObjectId object, Round round) {
    if (events.empty() || round >= events.back().round) {
      events.push_back(VoteEvent{voter, object, round});
      event_rounds.push_back(round);
    } else {
      const auto at = std::upper_bound(event_rounds.begin(),
                                       event_rounds.end(), round) -
                      event_rounds.begin();
      events.insert(events.begin() + at, VoteEvent{voter, object, round});
      event_rounds.insert(event_rounds.begin() + at, round);
    }
    auto& rounds = object_rounds[object.value()];
    if (rounds.empty() || round >= rounds.back()) {
      rounds.push_back(round);
    } else {
      rounds.insert(std::upper_bound(rounds.begin(), rounds.end(), round),
                    round);
    }
    auto& voters = object_voters[object.value()];
    if (std::find(voters.begin(), voters.end(), voter) == voters.end()) {
      voters.push_back(voter);
    }
  }
};

/// Minimal protocol for the gossip substrate benches: the first
/// `posters` nodes post every round, everyone else idles, and nobody
/// halts (the run ends at max_rounds) — so the measured cost is pure
/// dissemination substrate work, not DISTILL phase machinery (whose
/// per-instance state is O(n + m) and cannot be replicated 100k times).
class LightFloodProtocol final : public Protocol {
 public:
  explicit LightFloodProtocol(std::size_t posters) : posters_(posters) {}

  void initialize(const WorldView&, std::size_t) override {}
  void on_round_begin(Round, const Billboard&) override {}

  [[nodiscard]] std::optional<ObjectId> choose_probe(PlayerId player, Round,
                                                     Rng&) override {
    if (player.value() >= posters_) return std::nullopt;
    return ObjectId{0};
  }

  StepOutcome on_probe_result(PlayerId player, Round round, ObjectId, double,
                              double, bool, Rng&) override {
    StepOutcome step;
    step.post = ProbeReport{
        ObjectId{0}, static_cast<double>(player.value() * 131 +
                                         static_cast<std::size_t>(round)),
        true};
    return step;
  }

 private:
  std::size_t posters_;
};

// ---------------------------------------------------------------------------
// Fixtures.

/// Production-scale ledger: n=10k players, f=10 votes each, m=100k
/// objects, 100k vote events spread over a 10k-round horizon (one object
/// per event). Narrow windows over a long sparse history is the shape
/// DISTILL's phase transitions query — and the shape where the
/// pre-rewrite per-call O(m) scratch allocation, not the window scan,
/// dominates.
struct WindowQueryFixture {
  static constexpr std::size_t kPlayers = 10000;
  static constexpr std::size_t kObjects = 100000;
  static constexpr Round kRounds = 10000;
  static constexpr std::size_t kPostsPerRound = 10;

  Billboard billboard{kPlayers, kObjects};
  VoteLedger ledger{VotePolicy::kFirstPositive, kPlayers, kObjects,
                    /*votes_per_player=*/10};

  WindowQueryFixture() {
    for (Round r = 0; r < kRounds; ++r) {
      std::vector<Post> posts;
      posts.reserve(kPostsPerRound);
      for (std::size_t j = 0; j < kPostsPerRound; ++j) {
        const std::size_t id =
            static_cast<std::size_t>(r) * kPostsPerRound + j;
        posts.push_back(
            Post{PlayerId{id % kPlayers}, r, ObjectId{id % kObjects}, 0.9,
                 true});
      }
      billboard.commit_round(r, std::move(posts));
    }
    ledger.ingest(billboard);
  }
};

/// The gossip-replica workload of the acceptance bar: 1e5 late-stamped
/// posts (origin rounds 0..99, shuffled arrival) committed in 100 batches
/// to a kReplica billboard, ingested batch-by-batch like the engine does.
struct ReplicaOutOfOrderFixture {
  static constexpr std::size_t kPlayers = 10000;
  static constexpr std::size_t kObjects = 100000;
  static constexpr std::size_t kPosts = 100000;
  static constexpr std::size_t kBatch = 1000;
  static constexpr Round kOriginRounds = 100;

  std::vector<Post> arrival_order;

  ReplicaOutOfOrderFixture() {
    arrival_order.reserve(kPosts);
    for (std::size_t id = 0; id < kPosts; ++id) {
      arrival_order.push_back(Post{PlayerId{id % kPlayers},
                                   static_cast<Round>(id / kBatch),
                                   ObjectId{id % kObjects}, 0.9, true});
    }
    Rng rng(1234);
    for (std::size_t i = arrival_order.size(); i > 1; --i) {
      std::swap(arrival_order[i - 1], arrival_order[rng.index(i)]);
    }
  }

  /// One full replica ingestion through the real VoteLedger.
  void run_new() const {
    Billboard board(kPlayers, kObjects, Billboard::Mode::kReplica);
    board.reserve(kPosts);  // sizes the segment table, as the engines do
    VoteLedger ledger(VotePolicy::kFirstPositive, kPlayers, kObjects,
                      /*votes_per_player=*/10);
    Round commit_round = kOriginRounds;
    for (std::size_t begin = 0; begin < kPosts; begin += kBatch) {
      board.commit_round_from(
          commit_round++,
          std::span<const Post>(arrival_order.data() + begin, kBatch));
      ledger.ingest(board);
    }
    sink(ledger.events().size());
  }

  /// The same stream through the pre-rewrite per-post insert path.
  void run_legacy() const {
    LegacyVoteLog log(kObjects);
    for (const Post& post : arrival_order) {
      log.record(post.author, post.object, post.round);
    }
    sink(log.events.size());
  }
};

// ---------------------------------------------------------------------------

std::size_t reps_from_env(std::size_t default_reps) {
  return bench::detail::positive_count_from_env("ACP_PERF_REPS",
                                                default_reps);
}

struct SpeedupRecord {
  std::string name;      // the fast (new) bench
  std::string baseline;  // the legacy reference bench
  double speedup = 0.0;
};

/// Measured gossip wire cost (bits per round, all gossip channels) of the
/// digest and exchange substrates on the same workload; see the
/// gossip_wire_n512_f12 block in main().
struct WireRecord {
  double digest_bits_per_round = 0.0;
  double exchange_bits_per_round = 0.0;
  double reduction = 0.0;
};

/// Billboard service over a real Unix socket: the bbload workload run
/// in-process against a BillboardServer (median-of-reps), one record per
/// server geometry (t1/t2/t4 IO threads, plus a pipelined t1 run). Gated
/// by scripts/check_perf.py: posts_per_sec floor, errors == 0, a t1->t4
/// scaling floor (when the machine has the cores), and a p99 regression
/// ratio against the checked-in baseline.
struct ServiceRecord {
  std::string name = "billboard_service_unix";
  std::size_t io_threads = 1;
  std::size_t pipeline = 1;
  std::size_t clients = 0;
  std::uint64_t posts = 0;
  double posts_per_sec = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t query_p50_ns = 0;
  std::uint64_t query_p99_ns = 0;
  std::uint64_t errors = 0;
};

/// Commit pipelining on the identical 512-client workload: 16 in-flight
/// commits per connection vs one. Same process, same machine, same
/// workload — a machine-independent ratio with a hard floor (default 3x)
/// in scripts/check_perf.py, because pipelining collapses per-commit
/// round trips regardless of the hardware underneath.
struct PipelineRecord {
  std::string name = "billboard_service_pipeline16_vs_single";
  std::size_t clients = 0;
  double single_posts_per_sec = 0.0;
  double pipelined_posts_per_sec = 0.0;
  double speedup = 0.0;
};

void write_perf_json(const std::vector<BenchResult>& results,
                     const std::vector<SpeedupRecord>& speedups,
                     const WireRecord& wire,
                     const std::vector<ServiceRecord>& services,
                     const PipelineRecord& pipelining) {
  const char* dir = std::getenv("ACP_BENCH_JSON");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/BENCH_PERF.json";
  std::ofstream file(path);
  if (!file) {
    std::cerr << "ACP_BENCH_JSON: cannot open " << path << "\n";
    return;
  }
  obs::JsonWriter json(file);
  json.begin_object();
  json.member("schema", "acp.perf.v1");
  json.member("id", "PERF");
  // Thread count of the machine that produced the file: the parallel
  // scaling gate in scripts/check_perf.py only applies when the producing
  // machine actually had the cores (>= 4) to demonstrate scaling.
  json.member("hw_threads",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.member("claim",
              "Substrate hot paths at production scale; legacy_* rows "
              "re-measure the pre-rewrite implementations");
  json.key("benches").begin_array();
  for (const BenchResult& r : results) {
    json.begin_object();
    json.member("name", r.name);
    json.member("reps", static_cast<std::uint64_t>(r.reps));
    json.member("items", static_cast<std::int64_t>(r.items));
    json.member("ns_per_op", r.ns_per_op);
    json.member("items_per_sec", r.items_per_sec);
    json.member("total_ms", r.total_ms);
    json.end_object();
  }
  json.end_array();
  json.key("speedups").begin_array();
  for (const SpeedupRecord& s : speedups) {
    json.begin_object();
    json.member("name", s.name);
    json.member("baseline", s.baseline);
    json.member("speedup", s.speedup);
    json.end_object();
  }
  json.end_array();
  json.key("wire").begin_object();
  json.member("name", "gossip_wire_n512_f12");
  json.member("digest_bits_per_round", wire.digest_bits_per_round);
  json.member("exchange_bits_per_round", wire.exchange_bits_per_round);
  json.member("reduction", wire.reduction);
  json.end_object();
  json.key("services").begin_array();
  for (const ServiceRecord& service : services) {
    json.begin_object();
    json.member("name", service.name);
    json.member("io_threads", static_cast<std::uint64_t>(service.io_threads));
    json.member("pipeline", static_cast<std::uint64_t>(service.pipeline));
    json.member("clients", static_cast<std::uint64_t>(service.clients));
    json.member("posts", service.posts);
    json.member("posts_per_sec", service.posts_per_sec);
    json.member("queries", service.queries);
    json.member("query_p50_ns", service.query_p50_ns);
    json.member("query_p99_ns", service.query_p99_ns);
    json.member("errors", service.errors);
    json.end_object();
  }
  json.end_array();
  json.key("service_pipelining").begin_object();
  json.member("name", pipelining.name);
  json.member("clients", static_cast<std::uint64_t>(pipelining.clients));
  json.member("single_posts_per_sec", pipelining.single_posts_per_sec);
  json.member("pipelined_posts_per_sec", pipelining.pipelined_posts_per_sec);
  json.member("speedup", pipelining.speedup);
  json.end_object();
  json.end_object();
  file << "\n";
}

}  // namespace

int main() {
  bench::print_header(
      "PERF substrate microbenchmarks",
      "Hot-path throughput of billboard/ledger/engine substrates; "
      "legacy_* rows are the pre-rewrite implementations (speedup table "
      "below).");

  const std::size_t reps = reps_from_env(5);
  std::vector<BenchResult> results;
  const auto record = [&](BenchResult r) {
    std::cout << "  " << r.name << ": " << r.ns_per_op << " ns/op, "
              << r.items_per_sec / 1e6 << " M items/s\n";
    results.push_back(std::move(r));
    return results.back();
  };

  // --- Billboard commit throughput: 256 rounds x 1024 posts.
  {
    constexpr std::size_t kPostsPerRound = 1024;
    constexpr Round kRounds = 256;
    record(run_bench(
        "billboard_commit_1k",
        static_cast<std::int64_t>(kPostsPerRound) * kRounds, reps, [&] {
          Billboard billboard(kPostsPerRound, 1024);
          // Sizes the segment table only; segments come as posts arrive.
          billboard.reserve(kPostsPerRound * static_cast<std::size_t>(kRounds));
          std::vector<Post> posts;
          for (Round round = 0; round < kRounds; ++round) {
            posts.clear();
            for (std::size_t p = 0; p < kPostsPerRound; ++p) {
              posts.push_back(Post{PlayerId{p}, round, ObjectId{p % 1024},
                                   0.5, (p % 3) == 0});
            }
            billboard.commit_round_from(round, posts);
          }
          sink(billboard.size());
        }));
  }

  // --- In-order (authoritative) ledger ingest.
  {
    constexpr std::size_t kPlayers = 4096;
    Billboard billboard(kPlayers, kPlayers);
    for (Round r = 0; r < 64; ++r) {
      std::vector<Post> posts;
      for (std::size_t p = 0; p < kPlayers / 64; ++p) {
        const std::size_t author =
            static_cast<std::size_t>(r) * (kPlayers / 64) + p;
        posts.push_back(
            Post{PlayerId{author}, r, ObjectId{author % kPlayers}, 0.9,
                 true});
      }
      billboard.commit_round(r, std::move(posts));
    }
    record(run_bench("ledger_ingest_inorder",
                     static_cast<std::int64_t>(billboard.size()), reps, [&] {
                       VoteLedger ledger(VotePolicy::kFirstPositive, kPlayers,
                                         kPlayers, 1);
                       ledger.ingest(billboard);
                       sink(ledger.events().size());
                     }));
  }

  // --- Ledger ingest of 1e5 distinct voters on ONE object (the sync
  // workloads' shape: every honest player ends up voting for the single
  // good object). A per-vote scan over the object's voters made this
  // quadratic; each vote must stay O(1).
  {
    constexpr std::size_t kVoters = 100000;
    constexpr std::size_t kPerRound = 1000;
    Billboard billboard(kVoters, 16);
    for (Round r = 0; r < static_cast<Round>(kVoters / kPerRound); ++r) {
      std::vector<Post> posts;
      posts.reserve(kPerRound);
      for (std::size_t i = 0; i < kPerRound; ++i) {
        const std::size_t author = static_cast<std::size_t>(r) * kPerRound + i;
        posts.push_back(Post{PlayerId{author}, r, ObjectId{0}, 1.0, true});
      }
      billboard.commit_round(r, std::move(posts));
    }
    record(run_bench("ledger_ingest_one_object_100k",
                     static_cast<std::int64_t>(kVoters), reps, [&] {
                       VoteLedger ledger(VotePolicy::kFirstPositive, kVoters,
                                         16, 1, /*track_voters=*/true);
                       ledger.ingest(billboard);
                       sink(ledger.voters_of(ObjectId{0}).size());
                     }));
  }

  // --- Window queries at n=10k/m=100k (the acceptance benchmark), new
  // vs legacy. 997 sliding windows of width 2 per repetition.
  {
    const WindowQueryFixture fixture;
    std::vector<Round> event_rounds;
    event_rounds.reserve(fixture.ledger.events().size());
    for (const VoteEvent& e : fixture.ledger.events()) {
      event_rounds.push_back(e.round);
    }
    constexpr std::int64_t kQueries = 997;
    const BenchResult fast = record(run_bench(
        "window_query_n10k_m100k", kQueries, reps, [&] {
          for (Round r = 0; r < kQueries; ++r) {
            const auto objects =
                fixture.ledger.objects_with_votes_in_window(r, r + 2, 1);
            sink(objects.size());
          }
        }));
    const BenchResult legacy = record(run_bench(
        "legacy_window_query_n10k_m100k", kQueries, reps, [&] {
          for (Round r = 0; r < kQueries; ++r) {
            const auto objects = legacy_objects_with_votes_in_window(
                fixture.ledger.events(), event_rounds,
                WindowQueryFixture::kObjects, r, r + 2, 1);
            sink(objects.size());
          }
        }));
    std::cout << "  -> window query speedup: "
              << legacy.ns_per_op / fast.ns_per_op << "x\n";
  }

  // --- Replica out-of-order ingest of 1e5 late posts (the acceptance
  // benchmark), new vs legacy. The legacy path is quadratic, so it runs
  // fewer repetitions.
  {
    const ReplicaOutOfOrderFixture fixture;
    const BenchResult fast = record(run_bench(
        "replica_ooo_ingest_100k", ReplicaOutOfOrderFixture::kPosts, reps,
        [&] { fixture.run_new(); }));
    const BenchResult legacy = record(run_bench(
        "legacy_replica_ooo_ingest_100k", ReplicaOutOfOrderFixture::kPosts,
        /*reps=*/1, [&] { fixture.run_legacy(); }));
    std::cout << "  -> replica ingest speedup: "
              << legacy.ns_per_op / fast.ns_per_op << "x\n";
  }

  // --- Full DISTILL rounds at n=10k players, m=100k objects.
  {
    constexpr std::size_t kPlayers = 10000;
    constexpr std::size_t kObjects = 100000;
    constexpr Round kMaxRounds = 32;
    Rng rng(7);
    const World world = make_simple_world(kObjects, 1, rng);
    const Population population =
        Population::with_prefix_honest(kPlayers, kPlayers * 9 / 10);
    std::uint64_t seed = 1;
    record(run_bench(
        "distill_round_n10k_m100k",
        static_cast<std::int64_t>(kPlayers) * kMaxRounds, reps, [&] {
          DistillParams params;
          params.alpha = 0.9;
          DistillProtocol protocol(params);
          SilentAdversary adversary;
          const RunResult result =
              SyncEngine::run(world, population, protocol, adversary,
                              {.max_rounds = kMaxRounds, .seed = seed++});
          sink(static_cast<std::uint64_t>(result.total_posts));
        }));
  }

  // --- Parallel round kernel scaling: full DISTILL runs at n=100k
  // players, m=100k objects, with engine_threads in {1, 2, 4, 8}. The t1
  // row takes the sequential schedule policy (threads <= 1), so it is the
  // true single-thread baseline; tests/parallel_kernel_test.cpp pins every
  // thread count to bit-identical results, so the rows differ only in
  // wall time. scripts/check_perf.py gates the t1/t4 ratio (and t1/t8 on
  // >= 8-thread machines), but only when the recorded hw_threads suffice
  // — on smaller machines the rows are still written, just not gated.
  //
  // Allocation note: the kernel now recycles its slice-post staging
  // buffer across rounds (Billboard::commit_round_from copies out of the
  // retained vector instead of consuming a moved-from one), so these
  // rows no longer pay a fresh n-sized post-vector allocation + regrowth
  // every round; after the first round the staging path is
  // allocation-free.
  {
    constexpr std::size_t kPlayers = 100000;
    constexpr std::size_t kObjects = 100000;
    constexpr Round kMaxRounds = 8;
    Rng rng(13);
    const World world = make_simple_world(kObjects, 1, rng);
    const Population population =
        Population::with_prefix_honest(kPlayers, kPlayers * 9 / 10);
    std::uint64_t seed = 21;
    constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
    for (const std::size_t threads : kThreadCounts) {
      record(run_bench(
          "distill_parallel_round_n100k_t" + std::to_string(threads),
          static_cast<std::int64_t>(kPlayers) * kMaxRounds, reps, [&] {
            DistillParams params;
            params.alpha = 0.9;
            DistillProtocol protocol(params);
            SilentAdversary adversary;
            SyncRunConfig config;
            config.max_rounds = kMaxRounds;
            config.seed = seed++;
            config.engine_threads = threads;
            const RunResult result = SyncEngine::run(world, population,
                                                     protocol, adversary,
                                                     config);
            sink(static_cast<std::uint64_t>(result.total_posts));
          }));
    }
  }

  // --- Parallel round kernel at n=1M players: the population size the
  // ROADMAP's Õ(√n)-sampling sweeps (PAPERS.md, "Breaking the O(n²) Bit
  // Barrier") need to run at. Fewer rounds and fixed reps keep the row
  // affordable; t1 vs t8 records the scaling headroom at the scale that
  // matters. Not gated by check_perf.py — the n100k rows carry the
  // scaling gate; these rows track the absolute ns/op trajectory.
  {
    constexpr std::size_t kPlayers = 1000000;
    constexpr std::size_t kObjects = 100000;
    constexpr Round kMaxRounds = 4;
    Rng rng(31);
    const World world = make_simple_world(kObjects, 1, rng);
    const Population population =
        Population::with_prefix_honest(kPlayers, kPlayers * 9 / 10);
    std::uint64_t seed = 37;
    constexpr std::size_t kThreadCounts[] = {1, 8};
    for (const std::size_t threads : kThreadCounts) {
      record(run_bench(
          "distill_parallel_round_n1m_t" + std::to_string(threads),
          static_cast<std::int64_t>(kPlayers) * kMaxRounds, /*reps=*/2, [&] {
            DistillParams params;
            params.alpha = 0.9;
            DistillProtocol protocol(params);
            SilentAdversary adversary;
            SyncRunConfig config;
            config.max_rounds = kMaxRounds;
            config.seed = seed++;
            config.engine_threads = threads;
            const RunResult result = SyncEngine::run(world, population,
                                                     protocol, adversary,
                                                     config);
            sink(static_cast<std::uint64_t>(result.total_posts));
          }));
    }
  }

  // --- Gossip rounds: n=512 replicas at the substrate's operating
  // point — 16 posters feeding a push-pull fanout-12 overlay, digest
  // contacts on the lazy 8-round anti-entropy cadence. The exchange
  // substrate re-ships every fresh post down every link every round
  // (2*fanout duplicate deliveries per post per node, each paying a dedup
  // probe); the digest substrate ships each post once and amortizes its
  // control traffic over multi-round delta ranges. The legacy_ row runs
  // the identical workload and config on the retained exchange path, so
  // the rewrite's gain is a measured in-process ratio. (On saturated
  // all-post workloads the two substrates converge to within ~1.5x of
  // each other — every author advancing every round is the digest's
  // worst case; see docs/architecture.md, "Gossip substrate".)
  {
    constexpr std::size_t kPlayers = 512;
    constexpr std::size_t kPosters = 16;
    constexpr Round kMaxRounds = 64;
    const Population population =
        Population::with_prefix_honest(kPlayers, kPlayers * 9 / 10);
    Rng rng(9);
    const World world = make_simple_world(64, 1, rng);
    const auto gossip_bench = [&](const std::string& name,
                                  GossipSubstrate substrate) {
      std::uint64_t seed = 11;
      record(run_bench(
          name, static_cast<std::int64_t>(kPlayers) * kMaxRounds, reps, [&,
          substrate]() mutable {
            SilentAdversary adversary;
            GossipConfig config;
            config.fanout = 12;
            config.pull = true;
            config.substrate = substrate;
            config.contact_interval = 8;  // digest only; exchange ignores
            config.max_rounds = kMaxRounds;
            config.seed = seed++;
            const RunResult result = GossipEngine::run(
                world, population,
                [&] { return std::make_unique<LightFloodProtocol>(kPosters); },
                adversary, config);
            sink(static_cast<std::uint64_t>(result.total_posts));
          }));
    };
    gossip_bench("gossip_round_n512", GossipSubstrate::kDigest);
    gossip_bench("legacy_gossip_round_n512", GossipSubstrate::kExchange);
  }

  // --- Gossip substrate at n=100k replicas: 256 posters flooding for 8
  // rounds over 100k nodes. SeqTracker replicas are O(posting authors),
  // so 100k of them fit easily; the row times pure dissemination and
  // commit cost per node-round at cluster scale. Repair is off here:
  // staggered full syncs make the digest substrate deliver far more of
  // the flood within the 8-round window than exchange ever does, which
  // is a completeness win but not an overhead comparison.
  {
    constexpr std::size_t kPlayers = 100000;
    constexpr std::size_t kPosters = 256;
    constexpr Round kMaxRounds = 8;
    Rng rng(19);
    const World world = make_simple_world(64, 1, rng);
    const Population population =
        Population::with_prefix_honest(kPlayers, kPlayers);
    const auto gossip_100k = [&](const std::string& name,
                                 GossipSubstrate substrate) {
      std::uint64_t seed = 29;
      return record(run_bench(
          name, static_cast<std::int64_t>(kPlayers) * kMaxRounds, reps, [&,
          substrate]() mutable {
            SilentAdversary adversary;
            GossipConfig config;
            config.fanout = 2;
            config.substrate = substrate;
            config.repair_interval = 0;
            config.max_rounds = kMaxRounds;
            config.seed = seed++;
            const RunResult result = GossipEngine::run(
                world, population,
                [&] { return std::make_unique<LightFloodProtocol>(kPosters); },
                adversary, config);
            sink(static_cast<std::uint64_t>(result.total_posts));
          }));
    };
    const BenchResult fast =
        gossip_100k("gossip_round_n100k", GossipSubstrate::kDigest);
    const BenchResult legacy =
        gossip_100k("legacy_gossip_round_n100k", GossipSubstrate::kExchange);
    std::cout << "  -> gossip n100k digest vs exchange: "
              << legacy.ns_per_op / fast.ns_per_op << "x\n";
  }

  // --- Gossip wire cost at the duplication-heavy operating point:
  // n=512, fanout 12, push-pull, 10% loss, 10% Byzantine absorbers, 32
  // posters, digest contacts on the lazy 16-round cadence. This is where
  // exchange-everything hurts — every node re-ships its whole fresh set
  // ~24x per round, absorbers receive full payloads they drop — and
  // where digests pay for themselves: a post crosses each link once as a
  // delta range covering many rounds of advances, everything else is
  // compact control traffic. Recorded in the "wire" section and gated by
  // scripts/check_perf.py --min-wire-reduction.
  WireRecord wire;
  {
    constexpr std::size_t kPlayers = 512;
    constexpr std::size_t kPosters = 32;
    constexpr Round kMaxRounds = 64;
    Rng rng(17);
    const World world = make_simple_world(64, 1, rng);
    const Population population =
        Population::with_prefix_honest(kPlayers, kPlayers * 9 / 10);
    const auto measure_bits = [&](GossipSubstrate substrate) {
      SilentAdversary adversary;
      GossipConfig config;
      config.fanout = 12;
      config.pull = true;
      config.loss_prob = 0.1;
      config.substrate = substrate;
      config.contact_interval = 16;  // digest only; exchange ignores
      config.max_rounds = kMaxRounds;
      config.seed = 23;
      obs::BandwidthMeter::global().reset();
      obs::BandwidthMeter::set_enabled(true);
      const RunResult result = GossipEngine::run(
          world, population,
          [&] { return std::make_unique<LightFloodProtocol>(kPosters); },
          adversary, config);
      obs::BandwidthMeter::set_enabled(false);
      const obs::BandwidthSnapshot snap =
          obs::BandwidthMeter::global().snapshot();
      obs::BandwidthMeter::global().reset();
      const auto channel_bits = [&](obs::IoChannel channel) {
        return snap.channels[static_cast<std::size_t>(channel)].write_bits;
      };
      const std::uint64_t bits =
          channel_bits(obs::IoChannel::kGossipExchange) +
          channel_bits(obs::IoChannel::kGossipDigest) +
          channel_bits(obs::IoChannel::kGossipDelta);
      return static_cast<double>(bits) /
             static_cast<double>(std::max<Round>(result.rounds_executed, 1));
    };
    wire.digest_bits_per_round = measure_bits(GossipSubstrate::kDigest);
    wire.exchange_bits_per_round = measure_bits(GossipSubstrate::kExchange);
    wire.reduction = wire.exchange_bits_per_round /
                     std::max(wire.digest_bits_per_round, 1.0);
    std::cout << "  gossip_wire_n512_f12: digest "
              << wire.digest_bits_per_round / 1e3 << " kbit/round, exchange "
              << wire.exchange_bits_per_round / 1e3
              << " kbit/round -> reduction " << wire.reduction << "x\n";
  }

  // --- Billboard service over a Unix socket: the bbload client swarm
  // (tools/bbload shares run_loadgen) against an in-process
  // BillboardServer. 512 concurrent connections spread over 8 shared
  // replica boards; the posts phase measures steady-state ingest, the
  // query phase times every window query for the p50/p99 tail. The same
  // workload runs against three server geometries (1/2/4 IO threads,
  // boards sharded across them) for the service-scaling gate in
  // scripts/check_perf.py, then once more at t1 with 16 in-flight
  // commits per connection for the service_pipelining ratio (hard >= 3x
  // floor: pipelining collapses per-commit round trips, so the ratio is
  // machine-independent). Server and clients share whatever cores the
  // machine has — these rows are same-machine regression pins for the
  // RPC + framing + epoll path, not capacity claims (tools/bbload at
  // 10k+ clients is the capacity run; see the billboard-service CI job).
  std::vector<ServiceRecord> services;
  const auto run_service = [&](std::string name, std::size_t io_threads,
                               std::size_t pipeline) {
    const std::string path = "/tmp/acp-perf-bb-" +
                             std::to_string(::getpid()) + "-" + name +
                             ".sock";
    BillboardServer::Options server_options;
    server_options.io_threads = io_threads;
    server_options.shards = 8;  // stable board placement across t1/t2/t4
    BillboardServer server(net::Endpoint::parse("socket:" + path),
                           server_options);
    server.start();
    LoadgenOptions options;
    options.endpoint = server.endpoint();
    options.clients = 512;
    // Enough commits per connection for a 16-deep pipeline window to
    // actually fill (at 4 batches the window never exceeded 4).
    options.batches = 16;
    options.batch_posts = 8;
    options.queries = 4;
    options.players = 512;
    options.objects = 256;
    options.pipeline = pipeline;
    std::vector<LoadgenReport> reports;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      // Fresh boards per rep, spread across every shard.
      options.board_list.clear();
      for (std::size_t b = 0; b < 8; ++b) {
        options.board_list.push_back(name + "-" + std::to_string(rep) + "." +
                                     std::to_string(b));
      }
      options.seed = rep + 1;
      reports.push_back(run_loadgen(options));
    }
    server.stop();
    // Median posts/sec and median p99 across repetitions (independently:
    // the two phases are timed separately and jitter independently).
    ServiceRecord service;
    service.name = std::move(name);
    service.io_threads = io_threads;
    service.pipeline = pipeline;
    std::vector<double> rates;
    std::vector<std::uint64_t> p99s;
    for (const LoadgenReport& r : reports) {
      rates.push_back(r.posts_per_sec);
      p99s.push_back(r.query_p99_ns);
      service.posts = r.posts;
      service.queries = r.queries;
      service.errors += r.errors;
    }
    std::sort(rates.begin(), rates.end());
    std::sort(p99s.begin(), p99s.end());
    service.clients = options.clients;
    service.posts_per_sec = rates[rates.size() / 2];
    service.query_p50_ns = reports[reports.size() / 2].query_p50_ns;
    service.query_p99_ns = p99s[p99s.size() / 2];
    std::cout << "  " << service.name << ": " << service.clients
              << " clients, " << service.posts_per_sec / 1e3
              << " k posts/s, query p99 "
              << static_cast<double>(service.query_p99_ns) / 1e3 << " us, "
              << service.errors << " errors\n";
    services.push_back(service);
    return service;
  };
  const ServiceRecord service_t1 =
      run_service("billboard_service_unix_t1", 1, 1);
  run_service("billboard_service_unix_t2", 2, 1);
  run_service("billboard_service_unix_t4", 4, 1);
  const ServiceRecord service_piped =
      run_service("billboard_service_unix_t1_pipe16", 1, 16);
  PipelineRecord pipelining;
  pipelining.clients = service_t1.clients;
  pipelining.single_posts_per_sec = service_t1.posts_per_sec;
  pipelining.pipelined_posts_per_sec = service_piped.posts_per_sec;
  pipelining.speedup =
      service_t1.posts_per_sec > 0.0
          ? service_piped.posts_per_sec / service_t1.posts_per_sec
          : 0.0;
  std::cout << "  " << pipelining.name << ": "
            << pipelining.pipelined_posts_per_sec / 1e3 << " k vs "
            << pipelining.single_posts_per_sec / 1e3 << " k posts/s -> "
            << pipelining.speedup << "x\n";

  // --- Results table + speedups.
  Table table({"bench", "reps", "items", "ns/op", "items/s", "total ms"});
  for (const BenchResult& r : results) {
    table.add_row({r.name, Table::cell(r.reps),
                   Table::cell(static_cast<std::size_t>(r.items)),
                   Table::cell(r.ns_per_op, 1), Table::cell(r.items_per_sec, 0),
                   Table::cell(r.total_ms, 1)});
  }
  table.print(std::cout);

  const auto find_result = [&](const std::string& name) -> const BenchResult& {
    for (const BenchResult& r : results) {
      if (r.name == name) return r;
    }
    std::cerr << "missing bench result: " << name << "\n";
    std::exit(1);
  };
  std::vector<SpeedupRecord> speedups;
  for (const auto& [fast, legacy] :
       std::vector<std::pair<std::string, std::string>>{
           {"window_query_n10k_m100k", "legacy_window_query_n10k_m100k"},
           {"replica_ooo_ingest_100k", "legacy_replica_ooo_ingest_100k"},
           {"gossip_round_n512", "legacy_gossip_round_n512"}}) {
    speedups.push_back(SpeedupRecord{
        fast, legacy,
        find_result(legacy).ns_per_op / find_result(fast).ns_per_op});
  }
  Table speedup_table({"bench", "vs legacy", "speedup"});
  for (const SpeedupRecord& s : speedups) {
    speedup_table.add_row({s.name, s.baseline, Table::cell(s.speedup, 1)});
  }
  speedup_table.print(std::cout);

  write_perf_json(results, speedups, wire, services, pipelining);
  return 0;
}
