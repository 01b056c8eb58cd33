// The versioned-digest anti-entropy substrate: SeqTracker semantics, the
// digest-vs-exchange differential tests, and the Byzantine injection
// identity fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "acp/adversary/strategies.hpp"
#include "acp/billboard/seq_tracker.hpp"
#include "acp/billboard/service.hpp"
#include "acp/gossip/gossip_engine.hpp"
#include "acp/scenario/spec.hpp"
#include "acp/sim/scenario_driver.hpp"
#include "test_support.hpp"

namespace acp::test {
namespace {

// ------------------------------------------------------------ SeqTracker

TEST(SeqTracker, ContiguousAcceptAndDuplicate) {
  SeqTracker tracker;
  std::vector<SeqTracker::Payload> accepted;
  EXPECT_EQ(tracker.offer(7, 0, 100, accepted), SeqTracker::Offer::kAccepted);
  EXPECT_EQ(tracker.offer(7, 1, 101, accepted), SeqTracker::Offer::kAccepted);
  EXPECT_EQ(tracker.offer(7, 0, 100, accepted), SeqTracker::Offer::kDuplicate);
  EXPECT_EQ(tracker.high_water(7), 2u);
  EXPECT_EQ(tracker.high_water(8), 0u);
  EXPECT_EQ(tracker.count(), 2u);
  ASSERT_EQ(accepted.size(), 2u);
  EXPECT_EQ(accepted[0], 100u);
  EXPECT_EQ(accepted[1], 101u);
}

TEST(SeqTracker, ParkedGapDrainsInSequenceOrder) {
  SeqTracker tracker;
  std::vector<SeqTracker::Payload> accepted;
  // Seqs 2 and 1 arrive before 0 (out-of-order Byzantine injections).
  EXPECT_EQ(tracker.offer(3, 2, 302, accepted), SeqTracker::Offer::kParked);
  EXPECT_EQ(tracker.offer(3, 1, 301, accepted), SeqTracker::Offer::kParked);
  EXPECT_EQ(tracker.offer(3, 2, 302, accepted), SeqTracker::Offer::kDuplicate);
  EXPECT_EQ(tracker.parked(), 2u);
  EXPECT_EQ(tracker.count(), 0u);  // parked posts are not committed
  // Filling the gap drains the whole chain, in sequence order.
  EXPECT_EQ(tracker.offer(3, 0, 300, accepted), SeqTracker::Offer::kAccepted);
  EXPECT_EQ(tracker.parked(), 0u);
  EXPECT_EQ(tracker.high_water(3), 3u);
  ASSERT_EQ(accepted.size(), 3u);
  EXPECT_EQ(accepted[0], 300u);
  EXPECT_EQ(accepted[1], 301u);
  EXPECT_EQ(accepted[2], 302u);
}

TEST(SeqTracker, SummaryIsOrderIndependent) {
  // Two replicas receive the same (author, seq) set along different
  // arrival orders — one of them through a parked gap. The summaries
  // (count, checksum) must coincide; that is what lets two replicas skip
  // a digest exchange in O(1).
  SeqTracker a;
  SeqTracker b;
  std::vector<SeqTracker::Payload> sink;
  a.offer(1, 0, 0, sink);
  a.offer(1, 1, 0, sink);
  a.offer(2, 0, 0, sink);
  b.offer(2, 0, 0, sink);
  b.offer(1, 1, 0, sink);  // parked until (1, 0) lands
  b.offer(1, 0, 0, sink);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.checksum(), b.checksum());
  // And the sparse digests agree entry by entry, sorted by author.
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    EXPECT_EQ(a.entries()[i].author, b.entries()[i].author);
    EXPECT_EQ(a.entries()[i].high_water, b.entries()[i].high_water);
  }
  // Different sets produce different checksums (up to 64-bit collision).
  b.offer(3, 0, 0, sink);
  EXPECT_NE(a.checksum(), b.checksum());
}

// ------------------------------------- digest vs exchange differentials

/// Canonical value of one post, for set comparison across runs.
using PostKey = std::tuple<std::uint64_t, Round, std::uint64_t, double, bool>;

PostKey canonical(const Post& post) {
  return {post.author.value(), post.round, post.object.value(),
          post.reported_value, post.positive};
}

std::vector<PostKey> canonical_set(const Billboard& replica) {
  std::vector<PostKey> keys;
  keys.reserve(replica.size());
  for (const Post& post : replica.posts()) keys.push_back(canonical(post));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Deterministic flood protocol for differential substrate tests. The
/// posting schedule depends only on (player, round) — never on replica
/// contents — so two runs over different substrates author the exact same
/// global post set and any divergence in final replicas is the
/// substrate's doing. One designated keeper halts at `end_round` to keep
/// the run (and hence dissemination + repair) alive after the posting
/// window closes; everyone else halts shortly after the window.
class FloodProtocol final : public Protocol {
 public:
  static constexpr Round kPostUntil = 12;

  FloodProtocol(std::size_t keeper, Round end_round)
      : keeper_(keeper), end_round_(end_round) {}

  void initialize(const WorldView&, std::size_t) override {}
  void on_round_begin(Round, const Billboard&) override {}

  [[nodiscard]] std::optional<ObjectId> choose_probe(PlayerId, Round,
                                                     Rng&) override {
    return ObjectId{0};
  }

  StepOutcome on_probe_result(PlayerId player, Round round, ObjectId, double,
                              double, bool, Rng&) override {
    StepOutcome step;
    if (posts_at(player.value(), round)) {
      step.post = ProbeReport{
          ObjectId{0},
          static_cast<double>(player.value() * 1000 + round),
          true};
    }
    const Round halt_round = player.value() == keeper_
                                 ? end_round_
                                 : kPostUntil + (player.value() % 5);
    step.halt = round >= halt_round;
    return step;
  }

  /// The closed-form schedule, shared with the expectation builder.
  static bool posts_at(std::size_t player, Round round) {
    return round < kPostUntil &&
           (static_cast<Round>(player) + round) % 3 == 0;
  }

 private:
  std::size_t keeper_;
  Round end_round_;
};

struct FloodRun {
  std::map<std::uint64_t, std::vector<PostKey>> replicas;  // by player id
  RunResult result;
};

FloodRun run_flood(const Scenario& scenario, GossipSubstrate substrate,
                   double loss_prob, std::uint64_t seed, Round end_round,
                   std::vector<Round> arrivals = {},
                   std::vector<Round> departures = {}) {
  std::size_t keeper = 0;
  while (!scenario.population.is_honest(PlayerId{keeper})) ++keeper;
  // The keeper must be present for the whole run or roster.done() fires
  // early; differential runs keep churn away from it.
  SilentAdversary adversary;
  FloodRun run;
  GossipConfig config;
  config.fanout = 2;
  config.substrate = substrate;
  config.loss_prob = loss_prob;
  config.max_rounds = end_round + 4;
  config.seed = seed;
  config.arrivals = std::move(arrivals);
  config.departures = std::move(departures);
  config.on_final_replica = [&](PlayerId player, const Billboard& replica) {
    run.replicas[player.value()] = canonical_set(replica);
  };
  const std::size_t keeper_copy = keeper;
  run.result = GossipEngine::run(
      scenario.world, scenario.population,
      [keeper_copy, end_round]() -> std::unique_ptr<Protocol> {
        return std::make_unique<FloodProtocol>(keeper_copy, end_round);
      },
      adversary, config);
  return run;
}

/// Every post the flood schedule authors, given who is actually stepping
/// (arrived, not yet departed, not yet halted — the keeper is `keeper`).
std::vector<PostKey> expected_posts(const Scenario& scenario, std::size_t n,
                                    const std::vector<Round>& arrivals,
                                    const std::vector<Round>& departures) {
  std::size_t keeper = 0;
  while (!scenario.population.is_honest(PlayerId{keeper})) ++keeper;
  std::vector<PostKey> keys;
  for (std::size_t p = 0; p < n; ++p) {
    if (!scenario.population.is_honest(PlayerId{p})) continue;
    for (Round r = 0; r < FloodProtocol::kPostUntil; ++r) {
      if (!FloodProtocol::posts_at(p, r)) continue;
      if (!arrivals.empty() && arrivals[p] > r) continue;
      if (!departures.empty() && departures[p] >= 0 && r >= departures[p]) {
        continue;
      }
      if (p != keeper &&
          r > FloodProtocol::kPostUntil + static_cast<Round>(p % 5)) {
        continue;  // halted (unreachable while kPostUntil < halt, kept
                   // for schedule clarity)
      }
      keys.push_back(PostKey{p, r, 0,
                             static_cast<double>(p * 1000 +
                                                 static_cast<std::size_t>(r)),
                             true});
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(GossipAntiEntropy, DigestDominatesExchangeLossless) {
  // Same deterministic flood over both substrates, no loss. Digest
  // anti-entropy converges every node to exactly the authored set.
  // The exchange substrate does NOT guarantee that even lossless — a
  // post's push frontier can die by only ever hitting already-informed
  // nodes — so the differential claim is directional: digest is exact,
  // exchange commits a (typically large) subset and never a post digest
  // lacks.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    auto scenario = Scenario::make(32, 32, 8, 1, 500 + seed);
    const std::vector<PostKey> expected =
        expected_posts(scenario, 32, {}, {});
    ASSERT_FALSE(expected.empty());
    const FloodRun digest =
        run_flood(scenario, GossipSubstrate::kDigest, 0.0, seed, 64);
    const FloodRun exchange =
        run_flood(scenario, GossipSubstrate::kExchange, 0.0, seed, 64);
    ASSERT_EQ(digest.replicas.size(), 32u);
    ASSERT_EQ(exchange.replicas.size(), 32u);
    for (const auto& [player, posts] : digest.replicas) {
      SCOPED_TRACE(player);
      EXPECT_EQ(posts, expected);
      const std::vector<PostKey>& legacy = exchange.replicas.at(player);
      EXPECT_TRUE(std::includes(expected.begin(), expected.end(),
                                legacy.begin(), legacy.end()));
      EXPECT_GE(legacy.size(), expected.size() / 4);
    }
  }
}

TEST(GossipAntiEntropy, DigestConvergesUnderLoss) {
  // Lossy links: the exchange substrate can permanently drop a post (a
  // frontier whose every push is lost dies), but digest repair keeps
  // offering summaries until replicas agree — the final state must be the
  // complete authored set at any loss rate, across shuffled contact
  // orders (different seeds permute every peer choice).
  for (const double loss : {0.2, 0.5}) {
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
      auto scenario = Scenario::make(28, 24, 8, 1, 700 + seed);
      const std::vector<PostKey> expected =
          expected_posts(scenario, 28, {}, {});
      const FloodRun digest =
          run_flood(scenario, GossipSubstrate::kDigest, loss, seed, 96);
      for (const auto& [player, posts] : digest.replicas) {
        SCOPED_TRACE(testing::Message() << "loss=" << loss << " seed=" << seed
                                        << " player=" << player);
        EXPECT_EQ(posts, expected);
      }
    }
  }
}

TEST(GossipAntiEntropy, RepairCatchesUpLateArrivalsUnderChurn) {
  // A node that joins after the posting window closed receives nothing on
  // the hot path (nobody has news anymore); only digest repair can fill
  // it in. A node that departs keeps its committed prefix and its posts
  // survive on the others. This is where digest is strictly stronger than
  // exchange, which never re-sends old posts.
  const std::size_t n = 24;
  auto scenario = Scenario::make(n, n, 8, 1, 900);
  std::vector<Round> arrivals(n, 0);
  std::vector<Round> departures(n, -1);
  const std::size_t late = 5;
  const std::size_t leaver = 7;
  arrivals[late] = 40;    // long after the last post at round 11
  departures[leaver] = 20;  // after posting and halting, before the end
  const std::vector<PostKey> expected =
      expected_posts(scenario, n, arrivals, departures);
  ASSERT_FALSE(expected.empty());
  const FloodRun digest = run_flood(scenario, GossipSubstrate::kDigest, 0.1,
                                    31, 96, arrivals, departures);
  ASSERT_EQ(digest.replicas.size(), n);
  for (const auto& [player, posts] : digest.replicas) {
    if (player == leaver) continue;  // departed mid-run; holds a prefix
    SCOPED_TRACE(player);
    EXPECT_EQ(posts, expected);
  }
  // The leaver's prefix is a subset of the full set.
  const std::vector<PostKey>& prefix = digest.replicas.at(leaver);
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(), prefix.begin(),
                            prefix.end()));
}

TEST(GossipAntiEntropy, FinalReplicasArePerAuthorPrefixesOfTheUnionLog) {
  // DISTILL under loss, pull, churn and the eager adversary. SeqTracker
  // commits an author's posts only as a contiguous prefix of that
  // author's sequence, so every honest final replica (departed nodes
  // included) holds, per author, exactly the first k of the author's
  // posts in union-log order, each once.
  const std::size_t n = 40;
  auto scenario = Scenario::make(n, 28, n, 2, 1300);
  std::vector<Round> arrivals(n, 0);
  std::vector<Round> departures(n, -1);
  for (std::size_t p = 0; p < n; ++p) {
    if (!scenario.population.is_honest(PlayerId{p})) continue;
    arrivals[p] = static_cast<Round>(p % 6);
    if (p % 9 == 4) departures[p] = 10;
  }
  InProcessBillboard union_log(n, n, Billboard::Mode::kReplica);
  std::vector<std::vector<PostKey>> replicas;
  GossipConfig config;
  config.fanout = 3;
  config.pull = true;
  config.loss_prob = 0.2;
  config.seed = 1301;
  config.arrivals = arrivals;
  config.departures = departures;
  config.billboard = &union_log;
  config.on_final_replica = [&](PlayerId, const Billboard& replica) {
    std::vector<PostKey>& keys = replicas.emplace_back();
    for (const Post& post : replica.posts()) keys.push_back(canonical(post));
  };
  EagerVoteAdversary adversary;
  const RunResult result = GossipEngine::run(
      scenario.world, scenario.population,
      [] { return std::make_unique<DistillProtocol>(basic_params(0.7)); },
      adversary, config);
  ASSERT_TRUE(result.all_honest_satisfied);
  ASSERT_EQ(replicas.size(), 28u);

  // The engine reserves n posts for its arena and union log; a run that
  // outgrows that reallocates the arena under the replicas' ids.
  const PostRange all = union_log.board().posts();
  ASSERT_GT(all.size(), 2 * n);
  std::vector<PostKey> union_keys;
  std::map<std::uint64_t, std::vector<PostKey>> by_author;
  for (const Post& post : all) {
    union_keys.push_back(canonical(post));
    by_author[post.author.value()].push_back(canonical(post));
  }
  std::sort(union_keys.begin(), union_keys.end());
  ASSERT_EQ(std::adjacent_find(union_keys.begin(), union_keys.end()),
            union_keys.end())
      << "posts must be distinct for the checks below to mean anything";

  for (std::size_t i = 0; i < replicas.size(); ++i) {
    SCOPED_TRACE(i);
    std::vector<PostKey> sorted = replicas[i];
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    EXPECT_TRUE(std::includes(union_keys.begin(), union_keys.end(),
                              sorted.begin(), sorted.end()));
    std::map<std::uint64_t, std::vector<PostKey>> mine;
    for (const PostKey& key : replicas[i]) {
      mine[std::get<0>(key)].push_back(key);
    }
    for (const auto& [author, posts] : mine) {
      const std::vector<PostKey>& log = by_author[author];
      ASSERT_LE(posts.size(), log.size()) << "author " << author;
      EXPECT_TRUE(std::equal(posts.begin(), posts.end(), log.begin()))
          << "author " << author;
    }
  }
}

// --------------------------------------- injection identity (dedup fix)

/// Emits two *distinct* fabricated posts by the same Byzantine author in
/// one round — the case the legacy (author, origin-round) dedup key
/// cannot tell apart.
class DoubleInjectionAdversary final : public Adversary {
 public:
  void plan_round(const AdversaryContext& ctx, std::vector<Post>& out,
                  Rng&) override {
    if (ctx.round != 1) return;
    PlayerId liar{0};
    while (ctx.population.is_honest(liar)) liar = PlayerId{liar.value() + 1};
    out.push_back(Post{liar, 1, ObjectId{1}, 0.9, true});
    out.push_back(Post{liar, 1, ObjectId{2}, 0.9, true});
  }
};

TEST(GossipAntiEntropy, DistinctInjectionsBothPropagateUnderDigest) {
  auto scenario = Scenario::make(24, 20, 8, 1, 1100);
  std::size_t keeper = 0;
  while (!scenario.population.is_honest(PlayerId{keeper})) ++keeper;

  const auto count_lies = [&](GossipSubstrate substrate) {
    DoubleInjectionAdversary adversary;
    std::size_t nodes_with_both = 0;
    std::size_t nodes_with_any = 0;
    GossipConfig config;
    config.fanout = 2;
    config.substrate = substrate;
    config.max_rounds = 80;
    config.seed = 41;
    config.on_final_replica = [&](PlayerId, const Billboard& replica) {
      bool lie1 = false;
      bool lie2 = false;
      for (const Post& post : replica.posts()) {
        if (scenario.population.is_honest(post.author)) continue;
        if (post.object == ObjectId{1}) lie1 = true;
        if (post.object == ObjectId{2}) lie2 = true;
      }
      nodes_with_both += (lie1 && lie2) ? 1 : 0;
      nodes_with_any += (lie1 || lie2) ? 1 : 0;
    };
    const std::size_t keeper_copy = keeper;
    (void)GossipEngine::run(
        scenario.world, scenario.population,
        [keeper_copy]() -> std::unique_ptr<Protocol> {
          return std::make_unique<FloodProtocol>(keeper_copy, 72);
        },
        adversary, config);
    return std::pair{nodes_with_both, nodes_with_any};
  };

  // Digest: each injection carries its own sequence number, so repair
  // spreads both lies to every honest node.
  const auto [digest_both, digest_any] = count_lies(GossipSubstrate::kDigest);
  EXPECT_EQ(digest_both, 20u);
  // Exchange: the (author, round) key makes the two lies one identity —
  // whichever reaches a node first wins and the other is dropped, so no
  // node ever holds both.
  const auto [exchange_both, exchange_any] =
      count_lies(GossipSubstrate::kExchange);
  EXPECT_EQ(exchange_both, 0u);
  EXPECT_GT(exchange_any, 0u);
}

// --------------------------------------------- trial-driver invariance

TEST(GossipAntiEntropy, DigestStatsAreDriverThreadCountInvariant) {
  // The digest substrate under the declarative trial driver: per-trial
  // results are bit-identical at any driver thread count.
  scenario::ScenarioSpec spec;
  spec.n = 48;
  spec.m = 24;
  spec.good = 2;
  spec.engine = "gossip";
  spec.substrate = "digest";
  spec.pull = true;
  spec.loss_prob = 0.2;
  spec.trials = 8;
  spec.max_rounds = 5000;
  spec.validate();

  spec.threads = 1;
  const std::vector<RunningStats> t1 = sim::run_scenario_stats(spec);
  spec.threads = 8;
  const std::vector<RunningStats> t8 = sim::run_scenario_stats(spec);
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(t1[i].count(), t8[i].count());
    EXPECT_EQ(t1[i].mean(), t8[i].mean());
    EXPECT_EQ(t1[i].min(), t8[i].min());
    EXPECT_EQ(t1[i].max(), t8[i].max());
  }
}

}  // namespace
}  // namespace acp::test
