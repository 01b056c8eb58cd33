// Run-wide invariants of DISTILL, checked every round across a parameter
// grid by an observing "adversary" (measurement equipment with ground
// truth, not a participant) plus post-run billboard audits.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "acp/adversary/split_vote.hpp"
#include "acp/adversary/strategies.hpp"
#include "test_support.hpp"

namespace acp::test {
namespace {

/// Wraps a real adversary; checks protocol invariants each round.
class InvariantChecker final : public Adversary {
 public:
  InvariantChecker(Adversary& wrapped, const DistillProtocol& protocol)
      : wrapped_(&wrapped), protocol_(&protocol) {}

  void initialize(const World& world, const Population& population) override {
    world_ = &world;
    wrapped_->initialize(world, population);
  }

  void plan_round(const AdversaryContext& ctx, std::vector<Post>& out,
                  Rng& rng) override {
    // Phase window brackets the current round.
    EXPECT_LE(protocol_->phase_window_start(), ctx.round);
    EXPECT_LT(ctx.round, protocol_->phase_window_end());

    // Candidates are unique and in range.
    std::set<std::size_t> seen;
    for (ObjectId obj : protocol_->candidates()) {
      EXPECT_LT(obj.value(), world_->num_objects());
      EXPECT_TRUE(seen.insert(obj.value()).second) << "duplicate candidate";
    }

    // Iteration index only meaningful in Step 2.
    if (protocol_->phase() != DistillProtocol::Phase::kStep2) {
      EXPECT_EQ(protocol_->iteration(), 0u);
    }

    wrapped_->plan_round(ctx, out, rng);
  }

 private:
  Adversary* wrapped_;
  const DistillProtocol* protocol_;
  const World* world_ = nullptr;
};

using GridParam = std::tuple<std::size_t /*n*/, double /*alpha*/,
                             int /*adversary kind*/>;

class DistillInvariantGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(DistillInvariantGrid, HoldEveryRound) {
  const auto [n, alpha, adversary_kind] = GetParam();
  auto scenario = Scenario::make(
      n, static_cast<std::size_t>(alpha * static_cast<double>(n)), n, 1,
      n * 131 + static_cast<std::size_t>(alpha * 17));

  DistillProtocol protocol(basic_params(alpha));
  std::unique_ptr<Adversary> inner;
  switch (adversary_kind) {
    case 0:
      inner = std::make_unique<SilentAdversary>();
      break;
    case 1:
      inner = std::make_unique<EagerVoteAdversary>();
      break;
    default:
      inner = std::make_unique<SplitVoteAdversary>(protocol);
      break;
  }
  InvariantChecker checker(*inner, protocol);
  const RunResult result =
      SyncEngine::run(scenario.world, scenario.population, protocol, checker,
                      {.max_rounds = 300000, .seed = n + 3});
  ASSERT_TRUE(result.all_honest_satisfied);

  // Post-run audits -------------------------------------------------------

  // The one-vote rule held on the ledger the protocol actually used.
  std::vector<std::size_t> votes(n, 0);
  for (const VoteEvent& event : protocol.ledger().events()) {
    ++votes[event.voter.value()];
  }
  for (std::size_t count : votes) EXPECT_LE(count, 1u);

  // Every satisfied honest player's stats are consistent.
  for (std::size_t p = 0; p < n; ++p) {
    const PlayerStats& stats = result.players[p];
    if (!stats.honest) {
      EXPECT_EQ(stats.probes, 0);
      continue;
    }
    EXPECT_TRUE(stats.satisfied());
    EXPECT_TRUE(stats.probed_good);
    EXPECT_GE(stats.probes, 1);
    EXPECT_LE(stats.probes, stats.satisfied_round + 1);
    EXPECT_DOUBLE_EQ(stats.cost_paid, static_cast<double>(stats.probes));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistillInvariantGrid,
    ::testing::Combine(::testing::Values<std::size_t>(32, 64, 128),
                       ::testing::Values(0.25, 0.5, 0.9),
                       ::testing::Values(0, 1, 2)));

// ---------------------------------------------------------------------------
// Satisfied players stop posting: audited on the billboard itself via a
// recording adversary that keeps the final billboard size per round.
// ---------------------------------------------------------------------------

TEST(DistillInvariants, SatisfiedPlayersNeverPostAgain) {
  auto scenario = Scenario::make(64, 32, 64, 1, 171);

  class BillboardAuditor final : public Adversary {
   public:
    void plan_round(const AdversaryContext& ctx, std::vector<Post>&,
                    Rng&) override {
      // The context's billboard dies with the run: snapshot the posts.
      posts_ = ctx.billboard.posts().to_vector();
    }
    std::vector<Post> posts_;
  } auditor;

  DistillProtocol protocol(basic_params(0.5));
  const RunResult result =
      SyncEngine::run(scenario.world, scenario.population, protocol, auditor,
                      {.max_rounds = 300000, .seed = 172});
  ASSERT_TRUE(result.all_honest_satisfied);
  ASSERT_FALSE(auditor.posts_.empty());

  for (const Post& post : auditor.posts_) {
    const PlayerStats& stats = result.players[post.author.value()];
    if (!stats.honest) continue;
    EXPECT_LE(post.round, stats.satisfied_round)
        << post.author << " posted after halting";
  }
}

// ---------------------------------------------------------------------------
// Window semantics: a vote cast in an earlier window must NOT count toward
// a later iteration's survival threshold ("in this stage", Figure 1).
// ---------------------------------------------------------------------------

TEST(DistillInvariants, StaleVotesDoNotSustainCandidates) {
  // Direct ledger-level statement, since that is where the rule lives:
  Billboard billboard(8, 8);
  VoteLedger ledger(VotePolicy::kFirstPositive, 8, 8, 1);
  // Four votes for object 3 in rounds 0..3.
  for (Round r = 0; r < 4; ++r) {
    billboard.commit_round(
        r, {Post{PlayerId{static_cast<std::size_t>(r)}, r, ObjectId{3}, 1.0,
                 true}});
  }
  ledger.ingest(billboard);
  // A later window sees none of them.
  EXPECT_EQ(ledger.votes_in_window(ObjectId{3}, 4, 100), 0);
  // And partial windows see exactly their slice.
  EXPECT_EQ(ledger.votes_in_window(ObjectId{3}, 2, 4), 2);
}

}  // namespace
}  // namespace acp::test
