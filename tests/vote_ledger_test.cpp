#include "acp/billboard/vote_ledger.hpp"

#include <gtest/gtest.h>

#include "acp/util/contracts.hpp"

namespace acp {
namespace {

Post make_post(std::size_t author, Round round, std::size_t object,
               double value, bool positive) {
  return Post{PlayerId{author}, round, ObjectId{object}, value, positive};
}

class FirstPositiveLedgerTest : public ::testing::Test {
 protected:
  Billboard bb_{4, 8};
  VoteLedger ledger_{VotePolicy::kFirstPositive, 4, 8, 1};
};

TEST_F(FirstPositiveLedgerTest, NoVotesInitially) {
  EXPECT_FALSE(ledger_.current_vote(PlayerId{0}).has_value());
  EXPECT_TRUE(ledger_.objects_with_any_vote().empty());
  EXPECT_TRUE(ledger_.events().empty());
}

TEST_F(FirstPositiveLedgerTest, PositivePostBecomesVote) {
  bb_.commit_round(0, {make_post(1, 0, 5, 0.9, true)});
  ledger_.ingest(bb_);
  ASSERT_TRUE(ledger_.current_vote(PlayerId{1}).has_value());
  EXPECT_EQ(*ledger_.current_vote(PlayerId{1}), ObjectId{5});
  EXPECT_EQ(ledger_.total_votes(ObjectId{5}), 1);
}

TEST_F(FirstPositiveLedgerTest, NegativePostIsNotAVote) {
  bb_.commit_round(0, {make_post(1, 0, 5, 0.1, false)});
  ledger_.ingest(bb_);
  EXPECT_FALSE(ledger_.current_vote(PlayerId{1}).has_value());
  EXPECT_EQ(ledger_.total_votes(ObjectId{5}), 0);
}

TEST_F(FirstPositiveLedgerTest, OneVoteRuleIgnoresLaterPositives) {
  bb_.commit_round(0, {make_post(1, 0, 5, 0.9, true)});
  bb_.commit_round(1, {make_post(1, 1, 6, 0.9, true)});
  ledger_.ingest(bb_);
  EXPECT_EQ(*ledger_.current_vote(PlayerId{1}), ObjectId{5});
  EXPECT_EQ(ledger_.total_votes(ObjectId{6}), 0);
  EXPECT_EQ(ledger_.events().size(), 1u);
}

TEST_F(FirstPositiveLedgerTest, RepeatPositiveSameObjectNotDoubleCounted) {
  bb_.commit_round(0, {make_post(1, 0, 5, 0.9, true)});
  bb_.commit_round(1, {make_post(1, 1, 5, 0.9, true)});
  ledger_.ingest(bb_);
  EXPECT_EQ(ledger_.total_votes(ObjectId{5}), 1);
}

TEST_F(FirstPositiveLedgerTest, IngestIsIdempotent) {
  bb_.commit_round(0, {make_post(0, 0, 2, 1.0, true)});
  ledger_.ingest(bb_);
  ledger_.ingest(bb_);
  EXPECT_EQ(ledger_.total_votes(ObjectId{2}), 1);
}

TEST_F(FirstPositiveLedgerTest, IncrementalIngest) {
  bb_.commit_round(0, {make_post(0, 0, 2, 1.0, true)});
  ledger_.ingest(bb_);
  bb_.commit_round(1, {make_post(1, 1, 3, 1.0, true)});
  ledger_.ingest(bb_);
  EXPECT_EQ(ledger_.total_votes(ObjectId{2}), 1);
  EXPECT_EQ(ledger_.total_votes(ObjectId{3}), 1);
}

TEST_F(FirstPositiveLedgerTest, WindowCounting) {
  bb_.commit_round(0, {make_post(0, 0, 4, 1.0, true)});
  bb_.commit_round(5, {make_post(1, 5, 4, 1.0, true)});
  bb_.commit_round(9, {make_post(2, 9, 4, 1.0, true)});
  ledger_.ingest(bb_);
  EXPECT_EQ(ledger_.votes_in_window(ObjectId{4}, 0, 10), 3);
  EXPECT_EQ(ledger_.votes_in_window(ObjectId{4}, 0, 5), 1);
  EXPECT_EQ(ledger_.votes_in_window(ObjectId{4}, 5, 6), 1);
  EXPECT_EQ(ledger_.votes_in_window(ObjectId{4}, 1, 5), 0);
  EXPECT_EQ(ledger_.votes_in_window(ObjectId{4}, 9, 9), 0);  // empty window
  EXPECT_EQ(ledger_.votes_in_window(ObjectId{4}, 10, 20), 0);
}

TEST_F(FirstPositiveLedgerTest, WindowHalfOpenSemantics) {
  bb_.commit_round(3, {make_post(0, 3, 1, 1.0, true)});
  ledger_.ingest(bb_);
  EXPECT_EQ(ledger_.votes_in_window(ObjectId{1}, 3, 4), 1);  // includes begin
  EXPECT_EQ(ledger_.votes_in_window(ObjectId{1}, 2, 3), 0);  // excludes end
}

TEST_F(FirstPositiveLedgerTest, BatchWindowMatchesPerObjectQueries) {
  bb_.commit_round(0, {make_post(0, 0, 4, 1.0, true)});
  bb_.commit_round(3, {make_post(1, 3, 2, 1.0, true)});
  bb_.commit_round(5, {make_post(2, 5, 4, 1.0, true)});
  bb_.commit_round(9, {make_post(3, 9, 2, 1.0, true)});
  ledger_.ingest(bb_);
  // Duplicates in the query span are allowed; ObjectId{7} has no votes.
  const std::vector<ObjectId> objects = {ObjectId{4}, ObjectId{2}, ObjectId{7},
                                         ObjectId{4}};
  std::vector<Count> batch;
  const Round windows[][2] = {{0, 10}, {3, 4}, {2, 3}, {5, 9}, {9, 9}};
  for (const auto& w : windows) {
    SCOPED_TRACE("window [" + std::to_string(w[0]) + ", " +
                 std::to_string(w[1]) + ")");
    ledger_.votes_in_window_batch(objects, w[0], w[1], batch);
    ASSERT_EQ(batch.size(), objects.size());
    for (std::size_t i = 0; i < objects.size(); ++i) {
      EXPECT_EQ(batch[i], ledger_.votes_in_window(objects[i], w[0], w[1]));
    }
  }
}

TEST_F(FirstPositiveLedgerTest, BatchWindowBoundaries) {
  bb_.commit_round(3, {make_post(0, 3, 1, 1.0, true)});
  ledger_.ingest(bb_);
  const std::vector<ObjectId> objects = {ObjectId{1}};
  std::vector<Count> batch;
  ledger_.votes_in_window_batch(objects, 3, 4, batch);
  EXPECT_EQ(batch[0], 1);  // includes begin
  ledger_.votes_in_window_batch(objects, 2, 3, batch);
  EXPECT_EQ(batch[0], 0);  // excludes end
  ledger_.votes_in_window_batch(objects, 3, 3, batch);
  EXPECT_EQ(batch[0], 0);  // empty window
  // Empty query span: out is resized to zero and nothing is swept.
  ledger_.votes_in_window_batch({}, 0, 10, batch);
  EXPECT_TRUE(batch.empty());
}

TEST_F(FirstPositiveLedgerTest, ObjectsWithVotesInWindowThreshold) {
  bb_.commit_round(0, {make_post(0, 0, 1, 1.0, true),
                       make_post(1, 0, 1, 1.0, true),
                       make_post(2, 0, 2, 1.0, true)});
  ledger_.ingest(bb_);
  const auto two_plus = ledger_.objects_with_votes_in_window(0, 1, 2);
  ASSERT_EQ(two_plus.size(), 1u);
  EXPECT_EQ(two_plus[0], ObjectId{1});
  const auto one_plus = ledger_.objects_with_votes_in_window(0, 1, 1);
  EXPECT_EQ(one_plus.size(), 2u);
}

TEST_F(FirstPositiveLedgerTest, ObjectsWithVotesWindowExcludesOutside) {
  bb_.commit_round(0, {make_post(0, 0, 1, 1.0, true)});
  bb_.commit_round(5, {make_post(1, 5, 2, 1.0, true)});
  ledger_.ingest(bb_);
  const auto in_late_window = ledger_.objects_with_votes_in_window(5, 6, 1);
  ASSERT_EQ(in_late_window.size(), 1u);
  EXPECT_EQ(in_late_window[0], ObjectId{2});
}

// Pins the documented half-open [begin, end) convention so the indexed
// rewrite of the window structures can never silently drift: an event at
// round `begin` is inside the window, one at round `end` is outside.
TEST_F(FirstPositiveLedgerTest, ObjectsWithVotesWindowHalfOpenBoundary) {
  bb_.commit_round(3, {make_post(0, 3, 1, 1.0, true)});
  bb_.commit_round(7, {make_post(1, 7, 2, 1.0, true)});
  ledger_.ingest(bb_);
  // begin is inclusive: the round-3 event is inside [3, 4).
  EXPECT_EQ(ledger_.objects_with_votes_in_window(3, 4, 1),
            std::vector<ObjectId>{ObjectId{1}});
  // end is exclusive: the round-7 event is outside [3, 7).
  EXPECT_EQ(ledger_.objects_with_votes_in_window(3, 7, 1),
            std::vector<ObjectId>{ObjectId{1}});
  // ...and inside once end passes it.
  const auto both = ledger_.objects_with_votes_in_window(3, 8, 1);
  EXPECT_EQ(both, (std::vector<ObjectId>{ObjectId{1}, ObjectId{2}}));
  // Empty interval matches nothing, even with an event exactly at begin.
  EXPECT_TRUE(ledger_.objects_with_votes_in_window(3, 3, 1).empty());
}

TEST_F(FirstPositiveLedgerTest, RepeatedWindowQueriesAreIndependent) {
  // The query uses generation-stamped member scratch; back-to-back calls
  // with different windows must not leak counts into each other.
  bb_.commit_round(0, {make_post(0, 0, 1, 1.0, true),
                       make_post(1, 0, 1, 1.0, true)});
  bb_.commit_round(4, {make_post(2, 4, 1, 1.0, true),
                       make_post(3, 4, 2, 1.0, true)});
  ledger_.ingest(bb_);
  const auto first = ledger_.objects_with_votes_in_window(0, 1, 2);
  EXPECT_EQ(first, std::vector<ObjectId>{ObjectId{1}});
  // Object 1 has only one vote in [4, 5); the two counted above must not
  // carry over.
  EXPECT_TRUE(ledger_.objects_with_votes_in_window(4, 5, 2).empty());
  EXPECT_EQ(ledger_.objects_with_votes_in_window(4, 5, 1),
            (std::vector<ObjectId>{ObjectId{1}, ObjectId{2}}));
  // And the original window still answers the same afterwards.
  EXPECT_EQ(ledger_.objects_with_votes_in_window(0, 1, 2), first);
}

TEST_F(FirstPositiveLedgerTest, ObjectsWithAnyVoteSorted) {
  bb_.commit_round(0, {make_post(0, 0, 7, 1.0, true),
                       make_post(1, 0, 2, 1.0, true)});
  ledger_.ingest(bb_);
  const auto objs = ledger_.objects_with_any_vote();
  ASSERT_EQ(objs.size(), 2u);
  EXPECT_EQ(objs[0], ObjectId{2});
  EXPECT_EQ(objs[1], ObjectId{7});
}

TEST(MultiVoteLedger, HonorsVoteBudget) {
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kFirstPositive, 4, 8, /*f=*/2);
  bb.commit_round(0, {make_post(0, 0, 1, 1.0, true)});
  bb.commit_round(1, {make_post(0, 1, 2, 1.0, true)});
  bb.commit_round(2, {make_post(0, 2, 3, 1.0, true)});  // over budget
  ledger.ingest(bb);
  const auto votes = ledger.votes_of(PlayerId{0});
  ASSERT_EQ(votes.size(), 2u);
  EXPECT_EQ(votes[0], ObjectId{1});
  EXPECT_EQ(votes[1], ObjectId{2});
  EXPECT_EQ(ledger.total_votes(ObjectId{3}), 0);
}

TEST(MultiVoteLedger, VotesOfReadsEachPlayersOwnSlots) {
  // f = 3: each player's votes live in its own three flat slots, filled in
  // post order, whatever order the players' posts interleave in.
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kFirstPositive, 4, 8, /*f=*/3);
  bb.commit_round(0, {make_post(0, 0, 5, 1.0, true),
                      make_post(2, 0, 1, 1.0, true)});
  bb.commit_round(1, {make_post(0, 1, 3, 1.0, true),
                      make_post(1, 1, 4, 1.0, false),  // not a vote
                      make_post(2, 1, 1, 1.0, true)});  // repeat object
  bb.commit_round(2, {make_post(0, 2, 7, 1.0, true),
                      make_post(2, 2, 6, 1.0, true)});
  bb.commit_round(3, {make_post(0, 3, 2, 1.0, true),  // over budget
                      make_post(3, 3, 0, 1.0, true)});
  ledger.ingest(bb);
  const auto votes = [&ledger](std::size_t p) {
    const auto span = ledger.votes_of(PlayerId{p});
    return std::vector<ObjectId>(span.begin(), span.end());
  };
  EXPECT_EQ(votes(0), (std::vector<ObjectId>{ObjectId{5}, ObjectId{3},
                                              ObjectId{7}}));
  EXPECT_TRUE(votes(1).empty());
  EXPECT_EQ(votes(2), (std::vector<ObjectId>{ObjectId{1}, ObjectId{6}}));
  EXPECT_EQ(votes(3), std::vector<ObjectId>{ObjectId{0}});
  EXPECT_EQ(ledger.events().size(), 6u);
  EXPECT_EQ(ledger.total_votes(ObjectId{1}), 1);
  EXPECT_EQ(ledger.total_votes(ObjectId{2}), 0);
}

TEST(VoteLedger, VotersOfNeedsATrackingLedger) {
  Billboard bb(4, 8);
  bb.commit_round(0, {make_post(0, 0, 1, 1.0, true)});
  VoteLedger untracked(VotePolicy::kFirstPositive, 4, 8, 1);
  untracked.ingest(bb);
  EXPECT_THROW((void)untracked.voters_of(ObjectId{1}), ContractViolation);
  VoteLedger tracked(VotePolicy::kFirstPositive, 4, 8, 1,
                     /*track_voters=*/true);
  tracked.ingest(bb);
  EXPECT_EQ(tracked.voters_of(ObjectId{1}),
            std::vector<PlayerId>{PlayerId{0}});
}

TEST(HighestReportedLedger, VoteIsBestSoFar) {
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kHighestReported, 4, 8, 1);
  bb.commit_round(0, {make_post(0, 0, 1, 0.3, false)});
  bb.commit_round(1, {make_post(0, 1, 2, 0.8, false)});
  bb.commit_round(2, {make_post(0, 2, 3, 0.5, false)});
  ledger.ingest(bb);
  ASSERT_TRUE(ledger.current_vote(PlayerId{0}).has_value());
  EXPECT_EQ(*ledger.current_vote(PlayerId{0}), ObjectId{2});
}

TEST(HighestReportedLedger, EachImprovementIsAnEvent) {
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kHighestReported, 4, 8, 1);
  bb.commit_round(0, {make_post(0, 0, 1, 0.3, false)});
  bb.commit_round(1, {make_post(0, 1, 2, 0.8, false)});
  bb.commit_round(2, {make_post(0, 2, 3, 0.5, false)});  // not an improvement
  ledger.ingest(bb);
  EXPECT_EQ(ledger.events().size(), 2u);
  EXPECT_EQ(ledger.votes_in_window(ObjectId{2}, 1, 2), 1);
  EXPECT_EQ(ledger.votes_in_window(ObjectId{3}, 0, 10), 0);
}

TEST(HighestReportedLedger, ReturningVoterIsListedOnce) {
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kHighestReported, 4, 8, 1,
                    /*track_voters=*/true);
  // Votes A -> B -> A (each report a strict improvement).
  bb.commit_round(0, {make_post(0, 0, 1, 0.3, false)});
  bb.commit_round(1, {make_post(0, 1, 2, 0.5, false)});
  bb.commit_round(2, {make_post(0, 2, 1, 0.8, false)});
  ledger.ingest(bb);
  EXPECT_EQ(ledger.events().size(), 3u);
  EXPECT_EQ(*ledger.current_vote(PlayerId{0}), ObjectId{1});
  EXPECT_EQ(ledger.voters_of(ObjectId{1}), std::vector<PlayerId>{PlayerId{0}});
  EXPECT_EQ(ledger.voters_of(ObjectId{2}), std::vector<PlayerId>{PlayerId{0}});
}

TEST(HighestReportedLedger, PositiveFlagIrrelevant) {
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kHighestReported, 4, 8, 1);
  bb.commit_round(0, {make_post(0, 0, 1, 0.3, true)});
  ledger.ingest(bb);
  EXPECT_EQ(*ledger.current_vote(PlayerId{0}), ObjectId{1});
}

TEST(HighestReportedLedger, TiesDoNotSwitchVote) {
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kHighestReported, 4, 8, 1);
  bb.commit_round(0, {make_post(0, 0, 1, 0.5, false)});
  bb.commit_round(1, {make_post(0, 1, 2, 0.5, false)});
  ledger.ingest(bb);
  EXPECT_EQ(*ledger.current_vote(PlayerId{0}), ObjectId{1});
}

TEST(HighestReportedLedger, RejectsMultiVoteBudget) {
  EXPECT_THROW(VoteLedger(VotePolicy::kHighestReported, 4, 8, 2),
               ContractViolation);
}

TEST(VoteLedger, RejectsMismatchedBillboard) {
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kFirstPositive, 5, 8, 1);
  EXPECT_THROW(ledger.ingest(bb), ContractViolation);
}

TEST(VoteLedger, PerPlayerIsolation) {
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kFirstPositive, 4, 8, 1);
  bb.commit_round(0, {make_post(0, 0, 1, 1.0, true),
                      make_post(1, 0, 2, 1.0, true)});
  ledger.ingest(bb);
  EXPECT_EQ(*ledger.current_vote(PlayerId{0}), ObjectId{1});
  EXPECT_EQ(*ledger.current_vote(PlayerId{1}), ObjectId{2});
  EXPECT_FALSE(ledger.current_vote(PlayerId{2}).has_value());
}

TEST(VoteLedger, EventLogOrderedByRound) {
  Billboard bb(4, 8);
  VoteLedger ledger(VotePolicy::kFirstPositive, 4, 8, 1);
  bb.commit_round(0, {make_post(0, 0, 1, 1.0, true)});
  bb.commit_round(3, {make_post(1, 3, 2, 1.0, true)});
  bb.commit_round(7, {make_post(2, 7, 1, 1.0, true)});
  ledger.ingest(bb);
  const auto& events = ledger.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LE(events[0].round, events[1].round);
  EXPECT_LE(events[1].round, events[2].round);
}

}  // namespace
}  // namespace acp
