#include "acp/billboard/billboard.hpp"

#include <gtest/gtest.h>

#include "acp/util/contracts.hpp"

namespace acp {
namespace {

Post make_post(std::size_t author, Round round, std::size_t object,
               double value = 0.5, bool positive = false) {
  return Post{PlayerId{author}, round, ObjectId{object}, value, positive};
}

TEST(Billboard, StartsEmpty) {
  const Billboard bb(4, 8);
  EXPECT_EQ(bb.size(), 0u);
  EXPECT_EQ(bb.last_committed_round(), -1);
  EXPECT_EQ(bb.num_players(), 4u);
  EXPECT_EQ(bb.num_objects(), 8u);
}

TEST(Billboard, RejectsCountsBeyondTheIdRange) {
  // Checked before anything is sized by the counts.
  EXPECT_THROW(Billboard(kMaxIdCount + 1, 8), ContractViolation);
  EXPECT_THROW(Billboard(4, kMaxIdCount + 1), ContractViolation);
  EXPECT_THROW(Billboard(std::size_t{1} << 40, 8, Billboard::Mode::kReplica),
               ContractViolation);
}

TEST(Billboard, CommitAppends) {
  Billboard bb(4, 8);
  bb.commit_round(0, {make_post(0, 0, 3), make_post(1, 0, 5)});
  EXPECT_EQ(bb.size(), 2u);
  EXPECT_EQ(bb.last_committed_round(), 0);
  EXPECT_EQ(bb.posts()[0].object, ObjectId{3});
  EXPECT_EQ(bb.posts()[1].author, PlayerId{1});
}

TEST(Billboard, AppendOnlyAcrossRounds) {
  Billboard bb(4, 8);
  bb.commit_round(0, {make_post(0, 0, 1)});
  bb.commit_round(1, {make_post(0, 1, 2)});
  EXPECT_EQ(bb.size(), 2u);
  // Earlier posts are untouched — no erasure.
  EXPECT_EQ(bb.posts()[0].round, 0);
  EXPECT_EQ(bb.posts()[1].round, 1);
}

TEST(Billboard, EmptyRoundAllowed) {
  Billboard bb(4, 8);
  bb.commit_round(0, {});
  EXPECT_EQ(bb.size(), 0u);
  EXPECT_EQ(bb.last_committed_round(), 0);
}

TEST(Billboard, SkippedRoundsAllowed) {
  Billboard bb(4, 8);
  bb.commit_round(5, {make_post(2, 5, 0)});
  EXPECT_EQ(bb.last_committed_round(), 5);
}

TEST(Billboard, RejectsNonMonotoneRounds) {
  Billboard bb(4, 8);
  bb.commit_round(3, {});
  EXPECT_THROW(bb.commit_round(3, {}), ContractViolation);
  EXPECT_THROW(bb.commit_round(2, {}), ContractViolation);
}

TEST(Billboard, RejectsWrongStamp) {
  Billboard bb(4, 8);
  EXPECT_THROW(bb.commit_round(1, {make_post(0, 0, 0)}), ContractViolation);
}

TEST(Billboard, RejectsUnknownAuthor) {
  Billboard bb(4, 8);
  EXPECT_THROW(bb.commit_round(0, {make_post(4, 0, 0)}), ContractViolation);
}

TEST(Billboard, RejectsUnknownObject) {
  Billboard bb(4, 8);
  EXPECT_THROW(bb.commit_round(0, {make_post(0, 0, 8)}), ContractViolation);
}

TEST(Billboard, RejectsDoublePostSameRound) {
  Billboard bb(4, 8);
  EXPECT_THROW(bb.commit_round(0, {make_post(1, 0, 2), make_post(1, 0, 3)}),
               ContractViolation);
}

TEST(Billboard, RejectsNegativeReportedValue) {
  Billboard bb(4, 8);
  EXPECT_THROW(bb.commit_round(0, {make_post(0, 0, 0, -1.0)}),
               ContractViolation);
}

TEST(Billboard, SamePlayerAcrossRoundsAllowed) {
  Billboard bb(4, 8);
  bb.commit_round(0, {make_post(1, 0, 2)});
  EXPECT_NO_THROW(bb.commit_round(1, {make_post(1, 1, 3)}));
}

TEST(Billboard, CommitFromSpanAppends) {
  Billboard bb(4, 8);
  const std::vector<Post> batch = {make_post(0, 0, 3), make_post(1, 0, 5)};
  bb.commit_round_from(0, batch);
  EXPECT_EQ(bb.size(), 2u);
  EXPECT_EQ(bb.last_committed_round(), 0);
  EXPECT_EQ(bb.posts()[1].object, ObjectId{5});
  // The caller's buffer is untouched and reusable.
  EXPECT_EQ(batch.size(), 2u);
}

TEST(Billboard, CommitFromSpanEnforcesSameContract) {
  Billboard bb(4, 8);
  const std::vector<Post> dup = {make_post(1, 0, 2), make_post(1, 0, 3)};
  EXPECT_THROW(bb.commit_round_from(0, dup), ContractViolation);
  const std::vector<Post> stale = {make_post(0, 1, 2)};
  EXPECT_THROW(bb.commit_round_from(0, stale), ContractViolation);
  EXPECT_EQ(bb.size(), 0u);
  EXPECT_EQ(bb.last_committed_round(), -1);
}

TEST(Billboard, CommitOverloadsInterleave) {
  // The one-post-per-author check must reset between commits regardless
  // of which overload committed the previous round.
  Billboard bb(4, 8);
  bb.commit_round(0, {make_post(1, 0, 2)});
  const std::vector<Post> batch = {make_post(1, 1, 3)};
  EXPECT_NO_THROW(bb.commit_round_from(1, batch));
  EXPECT_NO_THROW(bb.commit_round(2, {make_post(1, 2, 4)}));
  EXPECT_EQ(bb.size(), 3u);
}

TEST(Billboard, ReplicaSpanCommitKeepsOriginStamps) {
  Billboard bb(4, 8, Billboard::Mode::kReplica);
  const std::vector<Post> late = {make_post(0, 2, 1), make_post(1, 5, 2)};
  bb.commit_round_from(5, late);
  EXPECT_EQ(bb.posts()[0].round, 2);
  const std::vector<Post> future = {make_post(2, 7, 3)};
  EXPECT_THROW(bb.commit_round_from(6, future), ContractViolation);
}

TEST(Billboard, ReserveKeepsContents) {
  Billboard bb(4, 8);
  bb.commit_round(0, {make_post(0, 0, 1)});
  bb.reserve(1024);
  EXPECT_EQ(bb.size(), 1u);
  EXPECT_EQ(bb.posts()[0].object, ObjectId{1});
}

TEST(Billboard, FailedCommitLeavesLogUnchanged) {
  Billboard bb(4, 8);
  bb.commit_round(0, {make_post(0, 0, 1)});
  EXPECT_THROW(bb.commit_round(1, {make_post(1, 1, 2), make_post(9, 1, 0)}),
               ContractViolation);
  // Validation precedes append: nothing from the bad batch landed.
  EXPECT_EQ(bb.size(), 1u);
  EXPECT_EQ(bb.last_committed_round(), 0);
}

TEST(Billboard, ArenaBoardReadsThroughAGrowingArena) {
  // The board keeps the arena vector, not its data: reads stay right
  // after the arena reallocates past its reservation.
  std::vector<Post> arena;
  arena.reserve(1);
  arena.push_back(make_post(0, 0, 1));
  arena.push_back(make_post(1, 0, 2));
  Billboard bb(4, 8, arena);
  EXPECT_EQ(bb.mode(), Billboard::Mode::kReplica);
  const std::vector<PostId> first = {1, 0};
  bb.commit_ids(3, first);
  for (std::size_t i = 0; i < 64; ++i) arena.push_back(make_post(2, 4, 3));
  const std::vector<PostId> second = {65};
  bb.commit_ids(4, second);
  ASSERT_EQ(bb.size(), 3u);
  const std::vector<Post> expected = {arena[1], arena[0], arena[65]};
  EXPECT_EQ(bb.posts().to_vector(), expected);
  EXPECT_EQ(bb.posts()[2].object, ObjectId{3});
  // Both storages compare by content.
  Billboard flat(4, 8, Billboard::Mode::kReplica);
  flat.commit_round_from(4, expected);
  EXPECT_EQ(bb.posts(), flat.posts());
}

TEST(Billboard, ArenaBoardEnforcesTheReplicaContract) {
  std::vector<Post> arena = {make_post(0, 2, 1), make_post(9, 0, 1),
                             make_post(0, 7, 1), make_post(0, 0, 1, -1.0)};
  Billboard bb(4, 8, arena);
  const std::vector<PostId> late = {0};
  bb.commit_ids(5, late);  // origin stamp older than the commit round
  for (const PostId bad : {PostId{1}, PostId{2}, PostId{3}, PostId{4}}) {
    const std::vector<PostId> ids = {bad};
    // Unknown author, a stamp from the future, a negative value, an id
    // past the arena.
    EXPECT_THROW(bb.commit_ids(6, ids), ContractViolation) << bad;
  }
  EXPECT_EQ(bb.size(), 1u);
  EXPECT_EQ(bb.last_committed_round(), 5);
  // An arena board takes ids only; a post board takes posts only.
  EXPECT_THROW(bb.commit_round_from(6, arena), ContractViolation);
  Billboard flat(4, 8, Billboard::Mode::kReplica);
  EXPECT_THROW(flat.commit_ids(0, late), ContractViolation);
  EXPECT_THROW(static_cast<void>(bb.posts().log()), ContractViolation);
}

}  // namespace
}  // namespace acp
