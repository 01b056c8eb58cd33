#include "acp/billboard/billboard.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "acp/obs/metrics.hpp"
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
}

// -- Segmented storage (PostLog) ---------------------------------------------

constexpr std::size_t kSegment = PostLog::kSegmentPosts;

/// `count` replica posts for log positions first, first + 1, ...: each
/// carries its position as its reported value, so a misplaced post shows.
std::vector<Post> numbered_posts(std::size_t first, std::size_t count) {
  std::vector<Post> posts;
  posts.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) {
    posts.push_back(make_post(i % 4, 0, i % 8, static_cast<double>(i)));
  }
  return posts;
}

/// A replica board holding posts 0 .. size - 1 of numbered_posts, committed
/// in batches of `batch`.
Billboard numbered_board(std::size_t size, std::size_t batch) {
  Billboard bb(4, 8, Billboard::Mode::kReplica);
  Round round = 0;
  for (std::size_t first = 0; first < size; first += batch) {
    bb.commit_round_from(round++,
                         numbered_posts(first, std::min(batch, size - first)));
  }
  return bb;
}

TEST(PostLog, CommitStraddlesASegmentBoundary) {
  Billboard bb = numbered_board(kSegment - 3, kSegment - 3);
  bb.commit_round_from(1, numbered_posts(kSegment - 3, 7));
  ASSERT_EQ(bb.size(), kSegment + 4);
  const PostRange posts = bb.posts();
  for (std::size_t i = kSegment - 8; i < bb.size(); ++i) {
    EXPECT_EQ(posts[i].reported_value, static_cast<double>(i)) << i;
  }
  EXPECT_EQ(bb.last_committed_round(), 1);
}

TEST(PostLog, FailedStraddlingCommitLeavesLogUnchanged) {
  Billboard bb = numbered_board(kSegment - 1, kSegment - 1);
  std::vector<Post> bad = numbered_posts(kSegment - 1, 4);
  bad.back().object = ObjectId{8};  // out of range, past the boundary
  EXPECT_THROW(bb.commit_round_from(1, bad), ContractViolation);
  EXPECT_EQ(bb.size(), kSegment - 1);
  EXPECT_EQ(bb.last_committed_round(), 0);
  // The next valid commit lands where the bad one would have.
  bb.commit_round_from(1, numbered_posts(kSegment - 1, 4));
  EXPECT_EQ(bb.posts()[kSegment].reported_value,
            static_cast<double>(kSegment));
}

TEST(PostLog, RangeReadsAcrossSegments) {
  const Billboard bb = numbered_board(2 * kSegment + 10, 5000);
  const PostRange posts = bb.posts();
  ASSERT_EQ(posts.size(), 2 * kSegment + 10);
  // first in segment 0, last in segment 2.
  const std::size_t first = kSegment - 5;
  const std::size_t last = 2 * kSegment + 7;
  std::size_t expected = first;
  posts.for_each(first, last, [&expected](const Post& post) {
    EXPECT_EQ(post.reported_value, static_cast<double>(expected));
    ++expected;
  });
  EXPECT_EQ(expected, last);
  // A range that ends exactly on a boundary, and an empty one on it.
  std::size_t visited = 0;
  const auto count = [&visited](const Post&) { ++visited; };
  posts.for_each(kSegment - 2, kSegment, count);
  posts.for_each(kSegment, kSegment, count);
  EXPECT_EQ(visited, 2u);

  for (const std::size_t i : {std::size_t{0}, kSegment - 1, kSegment,
                              2 * kSegment - 1, 2 * kSegment, last}) {
    EXPECT_EQ(posts[i].reported_value, static_cast<double>(i)) << i;
  }

  const auto a = posts.begin() + static_cast<std::ptrdiff_t>(first);
  const auto b = posts.begin() + static_cast<std::ptrdiff_t>(last);
  EXPECT_EQ(b - a, static_cast<std::ptrdiff_t>(last - first));
  EXPECT_EQ(a[5].reported_value, static_cast<double>(kSegment));
  EXPECT_EQ((b - 1)->reported_value, static_cast<double>(last - 1));
  std::size_t walked = first;
  for (PostRange::iterator it = a; it != b; ++it, ++walked) {
    ASSERT_EQ(it->reported_value, static_cast<double>(walked));
  }
  PostRange::iterator back = b;
  --back;
  EXPECT_EQ(back->reported_value, static_cast<double>(last - 1));
  EXPECT_EQ(std::distance(posts.begin(), posts.end()),
            static_cast<std::ptrdiff_t>(posts.size()));
}

TEST(PostLog, CommittedPostsNeverMove) {
  Billboard bb(4, 8);
  bb.commit_round(0, {make_post(0, 0, 1, 7.0)});
  const Post* const first = &bb.posts()[0];
  // Fill two more segments; the table grows, the posts stay put.
  Billboard replica = numbered_board(kSegment - 1, kSegment - 1);
  const Post* const last_of_segment = &replica.posts()[kSegment - 2];
  Round round = 1;
  for (std::size_t i = 1; i < 2 * kSegment + 1; ++i, ++round) {
    bb.commit_round(round, {make_post(i % 4, round, i % 8)});
  }
  replica.commit_round_from(1, numbered_posts(kSegment - 1, 2 * kSegment));
  ASSERT_EQ(bb.size(), 2 * kSegment + 1);
  EXPECT_EQ(&bb.posts()[0], first);
  EXPECT_EQ(first->reported_value, 7.0);
  EXPECT_EQ(&replica.posts()[kSegment - 2], last_of_segment);
  EXPECT_EQ(last_of_segment->reported_value,
            static_cast<double>(kSegment - 2));
}

TEST(PostLog, SegmentedBoardEqualsAFlatCopy) {
  const Billboard bb = numbered_board(kSegment + 100, 9000);
  const std::vector<Post> arena = bb.posts().to_vector();
  ASSERT_EQ(arena.size(), kSegment + 100);
  // An arena board reads the same posts from one contiguous vector.
  Billboard flat(4, 8, arena);
  std::vector<PostId> ids(arena.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PostId>(i);
  flat.commit_ids(0, ids);
  EXPECT_EQ(bb.posts(), flat.posts());
  // One differing post past the boundary breaks equality.
  Billboard other = numbered_board(kSegment + 99, 9000);
  std::vector<Post> tail = numbered_posts(kSegment + 99, 1);
  tail[0].positive = true;
  other.commit_round_from(100, tail);
  EXPECT_FALSE(bb.posts() == other.posts());
}

TEST(PostLog, ReserveAndMovePreserveContents) {
  PostLog log;
  log.reserve(3 * kSegment);
  EXPECT_EQ(log.size(), 0u);
  log.append({});
  EXPECT_EQ(log.size(), 0u);
  const std::vector<Post> posts = numbered_posts(0, kSegment + 1);
  log.append(posts);
  const Post* const stored = &PostRange(log)[kSegment];
  PostLog moved(std::move(log));
  EXPECT_EQ(moved.size(), kSegment + 1);
  EXPECT_EQ(&PostRange(moved)[kSegment], stored);
  EXPECT_EQ(PostRange(moved).to_vector(), posts);
  PostLog assigned;
  assigned.append(numbered_posts(0, 3));
  assigned = std::move(moved);
  EXPECT_EQ(PostRange(assigned).to_vector(), posts);
}

/// Segments PostLogs took from the free list and from the allocator while
/// `fill` ran, read from the billboard.segments.* counters.
template <typename Fill>
std::pair<std::uint64_t, std::uint64_t> segments_during(Fill fill) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset();
  obs::MetricsRegistry::set_enabled(true);
  fill();
  obs::MetricsRegistry::set_enabled(false);
  const std::uint64_t reused =
      registry.counter("billboard.segments.reused").value();
  const std::uint64_t allocated =
      registry.counter("billboard.segments.allocated").value();
  registry.reset();
  return {reused, allocated};
}

TEST(PostLog, RecycledSegmentsNeverExposeOldPosts) {
  // Three segments of numbered posts go back to the free list.
  { const Billboard old = numbered_board(3 * kSegment - 10, 20000); }
  // A smaller board reuses two of them. Its own posts carry 10^9 + i, so
  // any of the old board's numbers showing through is a failure.
  constexpr double kOffset = 1e9;
  std::vector<Post> fresh = numbered_posts(0, kSegment + 5);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    fresh[i].reported_value = kOffset + static_cast<double>(i);
  }
  Billboard bb(4, 8, Billboard::Mode::kReplica);
  const auto [reused, allocated] =
      segments_during([&] { bb.commit_round_from(0, fresh); });
  EXPECT_EQ(reused, 2u);
  EXPECT_EQ(allocated, 0u);

  const PostRange posts = bb.posts();
  ASSERT_EQ(posts.size(), kSegment + 5);
  std::size_t visited = 0;
  posts.for_each(0, posts.size(), [&visited](const Post& post) {
    EXPECT_EQ(post.reported_value, kOffset + static_cast<double>(visited));
    ++visited;
  });
  EXPECT_EQ(visited, kSegment + 5);
  for (const std::size_t i : {std::size_t{0}, kSegment - 1, kSegment,
                              kSegment + 4}) {
    EXPECT_EQ(posts[i].reported_value, kOffset + static_cast<double>(i)) << i;
  }
  EXPECT_EQ(std::distance(posts.begin(), posts.end()),
            static_cast<std::ptrdiff_t>(kSegment + 5));
  EXPECT_EQ(posts.to_vector(), fresh);
}

TEST(PostLog, FreeListKeepsOnlyTheLastReleasedLog) {
  { PostLog five; five.append(numbered_posts(0, 4 * kSegment + 1)); }
  {
    PostLog empty;
    PostLog one;
    one.append(numbered_posts(0, 1));
    PostLog kept(std::move(one));
  }  // `kept` releases one segment; the empty and moved-from logs after
     // it give nothing back and leave the list alone.
  const std::vector<Post> three_segments = numbered_posts(0, 3 * kSegment);
  auto [reused, allocated] = segments_during([&] {
    PostLog three;
    three.append(three_segments);
  });
  EXPECT_EQ(reused, 1u);
  EXPECT_EQ(allocated, 2u);
  // Now the three-segment log was the last released.
  std::tie(reused, allocated) = segments_during([] {
    PostLog four;
    four.append(numbered_posts(0, 3 * kSegment + 1));
  });
  EXPECT_EQ(reused, 3u);
  EXPECT_EQ(allocated, 1u);
}

TEST(PostLog, ConcurrentBoardsRecycleSafely) {
  constexpr int kThreads = 4;
  constexpr int kBoards = 6;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      for (int b = 0; b < kBoards; ++b) {
        // Sizes differ per thread and board, so boards of one to three
        // segments hand segments to each other through the list.
        const std::size_t size =
            kSegment / 2 + static_cast<std::size_t>((t + b) % 5) * kSegment / 2;
        const Billboard bb = numbered_board(size, 7000);
        const PostRange posts = bb.posts();
        std::size_t expected = 0;
        posts.for_each(0, posts.size(), [&](const Post& post) {
          if (post.reported_value != static_cast<double>(expected)) {
            ++failures[static_cast<std::size_t>(t)];
          }
          ++expected;
        });
        if (expected != size) ++failures[static_cast<std::size_t>(t)];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

}  // namespace
}  // namespace acp
