// Reference-model property test: the incremental VoteLedger must agree,
// on random post traces, with a naive from-scratch recount implemented
// independently below. This is the strongest guard on the ledger — the
// piece every candidate-set computation in DISTILL depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <type_traits>

#include "acp/billboard/vote_ledger.hpp"
#include "acp/rng/rng.hpp"

namespace acp {
namespace {

/// Naive recount of vote events from the full post log.
std::vector<VoteEvent> reference_events(const std::vector<Post>& posts,
                                        VotePolicy policy,
                                        std::size_t votes_per_player,
                                        std::size_t num_players) {
  std::vector<VoteEvent> events;
  std::vector<std::vector<ObjectId>> votes(num_players);
  std::vector<double> best(num_players, 0.0);
  std::vector<bool> has_report(num_players, false);
  for (const Post& post : posts) {
    const std::size_t p = post.author.value();
    switch (policy) {
      case VotePolicy::kFirstPositive:
      case VotePolicy::kFirstNegative: {
        const bool wanted = policy == VotePolicy::kFirstPositive
                                ? post.positive
                                : !post.positive;
        if (!wanted) break;
        if (votes[p].size() >= votes_per_player) break;
        if (std::find(votes[p].begin(), votes[p].end(), post.object) !=
            votes[p].end())
          break;
        votes[p].push_back(post.object);
        events.push_back(VoteEvent{post.author, post.object, post.round});
        break;
      }
      case VotePolicy::kHighestReported: {
        if (has_report[p] && post.reported_value <= best[p]) break;
        has_report[p] = true;
        best[p] = post.reported_value;
        events.push_back(VoteEvent{post.author, post.object, post.round});
        break;
      }
    }
  }
  return events;
}

Count reference_window(const std::vector<VoteEvent>& events, ObjectId object,
                       Round begin, Round end) {
  Count count = 0;
  for (const VoteEvent& event : events) {
    if (event.object == object && event.round >= begin && event.round < end) {
      ++count;
    }
  }
  return count;
}

// gtest prints a parameter it has no printer for as its raw bytes, and
// gtest_discover_tests puts that text into each ctest name. Bytes 4..7 were
// once padding and so printed whatever the stack held, which changed the
// names from run to run. `name_tag` fills them explicitly: it is never read
// by the test, and its values are the bytes the recorded names carry, so
// every name is now the same on every build and run.
struct TraceParams {
  VotePolicy policy;
  std::uint32_t name_tag;
  std::size_t votes_per_player;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TraceParams>,
              "TraceParams must have no padding: its bytes name the tests");

class LedgerModelSweep : public ::testing::TestWithParam<TraceParams> {};

TEST_P(LedgerModelSweep, AgreesWithReferenceOnRandomTraces) {
  const VotePolicy policy = GetParam().policy;
  const std::size_t f = GetParam().votes_per_player;
  const std::uint64_t seed = GetParam().seed;
  constexpr std::size_t kPlayers = 12;
  constexpr std::size_t kObjects = 10;
  constexpr Round kRounds = 40;

  Rng rng(seed);
  Billboard billboard(kPlayers, kObjects);
  VoteLedger ledger(policy, kPlayers, kObjects, f);
  std::vector<Post> all_posts;

  for (Round round = 0; round < kRounds; ++round) {
    std::vector<Post> posts;
    // Random subset of players post random content this round.
    for (std::size_t p = 0; p < kPlayers; ++p) {
      if (!rng.bernoulli(0.6)) continue;
      posts.push_back(Post{PlayerId{p}, round, ObjectId{rng.index(kObjects)},
                           rng.uniform01(), rng.bernoulli(0.5)});
    }
    billboard.commit_round(round, posts);
    all_posts.insert(all_posts.end(), posts.begin(), posts.end());
    // Interleave incremental ingestion at random points.
    if (rng.bernoulli(0.5)) ledger.ingest(billboard);
  }
  ledger.ingest(billboard);

  const auto expected = reference_events(all_posts, policy, f, kPlayers);
  ASSERT_EQ(ledger.events().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ledger.events()[i], expected[i]) << "event " << i;
  }

  // Window counts agree on a grid of windows and objects.
  for (std::size_t obj = 0; obj < kObjects; ++obj) {
    for (Round begin = 0; begin <= kRounds; begin += 7) {
      for (Round end = begin; end <= kRounds; end += 9) {
        EXPECT_EQ(ledger.votes_in_window(ObjectId{obj}, begin, end),
                  reference_window(expected, ObjectId{obj}, begin, end))
            << "obj " << obj << " window [" << begin << ", " << end << ")";
      }
    }
  }

  // objects_with_votes_in_window agrees with a reference recount.
  for (Count min_count : {Count{1}, Count{2}, Count{3}}) {
    const auto got =
        ledger.objects_with_votes_in_window(5, 25, min_count);
    std::vector<ObjectId> want;
    for (std::size_t obj = 0; obj < kObjects; ++obj) {
      if (reference_window(expected, ObjectId{obj}, 5, 25) >= min_count) {
        want.push_back(ObjectId{obj});
      }
    }
    EXPECT_EQ(got, want) << "min_count " << min_count;
  }

  // Per-player current votes agree.
  for (std::size_t p = 0; p < kPlayers; ++p) {
    std::vector<ObjectId> want;
    if (policy == VotePolicy::kHighestReported) {
      // Reconstruct best-so-far.
      double best = -1.0;
      std::optional<ObjectId> vote;
      for (const Post& post : all_posts) {
        if (post.author != PlayerId{p}) continue;
        if (!vote.has_value() || post.reported_value > best) {
          best = post.reported_value;
          vote = post.object;
        }
      }
      if (vote.has_value()) want.push_back(*vote);
    } else {
      for (const VoteEvent& event : expected) {
        if (event.voter == PlayerId{p}) want.push_back(event.object);
      }
    }
    const auto got = ledger.votes_of(PlayerId{p});
    ASSERT_EQ(got.size(), want.size()) << "player " << p;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  }
}

// ---------------------------------------------------------------------------
// Replica-mode differential: posts are produced in round order but
// *delivered* shuffled within arrival batches (the gossip path). Window
// queries must agree with a reference recount over origin stamps, and
// sorted-insert bookkeeping must stay coherent.
// ---------------------------------------------------------------------------

class ReplicaModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplicaModelSweep, OutOfOrderDeliveryMatchesReference) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kPlayers = 10;
  constexpr std::size_t kObjects = 8;
  constexpr Round kRounds = 30;

  Rng rng(seed);
  // Produce an in-order post stream first.
  std::vector<Post> stream;
  for (Round round = 0; round < kRounds; ++round) {
    for (std::size_t p = 0; p < kPlayers; ++p) {
      if (!rng.bernoulli(0.5)) continue;
      stream.push_back(Post{PlayerId{p}, round,
                            ObjectId{rng.index(kObjects)}, rng.uniform01(),
                            rng.bernoulli(0.6)});
    }
  }

  // Deliver with random delays: each post arrives at origin + delay.
  std::vector<std::vector<Post>> arrivals(kRounds + 12);
  for (const Post& post : stream) {
    const Round arrive =
        post.round + static_cast<Round>(rng.index(10));
    arrivals[static_cast<std::size_t>(arrive)].push_back(post);
  }

  Billboard replica(kPlayers, kObjects, Billboard::Mode::kReplica);
  VoteLedger ledger(VotePolicy::kFirstPositive, kPlayers, kObjects, 2);
  std::vector<Post> delivered;
  for (Round round = 0; round < static_cast<Round>(arrivals.size());
       ++round) {
    auto batch = arrivals[static_cast<std::size_t>(round)];
    rng.shuffle(batch);
    delivered.insert(delivered.end(), batch.begin(), batch.end());
    replica.commit_round(round, std::move(batch));
    if (rng.bernoulli(0.7)) ledger.ingest(replica);
  }
  ledger.ingest(replica);

  // Reference: same policy over the posts in DELIVERY order (first-f
  // semantics depend on what the node has seen, i.e. arrival order), but
  // window counts keyed by ORIGIN stamps.
  const auto expected =
      reference_events(delivered, VotePolicy::kFirstPositive, 2, kPlayers);
  EXPECT_EQ(ledger.events().size(), expected.size());

  for (std::size_t obj = 0; obj < kObjects; ++obj) {
    for (Round begin = 0; begin <= kRounds; begin += 5) {
      for (Round end = begin; end <= kRounds + 12; end += 7) {
        EXPECT_EQ(ledger.votes_in_window(ObjectId{obj}, begin, end),
                  reference_window(expected, ObjectId{obj}, begin, end))
            << "obj " << obj << " [" << begin << "," << end << ")";
      }
    }
  }

  // The sorted event log is coherent despite insertions.
  Round last = std::numeric_limits<Round>::min();
  for (const VoteEvent& event : ledger.events()) {
    EXPECT_GE(event.round, last);
    last = event.round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaModelSweep,
                         ::testing::Values<std::uint64_t>(31, 41, 59, 97));

INSTANTIATE_TEST_SUITE_P(
    Traces, LedgerModelSweep,
    ::testing::Values(
        TraceParams{VotePolicy::kFirstPositive, 0x00007FFF, 1, 1},
        TraceParams{VotePolicy::kFirstPositive, 0, 1, 2},
        TraceParams{VotePolicy::kFirstPositive, 0x00007FFF, 3, 3},
        TraceParams{VotePolicy::kFirstPositive, 0x00007FFF, 3, 4},
        TraceParams{VotePolicy::kFirstNegative, 0x00005635, 1, 5},
        TraceParams{VotePolicy::kFirstNegative, 0x18733936, 4, 6},
        TraceParams{VotePolicy::kHighestReported, 0, 1, 7},
        TraceParams{VotePolicy::kHighestReported, 0xFFFFFFFF, 1, 8},
        TraceParams{VotePolicy::kFirstPositive, 0, 2, 9},
        TraceParams{VotePolicy::kFirstNegative, 0, 2, 10}));

}  // namespace
}  // namespace acp
