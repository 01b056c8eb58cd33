// Correctness witness for out-of-order replica ingestion (the gossip
// workload): a kReplica billboard delivers posts with their *origin*
// stamps, late and batched, so the ledger sees older rounds after newer
// ones. Whatever arrival order the gossip layer produces, the derived
// vote structures must match the ones an authoritative, stamp-ordered
// feed yields — this pins the pending-batch merge path of VoteLedger
// against the straightforward in-order path.
//
// Both ledgers track voters, so voters_of can be compared too.
//
// Vote extraction itself is arrival-order-dependent in general (under
// kFirstPositive, whichever positive post arrives first becomes the
// vote), so every scenario here gives each player at most one positive
// post — the reordering-invariant core the gossip benches rely on.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "acp/billboard/billboard.hpp"
#include "acp/billboard/vote_ledger.hpp"
#include "acp/rng/rng.hpp"

namespace acp {
namespace {

constexpr std::size_t kPlayers = 64;
constexpr std::size_t kObjects = 32;
constexpr Round kOriginRounds = 20;

/// One positive post per player, spread over rounds and objects.
std::vector<Post> witness_posts() {
  std::vector<Post> posts;
  posts.reserve(kPlayers);
  for (std::size_t p = 0; p < kPlayers; ++p) {
    const Round round = static_cast<Round>((p * 7) % kOriginRounds);
    posts.push_back(Post{PlayerId{p}, round, ObjectId{(p * 5) % kObjects},
                         0.9, true});
  }
  return posts;
}

/// The reference: posts committed in stamp order on the authoritative log.
VoteLedger authoritative_ledger(const std::vector<Post>& posts) {
  Billboard board(kPlayers, kObjects);
  for (Round r = 0; r < kOriginRounds; ++r) {
    std::vector<Post> batch;
    for (const Post& post : posts) {
      if (post.round == r) batch.push_back(post);
    }
    board.commit_round(r, std::move(batch));
  }
  VoteLedger ledger(VotePolicy::kFirstPositive, kPlayers, kObjects, 1,
                    /*track_voters=*/true);
  ledger.ingest(board);
  return ledger;
}

/// The same posts shuffled into a late gossip arrival order and committed
/// in small batches starting after every origin round has passed, with
/// `ledger.ingest` after every commit (one merge per round, as in the
/// engine). Returns the replica-fed ledger.
VoteLedger replica_ledger(std::vector<Post> posts, std::uint64_t seed,
                          std::size_t batch_size) {
  Rng rng(seed);
  for (std::size_t i = posts.size(); i > 1; --i) {
    std::swap(posts[i - 1], posts[rng.index(i)]);
  }
  Billboard board(kPlayers, kObjects, Billboard::Mode::kReplica);
  VoteLedger ledger(VotePolicy::kFirstPositive, kPlayers, kObjects, 1,
                    /*track_voters=*/true);
  Round commit_round = kOriginRounds;  // every stamp is already in the past
  for (std::size_t begin = 0; begin < posts.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, posts.size());
    board.commit_round(
        commit_round++,
        std::vector<Post>(posts.begin() + static_cast<std::ptrdiff_t>(begin),
                          posts.begin() + static_cast<std::ptrdiff_t>(end)));
    ledger.ingest(board);
  }
  return ledger;
}

std::vector<PlayerId> sorted_voters(const VoteLedger& ledger, ObjectId obj) {
  std::vector<PlayerId> voters = ledger.voters_of(obj);
  std::sort(voters.begin(), voters.end());
  return voters;
}

class ReplicaOutOfOrderIngest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplicaOutOfOrderIngest, EventLogStaysRoundSorted) {
  const VoteLedger replica =
      replica_ledger(witness_posts(), GetParam(), /*batch_size=*/7);
  const auto& events = replica.events();
  ASSERT_EQ(events.size(), kPlayers);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].round, events[i].round);
  }
}

TEST_P(ReplicaOutOfOrderIngest, WindowQueriesMatchAuthoritativeOrder) {
  const VoteLedger reference = authoritative_ledger(witness_posts());
  const VoteLedger replica =
      replica_ledger(witness_posts(), GetParam(), /*batch_size=*/7);
  for (Round begin = 0; begin <= kOriginRounds; ++begin) {
    for (Round end = begin; end <= kOriginRounds; ++end) {
      for (Count min_count = 1; min_count <= 3; ++min_count) {
        EXPECT_EQ(replica.objects_with_votes_in_window(begin, end, min_count),
                  reference.objects_with_votes_in_window(begin, end,
                                                         min_count))
            << "window [" << begin << ", " << end << "), min " << min_count;
      }
      for (std::size_t obj = 0; obj < kObjects; ++obj) {
        EXPECT_EQ(replica.votes_in_window(ObjectId{obj}, begin, end),
                  reference.votes_in_window(ObjectId{obj}, begin, end))
            << "object " << obj << ", window [" << begin << ", " << end
            << ")";
      }
    }
  }
}

TEST_P(ReplicaOutOfOrderIngest, CountsMatchABruteForceCountOfEvents) {
  // The single-object window count and the all-time total, checked against
  // a plain count over events() rather than against another ledger.
  const VoteLedger replica =
      replica_ledger(witness_posts(), GetParam(), /*batch_size=*/5);
  const auto& events = replica.events();
  for (std::size_t obj = 0; obj < kObjects; ++obj) {
    const ObjectId object{obj};
    const auto of_object = [object](const VoteEvent& e) {
      return e.object == object;
    };
    EXPECT_EQ(replica.total_votes(object),
              std::count_if(events.begin(), events.end(), of_object));
    for (Round begin = 0; begin <= kOriginRounds; ++begin) {
      for (Round end = begin; end <= kOriginRounds; ++end) {
        const auto expected =
            std::count_if(events.begin(), events.end(),
                          [&](const VoteEvent& e) {
                            return of_object(e) && e.round >= begin &&
                                   e.round < end;
                          });
        EXPECT_EQ(replica.votes_in_window(object, begin, end), expected)
            << "object " << obj << ", window [" << begin << ", " << end
            << ")";
      }
    }
  }
}

TEST_P(ReplicaOutOfOrderIngest, VotersAndTotalsMatchAuthoritativeOrder) {
  const VoteLedger reference = authoritative_ledger(witness_posts());
  const VoteLedger replica =
      replica_ledger(witness_posts(), GetParam(), /*batch_size=*/7);
  for (std::size_t obj = 0; obj < kObjects; ++obj) {
    EXPECT_EQ(replica.total_votes(ObjectId{obj}),
              reference.total_votes(ObjectId{obj}));
    EXPECT_EQ(sorted_voters(replica, ObjectId{obj}),
              sorted_voters(reference, ObjectId{obj}));
  }
  EXPECT_EQ(replica.objects_with_any_vote(), reference.objects_with_any_vote());
  for (std::size_t p = 0; p < kPlayers; ++p) {
    EXPECT_EQ(replica.current_vote(PlayerId{p}),
              reference.current_vote(PlayerId{p}));
  }
}

TEST_P(ReplicaOutOfOrderIngest, SingleBulkBatchMatchesToo) {
  // All 64 posts in one commit — one big merge instead of many small ones.
  const VoteLedger reference = authoritative_ledger(witness_posts());
  const VoteLedger replica =
      replica_ledger(witness_posts(), GetParam(), /*batch_size=*/kPlayers);
  for (Round begin = 0; begin <= kOriginRounds; ++begin) {
    EXPECT_EQ(replica.objects_with_votes_in_window(begin, kOriginRounds, 1),
              reference.objects_with_votes_in_window(begin, kOriginRounds,
                                                     1));
  }
}

INSTANTIATE_TEST_SUITE_P(ArrivalOrders, ReplicaOutOfOrderIngest,
                         ::testing::Values(1u, 7u, 42u, 1234567u));

}  // namespace
}  // namespace acp
