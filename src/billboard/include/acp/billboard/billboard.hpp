// The shared billboard (paper §2.1).
//
// Append-only log of posts with system-enforced identity tags and
// timestamps. The engine is the only writer: it collects the posts of a
// round (honest reports and adversary fabrications alike), validates the
// system-level invariants, and commits them atomically. Readers during round
// r see exactly the posts committed for rounds < r — the synchronous
// visibility rule.
//
// A board stores its posts in a PostLog, whose segments never move (see
// post_log.hpp), or — for a gossip replica — as ids into a shared post
// arena that its engine owns. Either way posts() is the one read path
// (see post_range.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "acp/billboard/post.hpp"
#include "acp/billboard/post_log.hpp"
#include "acp/billboard/post_range.hpp"
#include "acp/util/contracts.hpp"
#include "acp/util/types.hpp"

namespace acp {

class Billboard {
 public:
  enum class Mode {
    /// The engine-owned authoritative log: stamped rounds equal the commit
    /// round and each player posts at most once per round.
    kAuthoritative,
    /// A node-local replica fed by gossip (acp_gossip): posts keep their
    /// *origin* stamps but arrive later and possibly batched, so a commit
    /// may carry several posts by one author and stamps from older rounds
    /// (never future ones). Deduplication is the replicator's job.
    kReplica,
  };

  Billboard(std::size_t num_players, std::size_t num_objects,
            Mode mode = Mode::kAuthoritative);

  /// A kReplica board that stores ids into `arena` instead of posts; it
  /// commits with commit_ids only. The board keeps a pointer to the
  /// vector (never to its data, which moves as the arena grows), so the
  /// arena must outlive the board and may only ever be appended to.
  Billboard(std::size_t num_players, std::size_t num_objects,
            const std::vector<Post>& arena);
  Billboard(std::size_t, std::size_t, const std::vector<Post>&&) = delete;

  [[nodiscard]] std::size_t num_players() const noexcept {
    return num_players_;
  }
  [[nodiscard]] std::size_t num_objects() const noexcept {
    return num_objects_;
  }

  /// Commit all posts of `round` at once. Enforces the billboard contract:
  /// rounds are committed in increasing order and authors/objects are in
  /// range. In kAuthoritative mode, additionally: the stamped round
  /// matches and each player posts at most once per round (a player takes
  /// one step per round, §2.1). In kReplica mode, stamps may be older than
  /// the commit (arrival) round but never newer.
  void commit_round(Round round, std::vector<Post> posts);

  /// Same contract, appending from a caller-owned buffer. Lets engines
  /// that stage posts in a reusable arena commit without building (and
  /// then discarding) a fresh vector per round. (Named, not overloaded:
  /// a braced post list must keep resolving to the vector form above.)
  void commit_round_from(Round round, std::span<const Post> posts);

  /// Arena boards only: commit the posts arena[id] for each id, in order,
  /// under the kReplica contract. Each id must be below the arena's size.
  void commit_ids(Round round, std::span<const PostId> ids);

  /// Pre-size the segment table for `expected_posts` posts. A hint only:
  /// committed posts never move whether or not it is called, and segments
  /// are still allocated as posts arrive. Arena boards ignore it.
  void reserve(std::size_t expected_posts) { log_.reserve(expected_posts); }

  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  /// All committed posts, in commit order (nondecreasing commit rounds).
  [[nodiscard]] PostRange posts() const noexcept {
    if (arena_ != nullptr) return PostRange(*arena_, ids_);
    return PostRange(log_);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return arena_ != nullptr ? ids_.size() : log_.size();
  }

  /// Highest committed round, or -1 before the first commit.
  [[nodiscard]] Round last_committed_round() const noexcept {
    return last_round_;
  }

 private:
  /// Checks the commit round and starts a new one-post-per-author epoch.
  std::uint64_t open_round(Round round);
  /// The per-post contract of the board's mode.
  void check_post(Round round, const Post& post, std::uint64_t epoch);

  std::size_t num_players_;
  std::size_t num_objects_;
  Mode mode_;
  PostLog log_;                               // post boards
  const std::vector<Post>* arena_ = nullptr;  // arena boards
  std::vector<PostId> ids_;                   // arena boards
  Round last_round_ = -1;

  // Generation-stamped per-author scratch for the one-post-per-round
  // check (authoritative mode): O(posts) per commit, allocation-free
  // after the first, instead of a fresh sort per round.
  std::vector<std::uint64_t> author_stamp_;
  std::uint64_t commit_epoch_ = 0;
};

}  // namespace acp
