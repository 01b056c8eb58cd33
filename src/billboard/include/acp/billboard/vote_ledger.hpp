// Vote extraction — the honest reader's view of the billboard.
//
// The billboard itself accepts anything; the *one-vote rule* that powers
// DISTILL's analysis (§4: "allow each player to make only one such report")
// is enforced on the read side: honest players derive, from the raw post
// log, which posts count as votes. Two policies:
//
//  * kFirstPositive — a player's votes are its first `f` positive reports
//    for distinct objects (f = 1 reproduces Figure 1; larger f reproduces
//    the multiple-votes extension of §4.1). Later positive posts by the
//    same player are ignored.
//  * kHighestReported — for search without local testing (§5.3): a player's
//    vote is the highest-valued object it has reported so far, so the vote
//    can change over time. Each strict improvement is a fresh vote event.
//  * kFirstNegative — the slander mirror of kFirstPositive: a player's
//    first f negative reports (distinct objects) count. Used by the
//    experimental veto variant that probes §6's "is slander useless?"
//    question; Figure 1's DISTILL never reads negative reports.
//
// The ledger also answers the windowed count ℓ_t(i) — "votes object i
// received during iteration t" (Figure 1, shared variables) — via
// round-interval queries over the vote-event log.
//
// Window semantics: every round-interval query takes a *half-open*
// interval [begin, end) — an event stamped `begin` counts, one stamped
// `end` does not. DISTILL's phase windows pass (phase_start, current
// round) and rely on exactly this convention.
//
// Hot path: `ingest` + the window queries run once per player per round
// in every engine, so both are allocation-free in steady state. Queries
// use generation-stamped scratch buffers (mutable caches), which makes
// concurrent queries on one ledger instance unsafe — each trial/thread
// owns its own ledger, as everywhere in this codebase. Late-stamped
// replica posts (gossip) are staged in a pending batch and merged into
// the sorted event log once per ingest instead of via per-post
// mid-vector inserts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "acp/billboard/billboard.hpp"
#include "acp/util/types.hpp"

namespace acp {

enum class VotePolicy {
  kFirstPositive,
  kHighestReported,
  kFirstNegative,
};

struct VoteEvent {
  PlayerId voter;
  ObjectId object;
  Round round = 0;

  friend bool operator==(const VoteEvent&, const VoteEvent&) = default;
};

class VoteLedger {
 public:
  /// `votes_per_player` is the f of §4.1; must be 1 under kHighestReported
  /// (that policy has a single, mutable vote by definition).
  VoteLedger(VotePolicy policy, std::size_t num_players,
             std::size_t num_objects, std::size_t votes_per_player = 1);

  /// Consume posts committed since the last ingest. Call once per round
  /// after Billboard::commit_round; idempotent w.r.t. already-seen posts.
  void ingest(const Billboard& billboard);

  [[nodiscard]] VotePolicy policy() const noexcept { return policy_; }

  /// The player's current votes (0..f objects). Under kHighestReported this
  /// is the single best-so-far object, if the player reported anything.
  [[nodiscard]] std::span<const ObjectId> votes_of(PlayerId p) const;

  /// Convenience for SeekAdvice with f == 1.
  [[nodiscard]] std::optional<ObjectId> current_vote(PlayerId p) const;

  /// Number of vote events for `object` with round in the half-open
  /// interval [begin, end): a vote at round `begin` counts, one at round
  /// `end` does not. An empty interval (begin == end) counts nothing.
  [[nodiscard]] Count votes_in_window(ObjectId object, Round begin,
                                      Round end) const;

  /// Batched votes_in_window: counts for every object of `objects` over
  /// the same half-open interval [begin, end), written into `out` (resized
  /// to objects.size(); out[i] answers objects[i], duplicates allowed).
  /// One sweep over the window's events instead of a binary search per
  /// object — the shape of DISTILL's phase transitions, which query every
  /// candidate over one shared window.
  void votes_in_window_batch(std::span<const ObjectId> objects, Round begin,
                             Round end, std::vector<Count>& out) const;

  /// Total vote events for `object` over all time.
  [[nodiscard]] Count total_votes(ObjectId object) const;

  /// The players that have voted for `object` (event order; a player can
  /// appear at most once per policy semantics except kHighestReported,
  /// where re-improvements on the same object are not re-listed).
  [[nodiscard]] const std::vector<PlayerId>& voters_of(
      ObjectId object) const;

  /// Objects with >= min_count vote events in the half-open interval
  /// [begin, end) — the same boundary convention as votes_in_window —
  /// in ascending id order.
  [[nodiscard]] std::vector<ObjectId> objects_with_votes_in_window(
      Round begin, Round end, Count min_count) const;

  /// Objects with at least one vote event ever (Step 1.2's set S).
  [[nodiscard]] std::vector<ObjectId> objects_with_any_vote() const;

  /// Full vote-event log in round order.
  [[nodiscard]] const std::vector<VoteEvent>& events() const noexcept {
    return events_;
  }

 private:
  void record_vote(PlayerId voter, ObjectId object, Round round);
  /// Merge the pending out-of-order batch into the sorted structures.
  /// Called once per ingest; a no-op for authoritative (in-order) feeds.
  void flush_pending();

  VotePolicy policy_;
  std::size_t num_players_;
  std::size_t num_objects_;
  std::size_t votes_per_player_;

  std::size_t posts_consumed_ = 0;

  /// Per player: current votes (small, <= f).
  std::vector<std::vector<ObjectId>> player_votes_;
  /// Per player: best reported value so far (kHighestReported only).
  std::vector<double> player_best_value_;
  std::vector<bool> player_has_report_;
  /// Per player: every object it ever voted for (kHighestReported only,
  /// where player_votes_ keeps just the current one).
  std::vector<std::vector<ObjectId>> player_vote_history_;

  /// Global vote-event log, nondecreasing rounds.
  std::vector<VoteEvent> events_;
  /// Parallel array of event rounds for binary search.
  std::vector<Round> event_rounds_;
  /// Per object: rounds of its vote events, nondecreasing.
  std::vector<std::vector<Round>> object_event_rounds_;
  /// Per object: distinct voters, in first-vote order.
  std::vector<std::vector<PlayerId>> object_voters_;

  /// Late-stamped replica events staged for the next flush_pending().
  std::vector<VoteEvent> pending_events_;
  /// Per object: length of the sorted prefix of its round list. Equal to
  /// the list size outside ingest; smaller only while an out-of-order
  /// batch is staged (the unsorted tail is merged by flush_pending()).
  std::vector<std::size_t> object_sorted_prefix_;
  /// Objects with an unsorted tail, each listed once per batch.
  std::vector<std::size_t> dirty_objects_;

  // Scratch for objects_with_votes_in_window (logically const, hence
  // mutable): generation-stamped per-object counters, never re-zeroed.
  mutable std::vector<Count> window_counts_;
  mutable std::vector<std::uint64_t> window_stamp_;
  mutable std::vector<ObjectId> window_touched_;
  mutable std::uint64_t window_epoch_ = 0;
};

}  // namespace acp
