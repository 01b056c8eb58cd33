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
//
// Memory: under gossip every honest node keeps its own ledger, so its
// fixed size is paid n times. Per player the ledger keeps f vote slots
// in one flat array plus a count (and, under kHighestReported, the best
// value so far); per object one event count; per vote event 16 bytes.
// The per-object voter lists behind voters_of exist only when the
// constructor is asked to track voters.
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

static_assert(sizeof(VoteEvent) == 16);

class VoteLedger {
 public:
  /// `votes_per_player` is the f of §4.1; must be 1 under kHighestReported
  /// (that policy has a single, mutable vote by definition). Only a ledger
  /// built with `track_voters` answers voters_of.
  VoteLedger(VotePolicy policy, std::size_t num_players,
             std::size_t num_objects, std::size_t votes_per_player = 1,
             bool track_voters = false);

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
  /// Scans every event of the window; protocols, which query many objects
  /// over one window, use votes_in_window_batch instead.
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
  /// where re-improvements on the same object are not re-listed). Only on
  /// a ledger built with `track_voters`.
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
  /// Merge the pending out-of-order batch into the sorted event log.
  /// Called once per ingest; a no-op for authoritative (in-order) feeds.
  void flush_pending();
  /// The events with round in [begin, end), as a slice of events_.
  [[nodiscard]] std::span<const VoteEvent> events_in(Round begin,
                                                     Round end) const;
  /// Count the window's events per object into the stamped scratch;
  /// returns the epoch that marks the counted objects.
  std::uint32_t count_window(std::span<const VoteEvent> window) const;

  VotePolicy policy_;
  std::size_t num_players_;
  std::size_t num_objects_;
  /// Vote slots per player: min(f, m), since votes go to distinct objects.
  std::size_t slots_per_player_;
  bool track_voters_;

  std::size_t posts_consumed_ = 0;

  /// Player p's current votes are the first player_vote_count_[p] of its
  /// slots_per_player_ slots, which start at p * slots_per_player_.
  std::vector<ObjectId> player_votes_;
  std::vector<std::uint32_t> player_vote_count_;
  /// Per player: best reported value so far (kHighestReported only; read
  /// only once the player has a vote).
  std::vector<double> player_best_value_;
  /// Per object: vote events over all time.
  std::vector<std::uint32_t> object_vote_count_;

  /// Global vote-event log, nondecreasing rounds.
  std::vector<VoteEvent> events_;
  /// Late-stamped replica events staged for the next flush_pending().
  std::vector<VoteEvent> pending_events_;

  /// Tracked ledgers only. Per object: distinct voters, in first-vote
  /// order. Per player under kHighestReported: every object it ever voted
  /// for (its slot keeps just the current one).
  std::vector<std::vector<PlayerId>> object_voters_;
  std::vector<std::vector<ObjectId>> player_vote_history_;

  // Scratch for the window sweeps (logically const, hence mutable):
  // generation-stamped per-object counters, re-zeroed only when the
  // 32-bit epoch wraps. A window count never exceeds the object's
  // all-time count, so 32 bits hold it too.
  mutable std::vector<std::uint32_t> window_counts_;
  mutable std::vector<std::uint32_t> window_stamp_;
  mutable std::vector<ObjectId> window_touched_;
  mutable std::uint32_t window_epoch_ = 0;
};

}  // namespace acp
