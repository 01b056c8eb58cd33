#include "acp/billboard/vote_ledger.hpp"

#include <algorithm>

#include "acp/obs/bandwidth.hpp"
#include "acp/obs/timer.hpp"
#include "acp/util/contracts.hpp"

namespace acp {

VoteLedger::VoteLedger(VotePolicy policy, std::size_t num_players,
                       std::size_t num_objects, std::size_t votes_per_player)
    : policy_(policy),
      num_players_(num_players),
      num_objects_(num_objects),
      votes_per_player_(votes_per_player),
      player_votes_(num_players),
      player_best_value_(num_players, 0.0),
      player_has_report_(num_players, false),
      player_vote_history_(
          policy == VotePolicy::kHighestReported ? num_players : 0),
      object_event_rounds_(num_objects),
      object_voters_(num_objects),
      object_sorted_prefix_(num_objects, 0) {
  ACP_EXPECTS(num_players_ >= 1);
  ACP_EXPECTS(num_objects_ >= 1);
  ACP_EXPECTS(votes_per_player_ >= 1);
  ACP_EXPECTS(policy_ != VotePolicy::kHighestReported ||
              votes_per_player_ == 1);
}

void VoteLedger::ingest(const Billboard& billboard) {
  ACP_OBS_TIMED_SCOPE("ledger.ingest");
  ACP_EXPECTS(billboard.num_players() == num_players_);
  ACP_EXPECTS(billboard.num_objects() == num_objects_);
  const PostRange posts = billboard.posts();
  if (obs::BandwidthMeter::enabled() && posts.size() > posts_consumed_) {
    // Every not-yet-consumed post crosses the board->ledger boundary once.
    obs::BandwidthMeter::add_read(
        obs::IoChannel::kLedgerIngest,
        (posts.size() - posts_consumed_) * obs::kPostWireBits);
  }
  posts.for_each(posts_consumed_, posts.size(), [this](const Post& post) {
    const std::size_t p = post.author.value();
    switch (policy_) {
      case VotePolicy::kFirstPositive:
      case VotePolicy::kFirstNegative: {
        const bool wanted_direction =
            policy_ == VotePolicy::kFirstPositive ? post.positive
                                                  : !post.positive;
        if (!wanted_direction) break;
        auto& votes = player_votes_[p];
        if (votes.size() >= votes_per_player_) break;
        if (std::find(votes.begin(), votes.end(), post.object) != votes.end())
          break;  // a repeat report on the same object is not a new vote
        votes.push_back(post.object);
        record_vote(post.author, post.object, post.round);
        break;
      }
      case VotePolicy::kHighestReported: {
        // Every report counts; the vote is the best-so-far object and each
        // strict improvement is a fresh vote event (§5.3: the vote of a
        // player can change as the execution progresses).
        if (player_has_report_[p] &&
            post.reported_value <= player_best_value_[p])
          break;
        player_has_report_[p] = true;
        player_best_value_[p] = post.reported_value;
        player_votes_[p].assign(1, post.object);
        record_vote(post.author, post.object, post.round);
        break;
      }
    }
  });
  posts_consumed_ = posts.size();
  flush_pending();
}

void VoteLedger::record_vote(PlayerId voter, ObjectId object, Round round) {
  // The authoritative engines produce nondecreasing rounds (append); a
  // gossip replica may deliver an older-stamped post late. Late events go
  // to a pending batch that flush_pending() merges once per ingest —
  // amortized O(log) per post instead of an O(events) mid-vector insert.
  if (events_.empty() || round >= events_.back().round) {
    events_.push_back(VoteEvent{voter, object, round});
    event_rounds_.push_back(round);
  } else {
    pending_events_.push_back(VoteEvent{voter, object, round});
  }
  auto& rounds = object_event_rounds_[object.value()];
  auto& sorted_prefix = object_sorted_prefix_[object.value()];
  if (sorted_prefix == rounds.size() &&
      (rounds.empty() || round >= rounds.back())) {
    rounds.push_back(round);
    ++sorted_prefix;
  } else {
    // Out of order (or the tail already is): append now, merge at flush.
    if (sorted_prefix == rounds.size()) {
      dirty_objects_.push_back(object.value());
    }
    rounds.push_back(round);
  }
  // Distinct voters per object. Under the first-f policies ingest has
  // already rejected a repeated (voter, object) pair, so the voter is new
  // here. Under kHighestReported a player may come back to an object it
  // voted for before; its own short vote history answers that, instead
  // of a scan over every voter of the object.
  if (policy_ == VotePolicy::kHighestReported) {
    auto& history = player_vote_history_[voter.value()];
    if (std::find(history.begin(), history.end(), object) != history.end()) {
      return;
    }
    history.push_back(object);
  }
  object_voters_[object.value()].push_back(voter);
}

void VoteLedger::flush_pending() {
  if (!pending_events_.empty()) {
    // Stable by round: within the batch, arrival order breaks ties, and
    // inplace_merge keeps already-logged events ahead of batched ones at
    // equal rounds — the same placement the old upper_bound insert gave.
    std::stable_sort(pending_events_.begin(), pending_events_.end(),
                     [](const VoteEvent& a, const VoteEvent& b) {
                       return a.round < b.round;
                     });
    const auto mid =
        static_cast<std::ptrdiff_t>(events_.size());
    events_.insert(events_.end(), pending_events_.begin(),
                   pending_events_.end());
    std::inplace_merge(events_.begin(), events_.begin() + mid, events_.end(),
                       [](const VoteEvent& a, const VoteEvent& b) {
                         return a.round < b.round;
                       });
    pending_events_.clear();
    event_rounds_.resize(events_.size());
    std::transform(events_.begin(), events_.end(), event_rounds_.begin(),
                   [](const VoteEvent& e) { return e.round; });
  }
  for (const std::size_t obj : dirty_objects_) {
    auto& rounds = object_event_rounds_[obj];
    const auto mid = rounds.begin() +
                     static_cast<std::ptrdiff_t>(object_sorted_prefix_[obj]);
    std::sort(mid, rounds.end());
    std::inplace_merge(rounds.begin(), mid, rounds.end());
    object_sorted_prefix_[obj] = rounds.size();
  }
  dirty_objects_.clear();
}

const std::vector<PlayerId>& VoteLedger::voters_of(ObjectId object) const {
  ACP_EXPECTS(object.value() < num_objects_);
  return object_voters_[object.value()];
}

std::span<const ObjectId> VoteLedger::votes_of(PlayerId p) const {
  ACP_EXPECTS(p.value() < num_players_);
  return player_votes_[p.value()];
}

std::optional<ObjectId> VoteLedger::current_vote(PlayerId p) const {
  const auto votes = votes_of(p);
  if (votes.empty()) return std::nullopt;
  return votes.front();
}

Count VoteLedger::votes_in_window(ObjectId object, Round begin,
                                  Round end) const {
  ACP_EXPECTS(object.value() < num_objects_);
  ACP_EXPECTS(begin <= end);
  const auto& rounds = object_event_rounds_[object.value()];
  const auto lo = std::lower_bound(rounds.begin(), rounds.end(), begin);
  const auto hi = std::lower_bound(lo, rounds.end(), end);
  if (obs::BandwidthMeter::enabled() && hi != lo) {
    obs::BandwidthMeter::add_read(
        obs::IoChannel::kWindowQuery,
        static_cast<std::uint64_t>(hi - lo) * obs::kVoteEventWireBits);
  }
  return static_cast<Count>(hi - lo);
}

void VoteLedger::votes_in_window_batch(std::span<const ObjectId> objects,
                                       Round begin, Round end,
                                       std::vector<Count>& out) const {
  ACP_OBS_TIMED_SCOPE("ledger.window_query");
  ACP_EXPECTS(begin <= end);
  out.assign(objects.size(), 0);
  if (objects.empty()) return;
  // Same epoch-stamped sweep as objects_with_votes_in_window: count every
  // event inside the window once, then read off the queried objects.
  const auto lo = std::lower_bound(event_rounds_.begin(), event_rounds_.end(),
                                   begin) -
                  event_rounds_.begin();
  const auto hi = std::lower_bound(event_rounds_.begin() +
                                       static_cast<std::ptrdiff_t>(lo),
                                   event_rounds_.end(), end) -
                  event_rounds_.begin();
  if (obs::BandwidthMeter::enabled() && hi > lo) {
    obs::BandwidthMeter::add_read(
        obs::IoChannel::kWindowQuery,
        static_cast<std::uint64_t>(hi - lo) * obs::kVoteEventWireBits);
  }
  if (window_stamp_.size() != num_objects_) {
    window_stamp_.assign(num_objects_, 0);
    window_counts_.assign(num_objects_, 0);
  }
  const std::uint64_t epoch = ++window_epoch_;
  for (auto idx = static_cast<std::size_t>(lo);
       idx < static_cast<std::size_t>(hi); ++idx) {
    const ObjectId obj = events_[idx].object;
    if (window_stamp_[obj.value()] != epoch) {
      window_stamp_[obj.value()] = epoch;
      window_counts_[obj.value()] = 0;
    }
    ++window_counts_[obj.value()];
  }
  for (std::size_t i = 0; i < objects.size(); ++i) {
    ACP_EXPECTS(objects[i].value() < num_objects_);
    if (window_stamp_[objects[i].value()] == epoch) {
      out[i] = window_counts_[objects[i].value()];
    }
  }
}

Count VoteLedger::total_votes(ObjectId object) const {
  ACP_EXPECTS(object.value() < num_objects_);
  return static_cast<Count>(object_event_rounds_[object.value()].size());
}

std::vector<ObjectId> VoteLedger::objects_with_votes_in_window(
    Round begin, Round end, Count min_count) const {
  ACP_OBS_TIMED_SCOPE("ledger.window_query");
  ACP_EXPECTS(begin <= end);
  ACP_EXPECTS(min_count >= 1);
  // Walk only the events inside the window (cheap: windows are a few rounds
  // and each player votes O(f) times total under kFirstPositive). The
  // per-object counters are generation-stamped members: no O(m) allocation
  // or zeroing per call, only the touched entries are ever reset.
  const auto lo = std::lower_bound(event_rounds_.begin(), event_rounds_.end(),
                                   begin) -
                  event_rounds_.begin();
  const auto hi = std::lower_bound(event_rounds_.begin() +
                                       static_cast<std::ptrdiff_t>(lo),
                                   event_rounds_.end(), end) -
                  event_rounds_.begin();
  if (obs::BandwidthMeter::enabled() && hi > lo) {
    obs::BandwidthMeter::add_read(
        obs::IoChannel::kWindowQuery,
        static_cast<std::uint64_t>(hi - lo) * obs::kVoteEventWireBits);
  }
  if (window_stamp_.size() != num_objects_) {
    window_stamp_.assign(num_objects_, 0);
    window_counts_.assign(num_objects_, 0);
  }
  const std::uint64_t epoch = ++window_epoch_;
  window_touched_.clear();
  for (auto idx = static_cast<std::size_t>(lo);
       idx < static_cast<std::size_t>(hi); ++idx) {
    const ObjectId obj = events_[idx].object;
    if (window_stamp_[obj.value()] != epoch) {
      window_stamp_[obj.value()] = epoch;
      window_counts_[obj.value()] = 0;
      window_touched_.push_back(obj);
    }
    ++window_counts_[obj.value()];
  }
  std::vector<ObjectId> result;
  for (ObjectId obj : window_touched_) {
    if (window_counts_[obj.value()] >= min_count) result.push_back(obj);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<ObjectId> VoteLedger::objects_with_any_vote() const {
  std::vector<ObjectId> result;
  for (std::size_t i = 0; i < num_objects_; ++i) {
    if (!object_event_rounds_[i].empty()) result.push_back(ObjectId{i});
  }
  return result;
}

}  // namespace acp
