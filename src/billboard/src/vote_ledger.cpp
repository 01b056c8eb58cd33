#include "acp/billboard/vote_ledger.hpp"

#include <algorithm>

#include "acp/obs/bandwidth.hpp"
#include "acp/obs/timer.hpp"
#include "acp/util/contracts.hpp"

namespace acp {

VoteLedger::VoteLedger(VotePolicy policy, std::size_t num_players,
                       std::size_t num_objects, std::size_t votes_per_player,
                       bool track_voters)
    : policy_(policy),
      num_players_(num_players),
      num_objects_(num_objects),
      slots_per_player_(std::min(votes_per_player, num_objects)),
      track_voters_(track_voters) {
  ACP_EXPECTS(num_players_ >= 1 && num_players_ <= kMaxIdCount);
  ACP_EXPECTS(num_objects_ >= 1 && num_objects_ <= kMaxIdCount);
  ACP_EXPECTS(votes_per_player >= 1);
  ACP_EXPECTS(policy_ != VotePolicy::kHighestReported ||
              votes_per_player == 1);
  player_votes_.resize(num_players_ * slots_per_player_);
  player_vote_count_.assign(num_players_, 0);
  if (policy_ == VotePolicy::kHighestReported) {
    player_best_value_.assign(num_players_, 0.0);
  }
  object_vote_count_.assign(num_objects_, 0);
  if (track_voters_) {
    object_voters_.resize(num_objects_);
    if (policy_ == VotePolicy::kHighestReported) {
      player_vote_history_.resize(num_players_);
    }
  }
}

void VoteLedger::ingest(const Billboard& billboard) {
  ACP_OBS_TIMED_SCOPE("ledger.ingest");
  ACP_EXPECTS(billboard.num_players() == num_players_);
  ACP_EXPECTS(billboard.num_objects() == num_objects_);
  const PostRange posts = billboard.posts();
  if (posts.size() > posts_consumed_) {
    // Every not-yet-consumed post crosses the board->ledger boundary once.
    obs::meter_read(obs::IoChannel::kLedgerIngest, 1,
                    (posts.size() - posts_consumed_) * obs::kPostWireBits);
  }
  posts.for_each(posts_consumed_, posts.size(), [this](const Post& post) {
    const std::size_t p = post.author.value();
    std::uint32_t& count = player_vote_count_[p];
    ObjectId* const slots = player_votes_.data() + p * slots_per_player_;
    switch (policy_) {
      case VotePolicy::kFirstPositive:
      case VotePolicy::kFirstNegative: {
        const bool wanted_direction =
            policy_ == VotePolicy::kFirstPositive ? post.positive
                                                  : !post.positive;
        if (!wanted_direction) break;
        if (count >= slots_per_player_) break;
        if (std::find(slots, slots + count, post.object) != slots + count)
          break;  // a repeat report on the same object is not a new vote
        slots[count++] = post.object;
        record_vote(post.author, post.object, post.round);
        break;
      }
      case VotePolicy::kHighestReported: {
        // Every report counts; the vote is the best-so-far object and each
        // strict improvement is a fresh vote event (§5.3: the vote of a
        // player can change as the execution progresses).
        if (count != 0 && post.reported_value <= player_best_value_[p]) break;
        count = 1;
        player_best_value_[p] = post.reported_value;
        slots[0] = post.object;
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
  const VoteEvent event{voter, object, round};
  if (events_.empty() || round >= events_.back().round) {
    events_.push_back(event);
  } else {
    pending_events_.push_back(event);
  }
  ++object_vote_count_[object.value()];
  if (!track_voters_) return;
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
  if (pending_events_.empty()) return;
  // Stable by round: within the batch, arrival order breaks ties, and
  // inplace_merge keeps already-logged events ahead of batched ones at
  // equal rounds — the same placement the old upper_bound insert gave.
  const auto by_round = [](const VoteEvent& a, const VoteEvent& b) {
    return a.round < b.round;
  };
  std::stable_sort(pending_events_.begin(), pending_events_.end(), by_round);
  const auto mid = static_cast<std::ptrdiff_t>(events_.size());
  events_.insert(events_.end(), pending_events_.begin(),
                 pending_events_.end());
  std::inplace_merge(events_.begin(), events_.begin() + mid, events_.end(),
                     by_round);
  pending_events_.clear();
}

const std::vector<PlayerId>& VoteLedger::voters_of(ObjectId object) const {
  ACP_EXPECTS(track_voters_);
  ACP_EXPECTS(object.value() < num_objects_);
  return object_voters_[object.value()];
}

std::span<const ObjectId> VoteLedger::votes_of(PlayerId p) const {
  ACP_EXPECTS(p.value() < num_players_);
  return {player_votes_.data() + p.value() * slots_per_player_,
          player_vote_count_[p.value()]};
}

std::optional<ObjectId> VoteLedger::current_vote(PlayerId p) const {
  const auto votes = votes_of(p);
  if (votes.empty()) return std::nullopt;
  return votes.front();
}

std::span<const VoteEvent> VoteLedger::events_in(Round begin,
                                                 Round end) const {
  ACP_EXPECTS(begin <= end);
  const auto before = [](const VoteEvent& e, Round r) { return e.round < r; };
  const auto lo =
      std::lower_bound(events_.begin(), events_.end(), begin, before);
  const auto hi = std::lower_bound(lo, events_.end(), end, before);
  return {lo, hi};
}

Count VoteLedger::votes_in_window(ObjectId object, Round begin,
                                  Round end) const {
  ACP_EXPECTS(object.value() < num_objects_);
  const auto window = events_in(begin, end);
  const auto count =
      std::count_if(window.begin(), window.end(),
                    [object](const VoteEvent& e) { return e.object == object; });
  if (count != 0) {
    obs::meter_read(obs::IoChannel::kLedgerWindow, 1,
                    static_cast<std::uint64_t>(count) * obs::kVoteEventWireBits);
  }
  return static_cast<Count>(count);
}

std::uint32_t VoteLedger::count_window(
    std::span<const VoteEvent> window) const {
  // Walk only the events inside the window (cheap: windows are a few rounds
  // and each player votes O(f) times total under kFirstPositive). The
  // per-object counters are generation-stamped members: no O(m) allocation
  // or zeroing per call, only the touched entries are ever reset.
  if (!window.empty()) {
    obs::meter_read(obs::IoChannel::kLedgerWindow, 1,
                    window.size() * obs::kVoteEventWireBits);
  }
  if (window_stamp_.size() != num_objects_) {
    window_stamp_.assign(num_objects_, 0);
    window_counts_.assign(num_objects_, 0);
  }
  if (++window_epoch_ == 0) {
    std::fill(window_stamp_.begin(), window_stamp_.end(), 0);
    window_epoch_ = 1;
  }
  const std::uint32_t epoch = window_epoch_;
  window_touched_.clear();
  for (const VoteEvent& event : window) {
    const std::size_t obj = event.object.value();
    if (window_stamp_[obj] != epoch) {
      window_stamp_[obj] = epoch;
      window_counts_[obj] = 0;
      window_touched_.push_back(event.object);
    }
    ++window_counts_[obj];
  }
  return epoch;
}

void VoteLedger::votes_in_window_batch(std::span<const ObjectId> objects,
                                       Round begin, Round end,
                                       std::vector<Count>& out) const {
  ACP_OBS_TIMED_SCOPE("ledger.window_query");
  const auto window = events_in(begin, end);
  out.assign(objects.size(), 0);
  if (objects.empty()) return;
  // One sweep over the window's events, then read off the queried objects.
  const std::uint32_t epoch = count_window(window);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    ACP_EXPECTS(objects[i].value() < num_objects_);
    if (window_stamp_[objects[i].value()] == epoch) {
      out[i] = window_counts_[objects[i].value()];
    }
  }
}

Count VoteLedger::total_votes(ObjectId object) const {
  ACP_EXPECTS(object.value() < num_objects_);
  return static_cast<Count>(object_vote_count_[object.value()]);
}

std::vector<ObjectId> VoteLedger::objects_with_votes_in_window(
    Round begin, Round end, Count min_count) const {
  ACP_OBS_TIMED_SCOPE("ledger.window_query");
  ACP_EXPECTS(min_count >= 1);
  (void)count_window(events_in(begin, end));
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
    if (object_vote_count_[i] != 0) result.push_back(ObjectId{i});
  }
  return result;
}

}  // namespace acp
