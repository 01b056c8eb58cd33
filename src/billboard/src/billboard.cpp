#include "acp/billboard/billboard.hpp"

#include "acp/obs/bandwidth.hpp"
#include "acp/obs/timer.hpp"

namespace acp {
namespace {

// Authoritative commits are the protocol's writes to the shared board,
// attributed to each post's author. Replica commits are excluded: a
// replica ingesting gossip would double-count traffic already metered at
// the gossip exchange.
void meter_commit(Billboard::Mode mode, std::span<const Post> posts) {
  if (mode != Billboard::Mode::kAuthoritative || !obs::BandwidthMeter::enabled()) {
    return;
  }
  for (const Post& p : posts) {
    obs::BandwidthMeter::add_write_for(obs::IoChannel::kBillboardCommit,
                                       obs::kPostWireBits, p.author);
  }
}

}  // namespace

Billboard::Billboard(std::size_t num_players, std::size_t num_objects,
                     Mode mode)
    : num_players_(num_players), num_objects_(num_objects), mode_(mode) {
  // Ids are 32-bit (acp/util/types.hpp), so counts stop at kMaxIdCount.
  ACP_EXPECTS(num_players_ >= 1 && num_players_ <= kMaxIdCount);
  ACP_EXPECTS(num_objects_ >= 1 && num_objects_ <= kMaxIdCount);
}

Billboard::Billboard(std::size_t num_players, std::size_t num_objects,
                     const std::vector<Post>& arena)
    : Billboard(num_players, num_objects, Mode::kReplica) {
  arena_ = &arena;
}

std::uint64_t Billboard::open_round(Round round) {
  ACP_EXPECTS(round > last_round_);
  if (mode_ == Mode::kAuthoritative && author_stamp_.size() != num_players_) {
    author_stamp_.assign(num_players_, 0);
  }
  return ++commit_epoch_;
}

inline void Billboard::check_post(Round round, const Post& p,
                                  std::uint64_t epoch) {
  ACP_EXPECTS(p.author.value() < num_players_);
  ACP_EXPECTS(p.object.value() < num_objects_);
  ACP_EXPECTS(p.reported_value >= 0.0);
  if (mode_ == Mode::kAuthoritative) {
    ACP_EXPECTS(p.round == round);
    // One post per author per round (a player takes one step per round).
    ACP_EXPECTS(author_stamp_[p.author.value()] != epoch);
    author_stamp_[p.author.value()] = epoch;
  } else {
    // Replica: the gossip layer cannot deliver posts from the future.
    ACP_EXPECTS(p.round <= round);
  }
}

void Billboard::commit_round(Round round, std::vector<Post> posts) {
  commit_round_from(round, posts);
}

void Billboard::commit_round_from(Round round, std::span<const Post> posts) {
  ACP_OBS_TIMED_SCOPE("billboard.commit_round");
  ACP_EXPECTS(arena_ == nullptr);
  const std::uint64_t epoch = open_round(round);
  for (const Post& p : posts) check_post(round, p, epoch);
  meter_commit(mode_, posts);
  log_.append(posts);  // a failed allocation leaves the board unchanged
  last_round_ = round;
}

void Billboard::commit_ids(Round round, std::span<const PostId> ids) {
  ACP_OBS_TIMED_SCOPE("billboard.commit_round");
  ACP_EXPECTS(arena_ != nullptr);
  const std::vector<Post>& arena = *arena_;
  const std::uint64_t epoch = open_round(round);
  for (const PostId id : ids) {
    ACP_EXPECTS(id < arena.size());
    check_post(round, arena[id], epoch);
  }
  last_round_ = round;
  // Arena boards are replicas, which meter_commit never meters.
  ids_.insert(ids_.end(), ids.begin(), ids.end());
}

}  // namespace acp
