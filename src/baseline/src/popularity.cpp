#include "acp/baseline/popularity.hpp"

#include "acp/util/contracts.hpp"

namespace acp {

PopularityProtocol::PopularityProtocol(double follow_prob)
    : follow_prob_(follow_prob) {
  ACP_EXPECTS(follow_prob_ >= 0.0 && follow_prob_ <= 1.0);
}

void PopularityProtocol::initialize(const WorldView& world,
                                    std::size_t /*num_players*/) {
  m_ = world.num_objects();
  posts_consumed_ = 0;
  score_.assign(m_, 0);
  total_score_ = 0;
}

void PopularityProtocol::on_round_begin(Round /*round*/,
                                        const Billboard& billboard) {
  const PostRange posts = billboard.posts();
  posts.for_each(posts_consumed_, posts.size(), [this](const Post& post) {
    if (!post.positive) return;
    ++score_[post.object.value()];  // every repeat counts: no vote cap
    ++total_score_;
  });
  posts_consumed_ = posts.size();
}

Count PopularityProtocol::popularity(ObjectId object) const {
  ACP_EXPECTS(object.value() < m_);
  return score_[object.value()];
}

std::optional<ObjectId> PopularityProtocol::choose_probe(PlayerId /*player*/,
                                                         Round /*round*/,
                                                         Rng& rng) {
  if (total_score_ > 0 && rng.bernoulli(follow_prob_)) {
    // Sample proportionally to raw popularity.
    auto pick = static_cast<Count>(
        rng.uniform_below(static_cast<std::uint64_t>(total_score_)));
    for (std::size_t i = 0; i < m_; ++i) {
      if (pick < score_[i]) return ObjectId{i};
      pick -= score_[i];
    }
  }
  return ObjectId{rng.index(m_)};
}

StepOutcome PopularityProtocol::on_probe_result(PlayerId /*player*/,
                                                Round /*round*/,
                                                ObjectId object, double value,
                                                double /*cost*/,
                                                bool locally_good,
                                                Rng& /*rng*/) {
  return StepOutcome{ProbeReport{object, value, locally_good}, locally_good};
}

}  // namespace acp
