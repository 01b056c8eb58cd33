#include "acp/core/distill.hpp"

#include <algorithm>
#include <cmath>

#include "acp/obs/timer.hpp"
#include "acp/util/contracts.hpp"
#include "acp/util/math.hpp"

namespace acp {

DistillProtocol::DistillProtocol(DistillParams params)
    : params_(std::move(params)) {
  ACP_EXPECTS(params_.alpha > 0.0 && params_.alpha <= 1.0);
  ACP_EXPECTS(params_.k1 > 0.0);
  ACP_EXPECTS(params_.k2 > 0.0);
  ACP_EXPECTS(params_.votes_per_player >= 1);
  ACP_EXPECTS(params_.error_vote_prob >= 0.0 && params_.error_vote_prob < 1.0);
  ACP_EXPECTS(params_.survival_divisor > 0.0);
  ACP_EXPECTS(params_.c0_vote_fraction > 0.0);
  ACP_EXPECTS(params_.veto_fraction >= 0.0 && params_.veto_fraction <= 1.0);
  ACP_EXPECTS(params_.negative_votes_per_player >= 1);
  // The veto variant reuses the first-positive machinery; no-local-testing
  // mode has no negative reports to read.
  ACP_EXPECTS(params_.veto_fraction == 0.0 || params_.local_testing);
  ACP_EXPECTS(!params_.beta_override.has_value() ||
              (*params_.beta_override > 0.0 && *params_.beta_override <= 1.0));
  // The §5.3 variant needs a prescribed stop time and a single mutable vote.
  ACP_EXPECTS(params_.local_testing || params_.horizon.has_value());
  ACP_EXPECTS(params_.local_testing || params_.votes_per_player == 1);
  if (params_.horizon.has_value()) ACP_EXPECTS(*params_.horizon > 0);
}

void DistillProtocol::initialize(const WorldView& world,
                                 std::size_t num_players) {
  n_ = num_players;
  m_ = world.num_objects();
  beta_ = params_.beta_override.value_or(world.beta());
  ACP_EXPECTS(n_ >= 1);
  ACP_EXPECTS(beta_ > 0.0 && beta_ <= 1.0);

  const VotePolicy policy = params_.local_testing
                                ? VotePolicy::kFirstPositive
                                : VotePolicy::kHighestReported;
  // Only trust-weighted advice reads voters_of, so only it pays for the
  // per-object voter lists.
  ledger_.emplace(policy, n_, m_, params_.votes_per_player,
                  /*track_voters=*/params_.trust_weighted_advice);
  negative_ledger_.reset();
  if (params_.veto_fraction > 0.0) {
    negative_ledger_.emplace(VotePolicy::kFirstNegative, n_, m_,
                             params_.negative_votes_per_player);
  }
  votes_cast_.assign(n_, 0);
  trust_.clear();
  if (params_.trust_weighted_advice) {
    if (imported_trust_.size() == n_) {
      trust_ = std::move(imported_trust_);  // carried over from a prior run
    } else {
      trust_.assign(n_, std::vector<int>(n_, 0));
    }
    imported_trust_.clear();
  }

  universe_mask_.clear();
  if (params_.universe.has_value()) {
    ACP_EXPECTS(!params_.universe->empty());
    universe_mask_.assign(m_, false);
    for (ObjectId obj : *params_.universe) {
      ACP_EXPECTS(obj.value() < m_);
      universe_mask_[obj.value()] = true;
    }
  }

  started_ = false;
  candidates_.clear();
  iteration_ = 0;
  attempts_started_ = 0;
}

Round DistillProtocol::rounds_per_invocation() const noexcept {
  return params_.use_advice ? 2 : 1;
}

Round DistillProtocol::step11_rounds() const {
  const double alpha_beta_n = params_.alpha * beta_ * static_cast<double>(n_);
  return rounds_per_invocation() * ceil_rounds(params_.k1 / alpha_beta_n);
}

Round DistillProtocol::step13_rounds() const {
  return rounds_per_invocation() *
         ceil_rounds(params_.k2 / params_.alpha);
}

Round DistillProtocol::step2_iteration_rounds() const {
  return rounds_per_invocation() * ceil_rounds(1.0 / params_.alpha);
}

const VoteLedger& DistillProtocol::ledger() const {
  ACP_EXPECTS(ledger_.has_value());
  return *ledger_;
}

bool DistillProtocol::in_universe(ObjectId object) const {
  return universe_mask_.empty() || universe_mask_[object.value()];
}

std::vector<ObjectId> DistillProtocol::filter_universe(
    std::vector<ObjectId> objects) const {
  if (universe_mask_.empty()) return objects;
  std::erase_if(objects,
                [this](ObjectId obj) { return !in_universe(obj); });
  return objects;
}

void DistillProtocol::enter_step11(Round round) {
  ++attempts_started_;
  phase_ = Phase::kStep11;
  phase_start_ = round;
  phase_end_ = round + step11_rounds();
  probe_whole_universe_ = true;
  candidates_.clear();
  iteration_ = 0;
}

void DistillProtocol::apply_veto(std::vector<ObjectId>& objects, Round begin,
                                 Round end) {
  if (!negative_ledger_.has_value()) return;
  const double threshold =
      params_.veto_fraction * static_cast<double>(n_);
  negative_ledger_->votes_in_window_batch(objects, begin, end, batch_counts_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (static_cast<double>(batch_counts_[i]) <= threshold) {
      objects[kept++] = objects[i];
    }
  }
  objects.resize(kept);
}

void DistillProtocol::on_round_begin(Round round, const Billboard& billboard) {
  ACP_OBS_TIMED_SCOPE("distill.rule_eval");
  ACP_EXPECTS(ledger_.has_value());
  ledger_->ingest(billboard);
  if (negative_ledger_.has_value()) negative_ledger_->ingest(billboard);

  if (!started_) {
    started_ = true;
    enter_step11(round);
    return;
  }
  if (round < phase_end_) return;
  ACP_ASSERT(round == phase_end_);

  switch (phase_) {
    case Phase::kStep11: {
      // Step 1.2: S = objects with at least one vote (whole history — the
      // one-vote rule already caps |S| at f*n).
      candidates_ = filter_universe(ledger_->objects_with_any_vote());
      phase_ = Phase::kStep13;
      phase_start_ = round;
      phase_end_ = round + step13_rounds();
      probe_whole_universe_ = false;
      break;
    }
    case Phase::kStep13: {
      // Step 1.4: C0 = objects with at least k2/4 votes cast during 1.3.
      const auto min_votes = static_cast<Count>(std::max(
          1.0, std::ceil(params_.c0_vote_fraction * params_.k2)));
      candidates_ = filter_universe(ledger_->objects_with_votes_in_window(
          phase_start_, round, min_votes));
      apply_veto(candidates_, phase_start_, round);
      iteration_ = 0;
      if (candidates_.empty()) {
        enter_step11(round);  // c_0 = 0: this ATTEMPT failed, start over
      } else {
        phase_ = Phase::kStep2;
        phase_start_ = round;
        phase_end_ = round + step2_iteration_rounds();
      }
      break;
    }
    case Phase::kStep2: {
      // Step 2.2: survivors need l_t(i) > n/(4 c_t) votes from this
      // iteration's window alone.
      const double ct = static_cast<double>(candidates_.size());
      const double threshold =
          static_cast<double>(n_) / (params_.survival_divisor * ct);
      ledger_->votes_in_window_batch(candidates_, phase_start_, round,
                                     batch_counts_);
      std::size_t kept = 0;
      for (std::size_t i = 0; i < candidates_.size(); ++i) {
        if (static_cast<double>(batch_counts_[i]) > threshold) {
          candidates_[kept++] = candidates_[i];
        }
      }
      candidates_.resize(kept);
      apply_veto(candidates_, phase_start_, round);
      ++iteration_;
      if (candidates_.empty()) {
        enter_step11(round);  // while loop exit: invoke ATTEMPT again
      } else {
        phase_start_ = round;
        phase_end_ = round + step2_iteration_rounds();
      }
      break;
    }
  }
}

std::optional<ObjectId> DistillProtocol::choose_probe(PlayerId player,
                                                      Round round, Rng& rng) {
  ACP_EXPECTS(started_);
  const Round offset = round - phase_start_;
  ACP_ASSERT(offset >= 0 && round < phase_end_);

  const bool advice_round =
      params_.use_advice && (offset % 2 == 1);
  if (advice_round) {
    // Seek advice: probe the object a random player votes for, if it
    // exists (and lies in the allowed universe). Figure 1 picks the player
    // uniformly; the trust-weighted variant (§6 exploration) weights the
    // pick by this player's local experience with past advice.
    PlayerId j{rng.index(n_)};
    if (params_.trust_weighted_advice) {
      // Weight w_q: distrusted advisors (negative trust — under local
      // testing a vote that led to a bad object is proof of dishonesty or
      // of an erroneous vote) get weight 0; unknown advisors weight 1;
      // proven-good advisors trust+1. Linear-scan sampling; the total is
      // positive because unexplored players always carry weight 1.
      const auto& trust_row = trust_[player.value()];
      const auto weight_of = [](int t) {
        return t < 0 ? std::uint64_t{0} : static_cast<std::uint64_t>(t) + 1;
      };
      std::uint64_t total = 0;
      for (int t : trust_row) total += weight_of(t);
      if (total > 0) {
        std::uint64_t pick = rng.uniform_below(total);
        for (std::size_t q = 0; q < n_; ++q) {
          const std::uint64_t w = weight_of(trust_row[q]);
          if (pick < w) {
            j = PlayerId{q};
            break;
          }
          pick -= w;
        }
      }
    }
    // Count-then-select over the advisor's (tiny, <= f) vote list: the
    // same draw sequence as materializing the admissible subset — one
    // rng.index(count) iff nonempty, picking the k-th admissible vote —
    // but allocation-free and without mutable scratch, which choose_probe
    // must not touch (it runs concurrently across players under the
    // parallel round kernel).
    const auto votes = ledger_->votes_of(j);
    std::size_t admissible = 0;
    for (ObjectId obj : votes) {
      if (in_universe(obj)) ++admissible;
    }
    if (admissible == 0) return std::nullopt;
    std::size_t pick = rng.index(admissible);
    for (ObjectId obj : votes) {
      if (!in_universe(obj)) continue;
      if (pick == 0) return obj;
      --pick;
    }
    ACP_ASSERT(false);  // the count above covers every admissible vote
    return std::nullopt;
  }

  // Candidate probe: a uniformly random object of the current set.
  if (probe_whole_universe_) {
    if (params_.universe.has_value()) {
      return (*params_.universe)[rng.index(params_.universe->size())];
    }
    return ObjectId{rng.index(m_)};
  }
  if (candidates_.empty()) return std::nullopt;
  return candidates_[rng.index(candidates_.size())];
}

StepOutcome DistillProtocol::on_probe_result(PlayerId player, Round /*round*/,
                                             ObjectId object, double value,
                                             double /*cost*/,
                                             bool locally_good, Rng& rng) {
  if (params_.trust_weighted_advice && params_.local_testing) {
    // Settle trust against every public voter of the probed object: the
    // probe verified the object, and the billboard attributes the votes.
    // One personally-verified bad object burns all its endorsers.
    auto& trust_row = trust_[player.value()];
    for (PlayerId voter : ledger_->voters_of(object)) {
      if (locally_good) {
        ++trust_row[voter.value()];
      } else {
        trust_row[voter.value()] =
            std::min(trust_row[voter.value()], -1);
      }
    }
  }
  StepOutcome out;
  if (!params_.local_testing) {
    // §5.3: report every probe truthfully; the highest-reported ledger
    // derives the (mutable) vote; nobody halts before the horizon.
    out.post = ProbeReport{object, value, /*positive=*/false};
    return out;
  }

  bool positive = locally_good;
  if (!locally_good && params_.error_vote_prob > 0.0 &&
      votes_cast_[player.value()] < params_.votes_per_player &&
      rng.bernoulli(params_.error_vote_prob)) {
    positive = true;  // §4.1: an honest mistake burns a vote slot
  }
  if (positive) ++votes_cast_[player.value()];
  out.post = ProbeReport{object, value, positive};
  out.halt = locally_good;  // Figure 1's Termination rule
  return out;
}

bool DistillProtocol::wants_halt_all(Round round) const {
  return !params_.local_testing && round + 1 >= *params_.horizon;
}

}  // namespace acp
