// Reference-model differential test for DISTILL's candidate-set logic:
// an independent, naive re-derivation of the phase schedule and candidate
// sets from the raw post log must agree with the protocol's incremental
// computation at every boundary. (The ledger has its own differential
// test; this one covers the protocol layer on top.)
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "acp/adversary/strategies.hpp"
#include "test_support.hpp"

namespace acp::test {
namespace {

/// Naive model of the Figure 1 schedule: recompute S/C0/C_t from scratch
/// from the post log whenever asked. Deliberately different code: votes
/// are recounted by scanning posts, windows by filtering, no indexes.
class NaiveDistillModel {
 public:
  NaiveDistillModel(const DistillParams& params, std::size_t n,
                    std::size_t m, double beta)
      : params_(params), n_(n), m_(m), beta_(beta) {}

  /// First f distinct positive objects per author, with the round of the
  /// counting post, considering posts with round < visible_end.
  std::vector<std::tuple<std::size_t, std::size_t, Round>> votes(
      const std::vector<Post>& posts, Round visible_end) const {
    std::map<std::size_t, std::set<std::size_t>> per_author;
    std::vector<std::tuple<std::size_t, std::size_t, Round>> result;
    for (const Post& post : posts) {
      if (post.round >= visible_end) continue;
      if (!post.positive) continue;
      auto& mine = per_author[post.author.value()];
      if (mine.size() >= params_.votes_per_player) continue;
      if (!mine.insert(post.object.value()).second) continue;
      result.emplace_back(post.author.value(), post.object.value(),
                          post.round);
    }
    return result;
  }

  std::set<std::size_t> objects_with_any_vote(
      const std::vector<Post>& posts, Round visible_end) const {
    std::set<std::size_t> objects;
    for (const auto& [author, object, round] : votes(posts, visible_end)) {
      objects.insert(object);
    }
    return objects;
  }

  std::set<std::size_t> objects_with_window_votes(
      const std::vector<Post>& posts, Round begin, Round end,
      double min_count) const {
    std::map<std::size_t, int> counts;
    for (const auto& [author, object, round] : votes(posts, end)) {
      if (round >= begin && round < end) ++counts[object];
    }
    std::set<std::size_t> objects;
    for (const auto& [object, count] : counts) {
      if (static_cast<double>(count) >= min_count) objects.insert(object);
    }
    return objects;
  }

  Round step11_rounds() const {
    return 2 * static_cast<Round>(std::max(
                   1.0, std::ceil(params_.k1 /
                                  (params_.alpha * beta_ *
                                   static_cast<double>(n_)))));
  }
  Round step13_rounds() const {
    return 2 * static_cast<Round>(
                   std::max(1.0, std::ceil(params_.k2 / params_.alpha)));
  }
  Round step2_rounds() const {
    return 2 * static_cast<Round>(
                   std::max(1.0, std::ceil(1.0 / params_.alpha)));
  }

 private:
  DistillParams params_;
  std::size_t n_;
  std::size_t m_;
  double beta_;
};

/// Observer adversary: snapshots the protocol's candidate set and phase at
/// every phase-window entry together with the post log at that moment.
class BoundaryRecorder final : public Adversary {
 public:
  struct Snapshot {
    DistillProtocol::Phase phase;
    Round window_start = 0;
    std::vector<ObjectId> candidates;
    std::vector<Post> posts;  // visible posts (rounds < window_start)
  };

  explicit BoundaryRecorder(const DistillProtocol& protocol)
      : protocol_(&protocol) {}

  void plan_round(const AdversaryContext& ctx, std::vector<Post>&,
                  Rng&) override {
    const Round window = protocol_->phase_window_start();
    if (primed_ && window == last_window_ &&
        protocol_->phase() == last_phase_) {
      return;
    }
    primed_ = true;
    last_window_ = window;
    last_phase_ = protocol_->phase();
    snapshots_.push_back(Snapshot{protocol_->phase(), window,
                                  protocol_->candidates(),
                                  ctx.billboard.posts().to_vector()});
  }

  std::vector<Snapshot> snapshots_;

 private:
  const DistillProtocol* protocol_;
  bool primed_ = false;
  Round last_window_ = -1;
  DistillProtocol::Phase last_phase_ = DistillProtocol::Phase::kStep11;
};

class DistillModelSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(DistillModelSweep, CandidateSetsMatchNaiveRecomputation) {
  const auto [alpha, seed] = GetParam();
  const std::size_t n = 96;
  auto scenario = Scenario::make(
      n, static_cast<std::size_t>(alpha * static_cast<double>(n)), n, 1, seed);
  DistillParams params = basic_params(alpha);
  DistillProtocol protocol(params);
  BoundaryRecorder recorder(protocol);
  const RunResult result =
      SyncEngine::run(scenario.world, scenario.population, protocol,
                      recorder, {.max_rounds = 300000, .seed = seed + 7});
  ASSERT_TRUE(result.all_honest_satisfied);

  const NaiveDistillModel model(params, n, n, scenario.world.beta());

  // Replay the snapshots, tracking the expected schedule independently.
  Round expected_start = 0;
  DistillProtocol::Phase expected_phase = DistillProtocol::Phase::kStep11;
  Round step13_start = 0;
  std::set<std::size_t> expected_candidates;

  for (std::size_t i = 0; i < recorder.snapshots_.size(); ++i) {
    const auto& snap = recorder.snapshots_[i];
    ASSERT_EQ(snap.phase, expected_phase) << "snapshot " << i;
    ASSERT_EQ(snap.window_start, expected_start) << "snapshot " << i;

    // Check candidates against the naive recomputation.
    if (expected_phase != DistillProtocol::Phase::kStep11) {
      std::set<std::size_t> got;
      for (ObjectId obj : snap.candidates) got.insert(obj.value());
      EXPECT_EQ(got, expected_candidates) << "snapshot " << i;
    } else {
      EXPECT_TRUE(snap.candidates.empty());
    }

    // Derive the next boundary's phase + candidates naively.
    switch (expected_phase) {
      case DistillProtocol::Phase::kStep11: {
        const Round end = expected_start + model.step11_rounds();
        expected_candidates =
            model.objects_with_any_vote(snap.posts, end);
        // The snapshot's posts only cover rounds < window_start; extend
        // with the full history via the NEXT snapshot's posts when
        // checking. Simpler: recompute from the next snapshot.
        if (i + 1 < recorder.snapshots_.size()) {
          expected_candidates = model.objects_with_any_vote(
              recorder.snapshots_[i + 1].posts, end);
        }
        expected_phase = DistillProtocol::Phase::kStep13;
        step13_start = end;
        expected_start = end;
        break;
      }
      case DistillProtocol::Phase::kStep13: {
        const Round end = expected_start + model.step13_rounds();
        if (i + 1 < recorder.snapshots_.size()) {
          const double min_votes =
              std::max(1.0, std::ceil(0.25 * params.k2));
          expected_candidates = model.objects_with_window_votes(
              recorder.snapshots_[i + 1].posts, step13_start, end,
              min_votes);
        }
        expected_phase = expected_candidates.empty()
                             ? DistillProtocol::Phase::kStep11
                             : DistillProtocol::Phase::kStep2;
        expected_start = end;
        break;
      }
      case DistillProtocol::Phase::kStep2: {
        const Round end = expected_start + model.step2_rounds();
        if (i + 1 < recorder.snapshots_.size()) {
          const double threshold =
              static_cast<double>(n) /
                  (4.0 * static_cast<double>(expected_candidates.size())) +
              1e-12;  // strict ">" via epsilon on the >= helper
          auto survivors = model.objects_with_window_votes(
              recorder.snapshots_[i + 1].posts, expected_start, end,
              threshold);
          std::set<std::size_t> next;
          for (std::size_t obj : survivors) {
            if (expected_candidates.count(obj) > 0) next.insert(obj);
          }
          expected_candidates = std::move(next);
        }
        expected_phase = expected_candidates.empty()
                             ? DistillProtocol::Phase::kStep11
                             : DistillProtocol::Phase::kStep2;
        expected_start = end;
        break;
      }
    }
  }
  // The test is vacuous if the run never left Step 1.1.
  EXPECT_GE(recorder.snapshots_.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistillModelSweep,
    ::testing::Combine(::testing::Values(0.25, 0.5, 1.0),
                       ::testing::Values<std::uint64_t>(11, 23, 37)));

}  // namespace
}  // namespace acp::test
