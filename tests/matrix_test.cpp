// Matrix completeness: every (protocol, adversary) pairing the library
// offers must run to a sane outcome. This is the compatibility contract a
// downstream user relies on when mixing components; each cell runs small
// and fast. The observer adversaries (split-vote, targeted slander) watch
// one DistillProtocol instance, so they pair only with the DISTILL
// protocols; every other adversary pairs with every protocol.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "acp/adversary/split_vote.hpp"
#include "acp/adversary/strategies.hpp"
#include "acp/adversary/targeted_slander.hpp"
#include "acp/baseline/collab_baseline.hpp"
#include "acp/baseline/popularity.hpp"
#include "acp/baseline/trivial_random.hpp"
#include "acp/core/cost_classes.hpp"
#include "acp/core/guess_alpha.hpp"
#include "test_support.hpp"

namespace acp::test {
namespace {

enum class P {
  kDistill,
  kDistillHp,
  kGuessAlpha,
  kCollab,
  kTrivial,
  kPopularity,
};
enum class A {
  kSilent,
  kSlander,
  kEager,
  kCollude,
  kSpam,
  kSplitVote,
  kTargetedSlander,
};

using Cell = std::tuple<P, A>;

class Matrix : public ::testing::TestWithParam<Cell> {};

TEST_P(Matrix, PairingRunsToCompletion) {
  const auto [p, a] = GetParam();
  const double alpha = 0.5;
  auto scenario = Scenario::make(48, 24, 48, 2, 271);

  std::unique_ptr<Protocol> protocol;
  switch (p) {
    case P::kDistill:
      protocol = std::make_unique<DistillProtocol>(basic_params(alpha));
      break;
    case P::kDistillHp:
      protocol = std::make_unique<DistillProtocol>(make_hp_params(alpha, 48));
      break;
    case P::kGuessAlpha:
      protocol = std::make_unique<GuessAlphaProtocol>();
      break;
    case P::kCollab:
      protocol = std::make_unique<CollabBaselineProtocol>();
      break;
    case P::kTrivial:
      protocol = std::make_unique<TrivialRandomProtocol>();
      break;
    case P::kPopularity:
      protocol = std::make_unique<PopularityProtocol>();
      break;
  }

  auto* distill = dynamic_cast<DistillProtocol*>(protocol.get());
  std::unique_ptr<Adversary> adversary;
  switch (a) {
    case A::kSilent:
      adversary = std::make_unique<SilentAdversary>();
      break;
    case A::kSlander:
      adversary = std::make_unique<SlandererAdversary>();
      break;
    case A::kEager:
      adversary = std::make_unique<EagerVoteAdversary>();
      break;
    case A::kCollude:
      adversary = std::make_unique<CollusionAdversary>(3);
      break;
    case A::kSpam:
      adversary = std::make_unique<SpamAdversary>(3);
      break;
    case A::kSplitVote:
      ASSERT_NE(distill, nullptr) << "observer adversaries need DISTILL";
      adversary = std::make_unique<SplitVoteAdversary>(*distill);
      break;
    case A::kTargetedSlander:
      ASSERT_NE(distill, nullptr) << "observer adversaries need DISTILL";
      adversary = std::make_unique<TargetedSlanderAdversary>(*distill);
      break;
  }

  const RunResult result =
      SyncEngine::run(scenario.world, scenario.population, *protocol,
                      *adversary, {.max_rounds = 100000, .seed = 272});
  EXPECT_TRUE(result.all_honest_satisfied);
  EXPECT_DOUBLE_EQ(result.honest_success_fraction(), 1.0);
}

/// Every protocol against every non-observer adversary, then the DISTILL
/// protocols against the observer adversaries: the cells that can run.
std::vector<Cell> runnable_cells() {
  std::vector<Cell> cells;
  for (const P p : {P::kDistill, P::kDistillHp, P::kGuessAlpha, P::kCollab,
                    P::kTrivial, P::kPopularity}) {
    for (const A a :
         {A::kSilent, A::kSlander, A::kEager, A::kCollude, A::kSpam}) {
      cells.emplace_back(p, a);
    }
  }
  for (const P p : {P::kDistill, P::kDistillHp}) {
    for (const A a : {A::kSplitVote, A::kTargetedSlander}) {
      cells.emplace_back(p, a);
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, Matrix,
                         ::testing::ValuesIn(runnable_cells()));

}  // namespace
}  // namespace acp::test
