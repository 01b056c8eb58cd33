#include "acp/scenario/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "acp/scenario/build.hpp"

namespace acp::scenario {
namespace {

template <class Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

bool has(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(ScenarioRegistry, EveryBuiltinIsRegistered) {
  const auto protocols = registries().protocols.names();
  for (const char* name :
       {"distill", "distill-hp", "guess-alpha", "cost-classes", "no-lt",
        "collab", "trivial", "popularity", "full-coop"}) {
    EXPECT_TRUE(has(protocols, name)) << name;
  }
  const auto adversaries = registries().adversaries.names();
  for (const char* name : {"silent", "slander", "eager", "collude", "spam",
                           "splitvote", "liar", "targeted-slander"}) {
    EXPECT_TRUE(has(adversaries, name)) << name;
  }
}

TEST(ScenarioRegistry, UnknownProtocolListsRegisteredNames) {
  ScenarioSpec spec;
  Rng rng(1);
  const World world = build_world(spec, rng);
  const std::string message = error_of([&] {
    (void)registries().protocols.make("distil",
                                      ProtocolBuildContext{spec, world});
  });
  EXPECT_NE(message.find("distil"), std::string::npos);
  EXPECT_NE(message.find("distill-hp"), std::string::npos);
  EXPECT_NE(message.find("guess-alpha"), std::string::npos);
}

TEST(ScenarioRegistry, UnknownAdversaryListsRegisteredNames) {
  ScenarioSpec spec;
  Rng rng(1);
  const World world = build_world(spec, rng);
  auto protocol =
      registries().protocols.make("distill", ProtocolBuildContext{spec, world});
  const std::string message = error_of([&] {
    (void)registries().adversaries.make(
        "slender", AdversaryBuildContext{spec, *protocol});
  });
  EXPECT_NE(message.find("slender"), std::string::npos);
  EXPECT_NE(message.find("slander"), std::string::npos);
  EXPECT_NE(message.find("splitvote"), std::string::npos);
}

TEST(ScenarioRegistry, UnknownProtocolParamListsKnownKnobs) {
  ScenarioSpec spec;
  spec.protocol_params.set("bogus_knob", 1.0);
  Rng rng(1);
  const World world = build_world(spec, rng);
  const std::string message = error_of([&] {
    (void)registries().protocols.make("distill",
                                      ProtocolBuildContext{spec, world});
  });
  EXPECT_NE(message.find("bogus_knob"), std::string::npos);
  EXPECT_NE(message.find("k1"), std::string::npos);
}

TEST(ScenarioRegistry, SplitVoteRequiresDistill) {
  ScenarioSpec spec;
  spec.n = 16;
  spec.m = 16;
  spec.protocol = "trivial";
  spec.adversary = "splitvote";
  const std::string message =
      error_of([&] { (void)run_scenario_trial(spec, 1); });
  EXPECT_NE(message.find("splitvote"), std::string::npos);
  EXPECT_NE(message.find("trivial"), std::string::npos);
}

TEST(ScenarioRegistry, SplitVoteOverBudgetIsASpecError) {
  ScenarioSpec spec;
  spec.n = 16;
  spec.m = 16;
  spec.adversary = "splitvote";
  apply_override(spec, "adversary.flood_budget_fraction=0.7");
  apply_override(spec, "adversary.seed_budget_fraction=0.4");
  const std::string message =
      error_of([&] { (void)run_scenario_trial(spec, 1); });
  EXPECT_NE(message.find("flood_budget_fraction"), std::string::npos);
  EXPECT_NE(message.find("seed_budget_fraction"), std::string::npos);

  apply_override(spec, "adversary.seed_budget_fraction=0.3");  // sum 1.0
  EXPECT_NO_THROW((void)run_scenario_trial(spec, 1));

  apply_override(spec, "adversary.flood_budget_fraction=-0.1");
  EXPECT_NE(error_of([&] { (void)run_scenario_trial(spec, 1); })
                .find("flood_budget_fraction"),
            std::string::npos);
}

TEST(ScenarioRegistry, SplitVoteRejectedOnGossip) {
  ScenarioSpec spec;
  spec.n = 16;
  spec.m = 16;
  spec.engine = "gossip";
  spec.adversary = "splitvote";
  const std::string message =
      error_of([&] { (void)run_scenario_trial(spec, 1); });
  EXPECT_NE(message.find("gossip"), std::string::npos);
}

TEST(ScenarioRegistry, AsyncRestrictedToAsyncNativeProtocols) {
  ScenarioSpec spec;
  spec.n = 16;
  spec.m = 16;
  spec.engine = "async";
  const std::string message =
      error_of([&] { (void)run_scenario_trial(spec, 1); });
  EXPECT_NE(message.find("lockstep"), std::string::npos);
}

TEST(ScenarioRegistry, EveryProtocolRunsOneTrial) {
  for (const std::string& name : registries().protocols.names()) {
    ScenarioSpec spec;
    spec.n = 24;
    spec.m = 24;
    spec.good = 2;
    spec.protocol = name;
    const RunResult result = run_scenario_trial(spec, 7);
    EXPECT_EQ(result.players.size(), 24u) << name;
    EXPECT_GT(result.rounds_executed, 0) << name;
  }
}

TEST(ScenarioRegistry, EveryAdversaryRunsOneTrial) {
  for (const std::string& name : registries().adversaries.names()) {
    ScenarioSpec spec;
    spec.n = 24;
    spec.m = 24;
    spec.good = 2;
    spec.adversary = name;
    const RunResult result = run_scenario_trial(spec, 7);
    EXPECT_EQ(result.players.size(), 24u) << name;
  }
}

TEST(ScenarioRegistry, HonestCountRoundsToNearest) {
  EXPECT_EQ(honest_count(0.5, 256), 128u);
  EXPECT_EQ(honest_count(0.7, 10), 7u);  // a truncating cast said 6
  EXPECT_EQ(honest_count(1.0, 10), 10u);
  EXPECT_EQ(honest_count(0.001, 10), 0u);
  EXPECT_EQ(honest_count(2.0, 10), 10u);  // clamped to n
}

}  // namespace
}  // namespace acp::scenario
