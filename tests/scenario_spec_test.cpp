#include "acp/scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace acp::scenario {
namespace {

/// Run `fn`, which must throw std::invalid_argument, and return the
/// message so tests can assert on its content.
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

ScenarioSpec make_full_spec() {
  ScenarioSpec spec;
  spec.name = "tab2-multicost";
  spec.description = "cost classes under collusion";
  spec.n = 100;
  spec.m = 80;
  spec.good = 5;
  spec.alpha = 0.7;
  spec.world = "cost-classes";
  spec.cost_classes = 5;
  spec.cheapest_good_class = 2;
  spec.protocol = "cost-classes";
  spec.protocol_params.set("k_h", 6.0);
  spec.protocol_params.set("c1", 3.0);
  spec.adversary = "collude";
  spec.adversary_params.set("decoys", 7.0);
  spec.engine = "sync";
  spec.scheduler = "random";
  spec.fanout = 3;
  spec.max_rounds = 12345;
  spec.max_steps = 67890;
  spec.arrival_window = 10;
  spec.depart_frac = 0.25;
  spec.depart_round = 40;
  spec.trials = 7;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.threads = 4;
  return spec;
}

TEST(ScenarioSpec, RoundTripPreservesEveryField) {
  const ScenarioSpec spec = make_full_spec();
  const ScenarioSpec loaded = ScenarioSpec::from_json(spec.to_json_string());
  EXPECT_EQ(loaded, spec);
}

TEST(ScenarioSpec, DefaultSpecRoundTrips) {
  const ScenarioSpec spec;
  EXPECT_EQ(ScenarioSpec::from_json(spec.to_json_string()), spec);
}

TEST(ScenarioSpec, SeedSurvivesAbove2Pow53) {
  // Seeds are full 64-bit; a double round-trip would clip this one.
  ScenarioSpec spec;
  spec.seed = (1ull << 53) + 1;
  EXPECT_EQ(ScenarioSpec::from_json(spec.to_json_string()).seed,
            (1ull << 53) + 1);
}

TEST(ScenarioSpec, PartialDocumentFallsBackToDefaults) {
  const ScenarioSpec spec = ScenarioSpec::from_json(
      R"({"schema": "acp.scenario.v1", "world": {"n": 64}})");
  EXPECT_EQ(spec.n, 64u);
  EXPECT_EQ(spec.m, 256u);  // default
  EXPECT_EQ(spec.protocol, "distill");
  EXPECT_EQ(spec.trials, 20u);
}

TEST(ScenarioSpec, MissingSchemaRejected) {
  const std::string message =
      error_of([] { (void)ScenarioSpec::from_json("{}"); });
  EXPECT_NE(message.find("schema"), std::string::npos);
  EXPECT_NE(message.find("acp.scenario.v1"), std::string::npos);
}

TEST(ScenarioSpec, WrongSchemaRejected) {
  const std::string message = error_of([] {
    (void)ScenarioSpec::from_json(R"({"schema": "acp.scenario.v9"})");
  });
  EXPECT_NE(message.find("acp.scenario.v9"), std::string::npos);
}

TEST(ScenarioSpec, UnknownTopLevelKeyRejected) {
  const std::string message = error_of([] {
    (void)ScenarioSpec::from_json(
        R"({"schema": "acp.scenario.v1", "wordl": {}})");
  });
  EXPECT_NE(message.find("wordl"), std::string::npos);
  EXPECT_NE(message.find("world"), std::string::npos);  // the expected list
}

TEST(ScenarioSpec, UnknownSectionKeyRejected) {
  const std::string message = error_of([] {
    (void)ScenarioSpec::from_json(
        R"({"schema": "acp.scenario.v1", "world": {"players": 10}})");
  });
  EXPECT_NE(message.find("players"), std::string::npos);
  EXPECT_NE(message.find("n"), std::string::npos);
}

TEST(ScenarioSpec, TypeErrorsNameTheFieldPath) {
  const std::string message = error_of([] {
    (void)ScenarioSpec::from_json(
        R"({"schema": "acp.scenario.v1", "world": {"n": "many"}})");
  });
  EXPECT_NE(message.find("scenario.world.n"), std::string::npos);
}

TEST(ScenarioSpec, ValidationNamesTheField) {
  ScenarioSpec spec;
  spec.alpha = 0.0;
  EXPECT_NE(error_of([&] { spec.validate(); }).find("scenario.world.alpha"),
            std::string::npos);

  spec = ScenarioSpec{};
  spec.good = 300;  // > m
  EXPECT_NE(error_of([&] { spec.validate(); }).find("scenario.world.good"),
            std::string::npos);

  spec = ScenarioSpec{};
  spec.engine = "warp";
  const std::string message = error_of([&] { spec.validate(); });
  EXPECT_NE(message.find("warp"), std::string::npos);
  EXPECT_NE(message.find("lockstep"), std::string::npos);

  // Ids are 32-bit: a count of 2^32 is refused before anything is built.
  spec = ScenarioSpec{};
  spec.n = std::size_t{1} << 32;
  EXPECT_NE(error_of([&] { spec.validate(); }).find("scenario.world.n"),
            std::string::npos);
  spec = ScenarioSpec{};
  spec.m = std::size_t{1} << 32;
  spec.good = 1;
  EXPECT_NE(error_of([&] { spec.validate(); }).find("scenario.world.m"),
            std::string::npos);

  spec = ScenarioSpec{};
  spec.depart_frac = 0.5;  // without depart_round
  EXPECT_NE(error_of([&] { spec.validate(); }).find("depart_round"),
            std::string::npos);
}

TEST(ScenarioSpec, ResolvedWorldFollowsProtocol) {
  ScenarioSpec spec;
  EXPECT_EQ(spec.resolved_world(), "simple");
  spec.protocol = "cost-classes";
  EXPECT_EQ(spec.resolved_world(), "cost-classes");
  spec.protocol = "no-lt";
  EXPECT_EQ(spec.resolved_world(), "top-beta");
  spec.world = "simple";  // explicit kind wins over the protocol
  EXPECT_EQ(spec.resolved_world(), "simple");
}

TEST(ScenarioSpec, ApplyOverrideFlatKeys) {
  ScenarioSpec spec;
  apply_override(spec, "n=512");
  apply_override(spec, "alpha=0.25");
  apply_override(spec, "engine=lockstep");
  apply_override(spec, "seed=18446744073709551615");
  EXPECT_EQ(spec.n, 512u);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.25);
  EXPECT_EQ(spec.engine, "lockstep");
  EXPECT_EQ(spec.seed, 18446744073709551615ull);
}

TEST(ScenarioSpec, ApplyOverrideDottedParams) {
  ScenarioSpec spec;
  apply_override(spec, "protocol.f=3");
  apply_override(spec, "protocol.use_advice=false");
  apply_override(spec, "adversary.decoys=7");
  EXPECT_DOUBLE_EQ(spec.protocol_params.get("f", 0.0), 3.0);
  EXPECT_FALSE(spec.protocol_params.get_bool("use_advice", true));
  EXPECT_DOUBLE_EQ(spec.adversary_params.get("decoys", 0.0), 7.0);
}

TEST(ScenarioSpec, ApplyOverrideUnknownKeyListsKnownOnes) {
  ScenarioSpec spec;
  const std::string message =
      error_of([&] { apply_override(spec, "playres=10"); });
  EXPECT_NE(message.find("playres"), std::string::npos);
  EXPECT_NE(message.find("protocol.<param>"), std::string::npos);
}

TEST(ScenarioSpec, ApplyOverrideRejectsBadValues) {
  ScenarioSpec spec;
  EXPECT_THROW(apply_override(spec, "n=abc"), std::invalid_argument);
  EXPECT_THROW(apply_override(spec, "n=1.5"), std::invalid_argument);
  EXPECT_THROW(apply_override(spec, "n"), std::invalid_argument);
  EXPECT_THROW(apply_override(spec, "=3"), std::invalid_argument);
}

TEST(ScenarioSpec, SaveAndLoadFile) {
  const std::string path =
      testing::TempDir() + "acp_scenario_spec_roundtrip.json";
  const ScenarioSpec spec = make_full_spec();
  spec.save_file(path);
  EXPECT_EQ(ScenarioSpec::load_file(path), spec);
  std::remove(path.c_str());
}

TEST(ScenarioSpec, LoadFileErrorsNameThePath) {
  EXPECT_NE(
      error_of([] { (void)ScenarioSpec::load_file("/no/such/file.json"); })
          .find("/no/such/file.json"),
      std::string::npos);

  const std::string path = testing::TempDir() + "acp_scenario_spec_bad.json";
  {
    std::ofstream file(path);
    file << "{\"schema\": \"acp.scenario.v1\", }";
  }
  const std::string message =
      error_of([&] { (void)ScenarioSpec::load_file(path); });
  EXPECT_NE(message.find(path), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace acp::scenario
