#include "acp/sim/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

namespace acp::cli {
namespace {

TEST(CliParse, Defaults) {
  const CliConfig config = parse_args({});
  EXPECT_EQ(config.spec.n, 256u);
  EXPECT_EQ(config.spec.m, 256u);
  EXPECT_EQ(config.spec.good, 1u);
  EXPECT_DOUBLE_EQ(config.spec.alpha, 0.5);
  EXPECT_EQ(config.spec.protocol, "distill");
  EXPECT_EQ(config.spec.adversary, "silent");
  EXPECT_FALSE(config.csv);
  EXPECT_TRUE(config.spec.protocol_params.empty());
}

TEST(CliParse, AllOptions) {
  const CliConfig config = parse_args(
      {"--n", "128", "--m", "512", "--good", "3", "--alpha", "0.75",
       "--protocol", "distill-hp", "--adversary", "collude", "--trials",
       "7", "--seed", "99", "--max-rounds", "1000", "--f", "2", "--err",
       "0.1", "--veto", "0.25", "--no-advice", "--csv"});
  EXPECT_EQ(config.spec.n, 128u);
  EXPECT_EQ(config.spec.m, 512u);
  EXPECT_EQ(config.spec.good, 3u);
  EXPECT_DOUBLE_EQ(config.spec.alpha, 0.75);
  EXPECT_EQ(config.spec.protocol, "distill-hp");
  EXPECT_EQ(config.spec.adversary, "collude");
  EXPECT_EQ(config.spec.trials, 7u);
  EXPECT_EQ(config.spec.seed, 99u);
  EXPECT_EQ(config.spec.max_rounds, 1000);
  EXPECT_EQ(config.spec.protocol_params.get_size("f", 1), 2u);
  EXPECT_DOUBLE_EQ(config.spec.protocol_params.get("err", 0.0), 0.1);
  EXPECT_DOUBLE_EQ(config.spec.protocol_params.get("veto", 0.0), 0.25);
  EXPECT_FALSE(config.spec.protocol_params.get_bool("use_advice", true));
  EXPECT_TRUE(config.csv);
}

TEST(CliParse, UnknownOptionRejected) {
  EXPECT_THROW((void)parse_args({"--bogus"}), std::invalid_argument);
}

TEST(CliParse, MissingValueRejected) {
  EXPECT_THROW((void)parse_args({"--n"}), std::invalid_argument);
}

TEST(CliParse, BadNumberRejected) {
  EXPECT_THROW((void)parse_args({"--n", "abc"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--alpha", "zzz"}), std::invalid_argument);
}

TEST(CliParse, RangeChecks) {
  EXPECT_THROW((void)parse_args({"--alpha", "0"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--alpha", "1.5"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--good", "0"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--m", "4", "--good", "5"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--trials", "0"}), std::invalid_argument);
}

TEST(CliParse, UnknownProtocolAdversaryRejected) {
  // The error message must name what IS registered — a typo should read
  // like a typo.
  try {
    (void)parse_args({"--protocol", "magic"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("distill"), std::string::npos);
  }
  try {
    (void)parse_args({"--adversary", "gremlin"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gremlin"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("splitvote"), std::string::npos);
  }
}

TEST(CliParse, HelpSkipsValidation) {
  const CliConfig config = parse_args({"--help"});
  EXPECT_TRUE(config.help);
}

TEST(CliParse, ScenarioFileLoads) {
  const std::string path = testing::TempDir() + "acp_cli_scenario.json";
  {
    scenario::ScenarioSpec spec;
    spec.n = 64;
    spec.m = 48;
    spec.alpha = 0.75;
    spec.protocol = "distill-hp";
    spec.trials = 3;
    spec.save_file(path);
  }
  const CliConfig config = parse_args({"--scenario", path});
  EXPECT_EQ(config.spec.n, 64u);
  EXPECT_EQ(config.spec.m, 48u);
  EXPECT_DOUBLE_EQ(config.spec.alpha, 0.75);
  EXPECT_EQ(config.spec.protocol, "distill-hp");
  EXPECT_EQ(config.spec.trials, 3u);
  std::remove(path.c_str());
}

TEST(CliParse, PrecedenceIsFileThenFlagsThenSet) {
  const std::string path = testing::TempDir() + "acp_cli_precedence.json";
  {
    scenario::ScenarioSpec spec;
    spec.n = 64;
    spec.m = 48;
    spec.trials = 3;
    spec.save_file(path);
  }
  // The file says n=64; the flag overrides to 128; --set wins with 32.
  // --scenario may sit anywhere on the line — flags still beat the file.
  const CliConfig config = parse_args(
      {"--n", "128", "--scenario", path, "--set", "n=32"});
  EXPECT_EQ(config.spec.n, 32u);
  EXPECT_EQ(config.spec.m, 48u);      // file value survives
  EXPECT_EQ(config.spec.trials, 3u);  // file value survives

  // Later --set beats earlier --set.
  const CliConfig config2 = parse_args(
      {"--scenario", path, "--set", "n=32", "--set", "n=16"});
  EXPECT_EQ(config2.spec.n, 16u);
  std::remove(path.c_str());
}

TEST(CliParse, SetOverridesProtocolParams) {
  const CliConfig config = parse_args(
      {"--f", "2", "--set", "protocol.f=3", "--set", "adversary.decoys=7",
       "--adversary", "collude"});
  EXPECT_EQ(config.spec.protocol_params.get_size("f", 1), 3u);
  EXPECT_EQ(config.spec.adversary_params.get_size("decoys", 4), 7u);
}

TEST(CliParse, SetUnknownKeyRejected) {
  EXPECT_THROW((void)parse_args({"--set", "bogus=1"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--set", "n"}), std::invalid_argument);
}

TEST(CliParse, MissingScenarioFileRejected) {
  EXPECT_THROW((void)parse_args({"--scenario", "/nonexistent/spec.json"}),
               std::invalid_argument);
}

TEST(CliRun, HelpPrintsUsage) {
  CliConfig config;
  config.help = true;
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);
  EXPECT_NE(out.str().find("usage: acpsim"), std::string::npos);
}

TEST(CliRun, SmallDistillRunSucceeds) {
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 3;
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);
  EXPECT_NE(out.str().find("probes/player"), std::string::npos);
  EXPECT_NE(out.str().find("success fraction"), std::string::npos);
}

TEST(CliRun, CsvOutput) {
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 2;
  config.csv = true;
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);
  EXPECT_NE(out.str().find("metric,mean,p50"), std::string::npos);
}

TEST(CliRun, EveryProtocolRuns) {
  for (const char* name :
       {"distill", "distill-hp", "guess-alpha", "cost-classes", "no-lt",
        "collab", "trivial", "popularity", "full-coop"}) {
    CliConfig config;
    config.spec.n = 32;
    config.spec.m = 32;
    config.spec.good = 2;
    config.spec.trials = 2;
    config.spec.protocol = name;
    std::ostringstream out;
    const int code = run(config, out);
    EXPECT_TRUE(code == 0 || code == 2) << "protocol " << name;
    EXPECT_FALSE(out.str().empty());
  }
}

TEST(CliRun, EveryAdversaryRuns) {
  for (const char* name : {"silent", "slander", "eager", "collude", "spam",
                           "splitvote", "liar", "targeted-slander"}) {
    CliConfig config;
    config.spec.n = 32;
    config.spec.m = 32;
    config.spec.alpha = 0.5;
    config.spec.trials = 2;
    config.spec.adversary = name;
    std::ostringstream out;
    EXPECT_EQ(run(config, out), 0) << "adversary " << name;
  }
}

TEST(CliParse, SweepSpec) {
  const CliConfig config =
      parse_args({"--sweep", "alpha=0.1:0.9:0.2"});
  EXPECT_EQ(config.sweep_param, "alpha");
  EXPECT_DOUBLE_EQ(config.sweep_lo, 0.1);
  EXPECT_DOUBLE_EQ(config.sweep_hi, 0.9);
  EXPECT_DOUBLE_EQ(config.sweep_step, 0.2);
}

TEST(CliParse, SweepRejectsMalformedSpec) {
  EXPECT_THROW((void)parse_args({"--sweep", "alpha"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--sweep", "alpha=1:2"}), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--sweep", "bogus=0:1:0.5"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--sweep", "alpha=0.9:0.1:0.2"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--sweep", "alpha=0.1:0.9:0"}),
               std::invalid_argument);
}

TEST(CliRun, SweepPrintsOneRowPerValue) {
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 2;
  config.sweep_param = "alpha";
  config.sweep_lo = 0.5;
  config.sweep_hi = 1.0;
  config.sweep_step = 0.25;
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("0.500"), std::string::npos);
  EXPECT_NE(text.find("0.750"), std::string::npos);
  EXPECT_NE(text.find("1.000"), std::string::npos);
}

TEST(CliParse, GossipAndTrustFlags) {
  const CliConfig config =
      parse_args({"--gossip", "--fanout", "4", "--trust"});
  EXPECT_EQ(config.spec.engine, "gossip");
  EXPECT_EQ(config.spec.fanout, 4u);
  EXPECT_TRUE(config.spec.protocol_params.get_bool("trust", false));
}

TEST(CliParse, EngineSchedulerAndChurnFlags) {
  const CliConfig config = parse_args(
      {"--engine", "lockstep", "--scheduler", "random", "--max-steps",
       "5000", "--arrival-window", "10", "--depart-frac", "0.25",
       "--depart-round", "40"});
  EXPECT_EQ(config.spec.engine, "lockstep");
  EXPECT_EQ(config.spec.scheduler, "random");
  EXPECT_EQ(config.spec.max_steps, 5000);
  EXPECT_EQ(config.spec.arrival_window, 10);
  EXPECT_DOUBLE_EQ(config.spec.depart_frac, 0.25);
  EXPECT_EQ(config.spec.depart_round, 40);
}

TEST(CliParse, EngineAndChurnRejections) {
  EXPECT_THROW((void)parse_args({"--engine", "bogus"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--scheduler", "bogus"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--depart-frac", "1.5"}),
               std::invalid_argument);
  // Departures need a departure time.
  EXPECT_THROW((void)parse_args({"--depart-frac", "0.5"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--max-steps", "0"}),
               std::invalid_argument);
}

TEST(CliRun, LockstepEngineRuns) {
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 2;
  config.spec.engine = "lockstep";
  config.spec.adversary = "eager";
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);
  EXPECT_FALSE(out.str().empty());
}

TEST(CliRun, AsyncEngineRunsCollabAndTrivial) {
  for (const char* name : {"collab", "trivial"}) {
    CliConfig config;
    config.spec.n = 32;
    config.spec.m = 32;
    config.spec.trials = 2;
    config.spec.engine = "async";
    config.spec.protocol = name;
    std::ostringstream out;
    EXPECT_EQ(run(config, out), 0) << "protocol " << name;
  }
}

TEST(CliRun, AsyncEngineRejectsSyncOnlyProtocol) {
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 1;
  config.spec.engine = "async";
  config.spec.protocol = "distill";
  std::ostringstream out;
  EXPECT_THROW(run(config, out), std::invalid_argument);
}

TEST(CliRun, ChurnRunsOnEveryEngine) {
  for (const char* engine : {"sync", "lockstep", "async", "gossip"}) {
    CliConfig config;
    config.spec.n = 32;
    config.spec.m = 32;
    config.spec.trials = 2;
    config.spec.engine = engine;
    if (config.spec.engine == "async") config.spec.protocol = "collab";
    config.spec.arrival_window = 8;
    config.spec.depart_frac = 0.2;
    config.spec.depart_round = 50;
    std::ostringstream out;
    const int code = run(config, out);
    // Departing players may leave unsatisfied; both exits are legal.
    EXPECT_TRUE(code == 0 || code == 2) << "engine " << engine;
    EXPECT_FALSE(out.str().empty());
  }
}

TEST(CliRun, GossipEngineRuns) {
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 2;
  config.spec.engine = "gossip";
  config.spec.fanout = 3;
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);
}

TEST(CliRun, GossipRejectsSplitVote) {
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 1;
  config.spec.engine = "gossip";
  config.spec.adversary = "splitvote";
  std::ostringstream out;
  EXPECT_THROW(run(config, out), std::invalid_argument);
}

TEST(CliRun, TrustRuns) {
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 2;
  config.spec.protocol_params.set("trust", 1.0);
  config.spec.adversary = "eager";
  config.spec.alpha = 0.5;
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);
}

TEST(CliRun, SplitVoteRequiresDistill) {
  CliConfig config;
  config.spec.protocol = "collab";
  config.spec.adversary = "splitvote";
  config.spec.trials = 1;
  std::ostringstream out;
  EXPECT_THROW(run(config, out), std::invalid_argument);
}

TEST(CliRun, UnknownProtocolParamRejected) {
  CliConfig config;
  config.spec.n = 16;
  config.spec.m = 16;
  config.spec.trials = 1;
  config.spec.protocol_params.set("bogus_knob", 1.0);
  std::ostringstream out;
  try {
    (void)run(config, out);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message lists the knobs that DO exist.
    EXPECT_NE(std::string(e.what()).find("bogus_knob"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("k1"), std::string::npos);
  }
}

TEST(CliParse, ObservabilityFlags) {
  const CliConfig config = parse_args(
      {"--trace-jsonl", "trace.jsonl", "--report-json", "report.json"});
  EXPECT_EQ(config.trace_jsonl_path, "trace.jsonl");
  EXPECT_EQ(config.report_json_path, "report.json");
}

TEST(CliParse, ReportJsonRejectedWithSweep) {
  EXPECT_THROW((void)parse_args({"--report-json", "r.json", "--sweep",
                                 "alpha=0.5:0.9:0.1"}),
               std::invalid_argument);
  // The JSONL trace is a first-trial artifact and stays legal with --sweep.
  EXPECT_NO_THROW((void)parse_args(
      {"--trace-jsonl", "t.jsonl", "--sweep", "alpha=0.5:0.9:0.1"}));
}

TEST(CliParse, ProfileFlag) {
  EXPECT_FALSE(parse_args({"--n", "16"}).profile);
  EXPECT_TRUE(parse_args({"--profile"}).profile);
  // One profile describes one configuration point, like one report.
  EXPECT_THROW(
      (void)parse_args({"--profile", "--sweep", "alpha=0.5:0.9:0.1"}),
      std::invalid_argument);
}

TEST(CliRun, ProfileFillsReportSectionsAndPrintsSummary) {
  const std::string report_path =
      testing::TempDir() + "acp_cli_profile_report.json";
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 2;
  config.spec.engine_threads = 2;
  config.profile = true;
  config.report_json_path = report_path;
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);

  std::ifstream report(report_path);
  ASSERT_TRUE(report.good());
  std::string report_text((std::istreambuf_iterator<char>(report)),
                          std::istreambuf_iterator<char>());
  // v3: the kernel's seams are ordinary registry timers and histograms,
  // and the bandwidth section is populated, not the {} placeholder.
  EXPECT_EQ(report_text.rfind("{\"schema\":\"acp.report.v3\"", 0), 0u);
  EXPECT_EQ(report_text.find("\"phases\""), std::string::npos);
  for (const char* name :
       {"\"engine.kernel.adversary\"", "\"engine.kernel.players\"",
        "\"engine.kernel.commit\"", "\"engine.kernel.accounting\"",
        "\"engine.kernel.work\"", "\"engine.kernel.barrier\"",
        "\"engine.kernel.merge\"", "\"engine.kernel.imbalance\""}) {
    EXPECT_NE(report_text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(report_text.find("\"bandwidth\":{\"engine.io.bits_read\""),
            std::string::npos);
  EXPECT_NE(report_text.find("\"engine_threads\":2"), std::string::npos);

  // The summary lists every kernel part and the leftover as shares of
  // the slice timer; the shares add up to 100% (up to print rounding).
  const std::string text = out.str();
  EXPECT_NE(text.find("profile: engine.sync.round on the kernel thread"),
            std::string::npos);
  double share_sum = 0.0;
  for (const char* part :
       {"engine.kernel.adversary", "engine.kernel.players",
        "engine.kernel.commit", "engine.kernel.accounting", "leftover"}) {
    const std::size_t at = text.find(std::string("  ") + part + " ");
    ASSERT_NE(at, std::string::npos) << part;
    const std::size_t open = text.find('(', at);
    share_sum += std::stod(text.substr(open + 1));
  }
  EXPECT_NEAR(share_sum, 100.0, 0.3);
  EXPECT_NE(text.find("profile: parallel kernel, 2 lanes"), std::string::npos);
  EXPECT_NE(text.find("profile: bandwidth"), std::string::npos);

  std::remove(report_path.c_str());
}

TEST(CliRun, ReportJsonAndTraceJsonlWritten) {
  const std::string report_path =
      testing::TempDir() + "acp_cli_report_test.json";
  const std::string trace_path =
      testing::TempDir() + "acp_cli_trace_test.jsonl";
  CliConfig config;
  config.spec.n = 32;
  config.spec.m = 32;
  config.spec.trials = 2;
  config.report_json_path = report_path;
  config.trace_jsonl_path = trace_path;
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);

  std::ifstream report(report_path);
  ASSERT_TRUE(report.good());
  std::string report_text((std::istreambuf_iterator<char>(report)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(report_text.rfind("{\"schema\":\"acp.report.v3\"", 0), 0u);
  EXPECT_NE(report_text.find("\"probes_per_player\""), std::string::npos);
  EXPECT_NE(report_text.find("\"engine.sync.rounds\""), std::string::npos);
  EXPECT_NE(report_text.find("\"timers\""), std::string::npos);

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::string first_line;
  ASSERT_TRUE(std::getline(trace, first_line));
  EXPECT_EQ(first_line.rfind("{\"schema\":\"acp.trace.v1\"", 0), 0u);
  std::string line;
  std::string last_line = first_line;
  std::size_t lines = 1;
  while (std::getline(trace, line)) {
    ++lines;
    last_line = line;
  }
  EXPECT_GE(lines, 3u);  // run_begin, >=1 round, run_end
  EXPECT_NE(last_line.find("\"type\":\"run_end\""), std::string::npos);

  std::remove(report_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(CliRun, GossipScenarioTraceHasRoundLines) {
  const std::string trace_path =
      testing::TempDir() + "acp_cli_gossip_trace_test.jsonl";
  const CliConfig config = parse_args(
      {"--scenario", ACP_SCENARIO_DIR "/gossip_large.json", "--set", "n=64",
       "--set", "m=64", "--set", "trials=1", "--trace-jsonl", trace_path});
  std::ostringstream out;
  EXPECT_EQ(run(config, out), 0);

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::size_t round_lines = 0;
  std::string line;
  while (std::getline(trace, line)) {
    if (line.find("\"type\":\"round\"") != std::string::npos) ++round_lines;
  }
  EXPECT_GT(round_lines, 0u);
  std::remove(trace_path.c_str());
}

TEST(CliRun, ReportJsonUnwritablePathThrows) {
  CliConfig config;
  config.spec.n = 16;
  config.spec.m = 16;
  config.spec.trials = 1;
  config.report_json_path = "/nonexistent-dir/report.json";
  std::ostringstream out;
  EXPECT_THROW(run(config, out), std::invalid_argument);
}

}  // namespace
}  // namespace acp::cli
