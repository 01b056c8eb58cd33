// Golden digests — absolute pins on simulation results.
//
// Every other bit-identity check compares two runs of the same build
// (sync vs lockstep, t1 vs t8, remote vs in-process). A change that moves
// both sides of such a pair passes them all while shifting every number
// in EXPERIMENTS.md. The golden table closes that gap: each case is a
// small scenario whose trials hash to one 64-bit digest, and the digests
// are checked in (tests/golden_digests.txt).
//
// A digest covers, per trial in seed order: rounds executed, whether all
// honest players were satisfied, total_posts, every player's honesty,
// probes, satisfied_round, probed_good and the bit pattern of cost_paid,
// and the final post log an observer sees in on_round_end (for gossip,
// the union log).
//
// Each gossip case carries two more rows that pin what the result digest
// cannot see: "<case>_replicas" hashes every honest node's final replica
// (GossipConfig::on_final_replica, ascending node id, every Post field),
// and "<case>_bits" hashes the run's gossip.digest, gossip.delta and
// ledger.ingest read and write bits (io.* registry counters).
//
// Regenerate the table after an intended change with
//   build/tests/golden_digests > tests/golden_digests.txt
// and name the moved cases and the reason in CHANGES.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "acp/scenario/spec.hpp"

namespace acp::golden {

/// What a case's digest covers.
enum class Pin {
  kResult,    ///< RunResult plus the observer's final post log
  kReplicas,  ///< every honest node's final gossip replica
  kBits,      ///< metered gossip and ledger-ingest bit totals
};

struct GoldenCase {
  std::string name;
  scenario::ScenarioSpec spec;
  Pin pin = Pin::kResult;
};

/// Every checked-in scenario file at reduced size, then the engine,
/// adversary and protocol matrix. Names are unique and stable.
[[nodiscard]] std::vector<GoldenCase> golden_cases();

/// Digest of the case's trials (seeds from derive_trial_seeds, run one
/// after another on the calling thread).
[[nodiscard]] std::uint64_t case_digest(const GoldenCase& golden);

/// The table format: one "<name> <16 hex digits>" line per case.
[[nodiscard]] std::string format_digest(std::uint64_t digest);

/// Parse a table written by golden_digests; '#' lines are comments.
[[nodiscard]] std::map<std::string, std::uint64_t> parse_table(
    const std::string& text);

}  // namespace acp::golden
