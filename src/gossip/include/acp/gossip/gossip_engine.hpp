// GossipEngine — the billboard as a real peer-to-peer substrate.
//
// The paper assumes a shared billboard service ("the system maintains a
// shared billboard", §1.1). In an actual peer-to-peer deployment — the
// paper's title domain — no such service exists: each node holds a local
// replica and posts spread epidemically. This engine implements that
// substrate and runs the synchronous protocols on top of it:
//
//  * every honest node keeps a replica Billboard (posts retain their
//    origin stamps but arrive late and batched) and its own protocol
//    instance — no player reads another's state;
//  * Byzantine nodes absorb — they relay nothing — and inject their
//    fabricated posts into `fanout` random nodes per round;
//  * satisfied nodes stop probing but keep relaying (cheap, realistic,
//    and keeps dissemination alive for stragglers).
//
// Two interchangeable dissemination substrates (GossipConfig::substrate):
//
//  * kDigest (default) — versioned anti-entropy. Every post carries a
//    monotonic per-author sequence number; replicas track per-author
//    high-water marks (SeqTracker). A contact first exchanges a 128-bit
//    (count, checksum) summary, then compact digests (the initiator's
//    recently-advanced authors, or the full sparse high-water vector on
//    staggered repair contacts), and transfers only the missing delta
//    ranges. There is no per-round dedup set: duplicate suppression is a
//    sequence-number compare. Wire cost is metered on the gossip.digest
//    and gossip.delta channels.
//  * kExchange — the legacy exchange-everything path: each node pushes
//    the posts it learned last round to `fanout` targets and dedups by a
//    per-node hash set. Kept for one release as the differential-testing
//    oracle (tests/gossip_antientropy_test.cpp pins digest ≡ exchange
//    final replica state); metered on gossip.exchange.
//
// Memory model. A replica is a list of 4-byte ids into one append-only
// post arena per run, which holds each distinct post once in creation
// order (the union log is the same sequence). Inboxes, fresh lists and
// the per-author sequence logs hold the same ids, so a post that reaches
// every node costs n ids, not n 32-byte copies. Each replica still
// commits, validates and reads its own posts in its own arrival order;
// only the bytes are shared. What the wire carries is unchanged: the
// io.* counters charge every delivered post its full wire size, so the
// bit accounting does not see the sharing.
//
// The interesting measurement (bench tab10_gossip): DISTILL's phase
// machinery assumes a consistent view; under gossip, views — and hence
// per-node candidate sets — diverge by the propagation delay. Because the
// counting windows are Θ(1/α) rounds wide and thresholds have 2x slack,
// the algorithm absorbs an O(log n / fanout) delay with a bounded cost
// factor, degrading gracefully as fanout shrinks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "acp/billboard/billboard.hpp"

#include "acp/engine/adversary.hpp"
#include "acp/engine/observer.hpp"
#include "acp/engine/protocol.hpp"
#include "acp/engine/run_result.hpp"
#include "acp/world/population.hpp"
#include "acp/world/world.hpp"

namespace acp {

class BillboardService;

enum class GossipTopology {
  /// Push targets drawn uniformly from all nodes each round (the classic
  /// epidemic model; O(log n) dissemination w.h.p.).
  kComplete,
  /// Static ring: node i only ever pushes to i±1, i±2, ... (fanout
  /// alternates sides). Diameter O(n/fanout): the worst realistic overlay.
  kRing,
  /// Static random d-regular-ish overlay (d = fanout out-neighbors chosen
  /// once per run): O(log n) diameter with high probability, but fixed
  /// links mean a node whose whole neighborhood is Byzantine is cut off.
  kRandomGraph,
};

enum class GossipSubstrate {
  /// Versioned digest anti-entropy: sequence-numbered posts, summary +
  /// sparse high-water digests, delta-only transfer. The default.
  kDigest,
  /// Exchange-everything push with a per-node dedup set. The pre-rewrite
  /// substrate, kept as the differential-testing oracle.
  kExchange,
};

struct GossipConfig {
  /// Push targets per node per round. 0 disables dissemination entirely
  /// (every node searches alone — the degenerate control).
  std::size_t fanout = 2;
  GossipTopology topology = GossipTopology::kComplete;
  GossipSubstrate substrate = GossipSubstrate::kDigest;
  /// Digest substrate only: every `repair_interval`-th contact round
  /// (staggered per node) a contact escalates to a full-digest sync when
  /// the 128-bit summaries still differ after the hot exchange. This is
  /// what heals losses and catches up late arrivals without re-flooding;
  /// 0 disables repair (hot-path rumor spreading only).
  Round repair_interval = 8;
  /// Digest substrate only: a node initiates contacts every
  /// `contact_interval` rounds (staggered per node), accumulating its hot
  /// authors in between. 1 (default) is eager rumor spreading — advances
  /// are advertised the round after they happen. Larger values are the
  /// classic lazy anti-entropy cadence: one digest entry then covers a
  /// multi-post delta range, so control traffic amortizes toward the
  /// content floor (each post crossing each link once) at the price of
  /// proportionally slower dissemination. Exchange substrate ignores it.
  Round contact_interval = 1;
  /// Push-pull: each node additionally contacts `fanout` random peers and
  /// fetches what they learned last round. Doubles the per-round exchange
  /// budget but, unlike doubling fanout, pull also works for nodes nobody
  /// happens to push to.
  bool pull = false;
  /// Lossy links: every push/pull exchange is independently dropped with
  /// this probability (the classic epidemic-robustness knob).
  double loss_prob = 0.0;
  Round max_rounds = 100000;
  std::uint64_t seed = 1;
  /// Optional per-player arrival rounds (indexed by PlayerId), same
  /// semantics as SyncRunConfig::arrivals: the node neither probes nor
  /// relays before its arrival round. Empty means everyone starts at 0.
  std::vector<Round> arrivals = {};
  /// Optional per-player fail-stop departure rounds (-1 = never), same
  /// semantics as SyncRunConfig::departures: the node crash-stops at that
  /// round — it stops probing *and* relaying; already-delivered posts
  /// survive on other replicas. Empty means nobody departs.
  std::vector<Round> departures = {};
  /// Optional measurement hook; not owned. on_round_end receives the
  /// adversary's omniscient union log as the billboard argument (there is
  /// no shared billboard under gossip).
  RunObserver* observer = nullptr;
  /// Optional end-of-run inspection hook: called once per honest node
  /// (ascending id, departed nodes included) with its final committed
  /// replica, an arena-backed board valid only during the call. This is
  /// how the substrate-equivalence tests compare digest vs exchange final
  /// state without widening RunResult.
  std::function<void(PlayerId, const Billboard&)> on_final_replica = nullptr;
  /// Backend for the adversary's omniscient union log; not owned. Null
  /// (the default) keeps it in-process. A non-null service must be a
  /// freshly opened *replica-mode* board matching the run's dimensions —
  /// the union log stamps posts with their origin rounds but honest
  /// replicas stay local either way (they model per-node state, not the
  /// shared service).
  BillboardService* billboard = nullptr;
};

/// Builds one protocol instance per honest node (no shared state).
using ProtocolFactory = std::function<std::unique_ptr<Protocol>()>;

class GossipEngine {
 public:
  /// The adversary observes an omniscient union log (it is a single
  /// coordinated entity, §2.3); honest nodes only ever see their replicas.
  static RunResult run(const World& world, const Population& population,
                       const ProtocolFactory& make_protocol,
                       Adversary& adversary, const GossipConfig& config);
};

}  // namespace acp
