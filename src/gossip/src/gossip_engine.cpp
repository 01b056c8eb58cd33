#include "acp/gossip/gossip_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "acp/billboard/billboard.hpp"
#include "acp/billboard/seq_tracker.hpp"
#include "acp/billboard/service.hpp"
#include "acp/engine/accounting.hpp"
#include "acp/engine/roster.hpp"
#include "acp/engine/streams.hpp"
#include "acp/obs/bandwidth.hpp"
#include "acp/obs/timer.hpp"
#include "acp/rng/rng.hpp"
#include "acp/util/contracts.hpp"

namespace acp {

namespace {

/// Post identity for legacy-exchange deduplication: (author, origin
/// round). Note the documented edge this rewrite retires: two *distinct*
/// fabricated posts by one Byzantine author in one round collide here, so
/// the exchange substrate propagates only the first — the digest
/// substrate's per-author sequence numbers give every injection its own
/// identity instead (see tests/gossip_antientropy_test.cpp,
/// DoubleInjectionsPropagateUnderDigest).
std::uint64_t post_key(const Post& post) {
  return (static_cast<std::uint64_t>(post.author.value()) << 32) ^
         static_cast<std::uint64_t>(post.round);
}

struct Node {
  std::unique_ptr<Protocol> protocol;
  std::unique_ptr<Billboard> replica;  // ids into the run's arena
  std::vector<PostId> inbox;  // arrived this round; committed at round end
  bool honest = false;
  bool present = false;  // arrived and not crash-stopped: probes + relays

  // -- exchange substrate only ----------------------------------------
  std::unordered_set<std::uint64_t> seen;
  std::vector<PostId> fresh;  // learned last round; pushed this round
  std::vector<PostId> next_fresh;

  // -- digest substrate only ------------------------------------------
  SeqTracker tracker;  // per-author high-water marks + parked gaps
  std::vector<std::uint32_t> hot;  // authors advanced last round
  std::vector<std::uint32_t> next_hot;
};

}  // namespace

RunResult GossipEngine::run(const World& world, const Population& population,
                            const ProtocolFactory& make_protocol,
                            Adversary& adversary,
                            const GossipConfig& config) {
  ACP_EXPECTS(config.max_rounds > 0);
  ACP_EXPECTS(make_protocol != nullptr);
  ACP_EXPECTS(config.loss_prob >= 0.0 && config.loss_prob < 1.0);
  ACP_EXPECTS(config.repair_interval >= 0);
  ACP_EXPECTS(config.contact_interval >= 1);

  const std::size_t n = population.num_players();
  const bool digest_mode = config.substrate == GossipSubstrate::kDigest;
  const WorldView world_view(world);

  adversary.initialize(world, population);

  // The same per-run invariants every engine shares: derived RNG streams,
  // arrival/departure membership, stats + observer + metrics.
  EngineStreams streams(config.seed, n);
  Rng gossip_rng = streams.extra(EngineStreams::kGossipOffset);
  PlayerRoster roster(population, config.arrivals, config.departures);
  RunAccounting accounting(population, world.num_objects(), config.seed,
                           config.observer, "engine.gossip.rounds",
                           "engine.gossip.probes");
  // Gossip traffic is metered per overlay link: a transfer is one write
  // at the sender and one read at the receiver, a lost contact neither.
  // The exchange substrate reports on gossip.exchange; the digest
  // substrate splits control traffic (summaries, digests, want-lists →
  // gossip.digest) from payload (gossip.delta).
  obs::TimerStat& round_timer =
      obs::MetricsRegistry::global().timer("engine.gossip.round");
  // Per-phase breakdown of the round (visible via --report-json): the
  // exchange phase covers the whole dissemination step of either
  // substrate. See docs/architecture.md, "Gossip substrate".
  obs::TimerStat& exchange_timer =
      obs::MetricsRegistry::global().timer("engine.gossip.exchange");
  obs::TimerStat& step_timer =
      obs::MetricsRegistry::global().timer("engine.gossip.step");
  obs::TimerStat& commit_timer =
      obs::MetricsRegistry::global().timer("engine.gossip.commit");

  // Per-run post arena: every post (honest or fabricated) lives here
  // once, in creation order; replicas and queues reference it by index.
  // It grows past this reservation in any run with more posts than
  // players, which is why replicas hold the vector, not its data.
  std::vector<Post> arena;
  arena.reserve(n);

  std::vector<Node> nodes(n);
  for (std::size_t p = 0; p < n; ++p) {
    Node& node = nodes[p];
    node.honest = population.is_honest(PlayerId{p});
    if (!node.honest) continue;
    node.protocol = make_protocol();
    node.protocol->initialize(world_view, n);
    node.replica =
        std::make_unique<Billboard>(n, world.num_objects(), arena);
    node.present =
        config.arrivals.empty() || config.arrivals[p] <= 0;
  }

  // The adversary's omniscient union log (also the run's post count),
  // behind the service seam when a backend is configured. Reads go
  // through the service's local board() view, so the loop below is
  // identical — and bit-identical in results — for both backends.
  std::optional<InProcessBillboard> local_global;
  BillboardService* const global_service = [&]() -> BillboardService* {
    if (config.billboard != nullptr) return config.billboard;
    local_global.emplace(n, world.num_objects(), Billboard::Mode::kReplica);
    return &*local_global;
  }();
  ACP_EXPECTS(global_service->num_players() == n);
  ACP_EXPECTS(global_service->num_objects() == world.num_objects());
  ACP_EXPECTS(global_service->size() == 0);
  ACP_EXPECTS(global_service->board().mode() == Billboard::Mode::kReplica);
  // A sizing hint for the union log's segment table (~one vote post per
  // player in DISTILL runs); committed posts never move either way.
  global_service->reserve(n);
  const Billboard& global = global_service->board();

  std::size_t global_committed = 0;  // arena prefix in the union log

  // Per-author sequence log (digest substrate): author_log[a][s] is the
  // arena index of author a's post with sequence number s. Sequence
  // numbers are assigned at creation — the author's own monotonic
  // counter — which is what gives every post (and every Byzantine
  // injection) an unforgeable, distinct identity.
  std::vector<std::vector<PostId>> author_log(digest_mode ? n : 0);

  const auto intern_post = [&](const Post& post) -> PostId {
    ACP_EXPECTS(arena.size() <
                std::numeric_limits<std::uint32_t>::max());
    arena.push_back(post);
    return static_cast<PostId>(arena.size() - 1);
  };

  // Commit an index batch to a replica; the batch is cleared (capacity
  // kept) for the next round. Empty batches skip the commit entirely —
  // replica rounds need not be contiguous, and n empty commits per quiet
  // round is real time at n=100k.
  const auto commit_indices = [&](Billboard& billboard, Round round,
                                  std::vector<PostId>& indices) {
    if (indices.empty()) return;
    billboard.commit_ids(round, indices);
    indices.clear();
  };

  // The union log holds every post the moment it is made, so its round
  // commit is the arena's new suffix, routed through the service (for a
  // remote backend this is the RPC).
  const auto commit_global = [&](Round round) {
    if (global_committed == arena.size()) return;
    global_service->commit_round_from(
        round, std::span<const Post>(arena).subspan(global_committed));
    global_committed = arena.size();
  };

  // Static overlay links for the non-complete topologies, fixed per run.
  std::vector<std::vector<std::size_t>> neighbors;
  if (config.topology != GossipTopology::kComplete && config.fanout > 0) {
    neighbors.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t k = 0; k < config.fanout; ++k) {
        if (config.topology == GossipTopology::kRing) {
          // Alternate +1, -1, +2, -2, ... around the ring.
          const std::size_t hop = k / 2 + 1;
          const std::size_t target =
              (k % 2 == 0) ? (p + hop) % n : (p + n - hop % n) % n;
          neighbors[p].push_back(target);
        } else {
          neighbors[p].push_back(gossip_rng.index(n));
        }
      }
    }
  }

  // ---- exchange substrate: deliver one post index to one node. --------
  auto deliver = [&](std::size_t target, PostId idx) {
    Node& node = nodes[target];
    if (!node.present) return;  // Byzantine and absent nodes absorb
    if (!node.seen.insert(post_key(arena[idx])).second) return;
    node.inbox.push_back(idx);
    node.next_fresh.push_back(idx);
  };

  // ---- digest substrate helpers. --------------------------------------

  // Offer (author, seq) to `node`; newly contiguous posts (including any
  // parked successors the offer unlocked) land in the inbox and mark the
  // author hot for next round's advertisements. next_hot may collect
  // duplicate authors across contacts; the commit phase sort+uniques it
  // once per round instead of dup-scanning on every acceptance.
  auto accept_seq = [&](Node& node, std::uint32_t author, SeqTracker::Seq seq,
                        PostId idx) {
    if (!node.present) return;  // Byzantine and absent nodes absorb
    if (node.tracker.offer(author, seq, idx, node.inbox) ==
        SeqTracker::Offer::kAccepted) {
      node.next_hot.push_back(author);
    }
  };

  // Transfer the contiguous range [from, to) of `author`'s posts from the
  // global sequence log into `to_node`, metering it as one delta message.
  // The whole range is offered with a single tracker lookup; the author
  // goes hot only if the receiver's prefix actually advanced.
  auto send_delta = [&](Node& to_node, std::uint32_t author,
                        SeqTracker::Seq from, SeqTracker::Seq to) {
    obs::meter_transfer(
        obs::IoChannel::kGossipDelta,
        obs::kDeltaHeaderWireBits +
            static_cast<std::uint64_t>(to - from) * obs::kPostWireBits);
    if (!to_node.present) return;  // Byzantine and absent nodes absorb
    const std::vector<PostId>& log = author_log[author];
    if (to_node.tracker.offer_range(
            author, from,
            std::span<const PostId>(log.data() + from, to - from),
            to_node.inbox)) {
      to_node.next_hot.push_back(author);
    }
  };

  // Want-list / repair ranges are collected against stable digests first
  // and applied afterwards — applying a delta mutates the receiver's
  // sparse digest mid-scan otherwise. Reused across all contacts.
  struct DeltaRange {
    std::uint32_t author = 0;
    SeqTracker::Seq from = 0;
    SeqTracker::Seq to = 0;
  };
  std::vector<DeltaRange> want_scratch;
  std::vector<DeltaRange> sync_to_a;
  std::vector<DeltaRange> sync_to_b;

  const auto meter_digest = [](std::uint64_t bits) {
    if (bits > 0) obs::meter_transfer(obs::IoChannel::kGossipDigest, bits);
  };

  // One-directional digest step: `from` advertises `hot_authors` to `to`;
  // `to` replies with a want-list for the authors it trails on; `from`
  // ships exactly those ranges. Returns nothing — state and meters are
  // updated in place.
  auto hot_exchange = [&](std::size_t from, std::size_t to,
                          const std::vector<std::uint32_t>& hot_authors) {
    Node& a = nodes[from];
    Node& b = nodes[to];
    // hot_authors is sorted and deduplicated (commit phase), so one
    // merge-walk over both sparse digests resolves every advertised
    // author — no per-author binary searches.
    const std::vector<SeqTracker::Entry>& ea = a.tracker.entries();
    const std::vector<SeqTracker::Entry>& eb = b.tracker.entries();
    std::size_t ia = 0;
    std::size_t ib = 0;
    std::uint64_t want_bits = 0;
    want_scratch.clear();
    for (const std::uint32_t author : hot_authors) {
      while (ia < ea.size() && ea[ia].author < author) ++ia;
      const SeqTracker::Seq hw_a =
          (ia < ea.size() && ea[ia].author == author) ? ea[ia].high_water : 0;
      while (ib < eb.size() && eb[ib].author < author) ++ib;
      const SeqTracker::Seq hw_b =
          (ib < eb.size() && eb[ib].author == author) ? eb[ib].high_water : 0;
      if (hw_b >= hw_a) continue;
      want_bits += obs::kDigestEntryWireBits;
      want_scratch.push_back(DeltaRange{author, hw_b, hw_a});
    }
    // The want-list travels receiver -> sender before any delta flows.
    meter_digest(want_bits);
    for (const DeltaRange& r : want_scratch) {
      send_delta(b, r.author, r.from, r.to);
    }
  };

  // Full-digest sync (repair): both sides exchange their sparse
  // high-water vectors and ship every range the other trails on. After
  // this the two replicas' committed sets are identical.
  auto full_sync = [&](std::size_t p, std::size_t t) {
    Node& a = nodes[p];
    Node& b = nodes[t];
    meter_digest(static_cast<std::uint64_t>(a.tracker.entries().size()) *
                 obs::kDigestEntryWireBits);
    meter_digest(static_cast<std::uint64_t>(b.tracker.entries().size()) *
                 obs::kDigestEntryWireBits);
    // One linear merge over the two sorted digests computes both
    // directions' repair ranges against the pre-contact state; deltas are
    // applied afterwards so neither scan runs over a mutating vector.
    const std::vector<SeqTracker::Entry>& ea = a.tracker.entries();
    const std::vector<SeqTracker::Entry>& eb = b.tracker.entries();
    sync_to_a.clear();
    sync_to_b.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ea.size() || j < eb.size()) {
      if (j == eb.size() ||
          (i < ea.size() && ea[i].author < eb[j].author)) {
        // Zero-high-water entries (authors known only through parked,
        // gapped posts) carry nothing to repair.
        if (ea[i].high_water > 0) {
          sync_to_b.push_back(DeltaRange{ea[i].author, 0, ea[i].high_water});
        }
        ++i;
      } else if (i == ea.size() || eb[j].author < ea[i].author) {
        if (eb[j].high_water > 0) {
          sync_to_a.push_back(DeltaRange{eb[j].author, 0, eb[j].high_water});
        }
        ++j;
      } else {
        if (ea[i].high_water > eb[j].high_water) {
          sync_to_b.push_back(
              DeltaRange{ea[i].author, eb[j].high_water, ea[i].high_water});
        } else if (eb[j].high_water > ea[i].high_water) {
          sync_to_a.push_back(
              DeltaRange{eb[j].author, ea[i].high_water, eb[j].high_water});
        }
        ++i;
        ++j;
      }
    }
    for (const DeltaRange& r : sync_to_b) {
      send_delta(b, r.author, r.from, r.to);
    }
    for (const DeltaRange& r : sync_to_a) {
      send_delta(a, r.author, r.from, r.to);
    }
  };

  // One anti-entropy contact, initiated by p toward t. Push direction
  // always runs (p's hot authors toward t); the pull direction (t's hot
  // authors toward p) runs when configured. A repair contact escalates to
  // a full sync when the summaries still differ after the hot phase.
  auto contact = [&](std::size_t p, std::size_t t, bool repair) {
    Node& a = nodes[p];
    Node& b = nodes[t];
    // Contact opener: summary + p's hot digest, paid whether or not the
    // target cooperates (Byzantine absorbers read and drop — the delta
    // they never ask for is the bandwidth the digest substrate saves).
    meter_digest(obs::kGossipSummaryWireBits +
                 static_cast<std::uint64_t>(a.hot.size()) *
                     obs::kDigestEntryWireBits);
    if (!b.present) return;
    hot_exchange(p, t, a.hot);
    if (config.pull && !b.hot.empty()) {
      meter_digest(static_cast<std::uint64_t>(b.hot.size()) *
                   obs::kDigestEntryWireBits);
      hot_exchange(t, p, b.hot);
    }
    if (repair && (a.tracker.count() != b.tracker.count() ||
                   a.tracker.checksum() != b.tracker.checksum())) {
      full_sync(p, t);
    }
  };

  std::vector<PlayerId> halted_this_round;

  Round round = 0;
  for (; round < config.max_rounds && !roster.done(); ++round) {
    const obs::ScopedTimer timed(round_timer);

    // --- Churn (same round semantics as the synchronous engine): joiners
    // start relaying and probing this round; a departing node crash-stops
    // before taking this round's step and goes silent on the overlay.
    roster.admit_arrivals(round);
    for (PlayerId p : roster.apply_departures(round)) {
      nodes[p.value()].present = false;
    }
    if (!config.arrivals.empty()) {
      for (std::size_t p = 0; p < n; ++p) {
        Node& node = nodes[p];
        if (!node.honest || node.present) continue;
        const bool arrived = config.arrivals[p] <= round;
        const bool departed = !config.departures.empty() &&
                              config.departures[p] >= 0 &&
                              round >= config.departures[p];
        if (arrived && !departed) node.present = true;
      }
    }

    // --- Dissemination. Digest substrate: each present node with news
    // (or a pull/repair reason) initiates `fanout` anti-entropy
    // contacts. Exchange substrate: push last round's news to fanout
    // targets, optionally pull theirs. Every contact/exchange is
    // independently lost with loss_prob.
    if (config.fanout > 0 && digest_mode) {
      const obs::ScopedTimer timed_exchange(exchange_timer);
      for (std::size_t p = 0; p < n; ++p) {
        Node& node = nodes[p];
        if (!node.present) continue;
        // A node initiates only on its (staggered) contact rounds; in
        // between, advances accumulate in `hot`. Repair cadence counts
        // contact rounds, so the default (interval 1, repair 8) is a
        // repair every 8th round exactly as before.
        const Round phase = round + static_cast<Round>(p);
        if (phase % config.contact_interval != 0) continue;
        const bool repair_due =
            config.repair_interval > 0 &&
            (phase / config.contact_interval) % config.repair_interval == 0;
        // Quiet nodes stay silent (zero bits), exactly like an empty
        // legacy fresh list — unless pulling or due for repair.
        if (node.hot.empty() && !config.pull && !repair_due) continue;
        for (std::size_t k = 0; k < config.fanout; ++k) {
          const std::size_t target =
              neighbors.empty() ? gossip_rng.index(n) : neighbors[p][k];
          if (config.loss_prob > 0.0 &&
              gossip_rng.bernoulli(config.loss_prob)) {
            continue;  // the whole contact is lost; nothing is metered
          }
          if (target == p) continue;
          contact(p, target, repair_due);
        }
      }
    } else if (config.fanout > 0) {
      const obs::ScopedTimer timed_exchange(exchange_timer);
      for (std::size_t p = 0; p < n; ++p) {
        Node& node = nodes[p];
        if (!node.present) continue;
        if (!node.fresh.empty()) {
          for (std::size_t k = 0; k < config.fanout; ++k) {
            const std::size_t target =
                neighbors.empty() ? gossip_rng.index(n) : neighbors[p][k];
            if (config.loss_prob > 0.0 &&
                gossip_rng.bernoulli(config.loss_prob)) {
              continue;
            }
            obs::meter_transfer(obs::IoChannel::kGossipExchange,
                                node.fresh.size() * obs::kPostWireBits);
            for (const PostId idx : node.fresh) deliver(target, idx);
          }
        }
        if (config.pull) {
          for (std::size_t k = 0; k < config.fanout; ++k) {
            const std::size_t source =
                neighbors.empty() ? gossip_rng.index(n) : neighbors[p][k];
            // Absent nodes return nothing; a pull of an empty peer is a
            // no-op.
            if (!nodes[source].present || nodes[source].fresh.empty()) {
              continue;
            }
            if (config.loss_prob > 0.0 &&
                gossip_rng.bernoulli(config.loss_prob)) {
              continue;
            }
            obs::meter_transfer(obs::IoChannel::kGossipExchange,
                                nodes[source].fresh.size() * obs::kPostWireBits);
            for (const PostId idx : nodes[source].fresh) deliver(p, idx);
          }
        }
      }
    }

    // --- Byzantine injections: each fabricated post is pushed by its
    // author to fanout random nodes (the liar's own gossip round). Under
    // the digest substrate every injection gets the author's next
    // sequence number — distinct lies stay distinct on every replica.
    std::vector<Post> lies;
    adversary.plan_round(AdversaryContext{world, population, round, global},
                         lies, streams.adversary);
    for (const Post& post : lies) {
      ACP_EXPECTS(!population.is_honest(post.author));
      ACP_EXPECTS(post.round == round);
      const PostId idx = intern_post(post);
      const auto author = static_cast<std::uint32_t>(post.author.value());
      SeqTracker::Seq seq = 0;
      if (digest_mode) {
        seq = static_cast<SeqTracker::Seq>(author_log[author].size());
        author_log[author].push_back(idx);
      }
      for (std::size_t k = 0; k < std::max<std::size_t>(config.fanout, 1);
           ++k) {
        const std::size_t target = gossip_rng.index(n);
        if (digest_mode) {
          obs::meter_transfer(obs::IoChannel::kGossipDelta,
                              obs::kDeltaHeaderWireBits + obs::kPostWireBits);
        } else {
          obs::meter_transfer(obs::IoChannel::kGossipExchange,
                              obs::kPostWireBits);
        }
        if (digest_mode) {
          accept_seq(nodes[target], author, seq, idx);
        } else {
          deliver(target, idx);
        }
      }
    }

    // --- Honest steps against each node's own replica. roster.active()
    // is the searching set: honest, arrived, not departed, not satisfied,
    // in honest-id admission order.
    std::size_t probes_this_round = 0;
    halted_this_round.clear();
    {
      const obs::ScopedTimer timed_step(step_timer);
      for (PlayerId pid : roster.active()) {
        const std::size_t p = pid.value();
        Node& node = nodes[p];
        node.protocol->on_round_begin(round, *node.replica);
        const auto choice =
            node.protocol->choose_probe(pid, round, streams.player(pid));
        if (!choice.has_value()) continue;

        const ObjectId object = *choice;
        const ProbeOutcome outcome = world.probe(object);
        ++probes_this_round;
        accounting.record_probe(pid, outcome.cost, world.is_good(object));

        const bool locally_good = world.model() == GoodnessModel::kLocalTesting
                                      ? outcome.locally_good
                                      : false;
        const StepOutcome step = node.protocol->on_probe_result(
            pid, round, object, outcome.value, outcome.cost, locally_good,
            streams.player(pid));
        if (step.post.has_value()) {
          const Post post{pid, round, step.post->object,
                          step.post->reported_value, step.post->positive};
          const PostId idx = intern_post(post);
          if (digest_mode) {
            const auto author = static_cast<std::uint32_t>(p);
            const auto seq =
                static_cast<SeqTracker::Seq>(author_log[author].size());
            author_log[author].push_back(idx);
            accept_seq(node, author, seq, idx);
          } else {
            node.seen.insert(post_key(post));
            node.inbox.push_back(idx);  // own replica, visible next round
            node.next_fresh.push_back(idx);
          }
        }
        if (step.halt) {
          accounting.record_satisfied(pid, round);
          halted_this_round.push_back(pid);  // keeps relaying, stops probing
        }
      }
    }
    for (PlayerId pid : halted_this_round) roster.remove(pid);

    // --- Commit the round everywhere. Queues are swapped/cleared, never
    // reallocated: the whole exchange is allocation-free in steady state.
    {
      const obs::ScopedTimer timed_commit(commit_timer);
      for (std::size_t p = 0; p < n; ++p) {
        Node& node = nodes[p];
        if (!node.honest) continue;
        commit_indices(*node.replica, round, node.inbox);
        if (digest_mode) {
          // `hot` carries every advance since this node's last contact
          // round: drop what was advertised this round, fold in this
          // round's acceptances. Acceptance pushes authors
          // unconditionally; one sort+unique per round replaces a
          // dup-scan per accepted post, and a sorted hot list is what
          // lets contacts merge-walk digests.
          if ((round + static_cast<Round>(p)) % config.contact_interval ==
              0) {
            node.hot.clear();
          }
          if (!node.next_hot.empty()) {
            node.hot.insert(node.hot.end(), node.next_hot.begin(),
                            node.next_hot.end());
            std::sort(node.hot.begin(), node.hot.end());
            node.hot.erase(std::unique(node.hot.begin(), node.hot.end()),
                           node.hot.end());
            node.next_hot.clear();
          }
        } else {
          std::swap(node.fresh, node.next_fresh);
          node.next_fresh.clear();
        }
      }
      commit_global(round);
    }

    accounting.end_slice(round, global, roster.active().size(),
                         probes_this_round);
  }

  if (config.on_final_replica != nullptr) {
    for (std::size_t p = 0; p < n; ++p) {
      if (nodes[p].honest) config.on_final_replica(PlayerId{p}, *nodes[p].replica);
    }
  }

  return accounting.finish(round, roster.done(), global);
}

}  // namespace acp
