// Bits-read/bits-written accounting for the protocol's communication
// substrate, kept as ordinary MetricsRegistry counters.
//
// The paper's cost model counts probes; King–Saia's follow-up ("Breaking
// the O(n^2) Bit Barrier") makes *bits* the resource that matters. Every
// billboard commit, ledger ingest, window query and gossip delivery
// reports the wire size of what moved on a channel. Each channel is four
// registry counters, io.<channel>.{read_ops,read_bits,write_ops,
// write_bits} (e.g. io.billboard.commit.write_bits), so metering has the
// registry's one switch: off, a site pays one relaxed load. Sites meter
// once per batch or range, never per post.
//
// Wire model (documented in docs/observability.md): a Post serializes to
// 161 bits (32 author + 32 round + 32 object + 64 value + 1 sign); a vote
// event scanned from a window query is 96 bits (32 voter + 32 object +
// 32 round). The absolute constants matter less than their consistency —
// trade-offs between protocols are ratios of the same yardstick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "acp/obs/metrics.hpp"

namespace acp::obs {

/// Wire size of one billboard Post: 32-bit author + 32-bit round +
/// 32-bit object + 64-bit reported value + sign bit.
inline constexpr std::uint64_t kPostWireBits = 161;

/// Wire size of one vote event delivered by a window query:
/// 32-bit voter + 32-bit object + 32-bit round.
inline constexpr std::uint64_t kVoteEventWireBits = 96;

/// Wire size of the anti-entropy contact summary: 64-bit post count +
/// 64-bit order-independent set checksum. Two replicas with equal
/// summaries skip the digest entirely, so a quiescent contact costs
/// exactly this much.
inline constexpr std::uint64_t kGossipSummaryWireBits = 128;

/// Wire size of one digest (or want-list) entry: 32-bit author +
/// 32-bit per-author sequence high-water mark.
inline constexpr std::uint64_t kDigestEntryWireBits = 64;

/// Wire size of one delta range header: 32-bit author + 32-bit first
/// sequence number (the post count is implied by the payload length).
inline constexpr std::uint64_t kDeltaHeaderWireBits = 64;

/// Where the bits moved. Names are the <channel> part of the counters.
enum class IoChannel : std::size_t {
  kBillboardCommit = 0,  ///< posts written to the authoritative board
  kLedgerIngest = 1,     ///< posts read into a vote ledger
  kLedgerWindow = 2,     ///< vote events scanned by ledger window counts
  kGossipExchange = 3,   ///< posts pushed/pulled by the legacy exchange path
  kGossipDigest = 4,     ///< anti-entropy summaries, digests and want-lists
  kGossipDelta = 5,      ///< missing-post ranges transferred by anti-entropy
  kBillboardRpcPost = 6,      ///< bbwire commit frames to a remote billboard
  kBillboardRpcSnapshot = 7,  ///< bbwire open/pull/stat frames
  kCount = 8,
};

[[nodiscard]] const char* io_channel_name(IoChannel channel) noexcept;

/// "io.<channel>.<field>", field one of read_ops, read_bits, write_ops,
/// write_bits.
[[nodiscard]] std::string io_metric_name(IoChannel channel,
                                         std::string_view field);

namespace detail {
void add_io(IoChannel channel, bool is_write, std::uint64_t ops,
            std::uint64_t bits);
}  // namespace detail

/// Adds `ops` reads moving `bits` in total to `channel` when the
/// registry is on.
inline void meter_read(IoChannel channel, std::uint64_t ops,
                       std::uint64_t bits) {
  if (MetricsRegistry::enabled()) detail::add_io(channel, false, ops, bits);
}

/// Adds `ops` writes moving `bits` in total to `channel` when the
/// registry is on.
inline void meter_write(IoChannel channel, std::uint64_t ops,
                        std::uint64_t bits) {
  if (MetricsRegistry::enabled()) detail::add_io(channel, true, ops, bits);
}

/// One message of `bits` over one link: a write at the sender and a read
/// at the receiver.
inline void meter_transfer(IoChannel channel, std::uint64_t bits) {
  if (!MetricsRegistry::enabled()) return;
  detail::add_io(channel, true, 1, bits);
  detail::add_io(channel, false, 1, bits);
}

}  // namespace acp::obs
