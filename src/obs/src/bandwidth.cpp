#include "acp/obs/bandwidth.hpp"

#include <array>

namespace acp::obs {
namespace {

constexpr std::size_t kChannels = static_cast<std::size_t>(IoChannel::kCount);

struct IoCounters {
  Counter* read_ops;
  Counter* read_bits;
  Counter* write_ops;
  Counter* write_bits;
};

/// Every channel's counters, registered together on first use, so a
/// metered run's snapshot lists all channels (zeros included).
const std::array<IoCounters, kChannels>& io_table() {
  static const std::array<IoCounters, kChannels> table = [] {
    MetricsRegistry& registry = MetricsRegistry::global();
    std::array<IoCounters, kChannels> out{};
    for (std::size_t c = 0; c < kChannels; ++c) {
      const auto channel = static_cast<IoChannel>(c);
      out[c] = IoCounters{
          &registry.counter(io_metric_name(channel, "read_ops")),
          &registry.counter(io_metric_name(channel, "read_bits")),
          &registry.counter(io_metric_name(channel, "write_ops")),
          &registry.counter(io_metric_name(channel, "write_bits"))};
    }
    return out;
  }();
  return table;
}

}  // namespace

const char* io_channel_name(IoChannel channel) noexcept {
  switch (channel) {
    case IoChannel::kBillboardCommit:
      return "billboard.commit";
    case IoChannel::kLedgerIngest:
      return "ledger.ingest";
    case IoChannel::kLedgerWindow:
      return "ledger.window_query";
    case IoChannel::kGossipExchange:
      return "gossip.exchange";
    case IoChannel::kGossipDigest:
      return "gossip.digest";
    case IoChannel::kGossipDelta:
      return "gossip.delta";
    case IoChannel::kBillboardRpcPost:
      return "billboard.rpc.post";
    case IoChannel::kBillboardRpcSnapshot:
      return "billboard.rpc.snapshot";
    case IoChannel::kCount:
      break;
  }
  return "unknown";
}

std::string io_metric_name(IoChannel channel, std::string_view field) {
  std::string name = "io.";
  name += io_channel_name(channel);
  name += '.';
  name += field;
  return name;
}

void detail::add_io(IoChannel channel, bool is_write, std::uint64_t ops,
                    std::uint64_t bits) {
  const IoCounters& cells = io_table()[static_cast<std::size_t>(channel)];
  (is_write ? cells.write_ops : cells.read_ops)->add(ops);
  (is_write ? cells.write_bits : cells.read_bits)->add(bits);
}

}  // namespace acp::obs
