// bbload's engine: a single-threaded, poll-driven client swarm against a
// billboard server. Opens `clients` concurrent connections that join one
// shared replica board, then drives two measured phases:
//
//   posts  — every client commits `batches` batches of `batch_posts`
//            posts, keeping up to `pipeline` commits in flight per
//            connection (replies are FIFO, so acks match by order); the
//            phase clock starts after every connection is open, so the
//            reported posts/sec is steady-state ingest, not connect
//            cost.
//   read   — every client pulls the tail its last commit ack reported,
//            `reads` times, one pull in flight and each timed for the
//            p50/p99 tail: the catch-up read a mirroring client makes.
//
// `threads` splits the swarm across driver threads (each with its own
// poll loop over its slice of connections); clients keep their *global*
// index for seeding and authorship, so an N-thread run generates the
// same workload as a 1-thread run. Merged stats: counts summed,
// posts/sec summed across threads, p50/p99 over the merged samples.
//
// Lives in acp_billboard (not tools/) so the perf bench can run the same
// workload in-process against a BillboardServer and record comparable
// numbers into BENCH_PERF.json.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "acp/net/socket.hpp"

namespace acp {

struct LoadgenOptions {
  net::Endpoint endpoint;
  std::size_t clients = 10'000;
  std::size_t batches = 5;      ///< commits per client
  std::size_t batch_posts = 10; ///< posts per commit
  std::size_t reads = 5;        ///< timed tail pulls per client
  /// Shared-board dimensions. Every client posts as author
  /// (client index mod players).
  std::size_t players = 10'000;
  std::size_t objects = 256;
  std::string board = "bbload";
  /// When non-empty, overrides `board`: client i joins
  /// board_list[i % board_list.size()]. The sharded-server bench uses
  /// this to spread load across boards owned by different IO workers.
  std::vector<std::string> board_list;
  std::uint64_t seed = 1;
  std::size_t pipeline = 1;  ///< in-flight commits per connection
  std::size_t threads = 1;   ///< driver threads (clients split across)
};

struct LoadgenReport {
  std::size_t clients_connected = 0;
  std::uint64_t posts = 0;
  double post_seconds = 0.0;
  double posts_per_sec = 0.0;
  std::uint64_t reads = 0;
  double read_seconds = 0.0;
  std::uint64_t read_p50_ns = 0;
  std::uint64_t read_p99_ns = 0;
  /// kError replies + connections lost mid-run.
  std::uint64_t errors = 0;
};

/// Run the workload to completion. Throws net::SocketError if the server
/// cannot be reached at all; individual connection failures mid-run are
/// counted in `errors` instead.
[[nodiscard]] LoadgenReport run_loadgen(const LoadgenOptions& options);

}  // namespace acp
