// bbload — billboard server load generator.
//
// Opens many concurrent connections to a running acp_billboardd, joins one
// shared replica board, and measures steady-state posts/sec plus the
// tail-pull read latency (see acp/billboard/loadgen.hpp for the phase
// structure). The same engine backs the perf_substrate service bench, so
// the numbers here are directly comparable to bench/BENCH_PERF.json.
//
//   acp_billboardd --listen socket:/tmp/acp-bb.sock &
//   bbload --connect socket:/tmp/acp-bb.sock --clients 10000 --json
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>

#include "acp/billboard/loadgen.hpp"
#include "acp/net/socket.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "bbload — billboard server load generator (acp.bbwire.v1)\n"
        "\n"
        "usage: bbload --connect ENDPOINT [options]\n"
        "\n"
        "  --connect E      socket:<path> or tcp:<host>:<port> of a running\n"
        "                   acp_billboardd\n"
        "  --clients N      concurrent connections (default 10000)\n"
        "  --batches B      commits per client (default 5)\n"
        "  --batch-posts P  posts per commit (default 10)\n"
        "  --reads R        timed tail pulls per client (default 5)\n"
        "  --players N      shared-board player dimension (default 10000)\n"
        "  --objects M      shared-board object dimension (default 256)\n"
        "  --board NAME     shared board name (default bbload)\n"
        "  --boards K       spread clients over K boards NAME.0..NAME.K-1\n"
        "                   (default 1: everyone joins NAME) — use with a\n"
        "                   sharded server so boards land on different\n"
        "                   IO threads\n"
        "  --pipeline K     in-flight commits per connection (default 1)\n"
        "  --threads N      driver threads; clients split across them,\n"
        "                   stats merged (default 1)\n"
        "  --seed S         workload seed (default 1)\n"
        "  --json           machine-readable acp.bbload.v2 report on stdout\n"
        "  --help           this text\n";
  return code;
}

std::size_t parse_size(const std::string& flag, const std::string& text) {
  try {
    const long long value = std::stoll(text);
    if (value < 0) throw std::invalid_argument("");
    return static_cast<std::size_t>(value);
  } catch (...) {
    throw std::invalid_argument("bad value for " + flag + ": " + text);
  }
}

}  // namespace

int main(int argc, char** argv) {
  acp::LoadgenOptions options;
  std::string connect;
  std::size_t boards = 1;
  bool json = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument("missing value after " + arg);
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
      if (arg == "--json") {
        json = true;
      } else if (arg == "--connect") {
        connect = value();
      } else if (arg == "--clients") {
        options.clients = parse_size(arg, value());
      } else if (arg == "--batches") {
        options.batches = parse_size(arg, value());
      } else if (arg == "--batch-posts") {
        options.batch_posts = parse_size(arg, value());
      } else if (arg == "--reads") {
        options.reads = parse_size(arg, value());
      } else if (arg == "--players") {
        options.players = parse_size(arg, value());
      } else if (arg == "--objects") {
        options.objects = parse_size(arg, value());
      } else if (arg == "--board") {
        options.board = value();
      } else if (arg == "--boards") {
        boards = parse_size(arg, value());
        if (boards == 0) {
          throw std::invalid_argument("--boards must be >= 1");
        }
      } else if (arg == "--pipeline") {
        options.pipeline = parse_size(arg, value());
        if (options.pipeline == 0) {
          throw std::invalid_argument("--pipeline must be >= 1");
        }
      } else if (arg == "--threads") {
        options.threads = parse_size(arg, value());
        if (options.threads == 0) {
          throw std::invalid_argument("--threads must be >= 1");
        }
      } else if (arg == "--seed") {
        options.seed = parse_size(arg, value());
      } else {
        throw std::invalid_argument("unknown option: " + arg +
                                    " (try --help)");
      }
    }
    if (connect.empty()) return usage(std::cerr, 2);
    options.endpoint = acp::net::Endpoint::parse(connect);
    if (boards > 1) {
      options.board_list.reserve(boards);
      for (std::size_t b = 0; b < boards; ++b) {
        options.board_list.push_back(options.board + "." + std::to_string(b));
      }
    }

    const acp::LoadgenReport report = acp::run_loadgen(options);

    if (json) {
      std::cout << "{\"schema\":\"acp.bbload.v2\",\"endpoint\":\""
                << options.endpoint.to_string() << "\",\"pipeline\":"
                << options.pipeline << ",\"threads\":" << options.threads
                << ",\"boards\":" << boards << ",\"clients\":"
                << report.clients_connected << ",\"posts\":" << report.posts
                << ",\"post_seconds\":" << report.post_seconds
                << ",\"posts_per_sec\":" << report.posts_per_sec
                << ",\"reads\":" << report.reads
                << ",\"read_seconds\":" << report.read_seconds
                << ",\"read_p50_ns\":" << report.read_p50_ns
                << ",\"read_p99_ns\":" << report.read_p99_ns
                << ",\"errors\":" << report.errors << "}\n";
    } else {
      std::cout << "bbload: " << options.endpoint.to_string() << "\n"
                << "  clients      " << report.clients_connected << " / "
                << options.clients << "\n"
                << "  posts        " << report.posts << " in "
                << report.post_seconds << " s  ("
                << static_cast<std::uint64_t>(report.posts_per_sec)
                << " posts/sec)\n"
                << "  reads        " << report.reads << " in "
                << report.read_seconds << " s\n"
                << "  read p50     " << report.read_p50_ns << " ns\n"
                << "  read p99     " << report.read_p99_ns << " ns\n"
                << "  errors       " << report.errors << "\n";
    }
    // Errors mean the measurement is suspect: fail loudly so CI notices.
    return report.errors == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "bbload: " << e.what() << "\n";
    return 1;
  }
}
