// acp_billboardd — the out-of-process billboard service.
//
// Wraps the authoritative Billboard + VoteLedger behind the acp.bbwire.v1
// frame protocol (see docs/architecture.md, "Billboard service") on a Unix
// or TCP socket. Engines connect with --billboard socket:<path> or
// tcp:<host>:<port>; each connection opens a private board unless it names
// a shared one.
//
//   acp_billboardd --listen socket:/tmp/acp-bb.sock
//   acp_billboardd --listen tcp:127.0.0.1:7117
//
// Runs until SIGINT/SIGTERM, then prints final stats to stderr and exits 0.
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "acp/billboard/server.hpp"
#include "acp/net/socket.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "acp_billboardd — billboard service daemon (acp.bbwire.v1)\n"
        "\n"
        "usage: acp_billboardd --listen ENDPOINT [--io-threads N]\n"
        "                      [--shards S] [--quiet]\n"
        "\n"
        "  --listen E     socket:<path> (Unix) or tcp:<host>:<port>; tcp\n"
        "                 port 0 picks a free port and prints the bound\n"
        "                 endpoint\n"
        "  --io-threads N poll loops / cores to use (default 1); named\n"
        "                 boards are sharded across them, each staying\n"
        "                 single-writer\n"
        "  --shards S     board-name hash buckets (default: io-threads);\n"
        "                 overshard (e.g. 4x threads) for stable placement\n"
        "                 across different --io-threads values\n"
        "  --quiet        suppress the startup/shutdown lines on stderr\n"
        "  --help         this text\n";
  return code;
}

std::size_t parse_count(const char* name, const std::string& value) {
  const unsigned long parsed = std::stoul(value);
  if (parsed == 0) {
    throw std::runtime_error(std::string(name) + " must be >= 1");
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen;
  bool quiet = false;
  acp::BillboardServer::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--listen" || arg == "--io-threads" ||
               arg == "--shards") {
      if (i + 1 >= argc) {
        std::cerr << "acp_billboardd: missing value after " << arg << "\n";
        return 2;
      }
      const std::string value = argv[++i];
      try {
        if (arg == "--listen") {
          listen = value;
        } else if (arg == "--io-threads") {
          options.io_threads = parse_count("--io-threads", value);
        } else {
          options.shards = parse_count("--shards", value);
        }
      } catch (const std::exception& e) {
        std::cerr << "acp_billboardd: bad value for " << arg << ": "
                  << e.what() << "\n";
        return 2;
      }
    } else {
      std::cerr << "acp_billboardd: unknown option " << arg
                << " (try --help)\n";
      return 2;
    }
  }
  if (listen.empty()) {
    return usage(std::cerr, 2);
  }

  try {
    // Block the shutdown signals before the server thread starts so they
    // are only ever delivered to this thread's sigwait.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    acp::BillboardServer server(acp::net::Endpoint::parse(listen), options);
    server.start();
    if (!quiet) {
      std::cerr << "acp_billboardd: listening on "
                << server.endpoint().to_string() << " (io-threads="
                << server.io_threads() << " shards=" << server.shards()
                << ")\n";
    }

    int signal_number = 0;
    while (sigwait(&signals, &signal_number) != 0) {
    }
    server.stop();

    const auto stats = server.stats();
    if (!quiet) {
      std::cerr << "acp_billboardd: " << strsignal(signal_number)
                << " — shutting down (sessions=" << stats.sessions_opened
                << " boards=" << stats.boards << " commits=" << stats.commits
                << " posts=" << stats.posts << " pulls=" << stats.pulls
                << " forwarded="
                << stats.forwarded << " errors=" << stats.errors << ")\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "acp_billboardd: " << e.what() << "\n";
    return 1;
  }
}
