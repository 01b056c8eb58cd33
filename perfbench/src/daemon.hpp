// A private acp_billboardd for one remote trial.
//
// Every remote trial gets a fresh daemon, because the server never frees a
// board it has seen. The daemon listens on a socket path private to the
// trial, is waited for with a bounded deadline (its "listening on" line on
// stderr), and is killed on every exit path: the destructor sends SIGKILL
// if stop() did not run, and the child asks the kernel for SIGKILL should
// this process die first. stop() reads the daemon's peak RSS, asks it to
// shut down, and parses its shutdown stats line.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

/// The counts of the daemon's shutdown stats line.
struct ServerStats {
  std::uint64_t commits = 0;
  std::uint64_t posts = 0;
  std::uint64_t errors = 0;
  double peak_rss_mb = 0.0;  ///< VmHWM read just before shutdown
};

/// Parse "... commits=N posts=N ... errors=N)" as printed by acp_billboardd
/// at shutdown. Returns false when a field is missing.
[[nodiscard]] bool parse_server_stats(const std::string& line,
                                      ServerStats& out);

class Daemon {
 public:
  /// Spawn `binary --listen socket:<socket_path>` and wait until it
  /// listens. Throws std::runtime_error if it exits or is not ready
  /// within `deadline`; the child is killed first.
  Daemon(const std::string& binary, std::string socket_path,
         std::chrono::milliseconds deadline = std::chrono::seconds(10));
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&&) = delete;
  Daemon& operator=(Daemon&&) = delete;

  /// "socket:<path>", the billboard backend string clients connect to.
  [[nodiscard]] std::string backend() const { return "socket:" + socket_path_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// SIGTERM, then wait (bounded) for the stats line and the exit. Throws
  /// std::runtime_error if the daemon hangs (it is killed) or its stats
  /// line cannot be parsed.
  [[nodiscard]] ServerStats stop(
      std::chrono::milliseconds deadline = std::chrono::seconds(10));

 private:
  void kill_now() noexcept;
  /// Collect the daemon's stderr until it contains `needle` (or, for a
  /// null needle, until EOF). False on timeout or an early EOF.
  bool read_stderr(const char* needle, std::chrono::milliseconds deadline);

  std::string socket_path_;
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::string stderr_text_;
};

}  // namespace perfbench
