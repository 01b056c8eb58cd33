#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench {

namespace {

bool read_field(const std::string& line, const char* key, std::uint64_t& out) {
  const std::string pattern = std::string(" ") + key + "=";
  const auto at = line.find(pattern);
  if (at == std::string::npos) return false;
  const char* begin = line.c_str() + at + pattern.size();
  char* end = nullptr;
  out = std::strtoull(begin, &end, 10);
  return end != begin;
}

}  // namespace

bool parse_server_stats(const std::string& line, ServerStats& out) {
  return read_field(line, "commits", out.commits) &&
         read_field(line, "posts", out.posts) &&
         read_field(line, "errors", out.errors);
}

Daemon::Daemon(const std::string& binary, std::string socket_path,
               std::chrono::milliseconds deadline)
    : socket_path_(std::move(socket_path)) {
  ::unlink(socket_path_.c_str());
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("daemon: pipe failed");
  }
  // Everything the child touches is prepared before fork: between fork
  // and exec only async-signal-safe calls are allowed.
  const std::string listen = "socket:" + socket_path_;
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             const_cast<char*>("--listen"),
                             const_cast<char*>(listen.c_str()), nullptr};
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("daemon: fork failed");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent already gone
    ::dup2(pipe_fds[1], STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];
  if (!read_stderr("listening on", deadline)) {
    kill_now();
    throw std::runtime_error("daemon " + binary + " not ready on " +
                             socket_path_ + ": " + stderr_text_);
  }
}

Daemon::~Daemon() { kill_now(); }

void Daemon::kill_now() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) {
    ::close(stderr_fd_);
    stderr_fd_ = -1;
  }
  ::unlink(socket_path_.c_str());
}

bool Daemon::read_stderr(const char* needle,
                         std::chrono::milliseconds deadline) {
  const auto until = Clock::now() + deadline;
  char buffer[4096];
  for (;;) {
    if (needle != nullptr && stderr_text_.find(needle) != std::string::npos) {
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - Clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{stderr_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t got = ::read(stderr_fd_, buffer, sizeof buffer);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return needle == nullptr;  // EOF: the daemon exited
    stderr_text_.append(buffer, static_cast<std::size_t>(got));
  }
}

ServerStats Daemon::stop(std::chrono::milliseconds deadline) {
  ServerStats stats;
  stats.peak_rss_mb = vm_hwm_mb(pid_);
  ::kill(pid_, SIGTERM);
  const std::size_t before = stderr_text_.size();
  if (!read_stderr(nullptr, deadline)) {
    kill_now();
    throw std::runtime_error("daemon did not shut down within the deadline");
  }
  // The pipe reached EOF; reap the child without blocking for long.
  const auto until = Clock::now() + deadline;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > until) {
      kill_now();
      throw std::runtime_error("daemon did not exit within the deadline");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  kill_now();  // closes the pipe and removes the socket path
  const std::string tail = stderr_text_.substr(before);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !parse_server_stats(tail, stats)) {
    throw std::runtime_error("daemon shutdown failed: " + tail);
  }
  return stats;
}

}  // namespace perfbench
