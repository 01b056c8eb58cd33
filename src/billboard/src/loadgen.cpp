#include "acp/billboard/loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "acp/billboard/wire.hpp"
#include "acp/net/frame.hpp"
#include "acp/util/contracts.hpp"

namespace acp {

namespace {

using Clock = std::chrono::steady_clock;
using bbwire::MsgType;

constexpr std::size_t kRecvChunk = 16 * 1024;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum class State {
  kUnconnected,  ///< socket not yet created or connect got EAGAIN
  kConnecting,   ///< connect in progress (EINPROGRESS), wait writable
  kOpening,      ///< kOpen sent, waiting for kOpenOk
  kIdle,         ///< opened, parked until the next phase begins
  kPosting,      ///< commit in flight
  kPosted,       ///< all batches acked, parked until the read phase
  kReading,      ///< pull in flight
  kDone,
  kDead,
};

struct Client {
  net::FdHandle fd;
  State state = State::kUnconnected;
  net::FrameAssembler assembler;
  std::vector<std::uint8_t> outbuf;
  std::size_t out_off = 0;
  std::size_t batches_queued = 0;  ///< commits sent (acked or in flight)
  std::size_t batches_done = 0;    ///< commits acked
  std::size_t inflight = 0;        ///< unacked in-flight commits
  std::uint64_t acked_size = 0;  ///< board size its last commit ack reported
  std::size_t reads_done = 0;
  std::uint64_t rng = 0;
  Clock::time_point read_start{};
  std::size_t index = 0;  ///< global across driver threads

  [[nodiscard]] bool wants_write() const noexcept {
    return state == State::kConnecting || out_off < outbuf.size();
  }
  [[nodiscard]] bool alive() const noexcept {
    return state != State::kDone && state != State::kDead &&
           state != State::kUnconnected;
  }
};

class Loadgen {
 public:
  /// Drives `options.clients` connections whose global indices start at
  /// `first_client` — the seeding input, so a slice of a larger swarm
  /// generates exactly the posts it would in a single-threaded run.
  Loadgen(const LoadgenOptions& options, std::size_t first_client)
      : opt_(options) {
    ACP_EXPECTS(opt_.clients >= 1);
    ACP_EXPECTS(opt_.players >= 1);
    ACP_EXPECTS(opt_.objects >= 1);
    ACP_EXPECTS(!opt_.board.empty() || !opt_.board_list.empty());
    ACP_EXPECTS(opt_.pipeline >= 1);
    clients_.resize(opt_.clients);
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      clients_[i].index = first_client + i;
      clients_[i].rng =
          opt_.seed * 0x9E3779B97F4A7C15ull + clients_[i].index;
    }
  }

  LoadgenReport run() {
    latencies_.reserve(opt_.clients * opt_.reads);
    loop();
    finish_report();
    return report_;
  }

  /// Raw per-read samples (for cross-thread percentile merging).
  [[nodiscard]] std::vector<std::uint64_t> take_latencies() {
    return std::move(latencies_);
  }

 private:
  void loop() {
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_owner;
    while (finished_ < clients_.size()) {
      maybe_advance_phase();
      // (Re)try outstanding connects; a full listen backlog yields
      // EAGAIN, which resolves as the server drains accepts.
      for (Client& client : clients_) {
        if (client.state == State::kUnconnected) {
          start_connect(client);
        }
      }
      fds.clear();
      fd_owner.clear();
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        const Client& client = clients_[c];
        if (!client.alive()) {
          continue;
        }
        short events = POLLIN;
        if (client.wants_write()) {
          events = static_cast<short>(events | POLLOUT);
        }
        fds.push_back(pollfd{client.fd.get(), events, 0});
        // Slot in clients_, NOT client.index — indices are global across
        // driver threads, this vector is one thread's slice.
        fd_owner.push_back(c);
      }
      if (fds.empty()) {
        if (finished_ < clients_.size()) {
          // Everyone is waiting on a connect retry; give the server a
          // moment to drain its accept backlog instead of spinning.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        continue;
      }
      const int n = ::poll(fds.data(), fds.size(), 30'000);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw net::SocketError("poll failed in bbload");
      }
      if (n == 0) {
        // 30 s of total silence: the server is gone. Fail what's left.
        for (Client& client : clients_) {
          if (client.alive()) {
            kill(client);
          }
        }
        break;
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) {
          continue;
        }
        Client& client = clients_[fd_owner[i]];
        if (!client.alive()) {
          continue;
        }
        if ((fds[i].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0 &&
            (fds[i].revents & POLLIN) == 0) {
          kill(client);
          continue;
        }
        if ((fds[i].revents & POLLOUT) != 0) {
          on_writable(client);
        }
        if (client.alive() && (fds[i].revents & POLLIN) != 0) {
          on_readable(client);
        }
      }
    }
  }

  void start_connect(Client& client) {
    const int family =
        opt_.endpoint.kind == net::Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
    if (!client.fd.valid()) {
      client.fd = net::FdHandle(::socket(family, SOCK_STREAM, 0));
      if (!client.fd.valid()) {
        kill(client);
        return;
      }
      net::set_nonblocking(client.fd.get(), true);
      if (opt_.endpoint.kind == net::Endpoint::Kind::kTcp) {
        // Commits are small frames on a request/response path; without
        // this, Nagle serializes the pipelined window to one frame/RTT.
        net::set_nodelay(client.fd.get());
      }
    }
    // Reuse the blocking helper's address formatting by connecting
    // through a short-lived blocking attempt only for TCP? No — keep one
    // code path: nonblocking connect, classify errno.
    if (try_connect(client)) {
      client.state = State::kOpening;
      queue_open(client);
      flush(client);
    }
  }

  /// Returns true when connected; leaves the client kUnconnected on
  /// EAGAIN (retry) or kConnecting on EINPROGRESS; kills it otherwise.
  bool try_connect(Client& client) {
    int rc = 0;
    if (opt_.endpoint.kind == net::Endpoint::Kind::kUnix) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (opt_.endpoint.path.size() >= sizeof(addr.sun_path)) {
        kill(client);
        return false;
      }
      std::copy(opt_.endpoint.path.begin(), opt_.endpoint.path.end(),
                addr.sun_path);
      rc = ::connect(client.fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
    } else {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(opt_.endpoint.port);
      const std::string host = opt_.endpoint.host == "localhost"
                                   ? std::string("127.0.0.1")
                                   : opt_.endpoint.host;
      if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        kill(client);
        return false;
      }
      rc = ::connect(client.fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
    }
    if (rc == 0) {
      return true;
    }
    if (errno == EINPROGRESS) {
      client.state = State::kConnecting;
      return false;
    }
    if (errno == EAGAIN) {
      // Unix-socket backlog pressure; retry on the next loop pass with a
      // fresh socket once the server has drained some accepts.
      client.fd.reset();
      client.state = State::kUnconnected;
      return false;
    }
    kill(client);
    return false;
  }

  void on_writable(Client& client) {
    if (client.state == State::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(client.fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        kill(client);
        return;
      }
      client.state = State::kOpening;
      queue_open(client);
    }
    flush(client);
  }

  void flush(Client& client) {
    while (client.out_off < client.outbuf.size()) {
      const ssize_t n = ::send(client.fd.get(),
                               client.outbuf.data() + client.out_off,
                               client.outbuf.size() - client.out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        client.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      kill(client);
      return;
    }
    client.outbuf.clear();
    client.out_off = 0;
  }

  void on_readable(Client& client) {
    read_frames(client);
    // Everything the acks queued (pipeline top-ups, next reads) goes
    // out in one send — coalescing on the client side too.
    if (client.alive()) {
      flush(client);
    }
  }

  void read_frames(Client& client) {
    std::uint8_t chunk[kRecvChunk];
    for (;;) {
      const ssize_t n = ::recv(client.fd.get(), chunk, sizeof(chunk), 0);
      if (n > 0) {
        client.assembler.append(std::span<const std::uint8_t>(
            chunk, static_cast<std::size_t>(n)));
        if (!drain_frames(client)) {
          return;
        }
        continue;
      }
      if (n == 0) {
        kill(client);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      if (errno == EINTR) {
        continue;
      }
      kill(client);
      return;
    }
  }

  /// Returns false once the client died while processing.
  bool drain_frames(Client& client) {
    for (;;) {
      std::optional<net::Frame> frame;
      try {
        frame = client.assembler.next();
      } catch (const net::WireFormatError&) {
        kill(client);
        return false;
      }
      if (!frame) {
        return true;
      }
      if (!handle_frame(client, *frame)) {
        return false;
      }
    }
  }

  bool handle_frame(Client& client, const net::Frame& frame) {
    const MsgType type = static_cast<MsgType>(frame.type);
    try {
      switch (client.state) {
        case State::kOpening:
          if (type != MsgType::kOpenOk) {
            kill(client);
            return false;
          }
          (void)bbwire::decode_board_state(frame.payload, MsgType::kOpenOk);
          client.state = State::kIdle;
          ++opened_;
          ++report_.clients_connected;
          return true;
        case State::kPosting:
          if (type != MsgType::kCommitOk) {
            kill(client);
            return false;
          }
          client.acked_size =
              bbwire::decode_board_state(frame.payload, MsgType::kCommitOk)
                  .size;
          --client.inflight;
          report_.posts += opt_.batch_posts;
          ++client.batches_done;
          if (client.batches_done >= opt_.batches) {
            client.state = State::kPosted;
            ++posted_;
          } else {
            queue_commits(client);  // top up the window; caller flushes
          }
          return true;
        case State::kReading: {
          if (type != MsgType::kPosts) {
            kill(client);
            return false;
          }
          (void)bbwire::decode_posts(frame.payload, opt_.players,
                                     opt_.objects);
          const auto elapsed = Clock::now() - client.read_start;
          latencies_.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
          ++report_.reads;
          ++client.reads_done;
          if (client.reads_done < opt_.reads) {
            queue_read(client);
          } else {
            client.state = State::kDone;
            ++finished_;
          }
          return true;
        }
        default:
          kill(client);
          return false;
      }
    } catch (const net::WireFormatError&) {
      kill(client);
      return false;
    }
  }

  [[nodiscard]] const std::string& board_for(const Client& client) const {
    if (opt_.board_list.empty()) {
      return opt_.board;
    }
    return opt_.board_list[client.index % opt_.board_list.size()];
  }

  void queue_open(Client& client) {
    bbwire::OpenMsg open;
    open.mode = 1;  // replica: many writers, server-assigned arrival order
    open.num_players = opt_.players;
    open.num_objects = opt_.objects;
    open.board = board_for(client);
    bbwire::encode_open(client.outbuf, open);
  }

  /// Encode commits until the in-flight window is full (or the batch
  /// budget spent). Appends only; the caller flushes once.
  void queue_commits(Client& client) {
    while (client.batches_queued < opt_.batches &&
           client.inflight < opt_.pipeline) {
      post_scratch_.clear();
      const Round round = static_cast<Round>(client.batches_queued);
      for (std::size_t i = 0; i < opt_.batch_posts; ++i) {
        Post post;
        post.author = PlayerId(client.index % opt_.players);
        post.round = round;
        post.object = ObjectId(static_cast<std::size_t>(
            splitmix64(client.rng) % opt_.objects));
        post.reported_value =
            static_cast<double>(splitmix64(client.rng) % 1000) / 1000.0;
        post.positive = true;
        post_scratch_.push_back(post);
      }
      bbwire::encode_commit(client.outbuf, round, post_scratch_);
      ++client.batches_queued;
      ++client.inflight;
    }
    client.state = State::kPosting;
  }

  /// Pull the tail the client's last commit ack reported: the last
  /// batch_posts posts of the board as it stood then.
  void queue_read(Client& client) {
    const std::uint64_t end = client.acked_size;
    const std::uint64_t begin =
        end - std::min<std::uint64_t>(end, opt_.batch_posts);
    client.read_start = Clock::now();
    bbwire::encode_pull(client.outbuf, bbwire::PullMsg{begin, end});
    client.state = State::kReading;
  }

  void kill(Client& client) {
    if (client.state == State::kDead || client.state == State::kDone) {
      return;
    }
    // Un-park the phase counters this client can no longer reach.
    if (client.state == State::kOpening || client.state == State::kConnecting ||
        client.state == State::kUnconnected) {
      ++opened_;  // counts as "resolved", not as connected
    }
    if (client.state != State::kPosted && phase_ <= 1) {
      ++posted_;
    }
    client.state = State::kDead;
    client.fd.reset();
    ++report_.errors;
    ++finished_;
  }

  void maybe_advance_phase() {
    if (phase_ == 0 && opened_ >= clients_.size()) {
      phase_ = 1;
      post_clock_start_ = Clock::now();
      if (opt_.batches == 0) {
        for (Client& client : clients_) {
          if (client.state == State::kIdle) {
            client.state = State::kPosted;
            ++posted_;
          }
        }
      } else {
        for (Client& client : clients_) {
          if (client.state == State::kIdle) {
            queue_commits(client);
            flush(client);
          }
        }
      }
    }
    if (phase_ == 1 && posted_ >= clients_.size()) {
      phase_ = 2;
      report_.post_seconds =
          std::chrono::duration<double>(Clock::now() - post_clock_start_)
              .count();
      read_clock_start_ = Clock::now();
      for (Client& client : clients_) {
        if (client.state != State::kPosted) {
          continue;
        }
        if (opt_.reads == 0) {
          client.state = State::kDone;
          ++finished_;
        } else {
          queue_read(client);
          flush(client);
        }
      }
    }
  }

  void finish_report() {
    if (phase_ >= 2) {
      report_.read_seconds =
          std::chrono::duration<double>(Clock::now() - read_clock_start_)
              .count();
    }
    if (report_.post_seconds > 0.0) {
      report_.posts_per_sec =
          static_cast<double>(report_.posts) / report_.post_seconds;
    }
    if (!latencies_.empty()) {
      std::sort(latencies_.begin(), latencies_.end());
      report_.read_p50_ns = latencies_[latencies_.size() / 2];
      report_.read_p99_ns =
          latencies_[std::min(latencies_.size() - 1,
                              latencies_.size() * 99 / 100)];
    }
  }

  LoadgenOptions opt_;
  std::vector<Client> clients_;
  std::vector<Post> post_scratch_;
  std::vector<std::uint64_t> latencies_;
  LoadgenReport report_;
  int phase_ = 0;
  std::size_t opened_ = 0;
  std::size_t posted_ = 0;
  std::size_t finished_ = 0;
  Clock::time_point post_clock_start_{};
  Clock::time_point read_clock_start_{};
};

}  // namespace

LoadgenReport run_loadgen(const LoadgenOptions& options) {
  const std::size_t limit = net::raise_nofile_limit(options.clients + 64);
  if (limit < options.clients + 64) {
    throw net::SocketError(
        "cannot open " + std::to_string(options.clients) +
        " connections: RLIMIT_NOFILE is " + std::to_string(limit) +
        " (raise the hard limit or lower --clients)");
  }
  const std::size_t threads = std::max<std::size_t>(
      1, std::min(options.threads, std::max<std::size_t>(1, options.clients)));
  if (threads == 1) {
    return Loadgen(options, 0).run();
  }

  struct Slice {
    LoadgenReport report;
    std::vector<std::uint64_t> latencies;
    std::string error;
  };
  std::vector<Slice> slices(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  std::size_t base = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t count =
        options.clients / threads + (t < options.clients % threads ? 1 : 0);
    LoadgenOptions slice_options = options;
    slice_options.clients = count;
    Slice& slice = slices[t];
    pool.emplace_back([slice_options, base, &slice] {
      try {
        Loadgen generator(slice_options, base);
        slice.report = generator.run();
        slice.latencies = generator.take_latencies();
      } catch (const std::exception& error) {
        slice.error = error.what();
      }
    });
    base += count;
  }
  for (std::thread& thread : pool) {
    thread.join();
  }

  LoadgenReport merged;
  std::vector<std::uint64_t> latencies;
  for (Slice& slice : slices) {
    if (!slice.error.empty()) {
      throw net::SocketError("bbload driver thread failed: " + slice.error);
    }
    merged.clients_connected += slice.report.clients_connected;
    merged.posts += slice.report.posts;
    merged.reads += slice.report.reads;
    merged.errors += slice.report.errors;
    // The slices overlap in time, so the aggregate rate is the sum of
    // per-thread steady-state rates; seconds report the slowest slice.
    merged.posts_per_sec += slice.report.posts_per_sec;
    merged.post_seconds =
        std::max(merged.post_seconds, slice.report.post_seconds);
    merged.read_seconds =
        std::max(merged.read_seconds, slice.report.read_seconds);
    latencies.insert(latencies.end(), slice.latencies.begin(),
                     slice.latencies.end());
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    merged.read_p50_ns = latencies[latencies.size() / 2];
    merged.read_p99_ns = latencies[std::min(
        latencies.size() - 1, latencies.size() * 99 / 100)];
  }
  return merged;
}

}  // namespace acp
