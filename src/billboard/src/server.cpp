#include "acp/billboard/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <utility>

#include "acp/util/contracts.hpp"

namespace acp {

namespace {

constexpr std::size_t kRecvChunk = 64 * 1024;

// Session ids are per-core and never reused, so (worker, session) packs
// into a token that is unique for the server's lifetime.
constexpr unsigned kTokenShift = 48;

constexpr std::uint64_t make_token(std::size_t worker,
                                   std::uint64_t session) noexcept {
  return (static_cast<std::uint64_t>(worker) << kTokenShift) | session;
}

constexpr std::size_t token_worker(std::uint64_t token) noexcept {
  return static_cast<std::size_t>(token >> kTokenShift);
}

constexpr std::uint64_t token_session(std::uint64_t token) noexcept {
  return token & ((std::uint64_t{1} << kTokenShift) - 1);
}

}  // namespace

BillboardServer::BillboardServer(const net::Endpoint& endpoint)
    : BillboardServer(endpoint, Options{}) {}

BillboardServer::BillboardServer(const net::Endpoint& endpoint,
                                 Options options)
    : listener_(endpoint) {
  // A dead client must not kill the daemon mid-reply: sends use
  // MSG_NOSIGNAL, and this covers any path that can't.
  net::ignore_sigpipe();
  net::set_nonblocking(listener_.fd(), true);
  const std::size_t io_threads = std::max<std::size_t>(1, options.io_threads);
  shards_ = std::max(options.shards == 0 ? io_threads : options.shards,
                     io_threads);
  workers_.reserve(io_threads);
  for (std::size_t i = 0; i < io_threads; ++i) {
    auto worker = std::make_unique<Worker>(i, io_threads, shards_);
    auto [read_end, write_end] = net::stream_pair();
    worker->wake_read = std::move(read_end);
    worker->wake_write = std::move(write_end);
    net::set_nonblocking(worker->wake_read.get(), true);
    worker->recv_buf.resize(kRecvChunk);
    workers_.push_back(std::move(worker));
  }
}

BillboardServer::~BillboardServer() { stop(); }

void BillboardServer::start() {
  ACP_EXPECTS(!thread_.joinable());
  stop_requested_.store(false);
  thread_ = std::thread([this] { serve(); });
  while (!running_.load(std::memory_order_acquire) &&
         !stop_requested_.load()) {
    // Bind already happened in the constructor, so a connect() racing
    // this spin would be queued by the listen backlog anyway.
    std::this_thread::yield();
  }
}

void BillboardServer::stop() {
  stop_requested_.store(true);
  const std::uint8_t byte = 0;
  for (const auto& worker : workers_) {
    ::send(worker->wake_write.get(), &byte, 1, MSG_NOSIGNAL);
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

BillboardServerCore::Stats BillboardServer::stats() const {
  BillboardServerCore::Stats total;
  for (const auto& worker : workers_) {
    const std::lock_guard<std::mutex> lock(worker->core_mutex);
    const BillboardServerCore::Stats s = worker->core.stats();
    total.sessions_opened += s.sessions_opened;
    total.sessions_active += s.sessions_active;
    total.boards += s.boards;
    total.commits += s.commits;
    total.posts += s.posts;
    total.pulls += s.pulls;
    total.errors += s.errors;
    total.forwarded += s.forwarded;
  }
  return total;
}

void BillboardServer::serve() {
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    Worker& worker = *workers_[i];
    worker.thread = std::thread([this, &worker] { worker_loop(worker); });
  }
  running_.store(true, std::memory_order_release);
  worker_loop(*workers_[0]);
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    if (workers_[i]->thread.joinable()) {
      workers_[i]->thread.join();
    }
  }
  running_.store(false, std::memory_order_release);
}

void BillboardServer::post(std::size_t target, Envelope envelope) {
  Worker& worker = *workers_[target];
  bool was_empty = false;
  {
    const std::lock_guard<std::mutex> lock(worker.inbox_mutex);
    was_empty = worker.inbox.empty();
    worker.inbox.push_back(std::move(envelope));
  }
  if (was_empty) {
    const std::uint8_t byte = 0;
    ::send(worker.wake_write.get(), &byte, 1, MSG_NOSIGNAL);
  }
}

void BillboardServer::worker_loop(Worker& worker) {
#ifdef __linux__
  worker_epoll(worker);
#else
  worker_poll(worker);
#endif
  // Close whatever is still connected so a restart starts clean.
  for (auto& [fd, conn] : worker.conns) {
    const std::lock_guard<std::mutex> lock(worker.core_mutex);
    worker.core.close_session(conn.session);
  }
  worker.conns.clear();
  worker.session_fd.clear();
}

void BillboardServer::drain_inbox(Worker& worker) {
  worker.drain.clear();
  {
    const std::lock_guard<std::mutex> lock(worker.inbox_mutex);
    worker.drain.swap(worker.inbox);
  }
  for (Envelope& envelope : worker.drain) {
    switch (envelope.kind) {
      case Envelope::Kind::kAccept:
        adopt_conn(worker, std::move(envelope.fd));
        break;
      case Envelope::Kind::kRequest: {
        worker.reply_buf.clear();
        {
          const std::lock_guard<std::mutex> lock(worker.core_mutex);
          worker.core.apply_forwarded(envelope.token, envelope.type,
                                      envelope.payload, worker.reply_buf);
        }
        if (!worker.reply_buf.empty()) {
          Envelope reply;
          reply.kind = Envelope::Kind::kReply;
          reply.token = envelope.token;
          reply.payload = worker.reply_buf;
          post(token_worker(envelope.token), std::move(reply));
        }
        break;
      }
      case Envelope::Kind::kReply: {
        const auto it = worker.session_fd.find(token_session(envelope.token));
        if (it == worker.session_fd.end()) {
          break;  // connection already gone; drop the reply
        }
        const auto conn_it = worker.conns.find(it->second);
        if (conn_it == worker.conns.end()) {
          break;
        }
        Conn& conn = conn_it->second;
        conn.outbuf.insert(conn.outbuf.end(), envelope.payload.begin(),
                           envelope.payload.end());
        mark_dirty(worker, it->second, conn);
        break;
      }
      case Envelope::Kind::kClose: {
        const std::lock_guard<std::mutex> lock(worker.core_mutex);
        worker.core.close_forwarded(envelope.token);
        break;
      }
    }
  }
  worker.drain.clear();
}

void BillboardServer::accept_ready(Worker& worker) {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;
      }
      // EMFILE & friends: drop this readiness edge, keep serving the
      // connections we have.
      return;
    }
    net::set_nonblocking(fd, true);
    if (listener_.endpoint().kind == net::Endpoint::Kind::kTcp) {
      net::set_nodelay(fd);
    }
    net::FdHandle handle(fd);
    const std::size_t target = next_accept_++ % workers_.size();
    if (target == worker.index) {
      adopt_conn(worker, std::move(handle));
    } else {
      Envelope envelope;
      envelope.kind = Envelope::Kind::kAccept;
      envelope.fd = std::move(handle);
      post(target, std::move(envelope));
    }
  }
}

void BillboardServer::adopt_conn(Worker& worker, net::FdHandle fd) {
  const int raw = fd.get();
  Conn conn;
  conn.fd = std::move(fd);
  {
    const std::lock_guard<std::mutex> lock(worker.core_mutex);
    conn.session = worker.core.open_session();
  }
  worker.session_fd.emplace(conn.session, raw);
  worker.conns.emplace(raw, std::move(conn));
  update_interest(worker, raw, worker.conns.at(raw));
}

bool BillboardServer::conn_readable(Worker& worker, Conn& conn) {
  const auto forward = [this, &worker](std::size_t owner,
                                       std::uint64_t session,
                                       std::uint8_t type,
                                       std::span<const std::uint8_t> payload) {
    Envelope envelope;
    envelope.kind = Envelope::Kind::kRequest;
    envelope.token = make_token(worker.index, session);
    envelope.type = type;
    envelope.payload.assign(payload.begin(), payload.end());
    post(owner, std::move(envelope));
  };
  for (;;) {
    const ssize_t n = ::recv(conn.fd.get(), worker.recv_buf.data(),
                             worker.recv_buf.size(), 0);
    if (n > 0) {
      bool keep = true;
      {
        const std::lock_guard<std::mutex> lock(worker.core_mutex);
        keep = worker.core.on_bytes(
            conn.session,
            std::span<const std::uint8_t>(worker.recv_buf.data(),
                                          static_cast<std::size_t>(n)),
            conn.outbuf, forward);
      }
      if (!keep) {
        // Flush the final error frame if the peer still reads, then
        // close (the iteration-end flush handles both).
        conn.closing = true;
        return true;
      }
      continue;
    }
    if (n == 0) {
      return false;  // orderly EOF
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    }
    if (errno == EINTR) {
      continue;
    }
    return false;  // ECONNRESET etc.
  }
}

bool BillboardServer::conn_writable(Conn& conn) {
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.outbuf.data() + conn.out_off,
               conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // wait for the next writable edge
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // peer is gone
  }
  conn.outbuf.clear();
  conn.out_off = 0;
  return !conn.closing;
}

void BillboardServer::mark_dirty(Worker& worker, int fd, Conn& conn) {
  if (!conn.dirty) {
    conn.dirty = true;
    worker.dirty.push_back(fd);
  }
}

void BillboardServer::flush_dirty(Worker& worker) {
  for (const int fd : worker.dirty) {
    const auto it = worker.conns.find(fd);
    if (it == worker.conns.end()) {
      continue;  // closed earlier this iteration
    }
    Conn& conn = it->second;
    conn.dirty = false;
    if (!conn_writable(conn)) {
      close_conn(worker, fd);
      continue;
    }
    update_interest(worker, fd, conn);
  }
  worker.dirty.clear();
}

void BillboardServer::close_conn(Worker& worker, int fd) {
  const auto it = worker.conns.find(fd);
  if (it == worker.conns.end()) {
    return;
  }
  std::optional<std::size_t> owner;
  {
    const std::lock_guard<std::mutex> lock(worker.core_mutex);
    owner = worker.core.close_session(it->second.session);
  }
  if (owner) {
    // Tell the board owner to drop the forwarded session's binding.
    Envelope envelope;
    envelope.kind = Envelope::Kind::kClose;
    envelope.token = make_token(worker.index, it->second.session);
    post(*owner, std::move(envelope));
  }
  worker.session_fd.erase(it->second.session);
#ifdef __linux__
  if (worker.epoll_fd >= 0) {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  }
#endif
  worker.conns.erase(it);  // FdHandle closes the socket
}

void BillboardServer::update_interest(Worker& worker, int fd, Conn& conn) {
#ifdef __linux__
  if (worker.epoll_fd < 0) {
    return;
  }
  const bool want_write = wants_write(conn);
  epoll_event event{};
  event.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  event.data.fd = fd;
  if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, fd, &event) != 0 &&
      errno == ENOENT) {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &event);
  }
  conn.reg_write = want_write;
#else
  (void)worker;
  (void)fd;
  (void)conn;
#endif
  // poll backend rebuilds its fd set every iteration; nothing to update.
}

#ifdef __linux__
void BillboardServer::worker_epoll(Worker& worker) {
  net::FdHandle epoll_holder(::epoll_create1(0));
  if (!epoll_holder.valid()) {
    throw net::SocketError("epoll_create1 failed");
  }
  worker.epoll_fd = epoll_holder.get();
  epoll_event event{};
  event.events = EPOLLIN;
  if (worker.index == 0) {
    event.data.fd = listener_.fd();
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &event);
  }
  event.data.fd = worker.wake_read.get();
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, worker.wake_read.get(), &event);

  std::vector<epoll_event> events(1024);
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(worker.epoll_fd, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (fd == worker.wake_read.get()) {
        std::uint8_t sink[64];
        while (::recv(worker.wake_read.get(), sink, sizeof(sink), 0) > 0) {
        }
        drain_inbox(worker);
        continue;
      }
      if (worker.index == 0 && fd == listener_.fd()) {
        accept_ready(worker);
        continue;
      }
      const auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) {
        continue;
      }
      Conn& conn = it->second;
      bool alive = true;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0 && (mask & EPOLLIN) == 0) {
        alive = false;
      }
      if (alive && (mask & EPOLLIN) != 0 && !conn.closing) {
        alive = conn_readable(worker, conn);
      }
      if (!alive) {
        close_conn(worker, fd);
        continue;
      }
      // Reads queued replies; EPOLLOUT means backlog can drain. Either
      // way the iteration-end flush takes it from here.
      if (!conn.outbuf.empty() || (mask & EPOLLOUT) != 0 || conn.closing) {
        mark_dirty(worker, fd, conn);
      }
    }
    flush_dirty(worker);
    if (n == static_cast<int>(events.size())) {
      events.resize(events.size() * 2);
    }
  }
  worker.epoll_fd = -1;
}
#else
void BillboardServer::worker_epoll(Worker& worker) { worker_poll(worker); }
#endif

void BillboardServer::worker_poll(Worker& worker) {
  std::vector<pollfd> fds;
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    fds.clear();
    const std::size_t listener_slot = worker.index == 0 ? 0 : SIZE_MAX;
    if (worker.index == 0) {
      fds.push_back(pollfd{listener_.fd(), static_cast<short>(POLLIN), 0});
    }
    const std::size_t wake_slot = fds.size();
    fds.push_back(pollfd{worker.wake_read.get(), static_cast<short>(POLLIN),
                         0});
    const std::size_t conn_base = fds.size();
    for (const auto& [fd, conn] : worker.conns) {
      fds.push_back(pollfd{
          fd, static_cast<short>(POLLIN | (wants_write(conn) ? POLLOUT : 0)),
          0});
    }
    const int n = ::poll(fds.data(), fds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if ((fds[wake_slot].revents & POLLIN) != 0) {
      std::uint8_t sink[64];
      while (::recv(worker.wake_read.get(), sink, sizeof(sink), 0) > 0) {
      }
      drain_inbox(worker);
    }
    if (listener_slot != SIZE_MAX &&
        (fds[listener_slot].revents & POLLIN) != 0) {
      accept_ready(worker);
    }
    for (std::size_t i = conn_base; i < fds.size(); ++i) {
      if (fds[i].revents == 0) {
        continue;
      }
      const auto it = worker.conns.find(fds[i].fd);
      if (it == worker.conns.end()) {
        continue;
      }
      Conn& conn = it->second;
      bool alive = true;
      if ((fds[i].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0 &&
          (fds[i].revents & POLLIN) == 0) {
        alive = false;
      }
      if (alive && (fds[i].revents & POLLIN) != 0 && !conn.closing) {
        alive = conn_readable(worker, conn);
      }
      if (!alive) {
        close_conn(worker, fds[i].fd);
        continue;
      }
      if (!conn.outbuf.empty() || (fds[i].revents & POLLOUT) != 0 ||
          conn.closing) {
        mark_dirty(worker, fds[i].fd, conn);
      }
    }
    flush_dirty(worker);
  }
}

}  // namespace acp
