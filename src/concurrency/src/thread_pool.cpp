#include "acp/concurrency/thread_pool.hpp"

#include <chrono>

#include "acp/util/contracts.hpp"

namespace acp {

std::size_t ThreadPool::resolve(std::size_t requested) noexcept {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t num_threads)
    : wake_(obs::MetricsRegistry::global().timer("concurrency.pool.wake")),
      queue_depth_(obs::MetricsRegistry::global().histogram(
          "concurrency.pool.queue_depth", 0.0, 64.0, 64)) {
  ACP_EXPECTS(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  ACP_EXPECTS(task != nullptr);
  const bool timed = obs::MetricsRegistry::enabled();
  // The submit stamp travels in the queue entry (default-constructed when
  // metrics are off); the worker reads the clock again at pop time. No
  // re-wrapping, so timing adds no allocation or indirect call to the
  // task itself.
  Pending pending{std::move(task), timed
                                       ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point{}};
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ACP_EXPECTS(!stopping_);
    queue_.push(std::move(pending));
    depth = queue_.size();
  }
  work_available_.notify_one();
  if (timed) queue_depth_.observe(static_cast<double>(depth));
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping with nothing left to do
      pending = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    if (pending.submitted != std::chrono::steady_clock::time_point{}) {
      // Stamped at submit with metrics on: report wake/handoff latency.
      wake_.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - pending.submitted)
              .count()));
    }
    pending.task();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace acp
