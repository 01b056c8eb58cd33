// Minimal fixed-size thread pool, shared by the trial driver (acp/sim —
// one task per trial shard) and the parallel round kernel (acp/engine —
// one task per roster shard per round). Both uses follow the same
// determinism recipe: shard by count only, accumulate in canonical order.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "acp/obs/metrics.hpp"

namespace acp {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resolve a requested thread count the way every pool user does:
  /// 0 means "use the hardware", and unknown hardware means 1.
  [[nodiscard]] static std::size_t resolve(std::size_t requested) noexcept;

  /// Enqueue a task. Tasks must not throw (they run detached from any
  /// future; trial runners catch and record their own failures).
  /// With the metrics registry enabled the submit->start latency
  /// (concurrency.pool.wake) and the queue depth after the push
  /// (concurrency.pool.queue_depth) are recorded; disabled, the only
  /// overhead is a relaxed load.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return workers_.size();
  }

 private:
  /// Queue entry: the task plus its submit stamp. The stamp rides the
  /// entry (default time_point when metrics are off) so measuring wake
  /// latency never re-wraps the task in a second std::function — timed
  /// and untimed runs do identical allocations.
  struct Pending {
    std::function<void()> task;
    std::chrono::steady_clock::time_point submitted{};
  };

  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::queue<Pending> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  obs::TimerStat& wake_;
  obs::HistogramMetric& queue_depth_;
};

}  // namespace acp
