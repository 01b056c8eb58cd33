#include "acp/billboard/post_log.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>

#include "acp/obs/metrics.hpp"

namespace acp {

namespace {

/// Segments of released logs, waiting for the next log that grows. Every
/// trial builds a fresh board, and a freed segment would otherwise go
/// back to the kernel and be page-faulted in again by the next board.
/// The list keeps at most one board's worth: a release leaves it holding
/// exactly the released log's segments and frees whatever it held
/// before. Bounding it by the peak number of live segments instead would
/// keep a rare outsized trial's log resident for the rest of the run.
class SegmentFreeList {
 public:
  /// Appends up to `needed - segments.size()` free segments to
  /// `segments`, which has the capacity for them; returns how many.
  std::size_t take(std::vector<Post*>& segments, std::size_t needed) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t count =
        std::min(needed - segments.size(), free_.size());
    segments.insert(segments.end(), free_.end() - count, free_.end());
    free_.resize(free_.size() - count);
    return count;
  }

  /// Makes `segments` the free list, and leaves the previous free list in
  /// `segments` for the caller to deallocate outside the lock.
  void replace(std::vector<Post*>& segments) noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.swap(segments);
  }

 private:
  std::mutex mutex_;
  std::vector<Post*> free_;
};

SegmentFreeList& free_list() {
  // Never destroyed: a board with static storage may release its log
  // after every function-local static is gone.
  static SegmentFreeList* const list = new SegmentFreeList;
  return *list;
}

}  // namespace

PostLog::PostLog(PostLog&& other) noexcept
    : segments_(std::exchange(other.segments_, {})),
      size_(std::exchange(other.size_, 0)) {}

PostLog& PostLog::operator=(PostLog&& other) noexcept {
  if (this != &other) {
    release();
    segments_ = std::exchange(other.segments_, {});
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

PostLog::~PostLog() { release(); }

void PostLog::release() noexcept {
  // A log that holds no segment (moved from, or never appended to) has
  // nothing to give back and leaves the free list alone.
  if (!segments_.empty()) {
    free_list().replace(segments_);
    std::allocator<Post> alloc;
    for (Post* segment : segments_) alloc.deallocate(segment, kSegmentPosts);
    segments_.clear();
  }
  size_ = 0;
}

void PostLog::reserve(std::size_t expected_posts) {
  segments_.reserve((expected_posts + kSegmentMask) >> kSegmentShift);
}

void PostLog::append(std::span<const Post> posts) {
  if (posts.empty()) return;
  const std::size_t needed =
      (size_ + posts.size() + kSegmentMask) >> kSegmentShift;
  if (segments_.size() < needed) grow(needed);
  const Post* from = posts.data();
  std::size_t left = posts.size();
  while (left > 0) {
    const std::size_t offset = size_ & kSegmentMask;
    const std::size_t take = std::min(left, kSegmentPosts - offset);
    std::memcpy(segments_[size_ >> kSegmentShift] + offset, from,
                take * sizeof(Post));
    from += take;
    left -= take;
    size_ += take;
  }
}

void PostLog::grow(std::size_t needed) {
  segments_.reserve(needed);
  const std::size_t reused = free_list().take(segments_, needed);
  const std::size_t allocated = needed - segments_.size();
  std::allocator<Post> alloc;
  // Uninitialised: append's memcpy is the first write to each post.
  while (segments_.size() < needed) {
    segments_.push_back(alloc.allocate(kSegmentPosts));
  }
  if (obs::MetricsRegistry::enabled()) {
    static obs::Counter& reused_counter =
        obs::MetricsRegistry::global().counter("billboard.segments.reused");
    static obs::Counter& allocated_counter =
        obs::MetricsRegistry::global().counter(
            "billboard.segments.allocated");
    if (reused > 0) reused_counter.add(reused);
    if (allocated > 0) allocated_counter.add(allocated);
  }
}

}  // namespace acp
