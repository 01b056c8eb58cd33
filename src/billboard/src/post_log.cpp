#include "acp/billboard/post_log.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

namespace acp {

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
  std::allocator<Post> alloc;
  for (Post* segment : segments_) alloc.deallocate(segment, kSegmentPosts);
  segments_.clear();
  size_ = 0;
}

void PostLog::reserve(std::size_t expected_posts) {
  segments_.reserve((expected_posts + kSegmentMask) >> kSegmentShift);
}

void PostLog::append(std::span<const Post> posts) {
  if (posts.empty()) return;
  const std::size_t needed =
      (size_ + posts.size() + kSegmentMask) >> kSegmentShift;
  if (segments_.size() < needed) {
    segments_.reserve(needed);
    std::allocator<Post> alloc;
    // Uninitialised: the memcpy below is the first write to each post.
    while (segments_.size() < needed) {
      segments_.push_back(alloc.allocate(kSegmentPosts));
    }
  }
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

}  // namespace acp
