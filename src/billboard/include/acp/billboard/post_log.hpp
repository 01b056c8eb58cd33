// PostLog — the append-only storage of a board's posts.
//
// The billboard never moves or erases a post (paper §2.1), and its log
// mirrors that: posts live in fixed-size segments of kSegmentPosts posts
// each, allocated on first use and never relocated. Growing the log adds
// a segment; it never copies the posts already stored, and never holds an
// old and a new buffer at once. A segment is allocated uninitialised, so
// an empty board touches no post memory and a small one touches only the
// pages its posts fill. Slack is at most one partly filled segment.
//
// A released log's segments go to a process-wide free list that the next
// growing log takes from before it allocates, so a run that builds one
// board per trial does not page-fault its log in again every trial. The
// list holds at most the last released log's segments (post_log.cpp).
// A recycled segment keeps the old posts' bytes; nothing reads them,
// because every read stops at size().
//
// Post i lives at segment(i >> kSegmentShift)[i & kSegmentMask]. Readers
// go through PostRange (post_range.hpp), which walks one segment at a
// time.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "acp/billboard/post.hpp"

namespace acp {

class PostLog {
 public:
  /// 2^15 posts of 32 bytes: one MiB per segment.
  static constexpr unsigned kSegmentShift = 15;
  static constexpr std::size_t kSegmentPosts = std::size_t{1} << kSegmentShift;
  static constexpr std::size_t kSegmentMask = kSegmentPosts - 1;

  PostLog() = default;
  PostLog(const PostLog&) = delete;
  PostLog& operator=(const PostLog&) = delete;
  PostLog(PostLog&& other) noexcept;
  PostLog& operator=(PostLog&& other) noexcept;
  ~PostLog();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The segment table: segments()[s] holds posts [s·kSegmentPosts, ...).
  /// It may hold allocated segments past the last post.
  [[nodiscard]] const Post* const* segments() const noexcept {
    return segments_.data();
  }

  /// Appends `posts` in order: one memcpy per segment touched. Segments
  /// are taken from the free list or allocated before anything is
  /// copied, so a failed allocation leaves the log unchanged.
  void append(std::span<const Post> posts);

  /// Pre-sizes the segment table for `expected_posts` posts. Segments
  /// themselves are still allocated on first use.
  void reserve(std::size_t expected_posts);

 private:
  /// Extends the segment table to `needed` segments.
  void grow(std::size_t needed);
  /// Hands every segment to the free list and empties the log.
  void release() noexcept;

  std::vector<Post*> segments_;
  std::size_t size_ = 0;
};

// Segments are filled by memcpy and read in place.
static_assert(std::is_trivially_copyable_v<Post>);

}  // namespace acp
