// PostRange — the one read path over a billboard's posts.
//
// A board stores its log in one of two ways. The authoritative board (and
// any board a service owns) keeps a PostLog: fixed-size segments that are
// never relocated (post_log.hpp). A gossip replica keeps 4-byte ids into
// its run's shared, append-only post arena, so a post that reached every
// node is stored once, not once per node. PostRange hides which: it is a
// read-only, random-access range whose elements are `const Post&`.
//
// Element access (operator[], iterators) branches on the storage per post,
// which is fine for tests and one-off reads. Readers that walk a batch of
// posts use for_each, which picks the storage once per batch and then
// runs a branch-free loop over each segment (or over the ids).
//
// A PostRange is a view: it is valid until the next commit to its board or
// append to its arena, whichever comes first (a commit may grow the
// segment table, though it never moves a post). Readers keep a cursor (an
// index), never a PostRange, across rounds.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "acp/billboard/post.hpp"
#include "acp/billboard/post_log.hpp"
#include "acp/util/contracts.hpp"

namespace acp {

/// Index of a post in a run's shared post arena.
using PostId = std::uint32_t;

class PostRange {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Post;
    using difference_type = std::ptrdiff_t;
    using pointer = const Post*;
    using reference = const Post&;

    iterator() = default;

    reference operator*() const noexcept {
      return at(segments_, base_, ids_, static_cast<std::size_t>(i_));
    }
    pointer operator->() const noexcept { return &**this; }
    reference operator[](difference_type k) const noexcept {
      return *(*this + k);
    }

    iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++i_;
      return old;
    }
    iterator& operator--() noexcept {
      --i_;
      return *this;
    }
    iterator operator--(int) noexcept {
      iterator old = *this;
      --i_;
      return old;
    }
    iterator& operator+=(difference_type k) noexcept {
      i_ += k;
      return *this;
    }
    iterator& operator-=(difference_type k) noexcept {
      i_ -= k;
      return *this;
    }
    friend iterator operator+(iterator it, difference_type k) noexcept {
      return it += k;
    }
    friend iterator operator+(difference_type k, iterator it) noexcept {
      return it += k;
    }
    friend iterator operator-(iterator it, difference_type k) noexcept {
      return it -= k;
    }
    friend difference_type operator-(const iterator& a,
                                     const iterator& b) noexcept {
      return a.i_ - b.i_;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.i_ == b.i_;
    }
    friend std::strong_ordering operator<=>(const iterator& a,
                                            const iterator& b) noexcept {
      return a.i_ <=> b.i_;
    }

   private:
    friend class PostRange;
    iterator(const Post* const* segments, const Post* base, const PostId* ids,
             difference_type i) noexcept
        : segments_(segments), base_(base), ids_(ids), i_(i) {}

    const Post* const* segments_ = nullptr;
    const Post* base_ = nullptr;
    const PostId* ids_ = nullptr;
    difference_type i_ = 0;
  };
  using const_iterator = iterator;

  /// Every post of a segmented log.
  explicit PostRange(const PostLog& log) noexcept
      : segments_(log.segments()), size_(log.size()) {}

  /// The posts arena[ids[0]], arena[ids[1]], ... Every id must be in range
  /// (the board checks that at commit).
  PostRange(std::span<const Post> arena, std::span<const PostId> ids) noexcept
      : base_(arena.data()), ids_(ids.data()), size_(ids.size()) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] const Post& operator[](std::size_t i) const noexcept {
    return at(segments_, base_, ids_, i);
  }

  [[nodiscard]] iterator begin() const noexcept {
    return {segments_, base_, ids_, 0};
  }
  [[nodiscard]] iterator end() const noexcept {
    return {segments_, base_, ids_, static_cast<std::ptrdiff_t>(size_)};
  }

  /// Calls fn(post) for posts [first, last) in order. The storage branch
  /// is taken once here, not once per post.
  template <class Fn>
  void for_each(std::size_t first, std::size_t last, Fn&& fn) const {
    ACP_EXPECTS(first <= last && last <= size_);
    if (ids_ == nullptr) {
      while (first < last) {
        const Post* const segment = segments_[first >> PostLog::kSegmentShift];
        const std::size_t begin = first & PostLog::kSegmentMask;
        const std::size_t end =
            std::min(PostLog::kSegmentPosts, begin + (last - first));
        for (std::size_t j = begin; j < end; ++j) fn(segment[j]);
        first += end - begin;
      }
    } else {
      for (std::size_t i = first; i < last; ++i) fn(base_[ids_[i]]);
    }
  }

  /// A copy of every post, in order.
  [[nodiscard]] std::vector<Post> to_vector() const {
    std::vector<Post> copy;
    copy.reserve(size_);
    for_each(0, size_, [&copy](const Post& post) { copy.push_back(post); });
    return copy;
  }

  friend bool operator==(const PostRange& a, const PostRange& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static const Post& at(const Post* const* segments, const Post* base,
                        const PostId* ids, std::size_t i) noexcept {
    if (ids == nullptr) {
      return segments[i >> PostLog::kSegmentShift][i & PostLog::kSegmentMask];
    }
    return base[ids[i]];
  }

  const Post* const* segments_ = nullptr;  // segmented logs
  const Post* base_ = nullptr;             // arena boards
  const PostId* ids_ = nullptr;            // arena boards
  std::size_t size_ = 0;
};

static_assert(std::random_access_iterator<PostRange::iterator>);

}  // namespace acp
