// A single billboard posting (paper §2.1).
//
// The billboard substrate guarantees that every message is reliably tagged
// with the posting player's identity and a timestamp, and that no message is
// ever erased. The *content* (object, reported value, direction) is entirely
// up to the poster — Byzantine players lie freely.
#pragma once

#include "acp/util/types.hpp"

namespace acp {

struct Post {
  constexpr Post() noexcept = default;
  /// Positional form: who, when, about what, the claimed value and the
  /// direction. The members are declared widest first instead, which
  /// packs a post into 32 bytes.
  constexpr Post(PlayerId by, Round at, ObjectId about, double value = 0.0,
                 bool is_positive = false) noexcept
      : round(at),
        reported_value(value),
        author(by),
        object(about),
        positive(is_positive) {}

  /// Timestamp: the synchronous round (or async step) in which it was posted.
  /// Stamped by the system, not the poster.
  Round round = 0;
  /// The value the poster claims to have observed. Honest players report
  /// truthfully; dishonest players report anything.
  double reported_value = 0.0;
  /// Reliably tagged by the system — a poster cannot forge this.
  PlayerId author;
  /// Which object the post talks about.
  ObjectId object;
  /// Recommendation direction: true = "this object is good". DISTILL uses
  /// only positive reports (§4); negative reports exist so that the
  /// "is slander useless?" question (§6) can be explored experimentally.
  bool positive = false;

  friend bool operator==(const Post&, const Post&) = default;
};

static_assert(sizeof(Post) == 32);

}  // namespace acp
