// Strong identifier types shared across the acp libraries.
//
// PlayerId and ObjectId are distinct wrapper types (Core Guidelines I.4:
// precisely and strongly typed interfaces) so a player index can never be
// passed where an object index is expected. Round is a plain signed count
// because it participates in arithmetic everywhere.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>

#include "acp/util/contracts.hpp"

namespace acp {

/// Round counter of the synchronous engine. Round 0 is the first round.
using Round = std::int64_t;

/// Number of probes / posts; signed to keep arithmetic warnings quiet.
using Count = std::int64_t;

/// Largest player or object count a run may have: ids are stored in 32
/// bits, and the all-ones value is the default-constructed id.
inline constexpr std::size_t kMaxIdCount =
    std::numeric_limits<std::uint32_t>::max();

namespace detail {

/// CRTP-free strong index: a 32-bit index with a phantom tag. It is
/// stored in 32 bits to keep posts and vote records small, and read back
/// as a size_t so index arithmetic stays in one type.
template <class Tag>
class StrongId {
 public:
  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(std::size_t value)
      : value_(static_cast<std::uint32_t>(value)) {
    ACP_EXPECTS(value <= kMaxIdCount);
  }

  [[nodiscard]] constexpr std::size_t value() const noexcept { return value_; }

  friend constexpr auto operator<=>(StrongId, StrongId) noexcept = default;

 private:
  std::uint32_t value_ = std::numeric_limits<std::uint32_t>::max();
};

}  // namespace detail

struct PlayerTag {};
struct ObjectTag {};

/// Index of a player, dense in [0, n).
using PlayerId = detail::StrongId<PlayerTag>;
/// Index of an object, dense in [0, m).
using ObjectId = detail::StrongId<ObjectTag>;

static_assert(sizeof(PlayerId) == 4 && sizeof(ObjectId) == 4);

std::ostream& operator<<(std::ostream& os, PlayerId id);
std::ostream& operator<<(std::ostream& os, ObjectId id);

}  // namespace acp

template <>
struct std::hash<acp::PlayerId> {
  std::size_t operator()(acp::PlayerId id) const noexcept {
    return std::hash<std::size_t>{}(id.value());
  }
};

template <>
struct std::hash<acp::ObjectId> {
  std::size_t operator()(acp::ObjectId id) const noexcept {
    return std::hash<std::size_t>{}(id.value());
  }
};
