#ifndef WICLEAN_REVISION_ACTION_H_
#define WICLEAN_REVISION_ACTION_H_

#include <cstdint>
#include <string>

#include "graph/entity.h"
#include "revision/relation.h"

namespace wiclean {

/// Seconds since the (arbitrary) epoch of the synthetic timeline. All windows
/// and revision timestamps use this unit.
using Timestamp = int64_t;

inline constexpr Timestamp kSecondsPerHour = 3600;
inline constexpr Timestamp kSecondsPerDay = 24 * kSecondsPerHour;
inline constexpr Timestamp kSecondsPerWeek = 7 * kSecondsPerDay;
/// A "year" in the synthetic timeline: 52 whole weeks, so a year splits into
/// exactly 26 two-week minimal windows (the system default W_min).
inline constexpr Timestamp kSecondsPerYear = 52 * kSecondsPerWeek;

/// Edit operation on a graph edge: addition or deletion of an interlink.
enum class EditOp : uint8_t { kAdd, kRemove };

/// Returns the opposite operation (+ <-> -).
inline EditOp InverseOp(EditOp op) {
  return op == EditOp::kAdd ? EditOp::kRemove : EditOp::kAdd;
}

/// One revision-history row (§3, Figure 1): at time `time`, the article
/// `subject` added (+) or removed (−) an outgoing link labeled `relation`
/// pointing to article `object`. Actions always live in the revision log of
/// their *subject* (outgoing-link ownership). The relation sits next to the
/// op so the struct packs into 32 bytes.
struct Action {
  EditOp op = EditOp::kAdd;
  Relation relation;
  EntityId subject = kInvalidEntityId;
  EntityId object = kInvalidEntityId;
  Timestamp time = 0;

  /// True if `other` is the inverse edit of the same edge (timestamps are not
  /// compared).
  bool IsInverseOf(const Action& other) const {
    return op == InverseOp(other.op) && subject == other.subject &&
           relation == other.relation && object == other.object;
  }

  bool operator==(const Action& other) const {
    return op == other.op && subject == other.subject &&
           relation == other.relation && object == other.object &&
           time == other.time;
  }

  /// "(+, (12, current_club, 7), t=3600)" for logs and tests.
  std::string ToString() const;
};

}  // namespace wiclean

#endif  // WICLEAN_REVISION_ACTION_H_
