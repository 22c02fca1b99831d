#ifndef LAYOUTDB_MODEL_CONSTRAINTS_H_
#define LAYOUTDB_MODEL_CONSTRAINTS_H_

#include <utility>
#include <vector>

#include "model/layout.h"
#include "util/status.h"

namespace ldb {

/// Administrative placement constraints (paper Section 4: "if
/// administrative constraints require certain objects to be laid out onto
/// particular targets, we can easily add such constraints to the NLP
/// problem before solving it").
///
/// Two constraint forms are supported:
///  * allowed-target restrictions — object i may only use the listed
///    targets (pinning is the single-target special case);
///  * separation — two objects must not share any target (e.g. a log kept
///    away from the data it protects).
struct PlacementConstraints {
  /// Per-object allowed targets; an empty inner vector (or an
  /// empty/absent outer vector) means "no restriction". Indexed by
  /// ObjectId when non-empty (size must then equal the object count).
  std::vector<std::vector<int>> allowed_targets;

  /// Pairs of objects that must not share any target.
  std::vector<std::pair<int, int>> separate;

  bool empty() const { return allowed_targets.empty() && separate.empty(); }

  /// Returns the allowed-target list for object `i`, or an empty vector
  /// when unrestricted.
  const std::vector<int>& AllowedFor(int i) const;

  /// Checks internal consistency against problem dimensions.
  Status Validate(int num_objects, int num_targets) const;

  /// True if `layout` satisfies every constraint (entries <= tol count as
  /// "not placed").
  bool SatisfiedBy(const Layout& layout, double tol = 1e-6) const {
    return FirstViolation(layout, tol) < 0;
  }

  /// The first object whose placement in `layout` breaks a constraint
  /// (for a separation, the pair's first object), or -1 when none does.
  int FirstViolation(const Layout& layout, double tol = 1e-6) const;
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_CONSTRAINTS_H_
