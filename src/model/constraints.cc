#include "model/constraints.h"

#include <algorithm>

#include "util/table.h"

namespace ldb {

const std::vector<int>& PlacementConstraints::AllowedFor(int i) const {
  static const std::vector<int> kUnrestricted;
  if (allowed_targets.empty() ||
      static_cast<size_t>(i) >= allowed_targets.size()) {
    return kUnrestricted;
  }
  return allowed_targets[static_cast<size_t>(i)];
}

Status PlacementConstraints::Validate(int num_objects,
                                      int num_targets) const {
  if (!allowed_targets.empty() &&
      allowed_targets.size() != static_cast<size_t>(num_objects)) {
    return Status::InvalidArgument(
        "allowed_targets must be empty or have one entry per object");
  }
  for (size_t i = 0; i < allowed_targets.size(); ++i) {
    for (int j : allowed_targets[i]) {
      if (j < 0 || j >= num_targets) {
        return Status::InvalidArgument(StrFormat(
            "object %zu allows unknown target %d", i, j));
      }
    }
    std::vector<int> sorted = allowed_targets[i];
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Status::InvalidArgument(
          StrFormat("object %zu lists a target twice", i));
    }
  }
  for (const auto& [a, b] : separate) {
    if (a < 0 || a >= num_objects || b < 0 || b >= num_objects) {
      return Status::InvalidArgument("separation references unknown object");
    }
    if (a == b) {
      return Status::InvalidArgument("cannot separate an object from itself");
    }
  }
  return Status::Ok();
}

int PlacementConstraints::FirstViolation(const Layout& layout,
                                         double tol) const {
  for (size_t i = 0; i < allowed_targets.size(); ++i) {
    const auto& allowed = allowed_targets[i];
    if (allowed.empty()) continue;
    for (int j = 0; j < layout.num_targets(); ++j) {
      if (layout.At(static_cast<int>(i), j) > tol &&
          std::find(allowed.begin(), allowed.end(), j) == allowed.end()) {
        return static_cast<int>(i);
      }
    }
  }
  for (const auto& [a, b] : separate) {
    for (int j = 0; j < layout.num_targets(); ++j) {
      if (layout.At(a, j) > tol && layout.At(b, j) > tol) return a;
    }
  }
  return -1;
}

}  // namespace ldb
