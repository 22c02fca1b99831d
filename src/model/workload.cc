#include "model/workload.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/table.h"

namespace ldb {

namespace {

/// Returns an empty string when `w` is consistent, else a short description
/// of the first violated clause. `n` is the object count; `self_index` the
/// diagonal position (SIZE_MAX = unknown, skip diagonal-specific checks).
std::string WorkloadViolation(const WorkloadDesc& w, size_t n,
                              size_t self_index) {
  const auto finite = [](double a, double b) {
    return std::isfinite(a) && std::isfinite(b);
  };
  if (!finite(w.read_rate, w.write_rate)) return "non-finite request rate";
  if (!finite(w.read_size, w.write_size)) return "non-finite request size";
  if (!std::isfinite(w.run_count)) return "non-finite run_count";
  if (w.read_rate < 0 || w.write_rate < 0) return "negative request rate";
  if (w.read_size < 0 || w.write_size < 0) return "negative request size";
  if (w.read_rate > 0 && w.read_size <= 0)
    return "read_rate > 0 requires read_size > 0";
  if (w.write_rate > 0 && w.write_size <= 0)
    return "write_rate > 0 requires write_size > 0";
  if (w.run_count < 1.0) return "run_count < 1";

  if (w.overlap_index.empty())
    return w.overlap_value.empty()
               ? "no overlap row"
               : "overlap_value present without overlap_index";
  if (w.overlap_index.size() != w.overlap_value.size())
    return StrFormat("overlap_index size %zu != overlap_value size %zu",
                     w.overlap_index.size(), w.overlap_value.size());
  bool saw_diagonal = false;
  for (size_t j = 0; j < w.overlap_index.size(); ++j) {
    const int32_t idx = w.overlap_index[j];
    if (idx < 0 || static_cast<size_t>(idx) >= n)
      return StrFormat("overlap_index[%zu] = %d out of range [0, %zu)", j,
                       static_cast<int>(idx), n);
    if (j > 0 && idx <= w.overlap_index[j - 1])
      return StrFormat("overlap_index not sorted at entry %zu", j);
    const bool diagonal = static_cast<size_t>(idx) == self_index;
    saw_diagonal = saw_diagonal || diagonal;
    if (!std::isfinite(w.overlap_value[j]))
      return StrFormat("overlap_value[%zu] non-finite", j);
    if (w.overlap_value[j] < 0.0)
      return StrFormat("overlap_value[%zu] negative", j);
    // Off-diagonal entries are fractions; the diagonal (self-overlap) is a
    // mean concurrent-request count and may exceed 1.
    if (!diagonal && w.overlap_value[j] > 1.0)
      return StrFormat("overlap_value[%zu] > 1 off the diagonal", j);
  }
  if (self_index != static_cast<size_t>(-1) && !saw_diagonal)
    return StrFormat("overlap row missing diagonal entry %zu", self_index);
  return std::string();
}

}  // namespace

double WorkloadDesc::overlap_with(size_t k) const {
  const auto it = std::lower_bound(overlap_index.begin(), overlap_index.end(),
                                   static_cast<int32_t>(k));
  if (it == overlap_index.end() || static_cast<size_t>(*it) != k) return 0.0;
  return overlap_value[static_cast<size_t>(it - overlap_index.begin())];
}

bool IsValidWorkload(const WorkloadDesc& w, size_t n, size_t self_index) {
  return WorkloadViolation(w, n, self_index).empty();
}

Status ValidateWorkloadSet(const WorkloadSet& ws) {
  const size_t n = ws.size();
  for (size_t i = 0; i < n; ++i) {
    const std::string what = WorkloadViolation(ws[i], n, i);
    if (!what.empty())
      return Status::InvalidArgument(
          StrFormat("workload %zu: %s", i, what.c_str()));
  }
  return Status::Ok();
}

void SetOverlapRow(WorkloadDesc* w, size_t self_index,
                   const std::vector<double>& row) {
  w->overlap_index.clear();
  w->overlap_value.clear();
  for (size_t k = 0; k < row.size(); ++k) {
    if (k != self_index && row[k] == 0.0) continue;
    w->overlap_index.push_back(static_cast<int32_t>(k));
    w->overlap_value.push_back(row[k]);
  }
}

}  // namespace ldb
