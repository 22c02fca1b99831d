#ifndef LAYOUTDB_MODEL_WORKLOAD_H_
#define LAYOUTDB_MODEL_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace ldb {

/// Rome-style statistical description of one database object's I/O workload
/// (paper Figure 5). These are the W_i inputs to the layout advisor.
///
/// All rates are requests/second, sizes are bytes, and `run_count` is the
/// mean number of consecutive sequential requests between non-sequential
/// jumps (1 = fully random). O_i[k] in [0,1] is the fraction of this
/// workload's requests that are temporally correlated with requests of
/// workload k.
///
/// The diagonal entry O_i[i] extends the paper's model with
/// *self-overlap*: the mean number of the object's own other requests in
/// flight when a request is issued (>= 0, unbounded). Concurrent queries
/// scanning the same table interfere with each other exactly like distinct
/// objects do, but Eq. 2 sums only k != i; the target model adds this term
/// to the contention factor.
///
/// The overlap row O_i is stored as one CSR row: `overlap_index` holds the
/// neighbor ids, strictly increasing, with the diagonal (own id) always
/// present; `overlap_value` holds O_i at those ids. Co-access is sparse, so
/// a row costs O(partners), not O(N); ids absent from the row read as 0.
struct WorkloadDesc {
  double read_rate = 0.0;    ///< λ^R_i
  double write_rate = 0.0;   ///< λ^W_i
  double read_size = 0.0;    ///< B^R_i (mean read request bytes)
  double write_size = 0.0;   ///< B^W_i (mean write request bytes)
  double run_count = 1.0;    ///< Q_i

  /// Neighbor object ids, strictly increasing, diagonal always included.
  std::vector<int32_t> overlap_index;
  /// O_i[overlap_index[j]], parallel to `overlap_index`.
  std::vector<double> overlap_value;

  /// O_i[k] (binary search on the row; absent entries read as 0). For cold
  /// paths only — hot loops iterate the arrays directly.
  double overlap_with(size_t k) const;

  /// Total request rate λ^R + λ^W (used by the initial-layout heuristic).
  double total_rate() const { return read_rate + write_rate; }

  /// Request-rate-weighted mean request size (the B_i of Figure 7).
  double mean_size() const {
    const double rate = total_rate();
    if (rate <= 0.0) return 0.0;
    return (read_rate * read_size + write_rate * write_size) / rate;
  }
};

/// A workload set: one description per database object.
using WorkloadSet = std::vector<WorkloadDesc>;

/// Returns true if `w` is internally consistent (non-negative rates/sizes,
/// run_count >= 1, and a well-formed overlap row — sorted, in range [0, n),
/// diagonal present — with off-diagonal entries in [0,1]). `self_index`
/// identifies the diagonal (self-overlap) entry, which may exceed 1; pass
/// SIZE_MAX when unknown to skip the diagonal-specific checks.
bool IsValidWorkload(const WorkloadDesc& w, size_t n,
                     size_t self_index = static_cast<size_t>(-1));

/// Validates every workload in `ws` (n = ws.size(), self_index = position),
/// returning InvalidArgument with a clause-indexed message ("workload 7:
/// overlap_index not sorted at entry 3") for the first violation.
Status ValidateWorkloadSet(const WorkloadSet& ws);

/// Sets `w`'s overlap row from the full row `row` (row[k] = O_i[k], one
/// entry per object, `self_index` the diagonal): keeps the diagonal and
/// every nonzero off-diagonal entry. Only exact zeros are dropped, and
/// adding 0.0 to a finite sum is exact, so the row prices exactly like the
/// full one up to summation order.
void SetOverlapRow(WorkloadDesc* w, size_t self_index,
                   const std::vector<double>& row);

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_WORKLOAD_H_
