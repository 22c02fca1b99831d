#ifndef LAYOUTDB_CORE_AUTOADMIN_H_
#define LAYOUTDB_CORE_AUTOADMIN_H_

#include <vector>

#include "core/problem.h"
#include "model/layout.h"
#include "util/status.h"
#include "workload/spec.h"

namespace ldb {

/// One query's estimated I/O volume on one object, as a database query
/// optimizer would predict it from SQL (cardinality estimates).
struct QueryAccessEstimate {
  ObjectId object = kNoObject;
  double estimated_bytes = 0.0;
};

/// Optimizer-level estimate of one query: the set of objects it accesses
/// concurrently and how much I/O it is predicted to do on each.
struct QueryEstimate {
  std::vector<QueryAccessEstimate> accesses;
};

/// Multiplier on temp-space volume estimates, modeling the optimizer
/// cardinality-estimation errors the paper observed for PostgreSQL on
/// TPC-H Q18 (Section 6.6): intermediate-result sizes are mispredicted by
/// orders of magnitude, inflating TEMP SPACE's apparent importance.
inline constexpr double kAutoAdminTempEstimateError = 20.0;

/// Reimplementation of the AutoAdmin relational-layout technique
/// (Agrawal, Chaudhuri, Das, Narasayya, ICDE 2003) the paper compares
/// against in Section 6.6:
///  * builds a co-access graph over objects from *query-level* estimates
///    (not measured I/O), with nodes weighted by estimated volume and
///    edges by concurrent-access volume;
///  * step 1 places each object on a single target, separating heavily
///    co-accessed objects while balancing estimated load;
///  * step 2 spreads heavy objects across additional targets for I/O
///    parallelism where that creates no significant co-location.
///
/// By construction the technique is oblivious to workload concurrency and
/// to target performance differences — the two properties whose
/// consequences Section 6.6 measures.
class AutoAdminAdvisor {
 public:
  /// Recommends a (regular) layout from query-level estimates.
  Result<Layout> Recommend(const LayoutProblem& problem,
                           const std::vector<QueryEstimate>& queries) const;
};

/// Derives query-level estimates from an OLAP spec the way an optimizer
/// would see it: per query, total bytes per object — with temp-space
/// estimates inflated by `temp_estimate_error`. Deliberately ignores the
/// spec's concurrency level (AutoAdmin sees only SQL text, so OLAP1-63 and
/// OLAP8-63 produce identical estimates).
std::vector<QueryEstimate> EstimateQueriesFromSpec(
    const OlapSpec& spec, const LayoutProblem& problem,
    double temp_estimate_error);

}  // namespace ldb

#endif  // LAYOUTDB_CORE_AUTOADMIN_H_
