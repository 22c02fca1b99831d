#ifndef LAYOUTDB_WORKLOAD_ESTIMATOR_H_
#define LAYOUTDB_WORKLOAD_ESTIMATOR_H_

#include "model/workload.h"
#include "util/status.h"
#include "workload/catalog.h"
#include "workload/spec.h"

namespace ldb {

/// Storage workload estimator (paper Section 5.1, citing the authors'
/// SIGMOD'07 estimator [19]): derives Rome-style workload descriptions
/// directly from the declarative workload specs, *without* running the
/// workload and collecting traces.
///
/// Approximations (the paper notes estimator-derived descriptions "may be
/// less accurate" than trace-fitted ones):
///  * request rates are volumes divided by a nominal total duration (the
///    volume at 100 MiB/s; only relative rates matter to the optimizer);
///  * run counts come from stream shapes (sequential streams are one run,
///    random streams are all jumps), volume-weighted per object;
///  * overlap O_i[k] counts co-membership in the same step (streams of a
///    step are consumed together) plus, at multiprogramming level c > 1, a
///    background term for other concurrently-running queries;
///  * self-overlap at c > 1 is the expected number of other queries
///    touching the same object at a random instant.
///
/// Exactly one of `olap`/`oltp` may be null.
Result<WorkloadSet> EstimateWorkloads(const Catalog& catalog,
                                      const OlapSpec* olap,
                                      const OltpSpec* oltp);

}  // namespace ldb

#endif  // LAYOUTDB_WORKLOAD_ESTIMATOR_H_
