#ifndef LAYOUTDB_WORKLOAD_QUERY_H_
#define LAYOUTDB_WORKLOAD_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/io_request.h"
#include "util/units.h"

namespace ldb {

/// How a stream walks its object.
enum class AccessPattern {
  kSequential,  ///< consecutive requests from a random aligned start
  kRandom,      ///< independent uniform aligned offsets
  kAppend,      ///< continues the object's global append cursor (logs, temp
                ///< spills); wraps at the end of the object
};

/// One I/O stream within a query step: `bytes` of the object accessed in
/// `request_bytes` units with the given pattern.
struct StreamSpec {
  ObjectId object = kNoObject;
  int64_t bytes = 0;
  int64_t request_bytes = 256 * kKiB;
  AccessPattern pattern = AccessPattern::kSequential;
  double write_fraction = 0.0;  ///< probability each request is a write

  bool operator==(const StreamSpec&) const = default;
};

/// A step accesses its streams concurrently and completes when all finish
/// — e.g. a join reading two tables, or a scan spilling to temp space.
///
/// Execution is *paced*: the step is one closed loop with up to `depth`
/// outstanding requests — at most one per stream — always advancing the
/// stream that is least complete. All streams therefore progress
/// proportionally and finish together, the way join operators consume
/// their inputs, which sustains the temporal overlap between co-accessed
/// objects that the paper's workload model describes with O_i[k]. Each
/// stream itself is a synchronous request chain, like a scan thread: more
/// targets never deepen a single scan's pipeline.
struct QueryStep {
  std::vector<StreamSpec> streams;
  int depth = 4;  ///< outstanding requests across the step (1 per stream)

  bool operator==(const QueryStep&) const = default;
};

/// A query (or OLTP transaction) profile: steps execute in order.
///
/// Profiles describe the *post-buffer-pool* block I/O a query generates:
/// objects that fit in the database buffer cache simply contribute little
/// or no volume. This is the level at which the paper's advisor sees the
/// workload, so no separate cache simulation is needed.
struct QueryProfile {
  std::string name;
  std::vector<QueryStep> steps;

  bool operator==(const QueryProfile&) const = default;

  /// Total bytes transferred by the profile.
  int64_t TotalBytes() const {
    int64_t total = 0;
    for (const QueryStep& s : steps) {
      for (const StreamSpec& st : s.streams) total += st.bytes;
    }
    return total;
  }

  /// Total requests issued by the profile.
  int64_t TotalRequests() const {
    int64_t total = 0;
    for (const QueryStep& s : steps) {
      for (const StreamSpec& st : s.streams) {
        total += (st.bytes + st.request_bytes - 1) / st.request_bytes;
      }
    }
    return total;
  }
};

}  // namespace ldb

#endif  // LAYOUTDB_WORKLOAD_QUERY_H_
