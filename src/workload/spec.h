#ifndef LAYOUTDB_WORKLOAD_SPEC_H_
#define LAYOUTDB_WORKLOAD_SPEC_H_

#include <string>
#include <vector>

#include "util/status.h"
#include "workload/catalog.h"
#include "workload/query.h"

namespace ldb {

/// An OLAP workload: a sequence of queries executed with a fixed
/// multiprogramming level (paper Figure 10). With concurrency k, k queries
/// are active at all times; whenever one finishes the next in sequence
/// starts.
struct OlapSpec {
  std::string name;
  std::vector<QueryProfile> queries;
  int concurrency = 1;

  bool operator==(const OlapSpec&) const = default;
};

/// An OLTP workload: `terminals` simulated clients repeatedly executing
/// the transaction profile with no think time (paper Section 6.1).
struct OltpSpec {
  std::string name;
  QueryProfile transaction;
  int terminals = 9;
  double warmup_s = 0.0;  ///< transactions before this are not counted
  /// Non-I/O time per transaction (CPU, locking, commit processing).
  /// Terminals wait this long between transactions, which keeps closed-loop
  /// OLTP from trivially saturating the disks — matching the modest tpmC
  /// levels of the paper's testbed.
  double txn_overhead_s = 1.2;

  bool operator==(const OltpSpec&) const = default;
};

/// Builds the paper's OLAP workloads over a TPC-H catalog:
///  * OLAP1-21: copies=1, concurrency=1 (21 queries, sequential)
///  * OLAP1-63: copies=3, concurrency=1
///  * OLAP8-63: copies=3, concurrency=8
/// The query sequence is a random permutation of `copies` repetitions of
/// the 21 profiles, determined by `shuffle_seed`.
Result<OlapSpec> MakeOlapSpec(const Catalog& tpch_catalog, int copies,
                              int concurrency, uint64_t shuffle_seed);

/// Builds the paper's OLTP workload over a TPC-C catalog (optionally with
/// prefixed names from a merged catalog).
Result<OltpSpec> MakeOltpSpec(const Catalog& catalog,
                              const std::string& name_prefix = "",
                              int terminals = 9, double warmup_s = 0.0);

}  // namespace ldb

#endif  // LAYOUTDB_WORKLOAD_SPEC_H_
