#include "workload/estimator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace ldb {

namespace {

/// Nominal aggregate storage throughput that converts volumes into request
/// rates. Only the *relative* rates matter to the layout optimizer (they
/// cancel in the contention factor and scale all utilizations uniformly),
/// so this does not need to be accurate.
constexpr double kNominalBytesPerSecond = 100.0 * 1024 * 1024;

/// Per-object accumulators gathered from the specs.
struct ObjectAcc {
  double read_requests = 0;
  double write_requests = 0;
  double read_bytes = 0;
  double write_bytes = 0;
  double runs = 0;  ///< estimated count of sequential runs
  /// coactive[k]: requests of this object issued in steps where object k
  /// is also active.
  std::vector<double> coactive;
};

/// Requests a stream contributes.
double StreamRequests(const StreamSpec& s) {
  return std::ceil(static_cast<double>(s.bytes) /
                   static_cast<double>(s.request_bytes));
}

/// Accumulates one profile, weighted by `weight` executions.
void AccumulateProfile(const QueryProfile& profile, double weight,
                       std::vector<ObjectAcc>* acc) {
  for (const QueryStep& step : profile.steps) {
    for (const StreamSpec& s : step.streams) {
      ObjectAcc& a = (*acc)[static_cast<size_t>(s.object)];
      const double requests = StreamRequests(s) * weight;
      const double bytes = static_cast<double>(s.bytes) * weight;
      a.read_requests += requests * (1.0 - s.write_fraction);
      a.write_requests += requests * s.write_fraction;
      a.read_bytes += bytes * (1.0 - s.write_fraction);
      a.write_bytes += bytes * s.write_fraction;
      // Random streams jump on every request; sequential streams are one
      // run per execution; append streams continue a shared cursor across
      // executions, forming a single long run.
      switch (s.pattern) {
        case AccessPattern::kRandom:
          a.runs += requests;
          break;
        case AccessPattern::kSequential:
          a.runs += weight;
          break;
        case AccessPattern::kAppend:
          break;  // one run overall; max(1, runs) below
      }
      // Step co-membership: a stream's requests are co-active with every
      // other object in the same (paced) step.
      for (const StreamSpec& other : step.streams) {
        if (other.object == s.object) continue;
        a.coactive[static_cast<size_t>(other.object)] += requests;
      }
    }
  }
}

}  // namespace

Result<WorkloadSet> EstimateWorkloads(const Catalog& catalog,
                                      const OlapSpec* olap,
                                      const OltpSpec* oltp) {
  if (olap == nullptr && oltp == nullptr) {
    return Status::InvalidArgument("no workload spec given");
  }
  const int n = catalog.num_objects();
  std::vector<ObjectAcc> acc(static_cast<size_t>(n));
  for (ObjectAcc& a : acc) a.coactive.assign(static_cast<size_t>(n), 0.0);

  int concurrency = 1;
  if (olap != nullptr) {
    if (olap->queries.empty()) {
      return Status::InvalidArgument("OLAP spec has no queries");
    }
    concurrency = std::max(concurrency, olap->concurrency);
    for (const QueryProfile& q : olap->queries) {
      for (const QueryStep& step : q.steps) {
        for (const StreamSpec& s : step.streams) {
          if (s.object < 0 || s.object >= n) {
            return Status::InvalidArgument("spec references unknown object");
          }
        }
      }
      AccumulateProfile(q, 1.0, &acc);
    }
  }
  if (oltp != nullptr) {
    // OLTP terminals run transactions back to back; weight the profile by
    // a nominal transaction count comparable to the OLAP volume (only
    // relative rates matter).
    const double weight = 1000.0 * oltp->terminals;
    concurrency = std::max(concurrency, oltp->terminals);
    for (const QueryStep& step : oltp->transaction.steps) {
      for (const StreamSpec& s : step.streams) {
        if (s.object < 0 || s.object >= n) {
          return Status::InvalidArgument("spec references unknown object");
        }
      }
    }
    AccumulateProfile(oltp->transaction, weight, &acc);
  }

  // Nominal duration converts volumes to rates.
  double total_bytes = 0;
  for (const ObjectAcc& a : acc) total_bytes += a.read_bytes + a.write_bytes;
  if (total_bytes <= 0) {
    return Status::InvalidArgument("specs generate no I/O");
  }
  const double duration = total_bytes / kNominalBytesPerSecond;

  WorkloadSet out(static_cast<size_t>(n));
  std::vector<double> overlap;
  for (int i = 0; i < n; ++i) {
    const ObjectAcc& a = acc[static_cast<size_t>(i)];
    WorkloadDesc& w = out[static_cast<size_t>(i)];
    overlap.assign(static_cast<size_t>(n), 0.0);
    const double requests = a.read_requests + a.write_requests;
    if (requests <= 0) {
      SetOverlapRow(&w, static_cast<size_t>(i), overlap);
      continue;
    }
    w.read_rate = a.read_requests / duration;
    w.write_rate = a.write_requests / duration;
    w.read_size = a.read_requests > 0 ? a.read_bytes / a.read_requests : 0;
    w.write_size =
        a.write_requests > 0 ? a.write_bytes / a.write_requests : 0;
    w.run_count = std::max(1.0, requests / std::max(1.0, a.runs));

    // Duty cycle of object k: its share of total volume, the probability a
    // concurrently running query is touching it at a random instant.
    for (int k = 0; k < n; ++k) {
      if (k == i) {
        // Self-overlap: expected number of *other* concurrent executions
        // on this object.
        const double duty = (a.read_bytes + a.write_bytes) / total_bytes;
        overlap[static_cast<size_t>(k)] =
            std::max(0.0, (concurrency - 1) * duty);
        continue;
      }
      const ObjectAcc& b = acc[static_cast<size_t>(k)];
      const double intra = a.coactive[static_cast<size_t>(k)] / requests;
      double inter = 0.0;
      if (concurrency > 1) {
        const double duty_k = (b.read_bytes + b.write_bytes) / total_bytes;
        inter = 1.0 - std::exp(-(concurrency - 1) * duty_k);
      }
      overlap[static_cast<size_t>(k)] =
          std::min(1.0, intra + (1.0 - intra) * inter);
    }
    SetOverlapRow(&w, static_cast<size_t>(i), overlap);
  }

  for (int i = 0; i < n; ++i) {
    LDB_CHECK(IsValidWorkload(out[static_cast<size_t>(i)],
                              static_cast<size_t>(n),
                              static_cast<size_t>(i)));
  }
  return out;
}

}  // namespace ldb
