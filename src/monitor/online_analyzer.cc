#include "monitor/online_analyzer.h"

#include <utility>
#include <vector>

#include "util/check.h"

namespace ldb {

WorkloadSet OnlineAnalyzer::Snapshot() const {
  Result<WorkloadSet> fit = fitter_.Snapshot();
  if (fit.ok()) return std::move(fit).value();
  LDB_CHECK_MSG(fit.status().code() == StatusCode::kFailedPrecondition, "%s",
                fit.status().ToString().c_str());
  // Nothing released yet, or a zero-length span: no rate to fit.
  const size_t n = static_cast<size_t>(n_);
  const std::vector<double> zero(n, 0.0);
  WorkloadSet idle(n);
  for (size_t i = 0; i < n; ++i) SetOverlapRow(&idle[i], i, zero);
  return idle;
}

}  // namespace ldb
