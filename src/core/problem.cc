#include "core/problem.h"

#include <utility>

#include "util/check.h"
#include "util/table.h"

namespace ldb {

Status LayoutProblem::Validate() const {
  const size_t n = object_sizes.size();
  if (n == 0) return Status::InvalidArgument("no objects");
  if (targets.empty()) return Status::InvalidArgument("no targets");
  if (object_names.size() != n || object_kinds.size() != n ||
      workloads.size() != n) {
    return Status::InvalidArgument("object field dimension mismatch");
  }
  int64_t total_size = 0;
  for (size_t i = 0; i < n; ++i) {
    if (object_sizes[i] <= 0) {
      return Status::InvalidArgument(
          StrFormat("object %zu has non-positive size", i));
    }
    total_size += object_sizes[i];
  }
  // Clause-indexed per-workload diagnostics, overlap-row invariants
  // included.
  LDB_RETURN_IF_ERROR(ValidateWorkloadSet(workloads));
  int64_t total_capacity = 0;
  for (const AdvisorTarget& t : targets) {
    if (t.capacity_bytes <= 0 || t.num_members <= 0 || t.stripe_bytes <= 0) {
      return Status::InvalidArgument(
          StrFormat("target %s has non-positive parameters",
                    t.name.c_str()));
    }
    if (t.cost_model == nullptr) {
      return Status::InvalidArgument(
          StrFormat("target %s has no cost model", t.name.c_str()));
    }
    total_capacity += t.capacity_bytes;
  }
  if (lvm_stripe_bytes <= 0) {
    return Status::InvalidArgument("LVM stripe must be positive");
  }
  if (total_capacity < total_size) {
    return Status::Infeasible(
        StrFormat("objects need %lld bytes but targets offer %lld",
                  static_cast<long long>(total_size),
                  static_cast<long long>(total_capacity)));
  }
  return constraints.Validate(num_objects(), num_targets());
}

std::vector<int64_t> LayoutProblem::capacities() const {
  std::vector<int64_t> caps;
  caps.reserve(targets.size());
  for (const AdvisorTarget& t : targets) caps.push_back(t.capacity_bytes);
  return caps;
}

TargetModel LayoutProblem::MakeTargetModel() const {
  std::vector<TargetModelInfo> infos;
  infos.reserve(targets.size());
  for (const AdvisorTarget& t : targets) {
    TargetModelInfo info;
    info.cost_model = t.cost_model;
    info.num_members = t.num_members;
    info.stripe_bytes = t.stripe_bytes;
    info.raid_level = t.raid_level;
    infos.push_back(info);
  }
  return TargetModel(std::move(infos), LvmLayoutModel(lvm_stripe_bytes));
}

LayoutNlpProblem LayoutProblem::MakeNlp(const TargetModel* model) const {
  LDB_CHECK(model != nullptr);
  LayoutNlpProblem nlp;
  nlp.num_objects = num_objects();
  nlp.num_targets = num_targets();
  nlp.object_sizes = object_sizes;
  nlp.target_capacities = capacities();
  nlp.constraints = constraints;
  const WorkloadSet* workloads_ptr = &workloads;
  nlp.target_utilization = [model, workloads_ptr](const Layout& layout,
                                                  int j) {
    return model->TargetUtilization(*workloads_ptr, layout, j);
  };
  nlp.make_column_eval = [model, workloads_ptr](int j) {
    return model->MakeColumnEvaluator(*workloads_ptr, j);
  };
  return nlp;
}

Result<LayoutProblem> MakeLayoutProblem(const Catalog& catalog,
                                        std::vector<AdvisorTarget> targets,
                                        WorkloadSet workloads,
                                        int64_t lvm_stripe_bytes) {
  LayoutProblem p;
  p.object_names = catalog.names();
  p.object_sizes = catalog.sizes();
  p.object_kinds.reserve(static_cast<size_t>(catalog.num_objects()));
  for (const DbObject& o : catalog.objects()) p.object_kinds.push_back(o.kind);
  p.workloads = std::move(workloads);
  p.targets = std::move(targets);
  p.lvm_stripe_bytes = lvm_stripe_bytes;
  LDB_RETURN_IF_ERROR(p.Validate());
  return p;
}

Result<std::vector<std::vector<int>>> LayoutToPlacements(
    const LayoutProblem& problem, const Layout& layout,
    bool check_placement_constraints) {
  if (layout.num_objects() != problem.num_objects() ||
      layout.num_targets() != problem.num_targets()) {
    return Status::InvalidArgument("layout dimensions mismatch problem");
  }
  if (!layout.IsRegular()) {
    return Status::FailedPrecondition(
        "only regular layouts are implementable by the striping LVM");
  }
  if (!layout.IsValid(problem.object_sizes, problem.capacities())) {
    return Status::Infeasible("layout violates problem constraints");
  }
  if (check_placement_constraints &&
      !problem.constraints.SatisfiedBy(layout)) {
    return Status::Infeasible("layout violates placement constraints");
  }
  std::vector<std::vector<int>> placements;
  placements.reserve(static_cast<size_t>(problem.num_objects()));
  for (int i = 0; i < problem.num_objects(); ++i) {
    placements.push_back(layout.TargetsOf(i));
  }
  return placements;
}

}  // namespace ldb
