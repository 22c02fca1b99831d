#include "core/harness.h"

#include <atomic>
#include <optional>
#include <utility>

#include "storage/disk.h"
#include "storage/lvm.h"
#include "storage/ssd.h"
#include "trace/analyzer.h"
#include "util/check.h"
#include "util/table.h"

namespace ldb {

namespace {

constexpr int64_t kTargetStripeBytes = 64 * kKiB;  // RAID0 chunk
// LVM stripe size. 64 KiB matches the period's Linux LVM defaults: scan
// requests span all of an object's targets, which is what makes SEE's
// interference (and the advisor's isolation decisions) matter.
constexpr int64_t kLvmStripeBytes = 64 * kKiB;

int64_t ScaledCapacity(int64_t bytes, double scale) {
  return std::max<int64_t>(4 * kMiB,
                           static_cast<int64_t>(bytes * scale));
}

std::atomic<uint64_t> g_simulated_runs{0};

std::vector<std::vector<int>> PlacementsOf(const Catalog& catalog,
                                           const Layout& layout) {
  std::vector<std::vector<int>> placements;
  placements.reserve(static_cast<size_t>(catalog.num_objects()));
  for (int i = 0; i < catalog.num_objects(); ++i) {
    placements.push_back(layout.TargetsOf(i));
  }
  return placements;
}

/// The OLTP duration a run uses. WorkloadRunner::Run ignores it whenever an
/// OLAP workload is given (the OLAP sequence sets the run's length), so
/// such runs are equal whatever duration the caller passed.
double UsedDuration(const OlapSpec* olap, double oltp_duration_s) {
  return olap != nullptr ? 0.0 : oltp_duration_s;
}

/// Whether a run's spec pointer names the traced run's spec: both absent,
/// or both present and equal field by field.
template <typename Spec>
bool SameSpec(const Spec* spec, const std::optional<Spec>& traced) {
  return spec == nullptr ? !traced.has_value()
                         : traced.has_value() && *spec == *traced;
}

}  // namespace

uint64_t RigSimulatedRuns() {
  return g_simulated_runs.load(std::memory_order_relaxed);
}

Result<ExperimentRig> ExperimentRig::Create(Catalog catalog,
                                            std::vector<RigTargetDef> targets,
                                            double scale, uint64_t seed) {
  return Create(std::move(catalog), std::move(targets), scale, seed,
                CalibrationOptions{});
}

Result<ExperimentRig> ExperimentRig::Create(Catalog catalog,
                                            std::vector<RigTargetDef> targets,
                                            double scale, uint64_t seed,
                                            CalibrationOptions calibration) {
  if (targets.empty()) {
    return Status::InvalidArgument("rig needs at least one target");
  }
  if (scale <= 0.0) {
    return Status::InvalidArgument("scale must be positive");
  }
  ExperimentRig rig;
  rig.catalog_ = std::move(catalog);
  rig.targets_ = std::move(targets);
  rig.scale_ = scale;
  rig.seed_ = seed;

  // Device prototypes, capacities scaled with the database.
  DiskParams disk_params = Scsi15kParams();
  disk_params.capacity_bytes = ScaledCapacity(disk_params.capacity_bytes,
                                              scale);
  for (const RigTargetDef& def : rig.targets_) {
    if (def.name.empty()) {
      return Status::InvalidArgument("rig target needs a name");
    }
    std::unique_ptr<BlockDevice> proto;
    if (def.is_ssd) {
      SsdParams ssd_params;
      if (def.ssd_capacity_bytes > 0) {
        ssd_params.capacity_bytes = def.ssd_capacity_bytes;
      }
      ssd_params.capacity_bytes =
          ScaledCapacity(ssd_params.capacity_bytes, scale);
      proto = std::make_unique<SsdModel>(ssd_params);
    } else {
      if (def.disk_members <= 0) {
        return Status::InvalidArgument("disk target needs members > 0");
      }
      proto = std::make_unique<DiskModel>(disk_params);
    }
    TargetSpec spec;
    spec.name = def.name;
    spec.prototype = proto.get();
    spec.num_members = def.is_ssd ? 1 : def.disk_members;
    spec.stripe_bytes = kTargetStripeBytes;
    spec.raid_level = def.raid_level;
    rig.target_specs_.push_back(std::move(spec));
    rig.prototypes_.push_back(std::move(proto));
  }

  // Calibrate one cost model per distinct device type, via the persistent
  // cache when one is configured. The rig seed keys the measurements (it
  // participates in the cache key, so differently-seeded rigs never share
  // stale tables).
  CalibrationOptions cal = std::move(calibration);
  cal.seed = seed;
  std::vector<const BlockDevice*> protos;
  for (const auto& p : rig.prototypes_) protos.push_back(p.get());
  auto registry = CostModelRegistry::ForDevices(protos, cal);
  if (!registry.ok()) return registry.status();
  rig.cost_models_ = std::move(registry).value();
  return rig;
}

std::unique_ptr<StorageSystem> ExperimentRig::MakeSystem() const {
  return std::make_unique<StorageSystem>(target_specs_);
}

std::vector<AdvisorTarget> ExperimentRig::AdvisorTargets() const {
  std::vector<AdvisorTarget> out;
  for (size_t t = 0; t < targets_.size(); ++t) {
    AdvisorTarget at;
    at.name = targets_[t].name;
    const BlockDevice& proto = *prototypes_[t];
    const int members = target_specs_[t].num_members;
    at.raid_level = target_specs_[t].raid_level;
    switch (at.raid_level) {
      case RaidLevel::kRaid0:
        at.capacity_bytes = proto.capacity_bytes() * members;
        break;
      case RaidLevel::kRaid1:
        at.capacity_bytes = proto.capacity_bytes();
        break;
      case RaidLevel::kRaid5:
        at.capacity_bytes = proto.capacity_bytes() * (members - 1);
        break;
    }
    at.cost_model = cost_models_.Find(proto.model_name());
    LDB_CHECK(at.cost_model != nullptr);
    at.num_members = members;
    at.stripe_bytes = kTargetStripeBytes;
    out.push_back(std::move(at));
  }
  return out;
}

Result<RunResult> ExperimentRig::RunPlaced(
    Placements placements, const OlapSpec* olap, const OltpSpec* oltp,
    double oltp_duration_s, const FaultPlan* faults,
    StorageSystem::Observer logical_observer) const {
  auto system = MakeSystem();
  auto volumes =
      StripedVolumeManager::Create(catalog_.sizes(), std::move(placements),
                                   system->capacities(), kLvmStripeBytes);
  if (!volumes.ok()) return volumes.status();

  // Arm before the run: fault times are ScheduleAfter-relative, and the
  // runner's target Reset preserves fault RNG seeds and retry policy.
  std::optional<FaultInjector> injector;
  if (faults != nullptr) {
    injector.emplace(system.get(), *faults);
    LDB_RETURN_IF_ERROR(injector->Arm());
  }

  WorkloadRunner runner(system.get(), &*volumes, seed_);
  if (logical_observer) {
    runner.set_logical_observer(std::move(logical_observer));
  }
  g_simulated_runs.fetch_add(1, std::memory_order_relaxed);
  Result<RunResult> run = runner.Run(olap, oltp, oltp_duration_s);
  if (!run.ok() || !injector) return run;
  RunResult result = std::move(run).value();
  result.skipped_faults = injector->skipped();
  return result;
}

Result<RunResult> ExperimentRig::Execute(const Layout& layout,
                                         const OlapSpec* olap,
                                         const OltpSpec* oltp,
                                         double oltp_duration_s) const {
  if (!layout.IsRegular()) {
    return Status::FailedPrecondition(
        "Execute requires a regular layout (the LVM stripes round-robin)");
  }
  Placements placements = PlacementsOf(catalog_, layout);
  {
    std::lock_guard<std::mutex> lock(traced_->mu);
    const std::optional<TracedRun>& t = traced_->entry;
    if (t && t->placements == placements && SameSpec(olap, t->olap) &&
        SameSpec(oltp, t->oltp) &&
        t->oltp_duration_s == UsedDuration(olap, oltp_duration_s)) {
      return t->result;
    }
  }
  return RunPlaced(std::move(placements), olap, oltp, oltp_duration_s,
                   nullptr, nullptr);
}

Result<RunResult> ExperimentRig::ExecuteWithFaults(
    const Layout& layout, const OlapSpec* olap, const OltpSpec* oltp,
    const FaultPlan& plan, double oltp_duration_s) const {
  if (!layout.IsRegular()) {
    return Status::FailedPrecondition(
        "ExecuteWithFaults requires a regular layout");
  }
  return RunPlaced(PlacementsOf(catalog_, layout), olap, oltp,
                   oltp_duration_s, &plan, nullptr);
}

Result<MigrationRunReport> ExperimentRig::ExecuteWithMigration(
    const Layout& from, const Layout& to, const OlapSpec* olap,
    const OltpSpec* oltp, const FaultPlan& faults,
    const MigrateOptions& options, double oltp_duration_s) const {
  if (!from.IsRegular() || !to.IsRegular()) {
    return Status::FailedPrecondition(
        "ExecuteWithMigration requires regular layouts");
  }
  auto system = MakeSystem();
  return RunMigrationSim(system.get(), catalog_.sizes(),
                         PlacementsOf(catalog_, from),
                         PlacementsOf(catalog_, to), kLvmStripeBytes, olap,
                         oltp, oltp_duration_s, faults, options, seed_);
}

Result<AutopilotReport> ExperimentRig::ExecuteWithAutopilot(
    const Layout& layout, WorkloadSet reference, const OlapSpec* olap,
    const OltpSpec* oltp, const FaultPlan& faults,
    const AutopilotOptions& options, double oltp_duration_s) const {
  if (!layout.IsRegular()) {
    return Status::FailedPrecondition(
        "ExecuteWithAutopilot requires a regular layout");
  }
  auto problem = MakeProblem(std::move(reference));
  if (!problem.ok()) return problem.status();
  auto system = MakeSystem();
  return RunAutopilotSim(system.get(), *problem, layout, olap, oltp,
                         oltp_duration_s, faults, options, seed_);
}

Result<WorkloadSet> ExperimentRig::FitWorkloads(const Layout& trace_layout,
                                                const OlapSpec* olap,
                                                const OltpSpec* oltp,
                                                double oltp_duration_s) const {
  if (!trace_layout.IsRegular()) {
    return Status::FailedPrecondition("tracing layout must be regular");
  }
  Placements placements = PlacementsOf(catalog_, trace_layout);

  // Fit from the object-level (pre-striping) request stream: the paper's
  // W_i describe objects, not their current on-target placement. The
  // fitter consumes completions as they happen; no trace is stored.
  ReorderingTraceFitter fitter(catalog_.num_objects());
  Result<RunResult> run =
      RunPlaced(placements, olap, oltp, oltp_duration_s, nullptr,
                [&fitter](const IoEvent& ev) { fitter.Observe(ev); });
  if (!run.ok()) return run.status();

  TracedRun traced{std::move(placements),
                   olap != nullptr ? std::optional<OlapSpec>(*olap)
                                   : std::nullopt,
                   oltp != nullptr ? std::optional<OltpSpec>(*oltp)
                                   : std::nullopt,
                   UsedDuration(olap, oltp_duration_s),
                   std::move(run).value()};
  {
    std::lock_guard<std::mutex> lock(traced_->mu);
    traced_->entry = std::move(traced);
  }
  return fitter.Finish();
}

Result<LayoutProblem> ExperimentRig::MakeProblem(
    WorkloadSet workloads) const {
  return MakeLayoutProblem(catalog_, AdvisorTargets(), std::move(workloads),
                           kLvmStripeBytes);
}

}  // namespace ldb
