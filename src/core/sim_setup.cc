#include "core/sim_setup.h"

#include <algorithm>

#include "storage/disk.h"
#include "storage/ssd.h"
#include "util/fnv.h"
#include "util/table.h"

namespace ldb {

Result<RebuiltSystem> BuildSystemForProblem(const LayoutProblem& problem) {
  RebuiltSystem out;
  for (const AdvisorTarget& t : problem.targets) {
    const std::string model =
        t.cost_model != nullptr ? t.cost_model->device_model() : "";
    const int members = std::max(1, t.num_members);
    int64_t member_capacity = t.capacity_bytes;
    switch (t.raid_level) {
      case RaidLevel::kRaid0:
        member_capacity = t.capacity_bytes / members;
        break;
      case RaidLevel::kRaid1:
        member_capacity = t.capacity_bytes;
        break;
      case RaidLevel::kRaid5:
        member_capacity = t.capacity_bytes / std::max(1, members - 1);
        break;
    }
    std::unique_ptr<BlockDevice> proto;
    if (model == "disk-15k" || model == "disk-7200") {
      DiskParams params =
          model == "disk-15k" ? Scsi15kParams() : Nearline7200Params();
      params.capacity_bytes = member_capacity;
      proto = std::make_unique<DiskModel>(params);
    } else if (model == "ssd") {
      SsdParams params;
      params.capacity_bytes = member_capacity;
      proto = std::make_unique<SsdModel>(params);
    } else {
      return Status::InvalidArgument(StrFormat(
          "target %s: cannot rebuild device model '%s' for simulation",
          t.name.c_str(), model.c_str()));
    }
    TargetSpec spec;
    spec.name = t.name;
    spec.prototype = proto.get();
    spec.num_members = members;
    spec.stripe_bytes = t.stripe_bytes;
    spec.raid_level = t.raid_level;
    out.prototypes.push_back(std::move(proto));
    out.specs.push_back(std::move(spec));
  }
  out.system = std::make_unique<StorageSystem>(out.specs);
  return out;
}

Result<OltpSpec> SyntheticForeground(const LayoutProblem& problem,
                                     const std::string& label,
                                     const std::string& context) {
  OltpSpec fg;
  fg.name = label;
  fg.transaction.name = "synthetic";
  QueryStep step;
  step.depth = 8;
  for (int i = 0; i < problem.num_objects(); ++i) {
    const WorkloadDesc& w = problem.workloads[static_cast<size_t>(i)];
    const double rate = w.total_rate();
    if (rate <= 0.0) continue;
    StreamSpec s;
    s.object = i;
    const double mean = w.mean_size();
    s.request_bytes = std::max<int64_t>(
        4 * kKiB, std::min<int64_t>(static_cast<int64_t>(mean),
                                    problem.object_sizes[static_cast<size_t>(
                                        i)]));
    // One simulated second of this object's fitted demand per transaction.
    s.bytes = std::max<int64_t>(
        s.request_bytes, static_cast<int64_t>(rate) * s.request_bytes);
    s.pattern = AccessPattern::kRandom;
    s.write_fraction = rate > 0.0 ? w.write_rate / rate : 0.0;
    step.streams.push_back(s);
  }
  if (step.streams.empty()) {
    return Status::InvalidArgument(StrFormat(
        "%s: every object has zero fitted request rate; nothing to run",
        context.c_str()));
  }
  fg.transaction.steps.push_back(std::move(step));
  fg.terminals = 1;
  fg.txn_overhead_s = 0.0;
  fg.warmup_s = 0.0;
  return fg;
}

namespace {

/// Length-prefixed, so adjacent strings cannot run together.
uint64_t FnvMixStr(uint64_t h, const std::string& s) {
  return FnvMixBytes(FnvMixU64(h, static_cast<uint64_t>(s.size())), s);
}

}  // namespace

uint64_t ProblemStateDigest(const LayoutProblem& problem) {
  uint64_t h = kJournalDigestSeed;
  h = FnvMixU64(h, static_cast<uint64_t>(problem.num_objects()));
  h = FnvMixU64(h, static_cast<uint64_t>(problem.num_targets()));
  h = FnvMixU64(h, static_cast<uint64_t>(problem.lvm_stripe_bytes));
  for (int64_t s : problem.object_sizes) {
    h = FnvMixU64(h, static_cast<uint64_t>(s));
  }
  for (const AdvisorTarget& t : problem.targets) {
    h = FnvMixStr(h, t.name);
    h = FnvMixStr(h, t.cost_model != nullptr ? t.cost_model->device_model()
                                             : std::string());
    h = FnvMixU64(h, static_cast<uint64_t>(t.capacity_bytes));
    h = FnvMixU64(h, static_cast<uint64_t>(t.num_members));
    h = FnvMixU64(h, static_cast<uint64_t>(t.stripe_bytes));
    h = FnvMixU64(h, static_cast<uint64_t>(t.raid_level));
  }
  return h;
}

}  // namespace ldb
