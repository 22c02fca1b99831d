#ifndef LAYOUTDB_CORE_SIM_SETUP_H_
#define LAYOUTDB_CORE_SIM_SETUP_H_

#include <memory>
#include <string>
#include <vector>

#include "core/problem.h"
#include "storage/storage_system.h"
#include "util/status.h"
#include "workload/spec.h"

namespace ldb {

/// A simulated StorageSystem rebuilt from a calibrated LayoutProblem.
/// The prototypes own the device models the system was constructed from;
/// keep the bundle alive as long as the system runs.
struct RebuiltSystem {
  std::vector<std::unique_ptr<BlockDevice>> prototypes;
  std::vector<TargetSpec> specs;
  std::unique_ptr<StorageSystem> system;
};

/// Rebuilds simulated devices from the problem's calibrated cost-model
/// names. Only the built-in models (disk-15k, disk-7200, ssd) can be
/// reconstructed; problems calibrated against exotic devices must use the
/// rig API instead. Shared by the migration, autopilot, and scenario
/// problem-level simulation entry points.
Result<RebuiltSystem> BuildSystemForProblem(const LayoutProblem& problem);

/// Synthesizes a closed-loop foreground workload from the problem's fitted
/// per-object descriptions: each active object gets one random-access
/// stream whose request size and write fraction match its description;
/// rates set the per-transaction volume (one simulated second of fitted
/// demand per transaction). `label` names the spec ("migrate-fg",
/// "autopilot-fg", ...); `context` prefixes the every-object-idle error.
Result<OltpSpec> SyntheticForeground(const LayoutProblem& problem,
                                     const std::string& label,
                                     const std::string& context);

/// Digest of the problem's *physical* state: object count and sizes, LVM
/// stripe size, and each target's name, geometry, and device model,
/// folded with FNV-1a from kJournalDigestSeed (util/fnv.h), not the FNV
/// offset basis. Workload descriptions are deliberately excluded — they drift
/// (that is the autopilot's whole job) without invalidating a journal.
/// The autopilot control journal binds itself to this digest so that
/// `--resume` against a journal recorded for a different problem file is
/// rejected with a diagnostic instead of deploying a meaningless layout.
uint64_t ProblemStateDigest(const LayoutProblem& problem);

}  // namespace ldb

#endif  // LAYOUTDB_CORE_SIM_SETUP_H_
