#include "storage/fault.h"

#include <utility>

#include "util/check.h"
#include "util/random.h"
#include "util/spec_text.h"
#include "util/table.h"

namespace ldb {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFailStop:
      return "fail";
    case FaultKind::kLimp:
      return "limp";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kRebuild:
      return "rebuild";
    case FaultKind::kRecover:
      return "recover";
  }
  return "unknown";
}

Result<FaultPlan> ParseFaultPlan(const std::string& text) {
  auto clauses = SplitSpecClauses("fault spec", text);
  if (!clauses.ok()) return clauses.status();
  FaultPlan plan;
  // Value ranges are checked here so a bad spec is rejected with clause
  // context before it reaches consumers that never Arm() an injector
  // (HealthFromFaultPlan silently ignores out-of-range entries).
  for (const SpecClause& clause : *clauses) {
    FaultSpec spec;
    bool has_fault_key = false;
    for (const SpecItem& item : clause.items) {
      const std::string& key = item.key;
      int64_t iv = 0;
      double dv = 0.0;
      if (key == "seed") {
        LDB_RETURN_IF_ERROR(clause.Integer(item, &iv));
        if (iv < 0) return clause.Error("seed must be >= 0");
        plan.seed = static_cast<uint64_t>(iv);
      } else if (key == "retries") {
        LDB_RETURN_IF_ERROR(clause.Integer(item, &plan.max_retries));
        if (plan.max_retries < 0) return clause.Error("retries must be >= 0");
      } else if (key == "backoff") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (dv < 0.0) return clause.Error("backoff must be >= 0");
        plan.retry_backoff_s = dv;
      } else if (key == "t") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (dv < 0.0) return clause.Error("t must be >= 0");
        spec.time = dv;
        has_fault_key = true;
      } else if (key == "target") {
        LDB_RETURN_IF_ERROR(clause.Integer(item, &spec.target));
        if (spec.target < 0) return clause.Error("target must be >= 0");
        has_fault_key = true;
      } else if (key == "member") {
        LDB_RETURN_IF_ERROR(clause.Integer(item, &spec.member));
        if (spec.member < 0) return clause.Error("member must be >= 0");
        has_fault_key = true;
      } else if (key == "kind") {
        if (item.value == "fail") {
          spec.kind = FaultKind::kFailStop;
        } else if (item.value == "limp") {
          spec.kind = FaultKind::kLimp;
        } else if (item.value == "transient") {
          spec.kind = FaultKind::kTransient;
        } else if (item.value == "rebuild") {
          spec.kind = FaultKind::kRebuild;
        } else if (item.value == "recover") {
          spec.kind = FaultKind::kRecover;
        } else {
          return clause.Error(
              StrFormat("unknown kind '%s'", item.value.c_str()));
        }
        has_fault_key = true;
      } else if (key == "scale") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (dv <= 0.0) return clause.Error("scale must be > 0");
        spec.latency_scale = dv;
        has_fault_key = true;
      } else if (key == "p") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (dv < 0.0 || dv > 1.0) return clause.Error("p must be in [0,1]");
        spec.error_prob = dv;
        has_fault_key = true;
      } else if (key == "duration") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (dv < 0.0) return clause.Error("duration must be >= 0");
        spec.duration = dv;
        has_fault_key = true;
      } else if (key == "chunk") {
        LDB_RETURN_IF_ERROR(clause.Integer(item, &spec.rebuild_chunk_bytes));
        if (spec.rebuild_chunk_bytes <= 0) {
          return clause.Error("chunk must be > 0");
        }
        has_fault_key = true;
      } else {
        return clause.Error(StrFormat("unknown key '%s'", key.c_str()));
      }
    }
    if (has_fault_key) plan.faults.push_back(spec);
  }
  return plan;
}

std::string FaultPlanToString(const FaultPlan& plan) {
  std::string out = StrFormat("seed=%llu,retries=%d,backoff=%s",
                              static_cast<unsigned long long>(plan.seed),
                              plan.max_retries,
                              FormatExact(plan.retry_backoff_s).c_str());
  for (const FaultSpec& f : plan.faults) {
    out += StrFormat(
        ";t=%s,target=%d,member=%d,kind=%s,scale=%s,p=%s,duration=%s,"
        "chunk=%lld",
        FormatExact(f.time).c_str(), f.target, f.member,
        FaultKindName(f.kind), FormatExact(f.latency_scale).c_str(),
        FormatExact(f.error_prob).c_str(), FormatExact(f.duration).c_str(),
        static_cast<long long>(f.rebuild_chunk_bytes));
  }
  return out;
}

FaultInjector::FaultInjector(StorageSystem* system, FaultPlan plan)
    : system_(system), plan_(std::move(plan)) {
  LDB_CHECK(system_ != nullptr);
}

Status FaultInjector::Arm() {
  if (plan_.max_retries < 0) {
    return Status::InvalidArgument("fault plan: retries must be >= 0");
  }
  if (!(plan_.retry_backoff_s >= 0.0)) {
    return Status::InvalidArgument("fault plan: backoff must be >= 0");
  }
  for (const FaultSpec& f : plan_.faults) {
    if (!(f.time >= 0.0)) {  // NaN fails too
      return Status::InvalidArgument("fault plan: fault time must be >= 0");
    }
    if (f.target < 0 || f.target >= system_->num_targets()) {
      return Status::InvalidArgument(
          StrFormat("fault plan: target %d out of range", f.target));
    }
    const StorageTarget& t = system_->target(f.target);
    if (f.member < 0 || f.member >= t.num_members()) {
      return Status::InvalidArgument(
          StrFormat("fault plan: member %d out of range for target %s",
                    f.member, t.name().c_str()));
    }
    switch (f.kind) {
      case FaultKind::kLimp:
        if (!(f.latency_scale > 0.0)) {
          return Status::InvalidArgument(
              "fault plan: limp scale must be > 0");
        }
        break;
      case FaultKind::kTransient:
        if (!(f.error_prob >= 0.0 && f.error_prob <= 1.0)) {
          return Status::InvalidArgument(
              "fault plan: transient p must be in [0,1]");
        }
        break;
      case FaultKind::kRebuild:
        if (t.raid_level() == RaidLevel::kRaid0) {
          return Status::InvalidArgument(StrFormat(
              "fault plan: target %s is RAID0 — nothing to rebuild from; "
              "replan the layout instead",
              t.name().c_str()));
        }
        if (f.rebuild_chunk_bytes <= 0) {
          return Status::InvalidArgument(
              "fault plan: rebuild chunk must be > 0");
        }
        break;
      case FaultKind::kFailStop:
      case FaultKind::kRecover:
        break;
    }
  }

  // Seed every target's transient-error stream from the plan seed. Streams
  // are per-target (MixSeed) and the event loop is serial, so the whole
  // error sequence is a pure function of the plan — independent of solver
  // or calibration thread counts.
  for (int j = 0; j < system_->num_targets(); ++j) {
    StorageTarget& t = system_->target(j);
    t.SeedFaultRng(MixSeed(plan_.seed, static_cast<uint64_t>(j)));
    t.SetRetryPolicy(plan_.max_retries, plan_.retry_backoff_s);
  }
  for (const FaultSpec& f : plan_.faults) {
    system_->queue().ScheduleAfter(f.time, [this, f]() { Apply(f); });
  }
  return Status::Ok();
}

void FaultInjector::Apply(const FaultSpec& spec) {
  StorageTarget& t = system_->target(spec.target);
  if (spec.kind == FaultKind::kRebuild) {
    // Whether a rebuild is valid depends on event ordering (the matching
    // fail-stop must already have fired), which Arm() cannot check from
    // the static plan. The spec is user input: record the skip and keep
    // the run alive instead of crashing.
    const Status s = t.StartRebuild(spec.member, spec.rebuild_chunk_bytes);
    if (!s.ok()) {
      skipped_.push_back(
          StrFormat("t=%g: %s", spec.time, s.message().c_str()));
      return;
    }
    ++faults_applied_;
    return;
  }
  ++faults_applied_;
  switch (spec.kind) {
    case FaultKind::kFailStop:
      t.FailMember(spec.member);
      break;
    case FaultKind::kLimp: {
      t.SetMemberLatencyScale(spec.member, spec.latency_scale);
      if (spec.duration > 0.0) {
        const int target = spec.target;
        const int member = spec.member;
        system_->queue().ScheduleAfter(spec.duration, [this, target,
                                                       member]() {
          system_->target(target).SetMemberLatencyScale(member, 1.0);
        });
      }
      break;
    }
    case FaultKind::kTransient: {
      t.SetMemberErrorProbability(spec.member, spec.error_prob);
      if (spec.duration > 0.0) {
        const int target = spec.target;
        const int member = spec.member;
        system_->queue().ScheduleAfter(spec.duration, [this, target,
                                                       member]() {
          system_->target(target).SetMemberErrorProbability(member, 0.0);
        });
      }
      break;
    }
    case FaultKind::kRebuild:
      break;  // handled above
    case FaultKind::kRecover:
      t.RecoverMember(spec.member);
      break;
  }
}

}  // namespace ldb
