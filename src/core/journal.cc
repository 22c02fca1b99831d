#include "core/journal.h"

#include <cstdlib>
#include <utility>

#include "util/fnv.h"
#include "util/spec_text.h"
#include "util/table.h"

namespace ldb {

namespace {

// Record payload prefixes. Payloads are text inside the WAL's binary
// frames: human-greppable, CRC-protected, and versioned by the WAL header.
constexpr char kTagMigration[] = "m";
constexpr char kTagPlan[] = "plan";
constexpr char kTagProblem[] = "pstate";
constexpr char kTagIntent[] = "intent";
constexpr char kTagCheckpoint[] = "ckpt";
constexpr char kTagScenarioPos[] = "spos";

bool JournalKindFromName(const std::string& name, JournalKind* out) {
  static constexpr JournalKind kAll[] = {
      JournalKind::kBeginMigration,    JournalKind::kBeginChunk,
      JournalKind::kRecopyChunk,       JournalKind::kCommitChunk,
      JournalKind::kCommitObject,      JournalKind::kCommitMigration,
      JournalKind::kRollbackMigration, JournalKind::kAbortMigration};
  for (JournalKind kind : kAll) {
    if (name == JournalKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

// Only records whose loss would change post-recovery routing authority
// need their own barrier. Until a migration reaches a terminal record the
// source mirrors every foreground write (committed chunks write to BOTH
// sides), so losing any batched record — including kCommitChunk — merely
// re-copies the chunk from a still-current source. The terminal records
// are where one side goes stale, so they (and the begin record that opens
// the segment) sync before taking effect.
bool IsSyncPointKind(JournalKind kind) {
  switch (kind) {
    case JournalKind::kBeginMigration:
    case JournalKind::kCommitMigration:
    case JournalKind::kRollbackMigration:
    case JournalKind::kAbortMigration:
      return true;
    case JournalKind::kBeginChunk:
    case JournalKind::kCommitChunk:
    case JournalKind::kRecopyChunk:
    case JournalKind::kCommitObject:
      return false;
  }
  return true;
}

/// Whitespace-token scanner over one record payload. Exception-free.
class FieldParser {
 public:
  explicit FieldParser(const std::string& s) : s_(s) {}

  /// Payload bytes not yet consumed.
  size_t remaining() const { return s_.size() - pos_; }

  bool NextToken(std::string* out) {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
    if (pos_ >= s_.size()) return false;
    const size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ') ++pos_;
    out->assign(s_, start, pos_ - start);
    return true;
  }
  bool NextDouble(double* out) {
    std::string tok;
    return NextToken(&tok) && ParseDecimal(tok, out);
  }
  template <typename Int>  // int or int64_t; a value that does not fit fails
  bool NextInt(Int* out) {
    std::string tok;
    return NextToken(&tok) && ParseInteger(tok, out);
  }
  bool NextHexU64(uint64_t* out) {
    std::string tok;
    if (!NextToken(&tok)) return false;
    char* end = nullptr;
    *out = std::strtoull(tok.c_str(), &end, 16);
    return end != tok.c_str() && *end == '\0';
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

void SerializeLayout(const Layout& layout, std::string* out) {
  *out += StrFormat("%d %d", layout.num_objects(), layout.num_targets());
  for (int i = 0; i < layout.num_objects(); ++i) {
    for (int j = 0; j < layout.num_targets(); ++j) {
      *out += StrFormat(" %.17g", layout.At(i, j));
    }
  }
}

bool ParseLayout(FieldParser* p, Layout* out) {
  int n = 0, m = 0;
  // A serialized cell takes >= 2 payload bytes and records are capped at
  // 16 MiB, so dimensions past 1<<23 cells cannot be genuine — reject
  // them as corruption instead of allocating on a corrupt record's say-so.
  if (!p->NextInt(&n) || !p->NextInt(&m) || n <= 0 || m <= 0 ||
      static_cast<int64_t>(n) * m > (int64_t{1} << 23)) {
    return false;
  }
  Layout layout(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      double v = 0.0;
      if (!p->NextDouble(&v)) return false;
      layout.Set(i, j, v);
    }
  }
  *out = std::move(layout);
  return true;
}

void SerializeWorkloads(const WorkloadSet& set, std::string* out) {
  *out += StrFormat(" ref %d", static_cast<int>(set.size()));
  for (const WorkloadDesc& w : set) {
    *out += StrFormat(" w %.17g %.17g %.17g %.17g %.17g", w.read_rate,
                      w.write_rate, w.read_size, w.write_size, w.run_count);
    *out += StrFormat(" s %d", static_cast<int>(w.overlap_index.size()));
    for (size_t k = 0; k < w.overlap_index.size(); ++k) {
      *out += StrFormat(" %d %.17g", w.overlap_index[k], w.overlap_value[k]);
    }
  }
}

/// Decodes a workload set. Rows come as `s <len> (<id> <value>)*` CSR rows,
/// or as the full `d <count> <value>*` rows older journals hold, which
/// decode through SetOverlapRow. Returns false on malformed input; the
/// caller validates the decoded set.
bool ParseWorkloads(FieldParser* p, WorkloadSet* out) {
  std::string tok;
  if (!p->NextToken(&tok) || tok != "ref") return false;
  int count = 0;
  // Same bound as ParseLayout's: a workload takes >= 16 payload bytes
  // (" w", five numbers, a row header), and a row holds at most `count`
  // entries, so neither number can exceed what the record holds.
  if (!p->NextInt(&count) || count < 0 ||
      static_cast<size_t>(count) > p->remaining() / 16) {
    return false;
  }
  out->clear();
  out->reserve(static_cast<size_t>(count));
  std::vector<double> row;
  for (int i = 0; i < count; ++i) {
    if (!p->NextToken(&tok) || tok != "w") return false;
    WorkloadDesc w;
    if (!p->NextDouble(&w.read_rate) || !p->NextDouble(&w.write_rate) ||
        !p->NextDouble(&w.read_size) || !p->NextDouble(&w.write_size) ||
        !p->NextDouble(&w.run_count)) {
      return false;
    }
    if (!p->NextToken(&tok)) return false;
    int len = 0;
    if (!p->NextInt(&len) || len < 0 || len > count) return false;
    if (tok == "s") {
      w.overlap_index.reserve(static_cast<size_t>(len));
      w.overlap_value.reserve(static_cast<size_t>(len));
      for (int k = 0; k < len; ++k) {
        int idx = 0;
        double v = 0.0;
        if (!p->NextInt(&idx) || !p->NextDouble(&v)) return false;
        w.overlap_index.push_back(idx);
        w.overlap_value.push_back(v);
      }
    } else if (tok == "d" && len == count) {
      row.resize(static_cast<size_t>(len));
      for (double& v : row) {
        if (!p->NextDouble(&v)) return false;
      }
      SetOverlapRow(&w, static_cast<size_t>(i), row);
    } else {
      return false;
    }
    out->push_back(std::move(w));
  }
  return true;
}

Status CorruptRecord(int64_t index, const std::string& what) {
  return Status::IoError(StrFormat("control journal record %lld: %s",
                                   static_cast<long long>(index),
                                   what.c_str()));
}

/// Folds the intact record payloads into the recovered state. Any record
/// that parses as none of the known shapes is a hard error: the CRC said
/// the bytes are exactly what was written, so this is a version/format
/// disagreement, not bit rot — silently skipping could drop a commit.
Status ParseControlRecords(const std::vector<std::string>& records,
                           RecoveredControlState* out) {
  const auto begin_segment = [out]() {
    out->migration.clear();
    out->migration_committed = false;
    out->has_intent = false;
  };
  for (size_t idx = 0; idx < records.size(); ++idx) {
    FieldParser p(records[idx]);
    std::string tag;
    if (!p.NextToken(&tag)) {
      return CorruptRecord(static_cast<int64_t>(idx), "empty record");
    }
    if (tag == kTagMigration) {
      std::string kind_name;
      JournalRecord rec;
      if (!p.NextToken(&kind_name) ||
          !JournalKindFromName(kind_name, &rec.kind) ||
          !p.NextInt(&rec.object) || !p.NextInt(&rec.chunk)) {
        return CorruptRecord(static_cast<int64_t>(idx),
                             "malformed migration record");
      }
      out->migration.push_back(rec);
      if (rec.kind == JournalKind::kCommitMigration) {
        out->migration_committed = true;
      }
    } else if (tag == kTagPlan) {
      uint64_t digest = 0;
      if (!p.NextHexU64(&digest)) {
        return CorruptRecord(static_cast<int64_t>(idx),
                             "malformed plan binding");
      }
      begin_segment();
      out->has_plan = true;
      out->plan_digest = digest;
    } else if (tag == kTagProblem) {
      uint64_t digest = 0;
      if (!p.NextHexU64(&digest)) {
        return CorruptRecord(static_cast<int64_t>(idx),
                             "malformed problem binding");
      }
      out->has_problem = true;
      out->problem_digest = digest;
    } else if (tag == kTagIntent) {
      uint64_t digest = 0;
      Layout layout(1, 1);
      WorkloadSet reference;
      if (!p.NextHexU64(&digest) || !ParseLayout(&p, &layout) ||
          !ParseWorkloads(&p, &reference)) {
        return CorruptRecord(static_cast<int64_t>(idx),
                             "malformed intent record");
      }
      if (Status valid = ValidateWorkloadSet(reference); !valid.ok()) {
        return CorruptRecord(static_cast<int64_t>(idx),
                             "intent record: " + valid.message());
      }
      begin_segment();
      out->has_plan = true;
      out->plan_digest = digest;
      out->has_intent = true;
      out->intent_layout = std::move(layout);
      out->intent_reference = std::move(reference);
    } else if (tag == kTagCheckpoint) {
      double time = 0.0;
      Layout layout(1, 1);
      WorkloadSet reference;
      if (!p.NextDouble(&time) || !ParseLayout(&p, &layout) ||
          !ParseWorkloads(&p, &reference)) {
        return CorruptRecord(static_cast<int64_t>(idx),
                             "malformed checkpoint record");
      }
      if (Status valid = ValidateWorkloadSet(reference); !valid.ok()) {
        return CorruptRecord(static_cast<int64_t>(idx),
                             "checkpoint record: " + valid.message());
      }
      begin_segment();
      out->has_plan = false;
      out->has_checkpoint = true;
      out->checkpoint_time = time;
      out->checkpoint_layout = std::move(layout);
      out->checkpoint_reference = std::move(reference);
    } else if (tag == kTagScenarioPos) {
      double position = 0.0;
      if (!p.NextDouble(&position)) {
        return CorruptRecord(static_cast<int64_t>(idx),
                             "malformed scenario position record");
      }
      // Deliberately not reset by begin_segment(): the scenario clock
      // outlives migration segments — a resume restores the latest
      // position regardless of how many migrations ran since.
      out->has_scenario_position = true;
      out->scenario_position_s = position;
    } else {
      return CorruptRecord(
          static_cast<int64_t>(idx),
          StrFormat("unknown record tag '%s'", tag.c_str()));
    }
  }
  out->records = static_cast<int64_t>(records.size());
  return Status::Ok();
}

}  // namespace

uint64_t MigrationPlanDigest(const std::vector<int64_t>& object_sizes,
                             const std::vector<std::vector<int>>& from,
                             const std::vector<std::vector<int>>& to,
                             int64_t chunk_bytes) {
  uint64_t h = kJournalDigestSeed;
  h = FnvMixU64(h, static_cast<uint64_t>(object_sizes.size()));
  h = FnvMixU64(h, static_cast<uint64_t>(chunk_bytes));
  for (int64_t s : object_sizes) h = FnvMixU64(h, static_cast<uint64_t>(s));
  for (const auto& placements : {&from, &to}) {
    for (const std::vector<int>& row : *placements) {
      h = FnvMixU64(h, static_cast<uint64_t>(row.size()));
      for (int t : row) h = FnvMixU64(h, static_cast<uint64_t>(t));
    }
  }
  return h;
}

bool ResolveDeployedState(const RecoveredControlState& state, Layout* layout,
                          WorkloadSet* reference) {
  if (state.has_intent && state.migration_committed) {
    // Authority switched at the durable kCommitMigration record; the crash
    // merely beat the checkpoint append. The intent record carries
    // everything the checkpoint would have.
    *layout = state.intent_layout;
    *reference = state.intent_reference;
    return true;
  }
  if (state.has_checkpoint) {
    *layout = state.checkpoint_layout;
    *reference = state.checkpoint_reference;
    return true;
  }
  return false;
}

Result<std::unique_ptr<ControlJournal>> ControlJournal::Open(
    const std::string& path, WalCrashPolicy policy) {
  auto writer = WalWriter::Open(path, policy);
  if (!writer.ok()) return writer.status();
  std::unique_ptr<ControlJournal> journal(
      new ControlJournal(std::move(writer).value()));
  // Open() already truncated any torn tail, so this re-read sees exactly
  // the intact prefix the writer will append after.
  auto read = ReadWalRecords(path);
  if (!read.ok()) return read.status();
  journal->recovered_.torn_tail = read->torn_tail;
  LDB_RETURN_IF_ERROR(ParseControlRecords(read->records,
                                          &journal->recovered_));
  return journal;
}

Status ControlJournal::Append(const JournalRecord& record) {
  LDB_RETURN_IF_ERROR(writer_->Append(
      StrFormat("%s %s %d %lld", kTagMigration, JournalKindName(record.kind),
                record.object, static_cast<long long>(record.chunk))));
  if (IsSyncPointKind(record.kind)) return writer_->Sync();
  return Status::Ok();
}

Status ControlJournal::AppendPlanBinding(uint64_t digest) {
  LDB_RETURN_IF_ERROR(writer_->Append(
      StrFormat("%s %llx", kTagPlan, static_cast<unsigned long long>(digest))));
  return writer_->Sync();
}

Status ControlJournal::AppendProblemBinding(uint64_t digest) {
  LDB_RETURN_IF_ERROR(writer_->Append(StrFormat(
      "%s %llx", kTagProblem, static_cast<unsigned long long>(digest))));
  return writer_->Sync();
}

Status ControlJournal::AppendIntent(uint64_t plan_digest,
                                    const Layout& destination,
                                    const WorkloadSet& reference) {
  std::string payload = StrFormat(
      "%s %llx ", kTagIntent, static_cast<unsigned long long>(plan_digest));
  SerializeLayout(destination, &payload);
  SerializeWorkloads(reference, &payload);
  LDB_RETURN_IF_ERROR(writer_->Append(payload));
  return writer_->Sync();
}

Status ControlJournal::AppendCheckpoint(double time, const Layout& layout,
                                        const WorkloadSet& reference) {
  std::string payload = StrFormat("%s %.17g ", kTagCheckpoint, time);
  SerializeLayout(layout, &payload);
  SerializeWorkloads(reference, &payload);
  LDB_RETURN_IF_ERROR(writer_->Append(payload));
  return writer_->Sync();
}

Status ControlJournal::AppendScenarioPosition(double position_s) {
  LDB_RETURN_IF_ERROR(writer_->Append(
      StrFormat("%s %.17g", kTagScenarioPos, position_s)));
  return writer_->Sync();
}

Result<RecoveredControlState> RecoverControlState(const std::string& path) {
  auto read = ReadWalRecords(path);
  if (!read.ok()) return read.status();
  RecoveredControlState state;
  state.torn_tail = read->torn_tail;
  LDB_RETURN_IF_ERROR(ParseControlRecords(read->records, &state));
  return state;
}

Result<MigrationJournal> RecoverMigrationJournal(const std::string& path,
                                                 uint64_t expected_digest) {
  auto state = RecoverControlState(path);
  if (!state.ok()) return state.status();
  if (!state->has_plan) {
    return Status::FailedPrecondition(StrFormat(
        "journal %s holds no migration plan binding; nothing to resume",
        path.c_str()));
  }
  if (state->plan_digest != expected_digest) {
    return Status::FailedPrecondition(StrFormat(
        "journal %s was recorded for a different migration plan "
        "(journal digest %llx, plan digest %llx); refusing to resume",
        path.c_str(), static_cast<unsigned long long>(state->plan_digest),
        static_cast<unsigned long long>(expected_digest)));
  }
  return std::move(state->migration);
}

}  // namespace ldb
