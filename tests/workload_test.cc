#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "storage/disk.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "trace/analyzer.h"
#include "trace/trace.h"
#include "util/table.h"
#include "workload/catalog.h"
#include "workload/query.h"
#include "workload/runner.h"
#include "workload/spec.h"
#include "workload/tpch.h"

namespace ldb {
namespace {

// ---------------------------------------------------------------- Catalog

TEST(CatalogTest, TpchMatchesPaperFigure9) {
  Catalog c = Catalog::TpcH();
  int tables = 0, indexes = 0, temps = 0, logs = 0;
  for (const DbObject& o : c.objects()) {
    switch (o.kind) {
      case ObjectKind::kTable: ++tables; break;
      case ObjectKind::kIndex: ++indexes; break;
      case ObjectKind::kTempSpace: ++temps; break;
      case ObjectKind::kLog: ++logs; break;
    }
  }
  EXPECT_EQ(c.num_objects(), 20);
  EXPECT_EQ(tables, 8);
  EXPECT_EQ(indexes, 11);
  EXPECT_EQ(temps, 1);
  EXPECT_EQ(logs, 0);
  // ~9.4 GB total.
  EXPECT_NEAR(static_cast<double>(c.total_bytes()) / kGiB, 9.4, 0.6);
}

TEST(CatalogTest, TpccMatchesPaperFigure9) {
  Catalog c = Catalog::TpcC();
  int tables = 0, indexes = 0, temps = 0, logs = 0;
  for (const DbObject& o : c.objects()) {
    switch (o.kind) {
      case ObjectKind::kTable: ++tables; break;
      case ObjectKind::kIndex: ++indexes; break;
      case ObjectKind::kTempSpace: ++temps; break;
      case ObjectKind::kLog: ++logs; break;
    }
  }
  EXPECT_EQ(c.num_objects(), 20);
  EXPECT_EQ(tables, 9);
  EXPECT_EQ(indexes, 10);
  EXPECT_EQ(temps, 0);
  EXPECT_EQ(logs, 1);
  EXPECT_NEAR(static_cast<double>(c.total_bytes()) / kGiB, 9.1, 0.6);
}

TEST(CatalogTest, ScaleShrinksSizes) {
  Catalog full = Catalog::TpcH(1.0);
  Catalog tiny = Catalog::TpcH(0.1);
  auto li_full = full.Find("LINEITEM");
  auto li_tiny = tiny.Find("LINEITEM");
  ASSERT_TRUE(li_full.ok());
  EXPECT_NEAR(static_cast<double>(tiny.object(*li_tiny).size_bytes),
              0.1 * static_cast<double>(full.object(*li_full).size_bytes),
              static_cast<double>(kMiB));
}

TEST(CatalogTest, FindReportsMissing) {
  Catalog c = Catalog::TpcH();
  EXPECT_TRUE(c.Find("LINEITEM").ok());
  EXPECT_FALSE(c.Find("NO_SUCH_TABLE").ok());
}

TEST(CatalogTest, MergePrefixesAndPreservesOrder) {
  Catalog merged = Catalog::Merge(Catalog::TpcH(), Catalog::TpcC(), "", "C_");
  EXPECT_EQ(merged.num_objects(), 40);
  // TPC-H ORDERS and TPC-C C_ORDERS are distinct objects.
  auto h_orders = merged.Find("ORDERS");
  auto c_orders = merged.Find("C_ORDERS");
  ASSERT_TRUE(h_orders.ok());
  ASSERT_TRUE(c_orders.ok());
  EXPECT_NE(*h_orders, *c_orders);
  EXPECT_LT(*h_orders, 20);
  EXPECT_GE(*c_orders, 20);
}

// ---------------------------------------------------------------- Profiles

TEST(TpchProfilesTest, Produces21Queries) {
  Catalog c = Catalog::TpcH(0.1);
  auto profiles = TpchQueryProfiles(c);
  ASSERT_TRUE(profiles.ok());
  EXPECT_EQ(profiles->size(), 21u);  // Q9 excluded
  std::set<std::string> names;
  for (const QueryProfile& q : *profiles) {
    names.insert(q.name);
    EXPECT_FALSE(q.steps.empty());
    EXPECT_GT(q.TotalBytes(), 0);
    EXPECT_GT(q.TotalRequests(), 0);
  }
  EXPECT_EQ(names.size(), 21u);
  EXPECT_EQ(names.count("Q9"), 0u);
  EXPECT_EQ(names.count("Q18"), 1u);
}

TEST(TpchProfilesTest, LineitemIsHeaviestObject) {
  Catalog c = Catalog::TpcH(0.1);
  auto profiles = TpchQueryProfiles(c);
  ASSERT_TRUE(profiles.ok());
  std::vector<int64_t> bytes(static_cast<size_t>(c.num_objects()), 0);
  for (const QueryProfile& q : *profiles) {
    for (const QueryStep& s : q.steps) {
      for (const StreamSpec& st : s.streams) {
        bytes[static_cast<size_t>(st.object)] += st.bytes;
      }
    }
  }
  const ObjectId li = *c.Find("LINEITEM");
  for (int i = 0; i < c.num_objects(); ++i) {
    if (i == li) continue;
    EXPECT_LT(bytes[static_cast<size_t>(i)], bytes[static_cast<size_t>(li)]);
  }
}

TEST(TpchProfilesTest, RequestRateOrderMatchesPaperFigure1) {
  // The paper's most heavily requested objects, in order: LINEITEM,
  // ORDERS, I_L_ORDERKEY, TEMP SPACE (Figure 1).
  Catalog c = Catalog::TpcH(1.0);
  auto profiles = TpchQueryProfiles(c);
  ASSERT_TRUE(profiles.ok());
  std::vector<int64_t> requests(static_cast<size_t>(c.num_objects()), 0);
  for (const QueryProfile& q : *profiles) {
    for (const QueryStep& s : q.steps) {
      for (const StreamSpec& st : s.streams) {
        requests[static_cast<size_t>(st.object)] +=
            (st.bytes + st.request_bytes - 1) / st.request_bytes;
      }
    }
  }
  auto req = [&](const char* name) {
    return requests[static_cast<size_t>(*c.Find(name))];
  };
  EXPECT_GT(req("LINEITEM"), req("ORDERS"));
  EXPECT_GT(req("ORDERS"), req("I_L_ORDERKEY"));
  EXPECT_GT(req("I_L_ORDERKEY"), req("TEMP SPACE"));
  EXPECT_GT(req("TEMP SPACE"), req("PARTSUPP"));
}

TEST(TpchProfilesTest, FailsOnWrongCatalog) {
  Catalog c = Catalog::TpcC();
  EXPECT_FALSE(TpchQueryProfiles(c).ok());
}

TEST(TpccProfileTest, TransactionTouchesCoreObjects) {
  Catalog c = Catalog::TpcC(0.1);
  auto txn = TpccTransactionProfile(c);
  ASSERT_TRUE(txn.ok());
  std::set<ObjectId> touched;
  bool has_log_write = false;
  for (const QueryStep& s : txn->steps) {
    for (const StreamSpec& st : s.streams) {
      touched.insert(st.object);
      if (c.object(st.object).kind == ObjectKind::kLog &&
          st.write_fraction == 1.0) {
        has_log_write = true;
      }
    }
  }
  EXPECT_TRUE(touched.count(*c.Find("STOCK")));
  EXPECT_TRUE(touched.count(*c.Find("CUSTOMER")));
  EXPECT_TRUE(touched.count(*c.Find("ORDER_LINE")));
  EXPECT_TRUE(has_log_write);
}

TEST(TpccProfileTest, WorksOnMergedCatalogWithPrefix) {
  Catalog merged = Catalog::Merge(Catalog::TpcH(), Catalog::TpcC(), "", "C_");
  auto txn = TpccTransactionProfile(merged, "C_");
  ASSERT_TRUE(txn.ok());
  for (const QueryStep& s : txn->steps) {
    for (const StreamSpec& st : s.streams) EXPECT_GE(st.object, 20);
  }
  // Without the prefix, TPC-C-only objects are missing.
  EXPECT_FALSE(TpccTransactionProfile(merged, "ZZZ_").ok());
}

// ------------------------------------------------------------------ Specs

TEST(SpecTest, Olap163HasRightShape) {
  Catalog c = Catalog::TpcH(0.1);
  auto spec = MakeOlapSpec(c, 3, 1, 7);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "OLAP1-63");
  EXPECT_EQ(spec->queries.size(), 63u);
  EXPECT_EQ(spec->concurrency, 1);
  // Each template appears exactly three times.
  int q1 = 0;
  for (const auto& q : spec->queries) q1 += (q.name == "Q1");
  EXPECT_EQ(q1, 3);
}

TEST(SpecTest, ShuffleIsSeedDeterministic) {
  Catalog c = Catalog::TpcH(0.1);
  auto a = MakeOlapSpec(c, 3, 8, 7);
  auto b = MakeOlapSpec(c, 3, 8, 7);
  auto d = MakeOlapSpec(c, 3, 8, 8);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->name, "OLAP8-63");
  for (size_t i = 0; i < a->queries.size(); ++i) {
    EXPECT_EQ(a->queries[i].name, b->queries[i].name);
  }
  bool any_diff = false;
  for (size_t i = 0; i < a->queries.size(); ++i) {
    any_diff |= a->queries[i].name != d->queries[i].name;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SpecTest, RejectsBadParameters) {
  Catalog c = Catalog::TpcH(0.1);
  EXPECT_FALSE(MakeOlapSpec(c, 0, 1, 7).ok());
  EXPECT_FALSE(MakeOlapSpec(c, 1, 0, 7).ok());
  EXPECT_FALSE(MakeOltpSpec(Catalog::TpcC(0.1), "", 0).ok());
}

/// Each edit changes one field of a copy of `base`; the copy must then
/// compare unequal, and an unedited copy equal.
template <typename T>
void ExpectEveryEditUnequal(const T& base,
                            const std::vector<std::function<void(T&)>>& edits) {
  EXPECT_TRUE(T(base) == base);
  for (size_t e = 0; e < edits.size(); ++e) {
    T edited = base;
    edits[e](edited);
    EXPECT_FALSE(edited == base) << "edit " << e;
  }
}

// Specs compare field by field, nested levels included: the rig reuses a
// traced run only for specs equal to the traced ones.
TEST(SpecTest, ChangingAnyFieldMakesSpecsUnequal) {
  const StreamSpec stream{3, kMiB, 64 * kKiB, AccessPattern::kRandom, 0.25};
  ExpectEveryEditUnequal<StreamSpec>(
      stream, {[](StreamSpec& s) { s.object = 4; },
               [](StreamSpec& s) { s.bytes += 1; },
               [](StreamSpec& s) { s.request_bytes = 8 * kKiB; },
               [](StreamSpec& s) { s.pattern = AccessPattern::kAppend; },
               [](StreamSpec& s) { s.write_fraction = 0.5; }});

  const QueryStep step{{stream, stream}, 2};
  ExpectEveryEditUnequal<QueryStep>(
      step, {[](QueryStep& s) { s.streams[1].bytes += 1; },
             [](QueryStep& s) { s.streams.pop_back(); },
             [](QueryStep& s) { s.depth = 3; }});

  const QueryProfile profile{"Q1", {step, step}};
  ExpectEveryEditUnequal<QueryProfile>(
      profile, {[](QueryProfile& q) { q.name = "Q2"; },
                [](QueryProfile& q) { q.steps[1].depth = 1; },
                [](QueryProfile& q) { q.steps.pop_back(); }});

  const OlapSpec olap{"OLAP1-2", {profile, profile}, 2};
  ExpectEveryEditUnequal<OlapSpec>(
      olap, {[](OlapSpec& o) { o.name = "OLAP1-3"; },
             [](OlapSpec& o) { o.queries[1].steps[0].streams[0].object = 5; },
             [](OlapSpec& o) { o.queries.pop_back(); },
             [](OlapSpec& o) { o.concurrency = 1; }});

  const OltpSpec oltp{"TPC-C", profile, 9, 5.0, 1.2};
  ExpectEveryEditUnequal<OltpSpec>(
      oltp, {[](OltpSpec& o) { o.name = "TPC-C'"; },
             [](OltpSpec& o) { o.transaction.name = "NewOrder"; },
             [](OltpSpec& o) { o.terminals = 8; },
             [](OltpSpec& o) { o.warmup_s = 0.0; },
             [](OltpSpec& o) { o.txn_overhead_s = 1.0; }});
}

// ------------------------------------------------------------------ Runner

struct TestRig {
  Catalog catalog;
  std::unique_ptr<StorageSystem> system;
  std::unique_ptr<StripedVolumeManager> volumes;

  static TestRig SeeOnFourDisks(Catalog cat) {
    TestRig rig{std::move(cat), nullptr, nullptr};
    DiskModel proto(Scsi15kParams());
    std::vector<TargetSpec> specs;
    for (int j = 0; j < 4; ++j) {
      specs.push_back({StrFormat("disk%d", j), &proto, 1, 64 * kKiB});
    }
    rig.system = std::make_unique<StorageSystem>(specs);
    std::vector<std::vector<int>> placements(
        static_cast<size_t>(rig.catalog.num_objects()),
        std::vector<int>{0, 1, 2, 3});
    auto vol = StripedVolumeManager::Create(rig.catalog.sizes(), placements,
                                            rig.system->capacities(), kMiB);
    LDB_CHECK(vol.ok());
    rig.volumes =
        std::make_unique<StripedVolumeManager>(std::move(vol).value());
    return rig;
  }
};

TEST(RunnerTest, RunsSmallOlapWorkloadToCompletion) {
  TestRig rig = TestRig::SeeOnFourDisks(Catalog::TpcH(0.01));
  auto spec = MakeOlapSpec(rig.catalog, 1, 1, 7);
  ASSERT_TRUE(spec.ok());
  WorkloadRunner runner(rig.system.get(), rig.volumes.get());
  auto result = runner.RunOlap(*spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->olap_queries_completed, 21u);
  EXPECT_GT(result->elapsed_seconds, 0.0);
  EXPECT_GT(result->total_requests, 100u);
  ASSERT_EQ(result->utilization.size(), 4u);
  for (double u : result->utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

TEST(RunnerTest, ConcurrentOlapFasterThanSerialPerQuery) {
  // With 8-way concurrency the same queries finish in less wall-clock time
  // than serially (parallelism), though not 8x (interference).
  Catalog cat = Catalog::TpcH(0.01);
  auto serial = MakeOlapSpec(cat, 1, 1, 7);
  auto conc = MakeOlapSpec(cat, 1, 8, 7);
  ASSERT_TRUE(serial.ok());
  TestRig rig1 = TestRig::SeeOnFourDisks(cat);
  WorkloadRunner r1(rig1.system.get(), rig1.volumes.get());
  auto res1 = r1.RunOlap(*serial);
  TestRig rig2 = TestRig::SeeOnFourDisks(cat);
  WorkloadRunner r2(rig2.system.get(), rig2.volumes.get());
  auto res2 = r2.RunOlap(*conc);
  ASSERT_TRUE(res1.ok());
  ASSERT_TRUE(res2.ok());
  EXPECT_LT(res2->elapsed_seconds, res1->elapsed_seconds);
}

TEST(RunnerTest, OltpReportsThroughput) {
  TestRig rig = TestRig::SeeOnFourDisks(Catalog::TpcC(0.01));
  auto spec = MakeOltpSpec(rig.catalog, "", 9, /*warmup_s=*/2.0);
  ASSERT_TRUE(spec.ok());
  WorkloadRunner runner(rig.system.get(), rig.volumes.get());
  auto result = runner.RunOltp(*spec, 20.0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->oltp_transactions, 10u);
  EXPECT_GT(result->tpm, 0.0);
  EXPECT_DOUBLE_EQ(result->elapsed_seconds, 20.0);
}

TEST(RunnerTest, MixedRunStopsOltpWhenOlapDone) {
  Catalog merged =
      Catalog::Merge(Catalog::TpcH(0.01), Catalog::TpcC(0.01), "", "C_");
  TestRig rig = TestRig::SeeOnFourDisks(merged);
  auto olap = MakeOlapSpec(merged, 1, 1, 7);
  auto oltp = MakeOltpSpec(merged, "C_", 9, 1.0);
  ASSERT_TRUE(olap.ok());
  ASSERT_TRUE(oltp.ok());
  WorkloadRunner runner(rig.system.get(), rig.volumes.get());
  auto result = runner.RunMixed(*olap, *oltp);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->olap_queries_completed, 21u);
  EXPECT_GT(result->oltp_transactions, 0u);
  EXPECT_GT(result->tpm, 0.0);
}

TEST(RunnerTest, DeterministicForEqualSeeds) {
  Catalog cat = Catalog::TpcH(0.01);
  auto spec = MakeOlapSpec(cat, 1, 2, 7);
  ASSERT_TRUE(spec.ok());
  TestRig rig1 = TestRig::SeeOnFourDisks(cat);
  TestRig rig2 = TestRig::SeeOnFourDisks(cat);
  WorkloadRunner r1(rig1.system.get(), rig1.volumes.get(), 99);
  WorkloadRunner r2(rig2.system.get(), rig2.volumes.get(), 99);
  auto a = r1.RunOlap(*spec);
  auto b = r2.RunOlap(*spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->elapsed_seconds, b->elapsed_seconds);
  EXPECT_EQ(a->total_requests, b->total_requests);
}

TEST(RunnerTest, RejectsUnmappedObjects) {
  TestRig rig = TestRig::SeeOnFourDisks(Catalog::TpcH(0.01));
  OlapSpec bad;
  bad.name = "bad";
  QueryProfile q;
  q.name = "broken";
  q.steps.emplace_back();
  StreamSpec s;
  s.object = 999;  // not in the volume manager
  s.bytes = kMiB;
  q.steps.back().streams.push_back(s);
  bad.queries.push_back(q);
  WorkloadRunner runner(rig.system.get(), rig.volumes.get());
  EXPECT_FALSE(runner.RunOlap(bad).ok());
}

TEST(RunnerTest, TraceCapturesWorkloadActivity) {
  TestRig rig = TestRig::SeeOnFourDisks(Catalog::TpcH(0.01));
  auto spec = MakeOlapSpec(rig.catalog, 1, 1, 7);
  ASSERT_TRUE(spec.ok());
  IoTrace trace;
  rig.system->set_observer([&trace](const IoEvent& ev) { trace.Add(ev); });
  WorkloadRunner runner(rig.system.get(), rig.volumes.get());
  auto result = runner.RunOlap(*spec);
  rig.system->set_observer(nullptr);
  ASSERT_TRUE(result.ok());
  // Chunk splitting can make trace events >= logical requests.
  EXPECT_GE(trace.size(), result->total_requests);

  // The fitted workloads see LINEITEM as the dominant, sequential object.
  TraceAnalyzer analyzer;
  auto ws = analyzer.Analyze(trace, rig.catalog.num_objects());
  ASSERT_TRUE(ws.ok());
  const ObjectId li = *rig.catalog.Find("LINEITEM");
  const WorkloadDesc& wli = (*ws)[static_cast<size_t>(li)];
  EXPECT_GT(wli.total_rate(), 0.0);
  EXPECT_GT(wli.run_count, 4.0);  // scans are sequential
  for (int i = 0; i < rig.catalog.num_objects(); ++i) {
    EXPECT_TRUE(IsValidWorkload((*ws)[static_cast<size_t>(i)],
                                static_cast<size_t>(rig.catalog.num_objects()),
                                static_cast<size_t>(i)));
  }
}


TEST(RunnerTest, LogicalObserverSeesOneEventPerRequest) {
  TestRig rig = TestRig::SeeOnFourDisks(Catalog::TpcH(0.01));
  auto spec = MakeOlapSpec(rig.catalog, 1, 1, 7);
  ASSERT_TRUE(spec.ok());
  WorkloadRunner runner(rig.system.get(), rig.volumes.get());
  uint64_t logical_events = 0;
  int64_t logical_bytes = 0;
  runner.set_logical_observer([&](const IoEvent& ev) {
    ++logical_events;
    logical_bytes += ev.size;
    EXPECT_EQ(ev.target, -1);
    EXPECT_GE(ev.complete_time, ev.submit_time);
  });
  auto result = runner.RunOlap(*spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(logical_events, result->total_requests);
  EXPECT_GT(logical_bytes, 0);
}

TEST(RunnerTest, AppendStreamsContinueAcrossQueries) {
  // Two queries appending to the same object must continue one cursor:
  // their logical offsets chain rather than both starting at zero.
  Catalog cat;
  cat.Add(DbObject{"LOG", ObjectKind::kLog, 4 * kMiB});
  TestRig rig = TestRig::SeeOnFourDisks(cat);
  QueryProfile q;
  q.name = "appender";
  q.steps.emplace_back();
  q.steps.back().depth = 1;
  StreamSpec s;
  s.object = 0;
  s.bytes = 64 * kKiB;
  s.request_bytes = 16 * kKiB;
  s.pattern = AccessPattern::kAppend;
  s.write_fraction = 1.0;
  q.steps.back().streams.push_back(s);
  OlapSpec spec;
  spec.name = "appends";
  spec.queries = {q, q};
  spec.concurrency = 1;
  WorkloadRunner runner(rig.system.get(), rig.volumes.get());
  std::vector<int64_t> offsets;
  runner.set_logical_observer(
      [&](const IoEvent& ev) { offsets.push_back(ev.logical_offset); });
  ASSERT_TRUE(runner.RunOlap(spec).ok());
  ASSERT_EQ(offsets.size(), 8u);  // 2 queries x 4 requests
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i], offsets[i - 1] + 16 * kKiB);
  }
}

TEST(RunnerTest, WriteFractionProducesMixedRequests) {
  Catalog cat;
  cat.Add(DbObject{"T", ObjectKind::kTable, 16 * kMiB});
  TestRig rig = TestRig::SeeOnFourDisks(cat);
  QueryProfile q;
  q.name = "mixed";
  q.steps.emplace_back();
  StreamSpec s;
  s.object = 0;
  s.bytes = 4 * kMiB;
  s.request_bytes = 8 * kKiB;
  s.pattern = AccessPattern::kRandom;
  s.write_fraction = 0.5;
  q.steps.back().streams.push_back(s);
  OlapSpec spec;
  spec.name = "mixed";
  spec.queries = {q};
  WorkloadRunner runner(rig.system.get(), rig.volumes.get());
  uint64_t reads = 0, writes = 0;
  runner.set_logical_observer([&](const IoEvent& ev) {
    (ev.is_write ? writes : reads) += 1;
  });
  ASSERT_TRUE(runner.RunOlap(spec).ok());
  const double total = static_cast<double>(reads + writes);
  EXPECT_GT(total, 400);
  EXPECT_NEAR(static_cast<double>(writes) / total, 0.5, 0.1);
}

TEST(RunnerTest, OltpOverheadCapsThroughput) {
  TestRig rig = TestRig::SeeOnFourDisks(Catalog::TpcC(0.01));
  auto spec = MakeOltpSpec(rig.catalog, "", 9, /*warmup_s=*/1.0);
  ASSERT_TRUE(spec.ok());
  spec->txn_overhead_s = 1.0;
  WorkloadRunner runner(rig.system.get(), rig.volumes.get());
  auto result = runner.RunOltp(*spec, 30.0);
  ASSERT_TRUE(result.ok());
  // 9 terminals with >= 1 s per transaction: at most ~9 tx/s = 540 tpm.
  EXPECT_LT(result->tpm, 9.0 * 60.0 + 1.0);
  EXPECT_GT(result->tpm, 60.0);
}

TEST(SpecTest, Olap121MatchesPaperName) {
  Catalog c = Catalog::TpcH(0.1);
  auto spec = MakeOlapSpec(c, 1, 1, 7);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "OLAP1-21");
  EXPECT_EQ(spec->queries.size(), 21u);
}

}  // namespace
}  // namespace ldb
