// Tests for RAID1/RAID5 target behaviour in the simulator and the
// corresponding utilization model.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "model/target_model.h"
#include "storage/disk.h"
#include "storage/event_queue.h"
#include "storage/ssd.h"
#include "storage/target.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

std::unique_ptr<StorageTarget> MakeTarget(EventQueue* q, int members,
                                          RaidLevel level) {
  SsdParams params;  // deterministic flat service times simplify checks
  SsdModel proto(params);
  std::vector<std::unique_ptr<BlockDevice>> devs;
  for (int i = 0; i < members; ++i) devs.push_back(proto.Clone());
  return std::make_unique<StorageTarget>("t", std::move(devs), 64 * kKiB, q,
                                         0.06, level);
}

// ----------------------------------------------------------- capacities

TEST(RaidTest, CapacityPerLevel) {
  EventQueue q;
  auto r0 = MakeTarget(&q, 3, RaidLevel::kRaid0);
  auto r1 = MakeTarget(&q, 3, RaidLevel::kRaid1);
  auto r5 = MakeTarget(&q, 3, RaidLevel::kRaid5);
  const int64_t one = SsdParams{}.capacity_bytes;
  EXPECT_EQ(r0->capacity_bytes(), 3 * one);
  EXPECT_EQ(r1->capacity_bytes(), one);
  EXPECT_EQ(r5->capacity_bytes(), 2 * one);
  EXPECT_EQ(r5->raid_level(), RaidLevel::kRaid5);
}

TEST(RaidTest, LevelNames) {
  EXPECT_STREQ(RaidLevelName(RaidLevel::kRaid0), "raid0");
  EXPECT_STREQ(RaidLevelName(RaidLevel::kRaid1), "raid1");
  EXPECT_STREQ(RaidLevelName(RaidLevel::kRaid5), "raid5");
}

// ----------------------------------------------------------- RAID1

TEST(RaidTest, Raid1WritesAllMembersReadsOne) {
  EventQueue q;
  auto t = MakeTarget(&q, 2, RaidLevel::kRaid1);
  // One write: busy time is ~2x the single-device write service.
  t->Submit({0, 8 * kKiB, true, 0}, nullptr);
  q.RunUntilIdle();
  const double write_busy = t->busy_time();
  t->Reset();
  // One read: busy time is one device's read service.
  t->Submit({0, 8 * kKiB, false, 0}, nullptr);
  q.RunUntilIdle();
  const double read_busy = t->busy_time();
  EXPECT_GT(write_busy, 2.0 * read_busy);  // writes also cost more on SSD
  t->Reset();
  // Two concurrent reads are served in parallel on distinct mirrors.
  std::vector<double> done;
  t->Submit({0, 8 * kKiB, false, 0}, [&](double w) { done.push_back(w); });
  t->Submit({0, 8 * kKiB, false, 0}, [&](double w) { done.push_back(w); });
  q.RunUntilIdle();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], done[1], 1e-9);
}

// ----------------------------------------------------------- RAID5

TEST(RaidTest, Raid5SmallWritePaysParityPenalty) {
  EventQueue q1, q2;
  auto r0 = MakeTarget(&q1, 3, RaidLevel::kRaid0);
  auto r5 = MakeTarget(&q2, 3, RaidLevel::kRaid5);
  r0->Submit({0, 8 * kKiB, true, 0}, nullptr);
  r5->Submit({0, 8 * kKiB, true, 0}, nullptr);
  q1.RunUntilIdle();
  q2.RunUntilIdle();
  // RAID5 adds a parity read + parity write.
  EXPECT_GT(r5->busy_time(), 2.0 * r0->busy_time());
}

TEST(RaidTest, Raid5ReadCostsLikeRaid0) {
  EventQueue q1, q2;
  auto r0 = MakeTarget(&q1, 3, RaidLevel::kRaid0);
  auto r5 = MakeTarget(&q2, 3, RaidLevel::kRaid5);
  r0->Submit({0, 64 * kKiB, false, 0}, nullptr);
  r5->Submit({0, 64 * kKiB, false, 0}, nullptr);
  q1.RunUntilIdle();
  q2.RunUntilIdle();
  EXPECT_NEAR(r5->busy_time(), r0->busy_time(), 1e-9);
}

TEST(RaidTest, Raid5RotatesParityAcrossRows) {
  // Sequential writes across several rows must hit every member (rotating
  // parity); with a fixed parity disk one member would stay idle.
  EventQueue q;
  DiskModel proto(Scsi15kParams());
  std::vector<std::unique_ptr<BlockDevice>> devs;
  for (int i = 0; i < 3; ++i) devs.push_back(proto.Clone());
  StorageTarget t("t", std::move(devs), 64 * kKiB, &q, 0.06,
                  RaidLevel::kRaid5);
  // Write six data stripes (three rows of two data columns each).
  for (int s = 0; s < 6; ++s) {
    t.Submit({s * 64 * kKiB, 64 * kKiB, true, 0}, nullptr);
  }
  const double total = q.RunUntilIdle();
  EXPECT_GT(total, 0.0);
  EXPECT_EQ(t.requests_completed(), 6u);
}

// ----------------------------------------------------------- model side

CostModel FlatCostModel() {
  std::vector<double> sizes{static_cast<double>(8 * kKiB),
                            static_cast<double>(64 * kKiB)};
  std::vector<double> runs{1, 64};
  std::vector<double> chis{0, 8};
  std::vector<double> reads(8, 0.001), writes(8, 0.002);
  auto m = CostModel::Create("flat", sizes, runs, chis, reads, writes);
  LDB_CHECK(m.ok());
  return std::move(m).value();
}

WorkloadSet OneWorkload(double read_rate, double write_rate) {
  WorkloadDesc w;
  w.read_rate = read_rate;
  w.read_size = 8 * kKiB;
  w.write_rate = write_rate;
  w.write_size = 8 * kKiB;
  w.run_count = 1;
  w.overlap_index = {0};
  w.overlap_value = {0.0};
  return {w};
}

double UtilizationFor(RaidLevel level, int members, double reads,
                      double writes, const CostModel& cm) {
  TargetModelInfo info;
  info.cost_model = &cm;
  info.num_members = members;
  info.stripe_bytes = 64 * kKiB;
  info.raid_level = level;
  TargetModel model({info}, LvmLayoutModel(64 * kKiB));
  Layout l(1, 1);
  l.Set(0, 0, 1.0);
  return model.Utilizations(OneWorkload(reads, writes), l)[0];
}

TEST(RaidTest, ModelRaid1ReadScalingAndWritePenalty) {
  const CostModel cm = FlatCostModel();
  // Reads: mirrored pair serves at 2x, so utilization halves.
  EXPECT_NEAR(UtilizationFor(RaidLevel::kRaid1, 2, 100, 0, cm),
              0.5 * UtilizationFor(RaidLevel::kRaid0, 1, 100, 0, cm), 1e-9);
  // Writes: every mirror writes — no utilization benefit over one device.
  EXPECT_NEAR(UtilizationFor(RaidLevel::kRaid1, 2, 0, 100, cm),
              UtilizationFor(RaidLevel::kRaid0, 1, 0, 100, cm), 1e-9);
}

TEST(RaidTest, ModelRaid5WritePenaltyExceedsRaid0) {
  const CostModel cm = FlatCostModel();
  const double r5 = UtilizationFor(RaidLevel::kRaid5, 3, 0, 100, cm);
  const double r0 = UtilizationFor(RaidLevel::kRaid0, 3, 0, 100, cm);
  EXPECT_GT(r5, 2.0 * r0);
  // Reads: similar per-level cost.
  EXPECT_NEAR(UtilizationFor(RaidLevel::kRaid5, 3, 100, 0, cm),
              UtilizationFor(RaidLevel::kRaid0, 3, 100, 0, cm), 1e-3);
}

}  // namespace
}  // namespace ldb
