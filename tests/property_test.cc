// Property-based tests: invariants checked over parameter sweeps
// (gtest TEST_P). These complement the example-based unit tests by
// exercising each component across its input space.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <numeric>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/harness.h"
#include "core/problem.h"
#include "core/problem_io.h"
#include "core/replan.h"
#include "fd_oracle.h"
#include "model/calibration.h"
#include "model/cost_model.h"
#include "model/layout.h"
#include "model/layout_model.h"
#include "model/target_model.h"
#include "monitor/autopilot_spec.h"
#include "monitor/online_analyzer.h"
#include "scenario/player.h"
#include "scenario/scenario.h"
#include "solver/multistart.h"
#include "solver/projected_gradient.h"
#include "solver/simplex.h"
#include "storage/disk.h"
#include "storage/fault.h"
#include "storage/lvm.h"
#include "trace/analyzer.h"
#include "trace_fit_oracle.h"
#include "util/check.h"
#include "util/random.h"
#include "util/table.h"
#include "util/units.h"
#include "util/wal.h"

namespace ldb {

// gtest names parameterized cases after the printed parameter. DiskParams
// holds a std::string, so the default byte dump would embed a heap address
// and rename the DiskProperty cases on every build; print the model instead.
void PrintTo(const DiskParams& params, std::ostream* os) {
  *os << params.model_name;
}

namespace {

// ------------------------------------------------- simplex projection

class SimplexProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(SimplexProperty, ProjectionInvariants) {
  const int dim = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(static_cast<size_t>(dim));
    for (auto& x : v) x = rng.Uniform(-3, 3);
    const std::vector<double> original = v;
    ProjectToSimplex(v.data(), v.size());

    // On the simplex.
    double sum = 0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // Idempotent.
    std::vector<double> again = v;
    ProjectToSimplex(again.data(), again.size());
    for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(again[i], v[i], 1e-9);

    // No sampled feasible point is closer to the original (projection
    // minimizes Euclidean distance).
    auto dist2 = [&](const std::vector<double>& p) {
      double d = 0;
      for (size_t i = 0; i < p.size(); ++i) {
        d += (p[i] - original[i]) * (p[i] - original[i]);
      }
      return d;
    };
    const double proj_dist = dist2(v);
    for (int s = 0; s < 20; ++s) {
      std::vector<double> q(static_cast<size_t>(dim));
      for (auto& x : q) x = rng.Uniform(0, 1);
      ProjectToSimplex(q.data(), q.size());  // a feasible point
      EXPECT_LE(proj_dist, dist2(q) + 1e-9);
    }

    // Order-preserving: if original[i] >= original[j], then v[i] >= v[j].
    for (size_t i = 0; i < v.size(); ++i) {
      for (size_t j = 0; j < v.size(); ++j) {
        if (original[i] >= original[j]) {
          EXPECT_GE(v[i], v[j] - 1e-9);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, SimplexProperty,
    ::testing::Combine(::testing::Values(2, 3, 4, 8, 40),
                       ::testing::Values(uint64_t{1}, uint64_t{99})));

// ------------------------------------------------- LVM mapping

class LvmProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int>> {};

TEST_P(LvmProperty, EveryByteMapsExactlyOnceAndNothingOverlaps) {
  const int64_t stripe = std::get<0>(GetParam());
  const int num_targets = std::get<1>(GetParam());
  // Three objects with sizes that are not stripe multiples.
  const std::vector<int64_t> sizes{5 * stripe + 100, 2 * stripe,
                                   3 * stripe - 7};
  std::vector<std::vector<int>> placements;
  std::vector<int> all(static_cast<size_t>(num_targets));
  std::iota(all.begin(), all.end(), 0);
  placements.push_back(all);
  placements.push_back({0});
  placements.push_back(num_targets > 1 ? std::vector<int>{1, 0}
                                       : std::vector<int>{0});
  auto mgr = StripedVolumeManager::Create(
      sizes, placements,
      std::vector<int64_t>(static_cast<size_t>(num_targets), kGiB), stripe);
  ASSERT_TRUE(mgr.ok());

  // Collect every mapped byte range per target; verify disjointness and
  // total coverage.
  struct Range {
    int64_t lo, hi;
    int object;
  };
  std::vector<std::vector<Range>> per_target(
      static_cast<size_t>(num_targets));
  std::vector<TargetChunk> chunks;
  for (size_t i = 0; i < sizes.size(); ++i) {
    int64_t mapped = 0;
    // Map in odd-sized pieces to exercise splitting.
    const int64_t piece = stripe / 2 + 13;
    for (int64_t off = 0; off < sizes[i]; off += piece) {
      const int64_t len = std::min(piece, sizes[i] - off);
      chunks.clear();
      mgr->Map(static_cast<ObjectId>(i), off, len, &chunks);
      int64_t chunk_total = 0;
      for (const TargetChunk& c : chunks) {
        chunk_total += c.size;
        per_target[static_cast<size_t>(c.target)].push_back(
            Range{c.offset, c.offset + c.size, static_cast<int>(i)});
      }
      EXPECT_EQ(chunk_total, len);
      mapped += len;
    }
    EXPECT_EQ(mapped, sizes[i]);
  }
  for (auto& ranges : per_target) {
    std::sort(ranges.begin(), ranges.end(),
              [](const Range& a, const Range& b) { return a.lo < b.lo; });
    for (size_t r = 1; r < ranges.size(); ++r) {
      EXPECT_LE(ranges[r - 1].hi, ranges[r].lo)
          << "overlap between objects " << ranges[r - 1].object << " and "
          << ranges[r].object;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StripesAndTargets, LvmProperty,
    ::testing::Combine(::testing::Values(int64_t{64} * kKiB, kMiB),
                       ::testing::Values(1, 2, 4)));

// ------------------------------------------------- disk model

class DiskProperty : public ::testing::TestWithParam<DiskParams> {};

TEST_P(DiskProperty, ServiceTimeInvariants) {
  DiskModel disk(GetParam());
  Rng rng(3);
  const int64_t cap = disk.capacity_bytes();
  // Sequential run is never slower than random access at the same size.
  for (int64_t size : {int64_t{8} * kKiB, int64_t{64} * kKiB}) {
    DiskModel seq(GetParam());
    seq.ServiceTime({0, size, false});
    double seq_total = 0;
    for (int r = 1; r <= 16; ++r) seq_total += seq.ServiceTime({r * size, size, false});
    DiskModel rnd(GetParam());
    rnd.ServiceTime({0, size, false});
    double rnd_total = 0;
    for (int r = 0; r < 16; ++r) {
      const int64_t off =
          rng.UniformInt(int64_t{0}, (cap - size) / size) * size;
      rnd_total += rnd.ServiceTime({off, size, false});
    }
    EXPECT_LT(seq_total, rnd_total);
  }
  // All service times positive and bounded by a full stroke + rotation +
  // transfer.
  DiskModel d(GetParam());
  for (int t = 0; t < 200; ++t) {
    const int64_t size = 8 * kKiB;
    const int64_t off = rng.UniformInt(int64_t{0}, (cap - size) / size) * size;
    const double s = d.ServiceTime({off, size, rng.Bernoulli(0.3)});
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, GetParam().max_seek_s + 60.0 / GetParam().rpm + 0.1);
  }
  // Seek time is monotone in distance.
  double prev = -1;
  for (int64_t frac = 1; frac <= 16; ++frac) {
    const double t = d.SeekTime(cap / 16 * frac);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Drives, DiskProperty,
                         ::testing::Values(Scsi15kParams(),
                                           Nearline7200Params()));

// ------------------------------------------------- layout model (Fig. 7)

class LayoutModelProperty : public ::testing::TestWithParam<double> {};

TEST_P(LayoutModelProperty, TransformConservesRatesAndBoundsRuns) {
  const double q = GetParam();  // object run count
  LvmLayoutModel lm(64 * kKiB);
  WorkloadDesc w;
  w.read_rate = 100;
  w.read_size = 32 * kKiB;
  w.write_rate = 25;
  w.write_size = 8 * kKiB;
  w.run_count = q;
  for (int parts : {1, 2, 3, 4, 8}) {
    const double fraction = 1.0 / parts;
    double read_sum = 0, write_sum = 0;
    for (int p = 0; p < parts; ++p) {
      const PerTargetWorkload t = lm.Transform(w, fraction);
      read_sum += t.read_rate;
      write_sum += t.write_rate;
      // Per-target run count within [1, Q_i].
      EXPECT_GE(t.run_count, 1.0);
      EXPECT_LE(t.run_count, std::max(1.0, q) + 1e-9);
      // Request sizes unchanged by striping.
      EXPECT_DOUBLE_EQ(t.read_size, w.read_size);
      EXPECT_DOUBLE_EQ(t.write_size, w.write_size);
    }
    // Rates are conserved across the stripes.
    EXPECT_NEAR(read_sum, w.read_rate, 1e-9);
    EXPECT_NEAR(write_sum, w.write_rate, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RunCounts, LayoutModelProperty,
                         ::testing::Values(1.0, 2.0, 7.5, 64.0, 1000.0));

// ------------------------------------------------- solver on random problems

class SolverProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverProperty, NeverWorseThanSeedAndAlwaysFeasible) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{5}));
  const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  std::vector<double> rates(static_cast<size_t>(n));
  std::vector<double> speeds(static_cast<size_t>(m));
  for (auto& r : rates) r = rng.Uniform(1, 50);
  for (auto& s : speeds) s = rng.Uniform(0.5, 4);

  LayoutNlpProblem p;
  p.num_objects = n;
  p.num_targets = m;
  p.object_sizes.assign(static_cast<size_t>(n), kGiB);
  p.target_capacities.assign(static_cast<size_t>(m), 50 * kGiB);
  p.target_utilization = [rates, speeds](const Layout& l, int j) {
    double load = 0;
    for (int i = 0; i < l.num_objects(); ++i) {
      load += rates[static_cast<size_t>(i)] * l.At(i, j);
    }
    return load / speeds[static_cast<size_t>(j)];
  };
  p.make_column_eval = FdColumnFactory(p.target_utilization);

  // Random simplex seed.
  Layout seed(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) seed.Set(i, j, rng.Uniform(0, 1));
    ProjectToSimplex(seed.Row(i), static_cast<size_t>(m));
  }
  double seed_max = 0;
  for (int j = 0; j < m; ++j) {
    seed_max = std::max(seed_max, p.target_utilization(seed, j));
  }

  SolverOptions fast;
  fast.annealing_rounds = 3;
  fast.max_iterations_per_round = 25;
  ProjectedGradientSolver solver(fast);
  auto r = solver.Solve(p, seed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  EXPECT_TRUE(r->layout.SatisfiesIntegrity(1e-6));
  EXPECT_LE(r->max_utilization, seed_max + 1e-6);
  // The theoretical optimum spreads total weighted load over total speed.
  const double ideal = std::accumulate(rates.begin(), rates.end(), 0.0) /
                       std::accumulate(speeds.begin(), speeds.end(), 0.0);
  EXPECT_GE(r->max_utilization, ideal - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverProperty,
                         ::testing::Range(uint64_t{10}, uint64_t{20}));

// ------------------------------------------ raced multistart vs full runs

/// A tenant-shaped solver problem (the shape of bench_micro's
/// BM_SolveTenant96 and of one layoutbench advise problem): n objects in
/// co-access tenants of 8 with one weak cross-tenant link each, m disk-15k
/// targets holding 1.6x the data, rates scaled so SEE's max utilization is
/// 0.95, and a skewed regular seed on two targets per object.
struct TenantInstance {
  std::unique_ptr<TargetModel> model;
  std::unique_ptr<WorkloadSet> workloads;
  LayoutNlpProblem nlp;
  Layout seed{1, 1};
};

const CostModel& TenantDiskCost() {
  static const CostModel* model = [] {
    DiskModel disk(Scsi15kParams());
    CalibrationOptions options;
    options.sample_requests = 64;
    auto m = CalibrateDevice(disk, options);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

TenantInstance MakeTenantInstance(int n, int m, Rng* rng) {
  constexpr int kTenant = 8;
  TenantInstance ti;
  ti.workloads = std::make_unique<WorkloadSet>(static_cast<size_t>(n));
  WorkloadSet& ws = *ti.workloads;
  std::vector<std::vector<double>> rows(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 200);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 20);
    w.write_size = 64 * kKiB;
    w.run_count = rng->Uniform(1, 100);
    rows[static_cast<size_t>(i)][static_cast<size_t>(i)] =
        rng->Uniform(0, 1.5);
  }
  for (int i = 0; i < n; ++i) {
    const int lo = i / kTenant * kTenant;
    for (int k = i + 1; k < std::min(n, lo + kTenant); ++k) {
      const double o = rng->Uniform(0.05, 0.6);
      rows[static_cast<size_t>(i)][static_cast<size_t>(k)] = o;
      rows[static_cast<size_t>(k)][static_cast<size_t>(i)] = o;
    }
    const int k = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
    if (k / kTenant != i / kTenant) {
      const double o = rng->Uniform(0.01, 0.1);
      rows[static_cast<size_t>(i)][static_cast<size_t>(k)] = o;
      rows[static_cast<size_t>(k)][static_cast<size_t>(i)] = o;
    }
  }
  for (int i = 0; i < n; ++i) {
    SetOverlapRow(&ws[static_cast<size_t>(i)], static_cast<size_t>(i),
                  rows[static_cast<size_t>(i)]);
  }
  ti.model = std::make_unique<TargetModel>(
      std::vector<TargetModelInfo>(
          static_cast<size_t>(m),
          TargetModelInfo{&TenantDiskCost(), 1, 64 * kKiB}),
      LvmLayoutModel(64 * kKiB));
  const double see_max =
      ti.model->MaxUtilization(ws, Layout::StripeEverythingEverywhere(n, m));
  for (WorkloadDesc& w : ws) {
    w.read_rate *= 0.95 / see_max;
    w.write_rate *= 0.95 / see_max;
  }
  ti.nlp.num_objects = n;
  ti.nlp.num_targets = m;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    ti.nlp.object_sizes.push_back(
        rng->UniformInt(int64_t{64}, int64_t{512}) * kMiB);
    total += ti.nlp.object_sizes.back();
  }
  ti.nlp.target_capacities.assign(static_cast<size_t>(m),
                                  total * 16 / 10 / m);
  const TargetModel* model = ti.model.get();
  const WorkloadSet* w = ti.workloads.get();
  ti.nlp.target_utilization = [model, w](const Layout& l, int j) {
    return model->TargetUtilization(*w, l, j);
  };
  ti.nlp.make_column_eval = [model, w](int j) {
    return model->MakeColumnEvaluator(*w, j);
  };
  ti.seed = Layout(n, m);
  for (int i = 0; i < n; ++i) {
    ti.seed.SetRowRegular(i, {i % m, (i + 1 + (i / m) % (m - 1)) % m});
  }
  return ti;
}

TEST(RaceOracleProperty, RacedEqualsBestOfEverySeedRunToCompletion) {
  // The oracle solves every seed to completion and keeps the best by the
  // multistart rule (feasible first, then lowest max-util, ties to the
  // lower seed). Racing may only skip work that could not have won.
  int cases = 0;
  int cases_with_stops = 0;
  for (const int m : {3, 5, 10}) {
    for (const int n : {16, 24, 32, 48}) {
      for (const uint64_t k : {1, 2}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " m=" << m << " k=" << k);
        Rng rng(100000 * k + 1000 * static_cast<uint64_t>(m) +
                static_cast<uint64_t>(n));
        TenantInstance ti = MakeTenantInstance(n, m, &rng);
        std::vector<Layout> seeds{ti.seed};
        for (Layout& l : MultiStartSolver::RandomSeeds(ti.nlp, 2, &rng)) {
          seeds.push_back(std::move(l));
        }

        const ProjectedGradientSolver solver;
        SolverResult best;
        for (size_t s = 0; s < seeds.size(); ++s) {
          auto r = solver.Solve(ti.nlp, seeds[s]);
          ASSERT_TRUE(r.ok());
          if (s == 0 || (r->feasible && !best.feasible) ||
              (r->feasible == best.feasible &&
               r->max_utilization < best.max_utilization)) {
            best = std::move(r).value();
          }
        }

        auto raced = MultiStartSolver().Solve(ti.nlp, seeds);
        ASSERT_TRUE(raced.ok());
        EXPECT_TRUE(raced->layout == best.layout);
        EXPECT_EQ(raced->max_utilization, best.max_utilization);
        EXPECT_EQ(raced->feasible, best.feasible);
        ++cases;
        if (std::any_of(raced->seeds.begin(), raced->seeds.end(),
                        [](const SeedTrajectory& t) { return t.stopped(); })) {
          ++cases_with_stops;
        }
      }
    }
  }
  EXPECT_EQ(cases, 24);
  // Fails if racing is disabled: the comparison above would then be
  // vacuous.
  EXPECT_GE(cases_with_stops, 1);
  std::printf("raced multistart: %d of %d cases stopped a seed\n",
              cases_with_stops, cases);
}

// ------------------------------------------------- analyzer round trip

struct SyntheticWorkload {
  double rate;        // requests/s
  int64_t size;       // request bytes
  int run_length;     // requests per sequential run
  double write_frac;  // fraction of writes
};

class AnalyzerRoundTrip
    : public ::testing::TestWithParam<SyntheticWorkload> {};

TEST_P(AnalyzerRoundTrip, RecoversKnownParameters) {
  const SyntheticWorkload& spec = GetParam();
  Rng rng(11);
  IoTrace trace;
  const int total = 3000;
  double now = 0;
  int64_t offset = 0;
  int in_run = 0;
  for (int r = 0; r < total; ++r) {
    if (in_run >= spec.run_length) {
      offset = rng.UniformInt(int64_t{0}, int64_t{10000}) * spec.size * 50;
      in_run = 0;
    }
    IoEvent ev;
    ev.submit_time = now;
    ev.complete_time = now + 0.002;
    ev.seq = static_cast<uint64_t>(r);
    ev.object = 0;
    ev.logical_offset = offset;
    ev.offset = offset;
    ev.size = spec.size;
    ev.is_write = rng.Bernoulli(spec.write_frac);
    trace.Add(ev);
    offset += spec.size;
    ++in_run;
    now += 1.0 / spec.rate;
  }
  TraceAnalyzer analyzer;
  auto ws = analyzer.Analyze(trace, 1);
  ASSERT_TRUE(ws.ok());
  const WorkloadDesc& w = (*ws)[0];
  EXPECT_NEAR(w.total_rate(), spec.rate, 0.05 * spec.rate);
  EXPECT_NEAR(w.run_count, spec.run_length,
              std::max(1.0, 0.1 * spec.run_length));
  EXPECT_NEAR(w.write_rate / std::max(1e-9, w.total_rate()),
              spec.write_frac, 0.05);
  EXPECT_DOUBLE_EQ(w.mean_size(), static_cast<double>(spec.size));
}

// ctest names parameterized cases after the printed parameter; gtest's
// default would dump the struct's bytes, uninitialized padding included.
// Print a readable, build-stable name instead (write share in percent).
void PrintTo(const SyntheticWorkload& w, std::ostream* os) {
  *os << "rate" << static_cast<int>(w.rate) << "_" << w.size / kKiB
      << "KiB_run" << w.run_length << "_w"
      << std::lround(100 * w.write_frac);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AnalyzerRoundTrip,
    ::testing::Values(SyntheticWorkload{200, 8 * kKiB, 1, 0.0},
                      SyntheticWorkload{500, 64 * kKiB, 25, 0.0},
                      SyntheticWorkload{100, 16 * kKiB, 100, 0.5},
                      SyntheticWorkload{50, 128 * kKiB, 8, 1.0}));

// ------------------------------------------------- streaming trace fit

// Random dense-seq streams, shaped like a simulator's logical observer
// feed: seq follows submission order, submit times tie often, some
// requests complete instantly, padded overlap windows chain and overlap,
// and completions arrive in a random order. The reordering fitter must
// equal Analyze of the stored trace and the batch oracle exactly, and with
// decay the weighted oracle to 1e-12.
class StreamingFitProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingFitProperty, EqualsAnalyzeAndOracleExactly) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const int count = 1 + static_cast<int>(rng.UniformInt(uint64_t{1500}));
    AnalyzerOptions options;
    const double windows[] = {0.0, 0.001, 0.05, 0.5};
    options.overlap_window_s = windows[rng.UniformInt(uint64_t{4})];
    options.max_open_runs = 1 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    const double step = rng.Uniform(0.0005, 0.05);

    std::vector<IoEvent> events;
    std::vector<int64_t> cursor(static_cast<size_t>(n), 0);
    double now = rng.Uniform(0.0, 10.0);
    for (int e = 0; e < count; ++e) {
      if (rng.Bernoulli(0.5)) now += rng.Exponential(step);  // else a tie
      IoEvent ev;
      ev.seq = static_cast<uint64_t>(e);
      ev.submit_time = now;
      ev.complete_time =
          rng.Bernoulli(0.15) ? now : now + rng.Exponential(4 * step);
      ev.target = -1;
      ev.object = static_cast<ObjectId>(rng.UniformInt(
          static_cast<uint64_t>(n)));
      int64_t& next = cursor[static_cast<size_t>(ev.object)];
      if (rng.Bernoulli(0.3)) {
        next = rng.UniformInt(int64_t{0}, int64_t{1} << 20) * kKiB;
      }
      ev.size = (1 + rng.UniformInt(int64_t{0}, int64_t{15})) * 4 * kKiB;
      ev.offset = ev.logical_offset = next;
      next += ev.size;
      ev.is_write = rng.Bernoulli(0.3);
      events.push_back(ev);
    }

    IoTrace trace;  // completion order, as a collector stores it
    std::vector<IoEvent> by_completion = events;
    std::stable_sort(by_completion.begin(), by_completion.end(),
                     [](const IoEvent& a, const IoEvent& b) {
                       return a.complete_time < b.complete_time;
                     });
    for (const IoEvent& ev : by_completion) trace.Add(ev);

    std::vector<IoEvent> delivery = events;
    rng.Shuffle(&delivery);
    ReorderingTraceFitter fitter(n, options);
    for (const IoEvent& ev : delivery) fitter.Observe(ev);
    auto streamed = fitter.Finish();
    auto analyzed = TraceAnalyzer(options).Analyze(trace, n);

    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": " << count << " events, " << n
                 << " objects, window " << options.overlap_window_s);
    ASSERT_EQ(streamed.ok(), analyzed.ok());
    if (!analyzed.ok()) {
      // Only a single-instant stream may fail.
      EXPECT_EQ(trace.Duration(), 0.0);
      continue;
    }
    ExpectSameWorkloads(*streamed, *analyzed);
    ExpectSameWorkloads(*analyzed, OracleFit(trace, n, options));

    // Decayed, it matches the weighted oracle: from 1 to 128 half-lives
    // over the stream, the last past the fitter's rebase point.
    const double half_lives[] = {1, 4, 16, 64, 128};
    const double half_life = trace.Duration() / half_lives[trial % 5];
    ReorderingTraceFitter decayed(n, options, half_life);
    for (const IoEvent& ev : delivery) decayed.Observe(ev);
    auto decayed_fit = decayed.Finish();
    ASSERT_TRUE(decayed_fit.ok()) << decayed_fit.status().ToString();
    const OracleDecay decay = DecayWeights(trace, half_life);
    ExpectNearWorkloads(*decayed_fit, OracleFit(trace, n, options, &decay),
                        1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingFitProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

// ------------------------------------------------- layout regularity

class LayoutRegularityProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(LayoutRegularityProperty, SetRowRegularAlwaysRegularAndComplete) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const int m = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    Layout l(n, m);
    for (int i = 0; i < n; ++i) {
      std::vector<int> targets;
      for (int j = 0; j < m; ++j) {
        if (rng.Bernoulli(0.5)) targets.push_back(j);
      }
      if (targets.empty()) targets.push_back(static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(m))));
      l.SetRowRegular(i, targets);
      EXPECT_EQ(l.TargetsOf(i), targets);
    }
    EXPECT_TRUE(l.IsRegular(1e-12));
    EXPECT_TRUE(l.SatisfiesIntegrity(1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutRegularityProperty,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

// ------------------------------------------------------ failure re-layout

const CostModel& PropertyCost() {
  static const CostModel* model = [] {
    std::vector<double> sizes{static_cast<double>(8 * kKiB),
                              static_cast<double>(256 * kKiB)};
    std::vector<double> runs{1, 64};
    std::vector<double> chis{0, 2, 8};
    std::vector<double> reads, writes;
    for (double s : sizes) {
      for (double q : runs) {
        for (double c : chis) {
          const double v =
              0.004 * (0.5 + 0.5 * s / (8 * kKiB)) * (1 + c) / std::sqrt(q);
          reads.push_back(v);
          writes.push_back(0.8 * v);
        }
      }
    }
    auto m = CostModel::Create("pc", sizes, runs, chis, reads, writes);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

// A random but always-feasible problem: every target alone could hold all
// the data, so failing one target never makes re-layout infeasible on
// capacity grounds.
LayoutProblem RandomProblem(Rng& rng, int n, int m) {
  LayoutProblem p;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back(StrFormat("obj%d", i));
    p.object_sizes.push_back(
        static_cast<int64_t>(1 + rng.UniformInt(uint64_t{4})) * kGiB);
    total += p.object_sizes.back();
    p.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    w.read_rate = rng.Uniform(1, 200);
    w.read_size = 8 * kKiB;
    if (rng.Bernoulli(0.3)) {
      w.write_rate = rng.Uniform(1, 50);
      w.write_size = 8 * kKiB;
    }
    w.run_count = rng.Bernoulli(0.5) ? 1.0 : 32.0;
    w.overlap_index = {i};
    w.overlap_value = {0.0};
    p.workloads.push_back(std::move(w));
  }
  for (int j = 0; j < m; ++j) {
    p.targets.push_back(AdvisorTarget{StrFormat("t%d", j), 2 * total,
                                      &PropertyCost(), 1, 64 * kKiB});
  }
  return p;
}

Layout RandomRegularLayout(Rng& rng, int n, int m) {
  Layout l(n, m);
  for (int i = 0; i < n; ++i) {
    std::vector<int> targets;
    for (int j = 0; j < m; ++j) {
      if (rng.Bernoulli(0.4)) targets.push_back(j);
    }
    if (targets.empty()) {
      targets.push_back(static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(m))));
    }
    l.SetRowRegular(i, targets);
  }
  return l;
}

class ReplanProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplanProperty, InvariantsHoldOverRandomFailures) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    const LayoutProblem p = RandomProblem(rng, n, m);
    const Layout current = RandomRegularLayout(rng, n, m);

    TargetHealth health = TargetHealth::Healthy(m);
    const int victim = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(m)));
    if (rng.Bernoulli(0.7)) health.MarkFailed(victim);
    for (int j = 0; j < m; ++j) {
      if (!health.IsFailed(j) && rng.Bernoulli(0.25)) {
        health.Derate(j, rng.Uniform(0.3, 0.9));
      }
    }

    auto result = ReplanAfterFailure(p, current, health);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Layout& l = result->layout;

    // Structural invariants.
    EXPECT_TRUE(l.SatisfiesIntegrity(1e-9));
    EXPECT_TRUE(l.IsRegular(1e-9));
    EXPECT_TRUE(l.SatisfiesCapacity(p.object_sizes, p.capacities()));

    // Failed targets end with zero allocation.
    for (int j = 0; j < m; ++j) {
      if (!health.IsFailed(j)) continue;
      for (int i = 0; i < n; ++i) EXPECT_EQ(l.At(i, j), 0.0);
    }

    // Rows untouched by the failure never move.
    for (int i = 0; i < n; ++i) {
      bool movable = false;
      for (int j = 0; j < m; ++j) {
        if (current.At(i, j) > 1e-9 &&
            (health.IsFailed(j) || health.derate[j] < 1.0)) {
          movable = true;
        }
      }
      if (movable) continue;
      for (int j = 0; j < m; ++j) EXPECT_EQ(l.At(i, j), current.At(i, j));
    }

    // Migration accounting matches the layout delta.
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        const double expected =
            std::max(0.0, l.At(i, j) - current.At(i, j)) *
            static_cast<double>(p.object_sizes[i]);
        EXPECT_NEAR(result->migration.moved_in_bytes[i][j], expected, 1.0);
        total += expected;
      }
    }
    EXPECT_NEAR(result->migration.total_bytes, total, 1.0);

    if (health.AllHealthy()) {
      EXPECT_FALSE(result->replanned);
      EXPECT_EQ(result->migration.total_bytes, 0.0);
      EXPECT_EQ(result->migration.objects_moved, 0);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < m; ++j) EXPECT_EQ(l.At(i, j), current.At(i, j));
      }
    }
  }
}

TEST_P(ReplanProperty, RespectsAllowedTargetConstraints) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    const int m = 3 + static_cast<int>(rng.UniformInt(uint64_t{2}));
    LayoutProblem p = RandomProblem(rng, n, m);
    const Layout current = RandomRegularLayout(rng, n, m);
    // Allow each object its current targets plus one random extra, so the
    // constraints are satisfiable before and (usually) after failure.
    p.constraints.allowed_targets.assign(static_cast<size_t>(n), {});
    for (int i = 0; i < n; ++i) {
      std::vector<int> allowed = current.TargetsOf(i);
      const int extra = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(m)));
      if (std::find(allowed.begin(), allowed.end(), extra) == allowed.end()) {
        allowed.push_back(extra);
      }
      std::sort(allowed.begin(), allowed.end());
      p.constraints.allowed_targets[static_cast<size_t>(i)] = allowed;
    }

    TargetHealth health = TargetHealth::Healthy(m);
    health.MarkFailed(static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(m))));

    auto result = ReplanAfterFailure(p, current, health);
    if (!result.ok()) {
      // Legitimate when some object's allowed set has no survivor.
      EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
      continue;
    }
    EXPECT_TRUE(p.constraints.SatisfiedBy(result->layout));
    for (int i = 0; i < n; ++i) {
      for (int j : result->layout.TargetsOf(i)) {
        EXPECT_FALSE(health.IsFailed(j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplanProperty,
                         ::testing::Values(uint64_t{11}, uint64_t{12},
                                           uint64_t{13}));

// ------------------------------------------- analytic utilization gradient

/// Synthetic multi-point cost grid: interior cells and clamped tails on
/// every axis, so the gradient sweep crosses real interpolation kinks.
CostModel MakeGradientCostModel() {
  std::vector<double> sizes{static_cast<double>(8 * kKiB),
                            static_cast<double>(64 * kKiB),
                            static_cast<double>(512 * kKiB)};
  std::vector<double> runs{1, 8, 64};
  std::vector<double> chis{0, 0.5, 1, 2, 4};
  std::vector<double> reads, writes;
  for (double s : sizes) {
    for (double q : runs) {
      for (double c : chis) {
        const double v =
            0.004 * (s / (8 * kKiB)) * (1.0 + 0.7 * c) / std::sqrt(q);
        reads.push_back(v);
        writes.push_back(1.4 * v);
      }
    }
  }
  auto m = CostModel::Create("grad-grid", sizes, runs, chis, reads, writes);
  LDB_CHECK(m.ok());
  return std::move(m).value();
}

struct GradientInstance {
  std::unique_ptr<CostModel> cost;
  std::unique_ptr<TargetModel> model;
  std::unique_ptr<WorkloadSet> workloads;
  LayoutNlpProblem nlp;
};

GradientInstance MakeGradientInstance(int n, int m, Rng* rng) {
  GradientInstance gi;
  gi.cost = std::make_unique<CostModel>(MakeGradientCostModel());
  gi.workloads = std::make_unique<WorkloadSet>(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = (*gi.workloads)[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 150);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 25);
    w.write_size = 8 * kKiB;
    w.run_count = rng->Uniform(1, 60);
    std::vector<double> row(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
      row[static_cast<size_t>(k)] =
          k == i ? rng->Uniform(0, 0.5) : rng->Uniform(0, 1);
    }
    SetOverlapRow(&w, static_cast<size_t>(i), row);
  }
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m), TargetModelInfo{gi.cost.get(), 1, 64 * kKiB});
  gi.model = std::make_unique<TargetModel>(infos, LvmLayoutModel(64 * kKiB));
  gi.nlp.num_objects = n;
  gi.nlp.num_targets = m;
  gi.nlp.object_sizes.assign(static_cast<size_t>(n), kGiB);
  gi.nlp.target_capacities.assign(static_cast<size_t>(m), 50 * kGiB);
  const TargetModel* model = gi.model.get();
  const WorkloadSet* ws = gi.workloads.get();
  gi.nlp.target_utilization = [model, ws](const Layout& l, int j) {
    return model->TargetUtilization(*ws, l, j);
  };
  gi.nlp.make_column_eval = [model, ws](int j) {
    return model->MakeColumnEvaluator(*ws, j);
  };
  return gi;
}

class GradientProperty : public ::testing::TestWithParam<uint64_t> {};

/// Subgradient containment sweep shared by the dense and sparse overlap
/// representations: every analytic Jacobian entry must lie inside the
/// interval spanned by the one-sided difference slopes.
void CheckGradientContainment(const GradientInstance& gi, Layout& layout,
                              int n, int m) {
  const double h = 1e-6;
  std::vector<double> grad(static_cast<size_t>(n));
  for (int j = 0; j < m; ++j) {
    gi.nlp.make_column_eval(j)->EvaluateWithGradient(layout, grad.data());
    for (int i = 0; i < n; ++i) {
      const double g = grad[static_cast<size_t>(i)];
      const double v = layout.At(i, j);
      const double mu0 = gi.nlp.target_utilization(layout, j);
      double d_plus = 0.0, d_minus = 0.0;
      bool have_minus = false;
      {
        layout.Set(i, j, v + h);
        d_plus = (gi.nlp.target_utilization(layout, j) - mu0) / h;
        layout.Set(i, j, v);
      }
      if (v >= h) {
        layout.Set(i, j, v - h);
        d_minus = (mu0 - gi.nlp.target_utilization(layout, j)) / h;
        layout.Set(i, j, v);
        have_minus = true;
      }
      const double lo = have_minus ? std::min(d_plus, d_minus) : d_plus;
      const double hi = have_minus ? std::max(d_plus, d_minus) : d_plus;
      const double scale =
          std::max({1.0, std::fabs(lo), std::fabs(hi), std::fabs(g)});
      EXPECT_GE(g, lo - 1e-3 * scale)
          << "i=" << i << " j=" << j << " v=" << v << " d+=" << d_plus
          << " d-=" << (have_minus ? d_minus : d_plus);
      EXPECT_LE(g, hi + 1e-3 * scale)
          << "i=" << i << " j=" << j << " v=" << v << " d+=" << d_plus
          << " d-=" << (have_minus ? d_minus : d_plus);
    }
  }
}

/// Random simplex layout with occasional exact zeros (absent-object limits).
Layout MakeGradientLayout(int n, int m, Rng* rng) {
  Layout layout(n, m);
  for (int i = 0; i < n; ++i) {
    double* row = layout.Row(i);
    for (int j = 0; j < m; ++j) row[j] = rng->Uniform(0, 1);
    ProjectToSimplex(row, static_cast<size_t>(m));
    if (rng->Uniform() < 0.5) {
      row[rng->UniformInt(static_cast<uint64_t>(m - 1))] = 0.0;
    }
  }
  return layout;
}

TEST_P(GradientProperty, AnalyticMatchesDirectionalDifferences) {
  // The analytic Jacobian entry ∂µ_j/∂L_ij must be a valid (sub)gradient of
  // the piecewise-smooth utilization: at smooth points it matches the
  // central difference; at kinks (interpolation cell boundaries, Transform
  // branch switches, the run ≥ 1 clamp) it must lie inside the interval
  // spanned by the one-sided slopes.
  Rng rng(GetParam());
  const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{5}));
  const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  GradientInstance gi = MakeGradientInstance(n, m, &rng);
  Layout layout = MakeGradientLayout(n, m, &rng);
  CheckGradientContainment(gi, layout, n, m);
}

TEST_P(GradientProperty, SparseAnalyticMatchesDirectionalDifferences) {
  // Same containment property over sparse rows: off-diagonals are thinned
  // to genuine zeros, which the rows then drop, and the analytic Jacobian
  // must still bracket the one-sided slopes.
  Rng rng(GetParam());
  const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{5}));
  const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  GradientInstance gi = MakeGradientInstance(n, m, &rng);
  std::vector<double> row(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = (*gi.workloads)[static_cast<size_t>(i)];
    for (int k = 0; k < n; ++k) {
      row[static_cast<size_t>(k)] = w.overlap_with(static_cast<size_t>(k));
      if (k != i && rng.Uniform() < 0.6) row[static_cast<size_t>(k)] = 0.0;
    }
    SetOverlapRow(&w, static_cast<size_t>(i), row);
  }
  ASSERT_TRUE(ValidateWorkloadSet(*gi.workloads).ok());
  Layout layout = MakeGradientLayout(n, m, &rng);
  CheckGradientContainment(gi, layout, n, m);
}

TEST_P(GradientProperty, BatchedValueMatchesScalarUtilization) {
  // The batched fused pass must price µ_j within FP-reassociation noise
  // of the scalar TargetUtilization — same statistics, different summation
  // order.
  Rng rng(GetParam() + 1000);
  const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{6}));
  const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  GradientInstance gi = MakeGradientInstance(n, m, &rng);

  for (int trial = 0; trial < 4; ++trial) {
    Layout layout(n, m);
    for (int i = 0; i < n; ++i) {
      double* row = layout.Row(i);
      for (int j = 0; j < m; ++j) row[j] = rng.Uniform(0, 1);
      ProjectToSimplex(row, static_cast<size_t>(m));
      if (rng.Uniform() < 0.5) {
        row[rng.UniformInt(static_cast<uint64_t>(m - 1))] = 0.0;
      }
    }
    for (int j = 0; j < m; ++j) {
      auto ctx = gi.nlp.make_column_eval(j);
      ASSERT_TRUE(ctx != nullptr);
      std::vector<double> grad(static_cast<size_t>(n));
      const double batched = ctx->EvaluateWithGradient(layout, grad.data());
      const double scalar = gi.nlp.target_utilization(layout, j);
      EXPECT_NEAR(batched, scalar, 1e-9 * std::max(1.0, std::fabs(scalar)))
          << "j=" << j << " trial=" << trial;
      EXPECT_GT(ctx->interp_queries(), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientProperty,
                         ::testing::Range(uint64_t{40}, uint64_t{48}));

// -------------------------------------------- scenario churn snapshots

// Under tenant churn (arrivals mid-run, departures that drive rows to
// zero) the streaming analyzer's sparse CSR snapshots must stay valid
// WorkloadSets at every drift-check boundary — the autopilot hands these
// snapshots straight to the drift detector and the re-advise solver.
class ScenarioChurnProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScenarioChurnProperty, SnapshotsStayValidAcrossChurn) {
  constexpr int kObjects = 8;
  static const ExperimentRig* rig = [] {
    Catalog catalog;
    for (int i = 0; i < kObjects; ++i) {
      catalog.Add({"c" + std::to_string(i), ObjectKind::kTable,
                   int64_t{16} * 1024 * 1024});
    }
    auto r = ExperimentRig::Create(std::move(catalog), {{"d0"}, {"d1"}},
                                   1.0, 5);
    LDB_CHECK(r.ok());
    return new ExperimentRig(std::move(r).value());
  }();

  auto spec = ParseScenarioSpec(
      "duration=10;"
      "tenant=early,objects=0:4,rate=25,write=0.2,depart=5;"
      "tenant=late,objects=4:8,rate=25,arrive=3;"
      "graph=early,communities=2,coaccess=0.6,rewire=2,burst=2");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  spec->seed = GetParam();

  auto segments = BuildTimeline(*spec, kObjects);
  auto problem = rig->MakeProblem(segments.front().workloads);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  const Layout see = Layout::StripeEverythingEverywhere(kObjects, 2);
  auto placements = LayoutToPlacements(*problem, see);
  ASSERT_TRUE(placements.ok());
  auto system = rig->MakeSystem();
  auto volumes = StripedVolumeManager::Create(
      problem->object_sizes, std::move(placements).value(),
      system->capacities(), problem->lvm_stripe_bytes);
  ASSERT_TRUE(volumes.ok());
  PassthroughRouter router(&volumes.value());

  OnlineAnalyzerOptions aopts;
  aopts.half_life_s = 1.0;  // fast decay so departures actually zero rows
  OnlineAnalyzer analyzer(kObjects, aopts);

  ScenarioPlayer player(system.get(), &router, *spec);
  player.set_logical_observer(
      [&](const IoEvent& ev) { analyzer.Observe(ev); });

  // Snapshot at every simulated drift-check boundary, the way the
  // autopilot's periodic tick does.
  int checks = 0;
  double early_rate_at_depart = -1.0;
  double early_rate_at_end = -1.0;
  for (double t = 0.5; t < spec->duration_s + 1e-9; t += 0.5) {
    system->queue().ScheduleAt(t, [&, t]() {
      const WorkloadSet snap = analyzer.Snapshot();
      ++checks;
      EXPECT_TRUE(ValidateWorkloadSet(snap).ok()) << "t=" << t;
      double early = 0.0;
      for (int i = 0; i < 4; ++i) {
        early += snap[static_cast<size_t>(i)].read_rate +
                 snap[static_cast<size_t>(i)].write_rate;
      }
      if (t == 5.0) early_rate_at_depart = early;
      if (t == 10.0) early_rate_at_end = early;
    });
  }
  auto run = player.Play();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(checks, 20);
  EXPECT_GT(analyzer.events(), 0u);

  // The departed tenant's rows decayed through the sparse path: five
  // half-lives after departure its rates are a small fraction of what
  // they were when it left.
  ASSERT_GE(early_rate_at_depart, 0.0);
  ASSERT_GE(early_rate_at_end, 0.0);
  EXPECT_GT(early_rate_at_depart, 0.0);
  EXPECT_LT(early_rate_at_end, 0.2 * early_rate_at_depart);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioChurnProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

// ------------------------------------------------------ spec grammar fuzz
//
// Byte-level mutants of known-good inputs go through every hand-written
// grammar: the fault, autopilot, scenario and journal-crash specs, and the
// problem file. Every call must return a Status. A rejection names a
// clause (specs) or line (problem files) inside the input, unless it is a
// whole-input verdict. An acceptance holds no NaN, passes the type's own
// Validate(), and re-parses from its formatter to a bit-identical value.

constexpr int kMutantsPerGrammar = 2000;

/// Every field of a parsed value, flattened. Doubles compare by bit
/// pattern, so a digit the formatter dropped, or a -0 that came back as 0,
/// shows up.
struct Fields {
  std::vector<double> reals;
  std::vector<int64_t> ints;
  std::vector<std::string> text;

  void Add(double v) { reals.push_back(v); }
  void Add(int v) { ints.push_back(v); }
  void Add(int64_t v) { ints.push_back(v); }
  void Add(uint64_t v) { ints.push_back(static_cast<int64_t>(v)); }
  void Add(bool v) { ints.push_back(v); }
  void Add(const std::string& v) { text.push_back(v); }
  template <typename... T>
  void AddAll(const T&... v) {
    (Add(v), ...);
  }

  bool HasNaN() const {
    return std::any_of(reals.begin(), reals.end(),
                       [](double v) { return std::isnan(v); });
  }
  bool operator==(const Fields& o) const {
    if (ints != o.ints || text != o.text || reals.size() != o.reals.size()) {
      return false;
    }
    for (size_t i = 0; i < reals.size(); ++i) {
      if (std::bit_cast<uint64_t>(reals[i]) !=
          std::bit_cast<uint64_t>(o.reals[i])) {
        return false;
      }
    }
    return true;
  }
};

void Collect(const FaultPlan& plan, Fields* f) {
  f->AddAll(plan.seed, plan.max_retries, plan.retry_backoff_s);
  for (const FaultSpec& s : plan.faults) {
    f->AddAll(s.time, s.target, s.member, static_cast<int>(s.kind),
              s.latency_scale, s.error_prob, s.duration,
              s.rebuild_chunk_bytes);
  }
}

void Collect(const AutopilotConfig& c, Fields* f) {
  const OnlineAnalyzerOptions& a = c.analyzer;
  const DriftOptions& d = c.drift;
  f->AddAll(c.check_interval_s, c.gate_min_gain, c.gate_horizon_s,
            c.gate_fallback_bandwidth, a.half_life_s,
            a.sequential_slack_bytes, a.overlap_window_s, a.max_open_runs,
            a.sparse_overlap, d.threshold, d.trip_evaluations, d.clear_ratio,
            d.cooldown_s, d.min_rate, d.sustained_ratio, d.sustained_s);
}

void Collect(const ScenarioSpec& s, Fields* f) {
  f->AddAll(s.duration_s, s.seed);
  for (const ScenarioTenant& t : s.tenants) {
    f->AddAll(t.name, t.first_object, t.count, t.rate, t.request_bytes,
              t.write_fraction, t.run_length, t.arrive_s, t.depart_s);
  }
  for (const ScenarioPhase& p : s.phases) {
    f->AddAll(p.tenant, p.start_s, p.end_s, p.multiplier);
  }
  for (const ScenarioDrift& d : s.drifts) {
    f->AddAll(d.tenant, d.start_s, d.end_s, d.multiplier);
  }
  for (const ScenarioGraph& g : s.graphs) {
    f->AddAll(g.tenant, g.communities, g.coaccess, g.rewire_s, g.burst);
  }
}

void Collect(const WalCrashPolicy& p, Fields* f) {
  f->AddAll(p.fail_after_appends, p.torn_bytes, p.drop_syncs_after);
}

void Collect(const LoadedProblem& loaded, Fields* f) {
  const LayoutProblem& p = loaded.problem;
  f->Add(p.lvm_stripe_bytes);
  for (const AdvisorTarget& t : p.targets) {
    f->AddAll(t.name, t.cost_model->device_model(), t.capacity_bytes,
              t.num_members, t.stripe_bytes, static_cast<int>(t.raid_level));
  }
  for (size_t i = 0; i < p.object_names.size(); ++i) {
    const WorkloadDesc& w = p.workloads[i];
    f->AddAll(p.object_names[i], static_cast<int>(p.object_kinds[i]),
              p.object_sizes[i], w.read_rate, w.write_rate, w.read_size,
              w.write_size, w.run_count);
    for (size_t k = 0; k < w.overlap_index.size(); ++k) {
      f->AddAll(w.overlap_index[k], w.overlap_value[k]);
    }
  }
  for (const std::vector<int>& allowed : p.constraints.allowed_targets) {
    f->Add(static_cast<int>(allowed.size()));
    for (int j : allowed) f->Add(j);
  }
  for (const auto& [a, b] : p.constraints.separate) f->AddAll(a, b);
  f->AddAll(loaded.has_autopilot, loaded.has_faults, loaded.has_scenario);
  if (loaded.has_autopilot) Collect(loaded.autopilot, f);
  if (loaded.has_faults) Collect(loaded.faults, f);
  if (loaded.has_scenario) Collect(loaded.scenario, f);
}

template <typename T>
Fields FieldsOf(const T& value) {
  Fields f;
  Collect(value, &f);
  return f;
}

/// One or two edits, biased toward the characters and tokens that
/// matter to the number and clause syntax: a byte replaced, inserted or
/// deleted, a token inserted, or the value after a `=` or blank replaced
/// by a token.
std::string Mutate(std::string s, Rng& rng) {
  static const std::string kBytes = "0123456789.-+eE;,=:# \n\txnaif";
  static const char* const kTokens[] = {
      "0", "1", "2.5", "1e3", "0.30000000000000004", "-0", "1e-320", "inf",
      "-inf", "nan", "0x1p3", "1e999", "-1", "99999999999999999999",
      "4294967297", "+1", "1.5x", ";", ",", "="};
  const auto token = [&rng] {
    return std::string(kTokens[rng.UniformInt(std::size(kTokens))]);
  };
  const int edits = 1 + static_cast<int>(rng.UniformInt(uint64_t{2}));
  for (int e = 0; e < edits; ++e) {
    const size_t pos = static_cast<size_t>(rng.UniformInt(s.size() + 1));
    const char byte = kBytes[rng.UniformInt(kBytes.size())];
    switch (rng.UniformInt(uint64_t{6})) {
      case 0:
        if (pos < s.size()) s[pos] = byte;
        break;
      case 1:
        s.insert(pos, 1, byte);
        break;
      case 2:
        if (pos < s.size()) s.erase(pos, 1);
        break;
      case 3:
        s.insert(pos, token());
        break;
      case 4: {
        const size_t at = s.find_first_of("= ", pos);
        if (at == std::string::npos) break;
        const size_t end = std::min(s.find_first_of(",; \n\t", at + 1),
                                    s.size());
        s.replace(at + 1, end - at - 1, token());
        break;
      }
      default:  // any byte at all
        if (pos < s.size()) s[pos] = static_cast<char>(rng.UniformInt(256));
        break;
    }
  }
  return s;
}

/// Whether `message` names "<label>N" at least once, with every such N in
/// [1, max].
bool NamesIndexWithin(const std::string& message, const std::string& label,
                      int max) {
  bool named = false;
  for (size_t at = message.find(label); at != std::string::npos;
       at = message.find(label, at + 1)) {
    int n = 0;
    const char* begin = message.data() + at + label.size();
    if (std::from_chars(begin, message.data() + message.size(), n).ec !=
        std::errc()) {
      continue;
    }
    if (n < 1 || n > max) return false;
    named = true;
  }
  return named;
}

int CountClauses(const std::string& text) {
  int clauses = 0;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = std::min(text.find(';', start), text.size());
    if (end > start) ++clauses;
    start = end + 1;
  }
  return clauses;
}

int CountLines(const std::string& text) {
  return 1 + static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

template <typename T>
struct Grammar {
  std::function<Result<T>(const std::string&)> parse;
  std::function<std::string(const T&)> format;
  std::function<Status(const T&)> validate;
  bool line_indexed = false;  ///< "line N" (problem files), else "clause N"
  /// Prefixes of the rejections that judge the input as a whole (checks
  /// across clauses or objects), which name no clause or line.
  std::vector<std::string> whole_input_verdicts;
};

/// Runs kMutantsPerGrammar mutants of `corpus` through `g`.
template <typename T>
void FuzzGrammar(const Grammar<T>& g, const std::vector<std::string>& corpus,
                uint64_t seed) {
  int accepted = 0;
  for (int i = 0; i < kMutantsPerGrammar; ++i) {
    Rng rng(MixSeed(seed, static_cast<uint64_t>(i)));
    const std::string text =
        Mutate(corpus[static_cast<size_t>(i) % corpus.size()], rng);
    const Result<T> parsed = g.parse(text);
    if (!parsed.ok()) {
      const std::string& msg = parsed.status().message();
      const bool indexed =
          g.line_indexed ? NamesIndexWithin(msg, "line ", CountLines(text))
                         : NamesIndexWithin(msg, "clause ", CountClauses(text));
      const bool whole_input = std::any_of(
          g.whole_input_verdicts.begin(), g.whole_input_verdicts.end(),
          [&msg](const std::string& p) { return msg.rfind(p, 0) == 0; });
      EXPECT_TRUE(indexed || whole_input)
          << "mutant " << i << ": '" << text << "'\n  -> " << msg;
      continue;
    }
    ++accepted;
    const Fields fields = FieldsOf(*parsed);
    EXPECT_FALSE(fields.HasNaN()) << "mutant " << i << ": '" << text << "'";
    const Status valid = g.validate(*parsed);
    EXPECT_TRUE(valid.ok()) << "mutant " << i << ": '" << text << "'\n  -> "
                            << valid.ToString();
    const std::string formatted = g.format(*parsed);
    const Result<T> again = g.parse(formatted);
    if (!again.ok()) {
      ADD_FAILURE() << "mutant " << i << ": '" << text
                    << "'\n  formats as '" << formatted
                    << "', which is rejected: " << again.status().ToString();
      continue;
    }
    EXPECT_TRUE(FieldsOf(*again) == fields)
        << "mutant " << i << ": '" << text << "'\n  formats as '"
        << formatted << "', which parses to a different value";
  }
  // Neither side may be vacuous.
  EXPECT_GT(accepted, kMutantsPerGrammar / 40);
  EXPECT_LT(accepted, kMutantsPerGrammar - kMutantsPerGrammar / 40);
}

TEST(SpecGrammarFuzz, FaultPlan) {
  const Grammar<FaultPlan> g{ParseFaultPlan, FaultPlanToString,
                             [](const FaultPlan&) { return Status::Ok(); },
                             /*line_indexed=*/false, {}};
  FuzzGrammar(g,
              {"t=5,target=1,kind=fail;t=9,target=1,kind=rebuild,"
               "chunk=1048576",
               "seed=7,retries=2,backoff=0.001;t=1,target=0,member=2,"
               "kind=transient,p=0.30000000000000004,duration=4",
               "seed=3;t=1,target=0,kind=fail;t=2,target=0,member=1,"
               "kind=limp,scale=2.5"},
              0xfa17);
}

TEST(SpecGrammarFuzz, AutopilotSpec) {
  const Grammar<AutopilotConfig> g{
      ParseAutopilotSpec, AutopilotConfigToString,
      [](const AutopilotConfig& c) { return c.Validate(); },
      /*line_indexed=*/false,
      {"sustain_s must be > 0 when sustain is enabled"}};
  FuzzGrammar(g,
              {"interval=1.5;threshold=0.4,trip=3,clear=0.25,cooldown=45;"
               "window=20,slack=32768,runs=4;"
               "gain=0.05,horizon=600,bandwidth=1048576,minrate=2",
               "window=inf;threshold=inf",
               "threshold=0.4,sustain=0.7,sustain_s=90,"
               "gain=0.30000000000000004"},
              0xa070);
}

TEST(SpecGrammarFuzz, ScenarioSpec) {
  const Grammar<ScenarioSpec> g{
      ParseScenarioSpec, ScenarioToString,
      [](const ScenarioSpec& s) { return s.Validate(); },
      /*line_indexed=*/false,
      {"scenario spec: missing duration", "scenario has no tenants",
       "tenant '", "phase on '", "drift on '", "graph on '"}};
  FuzzGrammar(g,
              {"duration=120;seed=7;"
               "tenant=oltp,objects=0:5,rate=20,bytes=8192,write=0.3,runs=4;"
               "tenant=batch,objects=5:9,rate=5,arrive=30,depart=90;"
               "phase=oltp,start=10,end=40,x=3;flash=oltp,at=50,for=5,x=50;"
               "graph=batch,communities=2,coaccess=0.6,rewire=20,burst=2;"
               "drift=oltp,start=60,end=110,x=1.4",
               "duration=30;seed=9;tenant=front,objects=0:1,"
               "rate=0.30000000000000004,write=0.25;"
               "tenant=back,objects=1:2,rate=5,arrive=10;"
               "flash=front,at=12,for=3,x=1.4000000000000001"},
              0x5ce0);
}

TEST(SpecGrammarFuzz, JournalCrashPolicy) {
  // WalCrashPolicy has no formatter of its own; the grammar's is one line.
  const Grammar<WalCrashPolicy> g{
      ParseWalCrashPolicy,
      [](const WalCrashPolicy& p) {
        std::string out;
        const auto item = [&out](const char* key, int64_t v) {
          if (v < 0) return;
          out += StrFormat("%s%s=%lld", out.empty() ? "" : ",", key,
                           static_cast<long long>(v));
        };
        item("after", p.fail_after_appends);
        item("torn", p.torn_bytes);
        item("syncs", p.drop_syncs_after);
        return out;
      },
      [](const WalCrashPolicy&) { return Status::Ok(); },
      /*line_indexed=*/false, {}};
  FuzzGrammar(g, {"after=12,torn=5", "syncs=3", "after=0;syncs=2"},
              0xc4a5);
}

TEST(SpecGrammarFuzz, ProblemFile) {
  // A per-test calibration cache: only the first parse calibrates, on a
  // tiny grid.
  ProblemIoOptions options;
  CalibrationOptions& cal = options.calibration;
  cal.size_axis = {static_cast<double>(8 * kKiB),
                   static_cast<double>(64 * kKiB)};
  cal.run_axis = {1, 8};
  cal.contention_axis = {0, 2};
  cal.sample_requests = 24;
  cal.cache_dir = StrFormat("%s/ldb-grammar-fuzz-%d",
                            ::testing::TempDir().c_str(),
                            static_cast<int>(getpid()));
  std::ifstream in(LDB_SAMPLE_PROBLEM);
  ASSERT_TRUE(in) << LDB_SAMPLE_PROBLEM;
  const std::string sample((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  // Directives, and numbers that need all 17 digits to come back.
  const std::string directives =
      sample +
      "autopilot interval=1.5;threshold=0.4,trip=3;window=20,slack=32768,"
      "runs=4;gain=0.05,bandwidth=1048576,minrate=2\n"
      "faults seed=7,retries=2;t=1,target=0,member=1,kind=limp,scale=2.5\n"
      "scenario duration=30;seed=9;tenant=front,objects=0:3,rate=40,"
      "write=0.25\n"
      "scenario tenant=back,objects=3:5,rate=5,arrive=10;"
      "flash=front,at=12,for=3,x=20\n"
      "workload WAL read_rate 0 read_size 0 write_rate 50.000000000000007 "
      "write_size 16KiB run_count 800\n"
      "overlap DIM_CUSTOMER FACT_SALES_PKEY 0.30000000000000004\n";
  const Grammar<LoadedProblem> g{
      [&options](const std::string& text) {
        return ParseProblemText(text, options);
      },
      [](const LoadedProblem& p) { return FormatProblemText(p); },
      [](const LoadedProblem& p) {
        LDB_RETURN_IF_ERROR(p.problem.Validate());
        if (p.has_autopilot) LDB_RETURN_IF_ERROR(p.autopilot.Validate());
        if (p.has_scenario) {
          LDB_RETURN_IF_ERROR(p.scenario.Validate(p.problem.num_objects()));
        }
        return Status::Ok();
      },
      /*line_indexed=*/true,
      {"no objects", "no targets", "workload ", "objects need ",
       "cannot separate an object from itself", "object "}};
  FuzzGrammar(g, {sample, directives}, 0x9b1e);
  std::error_code ec;
  std::filesystem::remove_all(cal.cache_dir, ec);
}

}  // namespace
}  // namespace ldb
