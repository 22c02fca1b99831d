#include <string>

#include <gtest/gtest.h>

#include "core/problem_io.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

// A minimal valid problem, used as the base for mutations.
const char kSample[] = R"(
# comment line
lvm_stripe 64KiB
device d builtin:ssd
target t0 d capacity 8GiB
target t1 d capacity 8GiB members 2 stripe 128KiB
object A table 1GiB
object B index 512MiB
workload A read_rate 100 read_size 64KiB write_rate 10 write_size 8KiB run_count 50
workload B read_rate 20 read_size 8KiB write_rate 0 write_size 0 run_count 1
overlap A B 0.7
self_overlap A 2.5
pin B t1
separate A B
)";

TEST(ProblemIoTest, ParsesCompleteFile) {
  auto loaded = ParseProblemText(kSample);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LayoutProblem& p = loaded->problem;
  EXPECT_EQ(p.num_objects(), 2);
  EXPECT_EQ(p.num_targets(), 2);
  EXPECT_EQ(p.lvm_stripe_bytes, 64 * kKiB);
  EXPECT_EQ(p.object_names[0], "A");
  EXPECT_EQ(p.object_kinds[1], ObjectKind::kIndex);
  EXPECT_EQ(p.object_sizes[0], kGiB);
  EXPECT_EQ(p.object_sizes[1], 512 * kMiB);
  EXPECT_DOUBLE_EQ(p.workloads[0].read_rate, 100);
  EXPECT_DOUBLE_EQ(p.workloads[0].read_size, 64 * kKiB);
  EXPECT_DOUBLE_EQ(p.workloads[0].overlap_with(1), 0.7);
  EXPECT_DOUBLE_EQ(p.workloads[1].overlap_with(0), 0.7);  // symmetric
  EXPECT_DOUBLE_EQ(p.workloads[0].overlap_with(0), 2.5);  // self
  EXPECT_EQ(p.targets[1].num_members, 2);
  EXPECT_EQ(p.targets[1].stripe_bytes, 128 * kKiB);
  EXPECT_EQ(p.constraints.AllowedFor(1), (std::vector<int>{1}));
  EXPECT_TRUE(p.constraints.AllowedFor(0).empty());
  ASSERT_EQ(p.constraints.separate.size(), 1u);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ProblemIoTest, SharesOneCalibrationPerBuiltinModel) {
  const std::string text = std::string(kSample) + "device d2 builtin:ssd\n";
  auto loaded = ParseProblemText(text);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->owned_models.size(), 1u);  // d and d2 share "ssd"
}

TEST(ProblemIoTest, ReportsLineNumbersOnErrors) {
  auto r = ParseProblemText("lvm_stripe 64KiB\nbogus directive\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(ProblemIoTest, RejectsUnknownReferences) {
  EXPECT_FALSE(ParseProblemText("target t0 nodev capacity 1GiB\n").ok());
  EXPECT_FALSE(ParseProblemText("device d builtin:warp-drive\n").ok());
  const std::string base =
      "device d builtin:ssd\ntarget t0 d capacity 8GiB\n"
      "object A table 1GiB\n"
      "workload A read_rate 1 read_size 8KiB write_rate 0 write_size 0 "
      "run_count 1\n";
  EXPECT_FALSE(ParseProblemText(base + "overlap A NOPE 0.5\n").ok());
  EXPECT_FALSE(ParseProblemText(base + "pin A t9\n").ok());
  EXPECT_FALSE(ParseProblemText(base + "separate A Z\n").ok());
}

TEST(ProblemIoTest, RejectsDuplicatesAndBadSizes) {
  EXPECT_FALSE(
      ParseProblemText("device d builtin:ssd\ndevice d builtin:ssd\n").ok());
  EXPECT_FALSE(ParseProblemText("lvm_stripe -3\n").ok());
  EXPECT_FALSE(ParseProblemText("lvm_stripe 64QiB\n").ok());
  const std::string dup =
      "device d builtin:ssd\ntarget t0 d capacity 8GiB\n"
      "object A table 1GiB\nobject A table 1GiB\n";
  EXPECT_FALSE(ParseProblemText(dup).ok());
}

TEST(ProblemIoTest, RejectsMalformedNumbersWithTheLine) {
  const std::string head =
      "device d builtin:ssd\n"
      "object A table 1GiB\n";
  const std::string workload =
      "workload A read_rate 1 read_size 8KiB write_rate 0 write_size 0 "
      "run_count 1\n";
  // Each was silently accepted before: members 2.7 read as 2, members 3x
  // as 3, read_rate 5abc as 5, and read_rate nan as NaN.
  for (const std::string& line :
       {std::string("target t0 d capacity 8GiB members 2.7\n"),
        std::string("target t0 d capacity 8GiB members 3x\n"),
        std::string("target t0 d capacity 8GiB members 4294967297\n"),
        std::string("target t0 d capacity 8GiB stripe 64KiBx\n"),
        std::string("target t0 d capacity 0.5\n")}) {
    auto r = ParseProblemText(head + line + workload);
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
        << r.status().message();
  }
  const std::string target = "target t0 d capacity 8GiB\n";
  for (const char* rate : {"5abc", "nan", "+5", "0x5", "1e999"}) {
    auto r = ParseProblemText(
        head + target +
        StrFormat("workload A read_rate %s read_size 8KiB write_rate 0 "
                  "write_size 0 run_count 1\n",
                  rate));
    ASSERT_FALSE(r.ok()) << rate;
    EXPECT_NE(r.status().message().find("line 4"), std::string::npos)
        << r.status().message();
  }
  // inf is a number, but not a valid rate: the final validation names the
  // object.
  auto inf = ParseProblemText(head + target +
                              "workload A read_rate inf read_size 8KiB "
                              "write_rate 0 write_size 0 run_count 1\n");
  ASSERT_FALSE(inf.ok());
  EXPECT_NE(inf.status().message().find("workload 0: non-finite"),
            std::string::npos)
      << inf.status().message();
  // Deferred name references keep their line.
  auto unknown = ParseProblemText(head + target + workload +
                                  "overlap A NOPE 0.5\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("line 5: unknown object 'NOPE'"),
            std::string::npos)
      << unknown.status().message();
}

TEST(ProblemIoTest, DuplicateNamesReportLineAndWhichName) {
  auto dup_target = ParseProblemText(
      "device d builtin:ssd\n"
      "target t0 d capacity 8GiB\n"
      "target t0 d capacity 8GiB\n");
  ASSERT_FALSE(dup_target.ok());
  EXPECT_NE(dup_target.status().message().find("duplicate target"),
            std::string::npos)
      << dup_target.status().message();
  EXPECT_NE(dup_target.status().message().find("line 3"), std::string::npos)
      << dup_target.status().message();

  auto dup_object = ParseProblemText(
      "device d builtin:ssd\n"
      "target t0 d capacity 8GiB\n"
      "object A table 1GiB\n"
      "object A table 1GiB\n");
  ASSERT_FALSE(dup_object.ok());
  EXPECT_NE(dup_object.status().message().find("duplicate object"),
            std::string::npos)
      << dup_object.status().message();
  EXPECT_NE(dup_object.status().message().find("line 4"), std::string::npos)
      << dup_object.status().message();
}

TEST(ProblemIoTest, ValidatesFinalProblem) {
  // Objects exceed total capacity: Validate() must reject.
  const char text[] = R"(
device d builtin:ssd
target t0 d capacity 1GiB
object A table 4GiB
workload A read_rate 1 read_size 8KiB write_rate 0 write_size 0 run_count 1
)";
  auto r = ParseProblemText(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
}

TEST(ProblemIoTest, LoadProblemFileMissingPath) {
  EXPECT_FALSE(LoadProblemFile("/no/such/file.txt").ok());
}

TEST(ProblemIoTest, EndToEndAdvisorRunOnParsedProblem) {
  auto loaded = ParseProblemText(kSample);
  ASSERT_TRUE(loaded.ok());
  LayoutAdvisor advisor;
  auto rec = advisor.Recommend(loaded->problem);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(loaded->problem.constraints.SatisfiedBy(rec->final_layout));
  const std::string report =
      FormatAdvisorReport(loaded->problem, *rec);
  EXPECT_NE(report.find("Recommended layout"), std::string::npos);
  EXPECT_NE(report.find("A"), std::string::npos);
  // The advisor's default seed set: the heuristic seed plus two random.
  EXPECT_NE(report.find("Solver: 3 seeds, "), std::string::npos) << report;
}

TEST(ProblemIoTest, AdvisorReportPinsTheSolverLine) {
  auto loaded = ParseProblemText(kSample);
  ASSERT_TRUE(loaded.ok());
  const LayoutProblem& problem = loaded->problem;
  AdvisorResult result;
  result.final_layout = Layout::StripeEverythingEverywhere(
      problem.num_objects(), problem.num_targets());
  result.utilization_initial.assign(
      static_cast<size_t>(problem.num_targets()), 0.5);
  result.utilization_solver = result.utilization_initial;
  result.utilization_final = result.utilization_initial;
  SolverResult& s = result.solver_stats;
  s.iterations = 812;
  s.gradient_evaluations = 9140;
  s.seeds.resize(3);
  s.seeds[0].round_max = {0.9, 0.7, 0.6, 0.55};
  s.seeds[0].round_steps = {60, 60, 5, 10};
  s.seeds[1].round_max = {0.95, 0.8, 0.65};
  s.seeds[1].round_steps = {60, 35, 60};
  s.seeds[1].stopped_round = 2;
  s.seeds[2].round_max = {0.8, 0.7, 0.6, 0.5};
  s.seeds[2].round_steps = {60, 60, 60, 60};
  const std::string report = FormatAdvisorReport(problem, result);
  EXPECT_NE(report.find("\nSolver: 3 seeds, 812 steps, 9140 column passes; "
                        "steps per round: seed 0 [60 60 5 10], seed 1 "
                        "[60 35 60], seed 2 [60 60 60 60]; seed 1 stopped "
                        "after round 2, trailing seed 0 by 5.00 pts\n"
                        "Advisor time: "),
            std::string::npos)
      << report;

  s.seeds.resize(1);
  EXPECT_NE(FormatAdvisorReport(problem, result)
                .find("\nSolver: 1 seed, 812 steps, 9140 column passes; "
                      "steps per round: seed 0 [60 60 5 10]; "
                      "no seed stopped\n"),
            std::string::npos);
}

TEST(ProblemIoTest, FormatProblemTextRoundTrips) {
  auto loaded = ParseProblemText(kSample);
  ASSERT_TRUE(loaded.ok());
  const std::string text = FormatProblemText(loaded->problem);
  auto reloaded = ParseProblemText(text);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString() << "\n" << text;
  const LayoutProblem& a = loaded->problem;
  const LayoutProblem& b = reloaded->problem;
  ASSERT_EQ(a.num_objects(), b.num_objects());
  ASSERT_EQ(a.num_targets(), b.num_targets());
  EXPECT_EQ(a.lvm_stripe_bytes, b.lvm_stripe_bytes);
  for (int i = 0; i < a.num_objects(); ++i) {
    EXPECT_EQ(a.object_names[static_cast<size_t>(i)],
              b.object_names[static_cast<size_t>(i)]);
    EXPECT_EQ(a.object_sizes[static_cast<size_t>(i)],
              b.object_sizes[static_cast<size_t>(i)]);
    EXPECT_EQ(a.object_kinds[static_cast<size_t>(i)],
              b.object_kinds[static_cast<size_t>(i)]);
    const WorkloadDesc& wa = a.workloads[static_cast<size_t>(i)];
    const WorkloadDesc& wb = b.workloads[static_cast<size_t>(i)];
    EXPECT_NEAR(wa.read_rate, wb.read_rate, 1e-6);
    EXPECT_NEAR(wa.write_rate, wb.write_rate, 1e-6);
    EXPECT_NEAR(wa.run_count, wb.run_count, 1e-6);
    for (int k = 0; k < a.num_objects(); ++k) {
      EXPECT_NEAR(wa.overlap_with(static_cast<size_t>(k)),
                  wb.overlap_with(static_cast<size_t>(k)), 1e-6)
          << i << "," << k;
    }
  }
  for (int j = 0; j < a.num_targets(); ++j) {
    EXPECT_EQ(a.targets[static_cast<size_t>(j)].capacity_bytes,
              b.targets[static_cast<size_t>(j)].capacity_bytes);
    EXPECT_EQ(a.targets[static_cast<size_t>(j)].num_members,
              b.targets[static_cast<size_t>(j)].num_members);
  }
  EXPECT_EQ(a.constraints.allowed_targets, b.constraints.allowed_targets);
  EXPECT_EQ(a.constraints.separate, b.constraints.separate);
}

TEST(ProblemIoTest, FormatSanitizesSpacesInNames) {
  auto loaded = ParseProblemText(kSample);
  ASSERT_TRUE(loaded.ok());
  loaded->problem.object_names[0] = "TEMP SPACE";
  const std::string text = FormatProblemText(loaded->problem);
  EXPECT_EQ(text.find("TEMP SPACE"), std::string::npos);
  EXPECT_NE(text.find("TEMP_SPACE"), std::string::npos);
  EXPECT_TRUE(ParseProblemText(text).ok());
}

TEST(ProblemIoTest, ParsesAutopilotDirective) {
  std::string text(kSample);
  text += "autopilot interval=1; threshold=0.4,trip=3, cooldown=10\n";
  auto loaded = ParseProblemText(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->has_autopilot);
  EXPECT_DOUBLE_EQ(loaded->autopilot.check_interval_s, 1.0);
  EXPECT_DOUBLE_EQ(loaded->autopilot.drift.threshold, 0.4);
  EXPECT_EQ(loaded->autopilot.drift.trip_evaluations, 3);
  EXPECT_DOUBLE_EQ(loaded->autopilot.drift.cooldown_s, 10.0);
  // Absent directive leaves the flag unset.
  auto plain = ParseProblemText(kSample);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_autopilot);
}

TEST(ProblemIoTest, AutopilotDirectiveErrorsAreLineAndClauseIndexed) {
  auto bad = ParseProblemText(std::string(kSample) +
                              "autopilot interval=1;threshold=0\n");
  ASSERT_FALSE(bad.ok());
  // The outer parser prefixes the line, the spec parser the clause.
  EXPECT_NE(bad.status().message().find("line 15"), std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("clause 2"), std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("threshold"), std::string::npos);

  EXPECT_FALSE(ParseProblemText(std::string(kSample) + "autopilot\n").ok());
  EXPECT_FALSE(
      ParseProblemText(std::string(kSample) + "autopilot threshold=-1\n")
          .ok());
  EXPECT_FALSE(
      ParseProblemText(std::string(kSample) + "autopilot bogus=1\n").ok());
}

TEST(ProblemIoTest, ParsesFaultsDirective) {
  std::string text(kSample);
  text += "faults t=1,target=0,member=0,kind=fail; t=2,target=1,kind=limp, "
          "scale=0.5\n";
  auto loaded = ParseProblemText(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->has_faults);
  EXPECT_EQ(loaded->faults.faults.size(), 2u);
  // Absent directive leaves the flag unset.
  auto plain = ParseProblemText(kSample);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_faults);
  // Fault-spec errors surface with the problem file's line prefix.
  auto bad = ParseProblemText(std::string(kSample) + "faults kind=bogus\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 15"), std::string::npos)
      << bad.status().ToString();
  EXPECT_FALSE(ParseProblemText(std::string(kSample) + "faults\n").ok());
}

// Satellite: the once-only directives must compose in either order and
// reject duplicates with the first occurrence's line as context.
TEST(ProblemIoTest, AutopilotAndFaultsComposeInEitherOrder) {
  const std::string ap = "autopilot interval=1;threshold=0.4\n";
  const std::string fp = "faults t=1,target=0,member=0,kind=fail\n";
  for (const std::string& tail : {ap + fp, fp + ap}) {
    auto loaded = ParseProblemText(std::string(kSample) + tail);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(loaded->has_autopilot);
    EXPECT_TRUE(loaded->has_faults);
    EXPECT_DOUBLE_EQ(loaded->autopilot.drift.threshold, 0.4);
    EXPECT_EQ(loaded->faults.faults.size(), 1u);
  }
}

TEST(ProblemIoTest, DuplicateDirectivesNameTheFirstOccurrence) {
  auto dup_ap = ParseProblemText(std::string(kSample) +
                                 "autopilot threshold=0.4\n"
                                 "faults t=1,target=0,kind=limp,scale=0.5\n"
                                 "autopilot threshold=0.5\n");
  ASSERT_FALSE(dup_ap.ok());
  EXPECT_NE(dup_ap.status().message().find(
                "duplicate autopilot directive (first at line 15)"),
            std::string::npos)
      << dup_ap.status().ToString();
  EXPECT_NE(dup_ap.status().message().find("line 17"), std::string::npos);

  auto dup_fp = ParseProblemText(std::string(kSample) +
                                 "faults t=1,target=0,kind=limp,scale=0.5\n"
                                 "faults t=2,target=1,kind=limp,scale=0.5\n");
  ASSERT_FALSE(dup_fp.ok());
  EXPECT_NE(dup_fp.status().message().find(
                "duplicate faults directive (first at line 15)"),
            std::string::npos)
      << dup_fp.status().ToString();
}

TEST(ProblemIoTest, ScenarioDirectiveAccumulatesAcrossLines) {
  std::string text(kSample);
  text += "scenario duration=30;seed=9\n";
  text += "scenario tenant=front,objects=0:1,rate=40,write=0.25\n";
  text += "scenario tenant=back,objects=1:2,rate=5,arrive=10\n";
  text += "scenario flash=front,at=12,for=3,x=20\n";
  auto loaded = ParseProblemText(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_scenario);
  EXPECT_DOUBLE_EQ(loaded->scenario.duration_s, 30.0);
  EXPECT_EQ(loaded->scenario.seed, 9u);
  ASSERT_EQ(loaded->scenario.tenants.size(), 2u);
  EXPECT_EQ(loaded->scenario.tenants[1].name, "back");
  ASSERT_EQ(loaded->scenario.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->scenario.phases[0].multiplier, 20.0);
}

TEST(ProblemIoTest, ScenarioErrorsCarryContext) {
  // Clause-indexed spec errors pass through with the directive's first
  // line attached.
  auto bad = ParseProblemText(std::string(kSample) +
                              "scenario duration=10\n"
                              "scenario tenant=a,objects=0:2,rate=frog\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("scenario directive (line 15)"),
            std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("clause 2"), std::string::npos);

  // Object ranges are validated against the declared objects (kSample has
  // two).
  auto range = ParseProblemText(
      std::string(kSample) + "scenario duration=10;tenant=a,objects=0:5,rate=1\n");
  ASSERT_FALSE(range.ok());
  EXPECT_NE(range.status().message().find("exceeds catalog size 2"),
            std::string::npos)
      << range.status().ToString();

  EXPECT_FALSE(ParseProblemText(std::string(kSample) + "scenario\n").ok());
}

TEST(ProblemIoTest, FormatLoadedProblemRoundTripsDirectives) {
  std::string text(kSample);
  text += "autopilot interval=1;threshold=0.4,sustain=0.7,sustain_s=60;"
          "slack=4096,runs=3,minrate=0.75,"
          "bandwidth=0.30000000000000004\n";
  text += "faults t=1,target=0,member=0,kind=fail\n";
  text += "scenario duration=30;tenant=front,objects=0:2,rate=40\n";
  auto loaded = ParseProblemText(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const std::string rendered = FormatProblemText(*loaded);
  auto again = ParseProblemText(rendered);
  ASSERT_TRUE(again.ok()) << rendered << "\n" << again.status().ToString();
  EXPECT_TRUE(again->has_autopilot);
  EXPECT_TRUE(again->has_faults);
  EXPECT_TRUE(again->has_scenario);
  EXPECT_DOUBLE_EQ(again->autopilot.drift.sustained_ratio, 0.7);
  // The keys the formatter used to drop come back bit-identically.
  EXPECT_EQ(again->autopilot.analyzer.sequential_slack_bytes, 4096);
  EXPECT_EQ(again->autopilot.analyzer.max_open_runs, 3);
  EXPECT_EQ(again->autopilot.drift.min_rate, 0.75);
  EXPECT_EQ(again->autopilot.gate_fallback_bandwidth, 0.1 + 0.2);
  EXPECT_EQ(again->faults.faults.size(), 1u);
  EXPECT_DOUBLE_EQ(again->scenario.duration_s, 30.0);
  EXPECT_EQ(ScenarioToString(again->scenario),
            ScenarioToString(loaded->scenario));
}

}  // namespace
}  // namespace ldb
