#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/interp.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kCapacityExceeded, StatusCode::kInfeasible,
        StatusCode::kNotFound, StatusCode::kFailedPrecondition,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Status FailingOp() { return Status::Internal("boom"); }
Status Chained() {
  LDB_RETURN_IF_ERROR(FailingOp());
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(Chained().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-3}, int64_t{4});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.UniformInt(uint64_t{8})];
  for (int c : seen) EXPECT_GT(c, 0);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// ---------------------------------------------------------------- Interp

TEST(InterpTest, LocateOnAxisInterior) {
  std::vector<double> axis{0, 10, 20};
  size_t i;
  double w;
  LocateOnAxis(axis, 5.0, &i, &w);
  EXPECT_EQ(i, 0u);
  EXPECT_DOUBLE_EQ(w, 0.5);
  LocateOnAxis(axis, 17.5, &i, &w);
  EXPECT_EQ(i, 1u);
  EXPECT_DOUBLE_EQ(w, 0.75);
}

TEST(InterpTest, LocateOnAxisClampsOutside) {
  std::vector<double> axis{0, 10, 20};
  size_t i;
  double w;
  LocateOnAxis(axis, -5.0, &i, &w);
  EXPECT_EQ(i, 0u);
  EXPECT_DOUBLE_EQ(w, 0.0);
  LocateOnAxis(axis, 100.0, &i, &w);
  EXPECT_EQ(i, 1u);
  EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(InterpTest, OneDimensionalLinear) {
  auto r = GridInterpolator::Create({{0, 1, 2}}, {10, 20, 40});
  ASSERT_TRUE(r.ok());
  const auto& g = *r;
  EXPECT_DOUBLE_EQ(g.At({0.0}), 10);
  EXPECT_DOUBLE_EQ(g.At({0.5}), 15);
  EXPECT_DOUBLE_EQ(g.At({1.5}), 30);
  EXPECT_DOUBLE_EQ(g.At({2.0}), 40);
  // Clamped outside.
  EXPECT_DOUBLE_EQ(g.At({-1.0}), 10);
  EXPECT_DOUBLE_EQ(g.At({5.0}), 40);
}

TEST(InterpTest, TwoDimensionalBilinear) {
  // f(x, y) = x + 10*y on grid {0,1} x {0,1}: values row-major (y fastest).
  auto r = GridInterpolator::Create({{0, 1}, {0, 1}}, {0, 10, 1, 11});
  ASSERT_TRUE(r.ok());
  const auto& g = *r;
  EXPECT_DOUBLE_EQ(g.At({0.5, 0.5}), 5.5);
  EXPECT_DOUBLE_EQ(g.At({1.0, 0.25}), 3.5);
}

TEST(InterpTest, ThreeDimensionalExactAtNodes) {
  std::vector<double> ax{1, 2}, ay{0, 5, 9}, az{2, 4};
  std::vector<double> values;
  auto f = [](double x, double y, double z) { return x * 100 + y * 10 + z; };
  for (double x : ax)
    for (double y : ay)
      for (double z : az) values.push_back(f(x, y, z));
  auto r = GridInterpolator::Create({ax, ay, az}, values);
  ASSERT_TRUE(r.ok());
  for (double x : ax)
    for (double y : ay)
      for (double z : az) EXPECT_DOUBLE_EQ(r->At({x, y, z}), f(x, y, z));
}

TEST(InterpTest, TrilinearIsLinearInEachAxis) {
  std::vector<double> ax{0, 2}, ay{0, 2}, az{0, 2};
  std::vector<double> values;
  auto f = [](double x, double y, double z) {
    return 3 * x - 2 * y + 0.5 * z + 7;
  };
  for (double x : ax)
    for (double y : ay)
      for (double z : az) values.push_back(f(x, y, z));
  auto r = GridInterpolator::Create({ax, ay, az}, values);
  ASSERT_TRUE(r.ok());
  for (double x : {0.0, 0.7, 1.3, 2.0})
    for (double y : {0.0, 1.1, 2.0})
      for (double z : {0.4, 1.9})
        EXPECT_NEAR(r->At({x, y, z}), f(x, y, z), 1e-12);
}

TEST(InterpTest, DegenerateSingleNodeAxis) {
  auto r = GridInterpolator::Create({{5.0}, {0, 1}}, {3.0, 9.0});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->At({5.0, 0.5}), 6.0);
  EXPECT_DOUBLE_EQ(r->At({123.0, 1.0}), 9.0);  // clamped on degenerate axis
}

TEST(InterpTest, LocatedCellsMatchScalarValueAndGradient) {
  // ValueGrad3 at cells from Locate() must agree with the scalar
  // At/AtWithGrad corner sweep (same interpolant, different association
  // order) below, above and exactly on knots, and on single-entry axes.
  auto near = [](double got, double want) {
    EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, std::fabs(want)));
  };
  const std::vector<double> ax{1, 2, 4}, ay{0, 5, 9}, az{-1, 0.5, 2, 3};
  std::vector<double> values;
  Rng rng(77);
  for (size_t k = 0; k < ax.size() * ay.size() * az.size(); ++k) {
    values.push_back(rng.Uniform(-5, 5));
  }
  const std::vector<double> xs{0.0, 1.0, 1.7, 2.0, 3.5, 4.0, 9.0};
  const std::vector<double> ys{-2.0, 0.0, 2.5, 5.0, 9.0, 12.0};
  const std::vector<double> zs{-3.0, -1.0, 0.1, 0.5, 2.0, 2.9, 3.0, 7.0};
  auto check = [&](const GridInterpolator& g, const std::vector<double>& px,
                   const std::vector<double>& py,
                   const std::vector<double>& pz) {
    for (double x : px) {
      for (double y : py) {
        for (double z : pz) {
          SCOPED_TRACE(::testing::Message() << x << "," << y << "," << z);
          const double point[3] = {x, y, z};
          const GridInterpolator::Cell c0 = g.Locate(0, x);
          const GridInterpolator::Cell c1 = g.Locate(1, y);
          const GridInterpolator::Cell c2 = g.Locate(2, z);
          double want_grad[3];
          const double want = g.AtWithGrad(point, 3, want_grad);
          near(g.At(point, 3), want);
          double grad[3];
          near(g.ValueGrad3(c0, c1, c2, grad), want);
          for (int d = 0; d < 3; ++d) near(grad[d], want_grad[d]);
        }
      }
    }
  };
  auto full = GridInterpolator::Create({ax, ay, az}, values);
  ASSERT_TRUE(full.ok());
  check(*full, xs, ys, zs);

  // Single-entry axes: the upper corner aliases the lower one and the
  // slope along the degenerate axis is 0.
  auto flat = GridInterpolator::Create(
      {{3.0}, ay, {2.0}}, std::vector<double>(values.begin(),
                                              values.begin() + 3));
  ASSERT_TRUE(flat.ok());
  check(*flat, {0.0, 3.0, 8.0}, ys, {-1.0, 2.0, 4.0});
  const GridInterpolator::Cell degenerate = flat->Locate(0, 8.0);
  EXPECT_EQ(degenerate.lo, degenerate.hi);
  EXPECT_EQ(degenerate.dw, 0.0);
}

TEST(InterpTest, RejectsBadInputs) {
  EXPECT_FALSE(GridInterpolator::Create({}, {}).ok());
  EXPECT_FALSE(GridInterpolator::Create({{1, 1}}, {1, 2}).ok());  // not incr.
  EXPECT_FALSE(GridInterpolator::Create({{1, 2}}, {1, 2, 3}).ok());  // size
  EXPECT_FALSE(GridInterpolator::Create({{}}, {}).ok());  // empty axis
}

// ---------------------------------------------------------------- Units

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kKiB), "2.0 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB + 512 * kKiB), "3.5 MiB");
  EXPECT_EQ(FormatBytes(18 * kGiB), "18.0 GiB");
}

TEST(UnitsTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(1234.53), "1234.5 s");
  EXPECT_EQ(FormatSeconds(0.0123), "12.30 ms");
  EXPECT_EQ(FormatSeconds(1e-5), "10.0 us");
}

// ---------------------------------------------------------------- Table

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"A", "Name"});
  t.AddRow({"1", "x"});
  t.AddRow({"22", "longer"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| A  | Name   |"), std::string::npos);
  EXPECT_NE(s.find("| 22 | longer |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("%s", std::string(300, 'a').c_str()),
            std::string(300, 'a'));
}

}  // namespace
}  // namespace ldb
