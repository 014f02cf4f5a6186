// The kept-triplet route of the Golub–Kahan SVD: bisection and inverse
// iteration on the Golub–Kahan tridiagonal (detail::bidiagonal_kept_triplets),
// which svd() takes for 0 < rank < n at order kReductionCrossover or more
// when every kept σ is separated. Each case asserts which route ran, by
// matching svd()'s whole result to the bit against that route rebuilt from
// the detail entry points, and checks the result against the QR sweep on
// the same bidiagonal and against the Jacobi oracle. Inputs the gate
// turns away (repeated or close σ at the cut, a near-zero kept σ) must
// take the sweep and give exactly what it gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <tuple>

#include "jacobi.hpp"
#include "linalg/autotune.hpp"
#include "linalg/householder.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using testing::naive_matmul;
using testing::ortho_defect;
using testing::random_matrix;

constexpr Index kCross = autotune::kReductionCrossover;
constexpr Index kNb = autotune::kReductionBlock;

// The Jacobi oracle stops once every column pair is orthogonal to 1e-13,
// so its vectors carry errors near 1e-12 where σ sit 1e-2·σ_1 apart (the
// sweep and the kept route agree with each other to 1e-12 there).
constexpr double kOracleVectorTol = 1e-11;

enum class Route { Kept, Sweep };

// Q diag(spectrum) Pᵀ with random orthonormal Q (m x k) and P (n x k).
Matrix with_spectrum(Index m, Index n, const Vector& spectrum, std::uint64_t seed) {
  const Index k = spectrum.size();
  const Matrix q = qr_thin(random_matrix(m, k, seed)).q;
  const Matrix p = qr_thin(random_matrix(n, k, seed + 1)).q;
  return naive_matmul(naive_matmul(q, Matrix::diag(spectrum)), p.transposed());
}

// n evenly spaced σ from 1 down to 0.1: every gap is 0.9/n of σ_1, above
// the gate's 1e-3 for every n here.
Vector separated(Index n) {
  Vector s(n);
  for (Index i = 0; i < n; ++i) s[i] = 1.0 - 0.9 * static_cast<double>(i) / static_cast<double>(n);
  return s;
}

// svd(a, rank) rebuilt from the detail entry points along one route: the
// same transposition, power-of-two rescale, bidiagonalization and
// back-transforms as svd_golub_kahan. Nullopt when the kept route turns
// the bidiagonal away.
std::optional<SvdResult> via_route(const Matrix& a, Index rank, Route route) {
  if (a.rows() < a.cols()) {
    std::optional<SvdResult> out = via_route(a.transposed(), rank, route);
    if (out) std::swap(out->u, out->v);
    return out;
  }
  const int e = safe_scale_exponent(a.norm_max());
  const detail::Bidiagonalization bd =
      detail::bidiagonalize(e != 0 ? scale_by_pow2(a, -e) : a, kNb);
  std::optional<SvdResult> out;
  if (route == Route::Kept) {
    out = detail::bidiagonal_kept_triplets(bd.d, bd.e, rank);
    if (!out) return std::nullopt;
  } else {
    out = detail::bidiagonal_sweep(bd.d, bd.e, rank, true);
  }
  Matrix u(a.rows(), out->u.cols());
  u.set_block(0, 0, out->u);
  detail::apply_reflectors_backward(bd.a, bd.tau_l, 0, u, kNb);
  detail::apply_reflectors_backward(bd.vr, bd.tau_r, 1, out->v, kNb);
  out->u = std::move(u);
  for (Index j = 0; j < out->s.size(); ++j) out->s[j] = std::ldexp(out->s[j], e);
  return out;
}

void expect_bit_identical(const SvdResult& got, const SvdResult& want) {
  ASSERT_EQ(got.s.size(), want.s.size());
  for (Index j = 0; j < got.s.size(); ++j) ASSERT_EQ(got.s[j], want.s[j]) << "sigma " << j;
  testing::expect_matrix_near(got.u, want.u, 0.0);
  testing::expect_matrix_near(got.v, want.v, 0.0);
}

// svd(a, rank) took `route`: its result is that route's to the bit.
SvdResult expect_route(const Matrix& a, Index rank, Route route) {
  SvdOptions opts;
  opts.rank = rank;
  const SvdResult f = svd(a, opts);
  const std::optional<SvdResult> want = via_route(a, rank, route);
  EXPECT_TRUE(want.has_value()) << "the kept route turned the input away";
  if (want) expect_bit_identical(f, *want);
  return f;
}

// The kept triplets against the leading ones of the rank-0 (sweep) solve,
// and against the Jacobi oracle: σ, orthogonality and both residuals.
void expect_accurate(const Matrix& a, const SvdResult& f) {
  const Index k = f.s.size();
  const SvdResult full = svd(a);
  for (Index j = 0; j < k; ++j) {
    EXPECT_NEAR(f.s[j], full.s[j], 1e-14 * full.s[0]) << "sigma " << j;
  }
  testing::expect_leading_columns(f.u, full.u, 1e-12, "u");
  testing::expect_leading_columns(f.v, full.v, 1e-12, "v");

  const SvdResult ref = oracle::svd_jacobi(a);
  const double smax = ref.s[0];
  for (Index j = 0; j < k; ++j) EXPECT_NEAR(f.s[j], ref.s[j], 1e-12 * smax) << "sigma " << j;
  EXPECT_LT(ortho_defect(f.u), 1e-12);
  EXPECT_LT(ortho_defect(f.v), 1e-12);
  const Matrix av = naive_matmul(a, f.v);
  const Matrix atu = naive_matmul(a.transposed(), f.u);
  double res = 0.0;
  for (Index j = 0; j < k; ++j) {
    for (Index i = 0; i < a.rows(); ++i) res = std::max(res, std::fabs(av(i, j) - f.s[j] * f.u(i, j)));
    for (Index i = 0; i < a.cols(); ++i) res = std::max(res, std::fabs(atu(i, j) - f.s[j] * f.v(i, j)));
  }
  EXPECT_LT(res, 1e-12 * smax);
}

// ------------------------------------------------- shapes x kept ranks

using ShapeCase = std::tuple<Index, int>;  // n, rank (0 stands for n/2)

class KeptTripletShapes : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(KeptTripletShapes, MatchesSweepAndOracle) {
  const auto [n, rank_in] = GetParam();
  const Index rank = rank_in == 0 ? n / 2 : rank_in;
  const Matrix a = with_spectrum(n + 20, n, separated(n), 40 + static_cast<std::uint64_t>(n));
  const Route route = n >= kCross ? Route::Kept : Route::Sweep;
  const SvdResult f = expect_route(a, rank, route);
  expect_accurate(a, f);

  // The detail entry point on the bidiagonal itself, against the sweep on
  // the same bidiagonal and the oracle on B.
  const detail::Bidiagonalization bd = detail::bidiagonalize(a, kNb);
  const std::optional<SvdResult> kept = detail::bidiagonal_kept_triplets(bd.d, bd.e, rank);
  ASSERT_TRUE(kept.has_value());
  const SvdResult sweep = detail::bidiagonal_sweep(bd.d, bd.e, rank, true);
  Matrix b(n, n);
  for (Index i = 0; i < n; ++i) {
    b(i, i) = bd.d[static_cast<std::size_t>(i)];
    if (i + 1 < n) b(i, i + 1) = bd.e[static_cast<std::size_t>(i)];
  }
  const SvdResult ref = oracle::svd_jacobi(b);
  for (Index j = 0; j < rank; ++j) {
    EXPECT_NEAR(kept->s[j], sweep.s[j], 1e-14 * sweep.s[0]) << "sigma " << j;
    EXPECT_NEAR(kept->s[j], ref.s[j], 1e-13 * ref.s[0]) << "sigma " << j;
  }
  testing::expect_leading_columns(kept->u, sweep.u, 1e-12, "u vs sweep");
  testing::expect_leading_columns(kept->v, sweep.v, 1e-12, "v vs sweep");
  testing::expect_leading_columns(kept->u, ref.u, kOracleVectorTol, "u vs oracle");
  testing::expect_leading_columns(kept->v, ref.v, kOracleVectorTol, "v vs oracle");
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, KeptTripletShapes,
    ::testing::Combine(::testing::Values(Index{63}, Index{64}, Index{65}, Index{204}, Index{256}),
                       ::testing::Values(1, 4, 10, 50, 0)),
    [](const ::testing::TestParamInfo<ShapeCase>& p) {
      std::ostringstream name;
      name << "n" << std::get<0>(p.param) << "_r";
      if (std::get<1>(p.param) == 0) {
        name << "half";
      } else {
        name << std::get<1>(p.param);
      }
      return name.str();
    });

// ------------------------------------------------------ input families

TEST(KeptTriplets, GaussianRootFactorAtRankFour) {
  // The era5_stream root SVD's shape: a 204 x 204 R at K = 4.
  const Matrix a = qr_thin(random_matrix(816, 204, 51)).r;
  expect_accurate(a, expect_route(a, 4, Route::Kept));
}

TEST(KeptTriplets, WideInputTakesTheTransposedRoute) {
  const Matrix a = with_spectrum(90, 230, separated(90), 52);
  const SvdResult f = expect_route(a, 4, Route::Kept);
  ASSERT_EQ(f.u.rows(), 90);
  ASSERT_EQ(f.v.rows(), 230);
  expect_accurate(a, f);
}

TEST(KeptTriplets, FarFromUnitScaleRunsRescaled) {
  const Matrix a = with_spectrum(100, 80, separated(80), 53);
  for (const int e : {-990, 990}) {
    SCOPED_TRACE(::testing::Message() << "2^" << e);
    const Matrix scaled = scale_by_pow2(a, e);
    const SvdResult f = expect_route(scaled, 4, Route::Kept);
    // An exact power-of-two rescale: the unit-scale solve, σ scaled back.
    SvdOptions opts;
    opts.rank = 4;
    const SvdResult unit = svd(a, opts);
    for (Index j = 0; j < 4; ++j) EXPECT_EQ(f.s[j], std::ldexp(unit.s[j], e));
    testing::expect_matrix_near(f.u, unit.u, 0.0);
    testing::expect_matrix_near(f.v, unit.v, 0.0);
  }
}

TEST(KeptTriplets, GradedSpectrumDownTo1em24) {
  Vector graded(12);
  const double top[] = {1.0, 0.5, 0.25, 0.1};
  for (Index i = 0; i < 4; ++i) graded[i] = top[i];
  for (Index i = 4; i < 12; ++i) graded[i] = std::pow(10.0, -3.0 * static_cast<double>(i - 3));
  const Matrix a = with_spectrum(120, 96, graded, 54);
  expect_accurate(a, expect_route(a, 4, Route::Kept));
  // Cutting inside the graded tail leaves gaps below 1e-3·σ_1: the sweep.
  expect_route(a, 6, Route::Sweep);
}

// A bidiagonal whose σ sit about 1 apart on a scale of n.
void separated_bidiagonal(Index n, std::vector<double>& d, std::vector<double>& e) {
  const Matrix noise = random_matrix(2 * n, 1, 55);
  d.resize(static_cast<std::size_t>(n));
  e.resize(static_cast<std::size_t>(n - 1));
  for (Index i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = static_cast<double>(i + 1) + 0.1 * noise(i, 0);
  for (Index i = 0; i + 1 < n; ++i) e[static_cast<std::size_t>(i)] = 0.3 * noise(n + i, 0);
}

Matrix dense_bidiagonal(const std::vector<double>& d, const std::vector<double>& e) {
  const Index n = static_cast<Index>(d.size());
  Matrix b(n, n);
  for (Index i = 0; i < n; ++i) {
    b(i, i) = d[static_cast<std::size_t>(i)];
    if (i + 1 < n) b(i, i + 1) = e[static_cast<std::size_t>(i)];
  }
  return b;
}

TEST(KeptTriplets, SplitTridiagonalFromAZeroEOrAZeroD) {
  constexpr Index n = 100;
  for (const bool zero_d : {false, true}) {
    SCOPED_TRACE(zero_d ? "d[37] = 0" : "e[37] = 0");
    std::vector<double> d, e;
    separated_bidiagonal(n, d, e);
    (zero_d ? d : e)[37] = 0.0;
    for (const Index rank : {Index{1}, Index{4}, Index{10}, Index{50}}) {
      const std::optional<SvdResult> kept = detail::bidiagonal_kept_triplets(d, e, rank);
      ASSERT_TRUE(kept.has_value()) << rank;
      const SvdResult sweep = detail::bidiagonal_sweep(d, e, rank, true);
      const Matrix b = dense_bidiagonal(d, e);
      const SvdResult ref = oracle::svd_jacobi(b);
      for (Index j = 0; j < rank; ++j) {
        EXPECT_NEAR(kept->s[j], sweep.s[j], 1e-14 * sweep.s[0]) << "sigma " << j;
        EXPECT_NEAR(kept->s[j], ref.s[j], 1e-13 * ref.s[0]) << "sigma " << j;
      }
      testing::expect_leading_columns(kept->u, sweep.u, 1e-12, "u vs sweep");
      testing::expect_leading_columns(kept->v, sweep.v, 1e-12, "v vs sweep");
      testing::expect_leading_columns(kept->u, ref.u, kOracleVectorTol, "u vs oracle");
      testing::expect_leading_columns(kept->v, ref.v, kOracleVectorTol, "v vs oracle");
      EXPECT_LT(ortho_defect(kept->u), 1e-13);
      EXPECT_LT(ortho_defect(kept->v), 1e-13);
    }
    // Through svd(): the dense B is already bidiagonal.
    const Matrix b = dense_bidiagonal(d, e);
    expect_accurate(b, expect_route(b, 4, Route::Kept));
  }
}

TEST(KeptTriplets, RankOneKeepsItsOneTriplet) {
  const Matrix a = with_spectrum(200, 100, Vector{7.0}, 56);
  expect_accurate(a, expect_route(a, 1, Route::Kept));
}

// ----------------------------------------------- inputs the gate turns away

TEST(KeptTriplets, NearZeroKeptSigmaTakesTheSweep) {
  // Rank one kept at 3, and rank three whose third σ is 1e-9·σ_1.
  const Matrix rank_one = with_spectrum(200, 100, Vector{7.0}, 56);
  const Matrix rank_three = with_spectrum(200, 100, Vector{5.0, 3.0, 5e-9}, 57);
  for (const Matrix* a : {&rank_one, &rank_three}) {
    const detail::Bidiagonalization bd = detail::bidiagonalize(*a, kNb);
    EXPECT_FALSE(detail::bidiagonal_kept_triplets(bd.d, bd.e, 3).has_value());
    expect_route(*a, 3, Route::Sweep);
  }
}

TEST(KeptTriplets, RepeatedSigmaAcrossTheCutTakesTheSweep) {
  const Matrix a = with_spectrum(200, 100, Vector{5, 4, 3, 2, 2, 2, 1}, 58);
  expect_route(a, 4, Route::Sweep);
  // Cutting between distinct σ is fine.
  expect_route(a, 3, Route::Kept);
}

TEST(KeptTriplets, PairsCloserThanTheGateTakeTheSweep) {
  // σ_2 − σ_3 = 4e-4·σ_1, under the 1e-3 gate; σ_1 − σ_2 is well clear.
  const Matrix a = with_spectrum(200, 100, Vector{5, 4, 4 - 2e-3, 2, 1}, 59);
  expect_route(a, 1, Route::Kept);
  expect_route(a, 2, Route::Sweep);
  expect_route(a, 4, Route::Sweep);
}

TEST(KeptTriplets, SmallOrFullRankTakesTheSweep) {
  // Below the crossover, at rank 0 and at rank n, svd() runs the sweep.
  const Matrix small = with_spectrum(80, kCross - 1, separated(kCross - 1), 60);
  expect_route(small, 4, Route::Sweep);
  const Matrix a = with_spectrum(80, kCross, separated(kCross), 61);
  expect_route(a, 0, Route::Sweep);
  expect_route(a, kCross, Route::Sweep);
}

}  // namespace
}  // namespace parsvd
