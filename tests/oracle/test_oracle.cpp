// Tests of the Jacobi oracles' own contracts: what the cross-validation
// elsewhere in the suite relies on them for. The one-sided Jacobi SVD
// resolves small singular values to high relative accuracy, and both
// oracles truncate a full solve to the requested rank.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "jacobi.hpp"
#include "test_utils.hpp"
#include "workloads/lowrank.hpp"

namespace parsvd {
namespace {

using testing::random_symmetric;

TEST(SvdEdge, GradedSpectrumTwelveOrders) {
  // σ spanning 1e0 .. 1e-12: Jacobi must resolve every value to high
  // relative accuracy (its signature property).
  Rng rng(1);
  Vector spectrum(7);
  for (Index i = 0; i < 7; ++i) spectrum[i] = std::pow(10.0, -2.0 * static_cast<double>(i));
  const Matrix a = workloads::synthetic_low_rank(40, 20, spectrum, rng);
  const SvdResult f = oracle::svd_jacobi(a);
  // The synthetic construction itself (GEMM at sigma_max scale) injects
  // ~eps*sigma_max absolute noise into the data, so the achievable bound
  // is relative accuracy down to ~1e-10 and absolute eps*sigma_max below.
  for (Index i = 0; i < 7; ++i) {
    const double tol =
        std::max(1e-10 * spectrum[i], 5e-16 * spectrum[0] * 100.0);
    EXPECT_NEAR(f.s[i], spectrum[i], tol) << "sigma " << i;
  }
}

TEST(Eigh, RankKeepsLeadingPairsJacobi) {
  // The Jacobi oracle's rank argument truncates its full result.
  const Matrix a = random_symmetric(20, 13);
  const EighResult full = oracle::eigh_jacobi(a);
  for (const Index rank : {Index{1}, Index{7}, Index{20}, Index{25}}) {
    const EighResult e = oracle::eigh_jacobi(a, rank);
    const Index k = std::min<Index>(rank, 20);
    ASSERT_EQ(e.values.size(), k);
    ASSERT_EQ(e.vectors.cols(), k);
    for (Index j = 0; j < k; ++j) {
      EXPECT_EQ(e.values[j], full.values[j]) << "rank " << rank;
      for (Index i = 0; i < 20; ++i) EXPECT_EQ(e.vectors(i, j), full.vectors(i, j));
    }
  }
}

TEST(SvdOracle, RankKeepsLeadingTriplets) {
  // Tall (QR-preconditioned) and wide (transposed) inputs alike.
  for (const auto& a : {testing::random_matrix(30, 8, 14), testing::random_matrix(6, 25, 15)}) {
    const SvdResult full = oracle::svd_jacobi(a);
    const SvdResult f = oracle::svd_jacobi(a, 3);
    ASSERT_EQ(f.s.size(), 3);
    ASSERT_EQ(f.u.cols(), 3);
    ASSERT_EQ(f.v.cols(), 3);
    for (Index j = 0; j < 3; ++j) EXPECT_EQ(f.s[j], full.s[j]);
    testing::expect_matrix_near(f.u, full.u.left_cols(3), 0.0);
    testing::expect_matrix_near(f.v, full.v.left_cols(3), 0.0);
  }
}

}  // namespace
}  // namespace parsvd
