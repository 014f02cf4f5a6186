// Compensated-accumulation and kernel-blocking contracts (DESIGN §12):
// compensated dot/Gram survive catastrophic cancellation that naive fp64
// summation loses entirely, and the blocking constants are the values the
// committed benchmark numbers ran with.
#include <gtest/gtest.h>

#include <vector>

#include "linalg/autotune.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"

namespace parsvd {
namespace {

TEST(PrecisionCompensated, DotRecoversCatastrophicCancellation) {
  // Products are [1e17, 3, -1e17]: naive fp64 rounds 1e17 + 3 back to
  // 1e17 (ulp is 16 there) and returns 0; Dot2 keeps the 3 exactly.
  const std::vector<double> x = {1e9, 1.5, 1e9};
  const std::vector<double> y = {1e8, 2.0, -1e8};
  EXPECT_EQ(dot_compensated(x, y), 3.0);
}

TEST(PrecisionCompensated, GramBeatsNaiveOnIllConditionedColumns) {
  // Columns of huge alternating-sign entries plus a small signal: every
  // cross dot cancels catastrophically. Entries are chosen so products
  // and the true sums are exactly representable, making the compensated
  // result exact while naive summation loses the signal.
  // The first 62 rows of c0 alternate ±1e9 (31 exactly cancelling pairs
  // against the constant-1e8 c1); the last two rows carry the small
  // signal. The cross products are [1e17, -1e17, ..., 3.0, 0.0]: the big
  // pairs cancel exactly and the true dot is 3.0, but naive
  // left-to-right fp64 summation absorbs the 3.0 into a 1e17-scale
  // partial (ulp 16) and loses it. Dot2 keeps it exactly.
  const Index m = 64;
  Matrix a(m, 2);
  for (Index i = 0; i < m - 2; ++i) {
    a(i, 0) = (i % 2 == 0) ? 1e9 : -1e9;
    a(i, 1) = 1e8;
  }
  a(m - 2, 0) = 2.0;
  a(m - 2, 1) = 1.5;
  a(m - 1, 0) = 1e9;
  a(m - 1, 1) = 0.0;
  const Matrix g = gram_compensated(a);
  EXPECT_EQ(g(0, 1), 3.0);
  EXPECT_EQ(g(1, 0), 3.0);
  // And the diagonal matches long-double reference accumulation.
  long double d0 = 0.0L;
  for (Index i = 0; i < m; ++i) {
    d0 += static_cast<long double>(a(i, 0)) * static_cast<long double>(a(i, 0));
  }
  EXPECT_EQ(g(0, 0), static_cast<double>(d0));
}

TEST(Blocking, ConstantsAreTheBenchmarkedValues) {
  // bench/e2e reports these as "f64 96/256/4032 8x6 qr 32 (tuned: False)".
  constexpr autotune::Profile p = autotune::active_profile();
  EXPECT_EQ(p.f64.mc, 96);
  EXPECT_EQ(p.f64.kc, 256);
  EXPECT_EQ(p.f64.nc, 4032);
  EXPECT_EQ(p.f64.mr, 8);
  EXPECT_EQ(p.f64.nr, 6);
  EXPECT_EQ(p.qr_block, 32);
  EXPECT_FALSE(p.tuned);
  // The QR's default panel width is the constant.
  EXPECT_EQ(HouseholderQr(Matrix::identity(4)).block(), p.qr_block);
}

}  // namespace
}  // namespace parsvd
