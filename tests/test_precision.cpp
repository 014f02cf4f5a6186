// Compensated-accumulation and autotune-profile contracts (DESIGN §12):
// compensated dot/Gram survive catastrophic cancellation that naive fp64
// summation loses entirely, and the autotune profile round-trips through
// its JSON persistence, including profiles written with an extra "f32"
// section by earlier releases.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "linalg/autotune.hpp"
#include "linalg/blas.hpp"

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

TEST(Autotune, ProfileRoundTripsThroughJson) {
  autotune::Profile p;
  p.f64 = {128, 384, 4096, 8, 6};
  p.qr_block = 48;
  p.tuned = true;
  const std::string path = ::testing::TempDir() + "parsvd_tune_roundtrip.json";
  autotune::save_profile(p, path);
  autotune::Profile loaded;
  ASSERT_TRUE(autotune::load_profile(path, loaded));
  EXPECT_EQ(loaded, p);

  // A profile saved before the fp32 engine was removed still carries an
  // "f32" section; it loads, and the section is ignored.
  {
    std::ofstream out(path);
    out << "{\n  \"schema_version\": 1,\n  \"tuned\": true,\n"
        << "  \"f64\": {\"mc\": 128, \"kc\": 384, \"nc\": 4096, \"mr\": 8, "
           "\"nr\": 6},\n"
        << "  \"f32\": {\"mc\": 64, \"kc\": 512, \"nc\": 4032, \"mr\": 16, "
           "\"nr\": 6},\n"
        << "  \"qr_block\": 48\n}\n";
  }
  autotune::Profile legacy;
  ASSERT_TRUE(autotune::load_profile(path, legacy));
  EXPECT_EQ(legacy, p);
  std::remove(path.c_str());
}

TEST(Autotune, VersionMismatchIsRejected) {
  const std::string path = ::testing::TempDir() + "parsvd_tune_badver.json";
  {
    std::ofstream out(path);
    out << "{\n  \"schema_version\": 99,\n  \"tuned\": true,\n"
        << "  \"f64\": {\"mc\": 96, \"kc\": 256, \"nc\": 4032, \"mr\": 8, "
           "\"nr\": 6},\n"
        << "  \"f32\": {\"mc\": 96, \"kc\": 512, \"nc\": 4032, \"mr\": 16, "
           "\"nr\": 6},\n"
        << "  \"qr_block\": 32\n}\n";
  }
  autotune::Profile loaded = autotune::default_profile();
  const autotune::Profile before = loaded;
  EXPECT_FALSE(autotune::load_profile(path, loaded));
  EXPECT_EQ(loaded, before);  // untouched on rejection
  std::remove(path.c_str());
}

TEST(Autotune, SanitizeClampsToLegalFeasibleBlocking) {
  const autotune::Blocking fallback = autotune::default_profile().f64;
  // Nonsense request: tiny/huge blocks and an uninstantiated micro tile.
  autotune::Blocking wild{1, 100000, 3, 5, 7};
  const autotune::Blocking fixed = autotune::sanitize(wild, fallback);
  EXPECT_TRUE(detail::has_kernel_f64(fixed.mr, fixed.nr));
  EXPECT_GE(fixed.mc, fixed.mr);
  EXPECT_EQ(fixed.mc % fixed.mr, 0);
  EXPECT_GE(fixed.nc, fixed.nr);
  EXPECT_EQ(fixed.nc % fixed.nr, 0);
  EXPECT_GE(fixed.kc, 8);
  EXPECT_LE(fixed.kc, 8192);
  // Sane requests pass through unchanged.
  const autotune::Blocking ok = autotune::sanitize(fallback, fallback);
  EXPECT_EQ(ok, fallback);
}

TEST(Autotune, DefaultProfileIsFeasible) {
  const autotune::Profile p = autotune::default_profile();
  EXPECT_TRUE(detail::has_kernel_f64(p.f64.mr, p.f64.nr));
  EXPECT_FALSE(p.tuned);
  EXPECT_GT(p.qr_block, 0);
  // The active profile (whatever env this test runs under) is feasible
  // too — resolution always ends in sanitize().
  const autotune::Profile& active = autotune::active_profile();
  EXPECT_TRUE(detail::has_kernel_f64(active.f64.mr, active.f64.nr));
}

}  // namespace
}  // namespace parsvd
