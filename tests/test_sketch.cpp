// Gaussian sketch-operator tests: apply-vs-realize agreement, the
// per-global-row seeding contract (partition-invariant realization), a
// literal pin of Ω across commits, counters and input validation.
#include <gtest/gtest.h>

#include <algorithm>

#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "sketch/sketch.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using sketch::GaussianSketch;
using testing::expect_matrix_near;

TEST(Sketch, OperatorSeedSeparatesDraws) {
  const std::uint64_t base = 0xfeedULL;
  const std::uint64_t first = sketch::derive_operator_seed(base, 0);
  EXPECT_NE(first, sketch::derive_operator_seed(base, 1));
  EXPECT_NE(first, sketch::derive_operator_seed(base + 1, 0));
  // And the derivation is a pure function.
  EXPECT_EQ(first, sketch::derive_operator_seed(base, 0));
}

TEST(Sketch, RealizationPinnedAcrossCommits) {
  // Exact Ω entries for the randomized SVD's default seed: any change to
  // the seed derivation, the per-row generator or the Gaussian sampler
  // changes every sketch the library draws, so it must show up here.
  const std::uint64_t seed0 = sketch::derive_operator_seed(0x5eed, 0);
  const std::uint64_t seed1 = sketch::derive_operator_seed(0x5eed, 1);
  EXPECT_EQ(seed0, 0xe71e48313b5aca5cULL);
  EXPECT_EQ(seed1, 0x7f12a232a3a6bd43ULL);

  const Matrix w0 = GaussianSketch(16, 4, seed0).realize_rows(0, 16);
  const double row0[] = {0x1.35f38ab93225ap-2, -0x1.1fc47f43a9334p-3,
                         -0x1.4a3eab1d52772p+0, -0x1.7582eadf02a9dp-1};
  const double row15[] = {0x1.126155383016cp-2, -0x1.9360e1aba0048p-5,
                          -0x1.3cc3bf9e46ddfp-4, -0x1.9df1c5f50a847p-2};
  const Matrix w1 = GaussianSketch(16, 4, seed1).realize_rows(7, 1);
  const double draw1_row7[] = {0x1.fdc3fef5da223p+0, 0x1.5f17e5d144726p-2,
                               0x1.2a576a3a85c26p+0, -0x1.f430b7601f19p-3};
  for (Index k = 0; k < 4; ++k) {
    EXPECT_EQ(w0(0, k), row0[k]) << "draw 0 row 0 col " << k;
    EXPECT_EQ(w0(15, k), row15[k]) << "draw 0 row 15 col " << k;
    EXPECT_EQ(w1(0, k), draw1_row7[k]) << "draw 1 row 7 col " << k;
  }
}

TEST(Sketch, ApplyRightMatchesRealizedOperator) {
  // Y = A Ω through the GEMM path must equal the dense realization of Ω
  // pushed through a reference matmul.
  const Index m = 23;
  const Index d = 24;
  const Index s = 10;
  const Matrix a = testing::random_matrix(m, d, 31);
  const GaussianSketch op(d, s, 0xabcdULL);
  const Matrix omega = op.realize_rows(0, d);
  ASSERT_EQ(omega.rows(), d);
  ASSERT_EQ(omega.cols(), s);
  const Matrix want = testing::naive_matmul(a, omega);
  expect_matrix_near(op.apply_right(a), want, 1e-12 * static_cast<double>(d),
                     "fp64");
}

TEST(Sketch, RealizeRowsPartitionInvariant) {
  // The per-global-row derivation makes any blocking of the rows
  // bit-identical to the one-shot realization.
  const Index d = 37;
  const Index s = 9;
  const GaussianSketch op(d, s, 0x1234ULL);
  const Matrix whole = op.realize_rows(0, d);
  for (Index block : {1, 5, 16}) {
    for (Index r0 = 0; r0 < d; r0 += block) {
      const Index nr = std::min(block, d - r0);
      const Matrix part = op.realize_rows(r0, nr);
      for (Index r = 0; r < nr; ++r) {
        for (Index k = 0; k < s; ++k) {
          EXPECT_EQ(part(r, k), whole(r0 + r, k)) << "row " << (r0 + r);
        }
      }
    }
  }
}

TEST(Sketch, CountersRecordApplies) {
  const Matrix a = testing::random_matrix(8, 16, 51);
  const GaussianSketch op(16, 4, 0x5ULL);
  obs::Counter& applies =
      obs::Registry::global().counter("sketch.dense_gaussian.applies");
  obs::Counter& flops =
      obs::Registry::global().counter("sketch.dense_gaussian.flops");
  const std::uint64_t applies0 = applies.value();
  const std::uint64_t flops0 = flops.value();
  (void)op.apply_right(a);
  EXPECT_EQ(applies.value(), applies0 + 1);
  EXPECT_EQ(flops.value(),
            flops0 + static_cast<std::uint64_t>(op.apply_flops(8)));
}

TEST(Sketch, ShapeValidation) {
  const GaussianSketch op(16, 4, 1);
  const Matrix wrong = testing::random_matrix(8, 15, 61);
  EXPECT_THROW(op.apply_right(wrong), Error);
  EXPECT_THROW(op.apply_right(Matrix()), Error);
  EXPECT_THROW(op.realize_rows(12, 5), Error);  // 12 + 5 > 16
  EXPECT_THROW(GaussianSketch(0, 4, 1), Error);
  EXPECT_THROW(GaussianSketch(16, 0, 1), Error);
}

}  // namespace
}  // namespace parsvd
