// Randomized SVD tests: planted-spectrum recovery, oversampling and
// power-iteration effects, determinism, range-finder quality.
#include <gtest/gtest.h>

#include <cmath>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "test_utils.hpp"
#include "workloads/lowrank.hpp"

namespace parsvd {
namespace {

using testing::ortho_defect;
using workloads::geometric_spectrum;
using workloads::synthetic_low_rank;

// Moderately decaying spectrum for the near-optimal reconstruction test.
Vector algebraic_spectrum_for_test() {
  return workloads::algebraic_spectrum(50, 1.0, 1.0);
}

TEST(RangeFinder, ColumnsOrthonormal) {
  Rng rng(1);
  const Matrix a = Matrix::gaussian(60, 30, rng);
  RandomizedOptions opts;
  opts.rank = 8;
  opts.oversampling = 4;
  Rng sketch(2);
  const Matrix q = randomized_range_finder(a, opts, sketch);
  ASSERT_EQ(q.rows(), 60);
  ASSERT_EQ(q.cols(), 12);
  EXPECT_LT(ortho_defect(q), 1e-12);
}

TEST(RangeFinder, SketchCappedByMatrixSize) {
  Rng rng(3);
  const Matrix a = Matrix::gaussian(10, 5, rng);
  RandomizedOptions opts;
  opts.rank = 20;
  opts.oversampling = 20;
  Rng sketch(4);
  const Matrix q = randomized_range_finder(a, opts, sketch);
  EXPECT_EQ(q.cols(), 5);
}

TEST(RangeFinder, CapturesExactLowRankRange) {
  Rng rng(5);
  const Matrix a = synthetic_low_rank(80, 40, geometric_spectrum(5, 1.0, 0.5), rng);
  RandomizedOptions opts;
  opts.rank = 5;
  opts.oversampling = 5;
  Rng sketch(6);
  const Matrix q = randomized_range_finder(a, opts, sketch);
  // || A - Q Qᵀ A ||_F should be ~0 for an exactly rank-5 matrix.
  const Matrix proj = matmul(q, matmul(q, a, Trans::Yes, Trans::No));
  EXPECT_LT((a - proj).norm_fro(), 1e-10);
}

TEST(RandomizedSvd, RecoversExactLowRank) {
  Rng rng(7);
  const Vector spectrum = geometric_spectrum(6, 10.0, 0.4);
  const Matrix a = synthetic_low_rank(100, 50, spectrum, rng);
  RandomizedOptions opts;
  opts.rank = 6;
  opts.oversampling = 6;
  const SvdResult f = randomized_svd(a, opts);
  ASSERT_EQ(f.s.size(), 6);
  for (Index i = 0; i < 6; ++i) {
    EXPECT_NEAR(f.s[i], spectrum[i], 1e-9 * spectrum[0]) << "sigma " << i;
  }
  EXPECT_LT(ortho_defect(f.u), 1e-10);
  EXPECT_LT(ortho_defect(f.v), 1e-10);
}

TEST(RandomizedSvd, ReconstructionNearOptimal) {
  // For a noisy matrix, the rank-k randomized error should be within a
  // modest factor of the optimal (truncated deterministic) error.
  Rng rng(8);
  const Matrix a =
      synthetic_low_rank(80, 60, algebraic_spectrum_for_test(), rng);
  RandomizedOptions opts;
  opts.rank = 10;
  opts.oversampling = 8;
  opts.power_iterations = 2;
  const SvdResult rand_f = randomized_svd(a, opts);
  SvdOptions dopts;
  dopts.rank = 10;
  const SvdResult det_f = svd(a, dopts);

  const double err_rand = (a - rand_f.reconstruct()).norm_fro();
  const double err_det = (a - det_f.reconstruct()).norm_fro();
  EXPECT_LE(err_rand, 1.5 * err_det + 1e-12);
}

TEST(RandomizedSvd, PowerIterationsImproveSlowDecay) {
  Rng rng(9);
  // Slow decay: randomized SVD without power iterations struggles.
  const Vector spectrum = workloads::algebraic_spectrum(40, 1.0, 0.5);
  const Matrix a = synthetic_low_rank(120, 60, spectrum, rng);

  RandomizedOptions no_power;
  no_power.rank = 8;
  no_power.oversampling = 2;
  no_power.power_iterations = 0;
  no_power.seed = 42;
  RandomizedOptions with_power = no_power;
  with_power.power_iterations = 3;

  const double err0 =
      (a - randomized_svd(a, no_power).reconstruct()).norm_fro();
  const double err3 =
      (a - randomized_svd(a, with_power).reconstruct()).norm_fro();
  EXPECT_LE(err3, err0 + 1e-12);
}

TEST(RandomizedSvd, DeterministicPerSeed) {
  Rng rng(10);
  const Matrix a = Matrix::gaussian(40, 20, rng);
  RandomizedOptions opts;
  opts.rank = 5;
  opts.seed = 99;
  const SvdResult f1 = randomized_svd(a, opts);
  const SvdResult f2 = randomized_svd(a, opts);
  testing::expect_matrix_near(f1.u, f2.u, 0.0);
  testing::expect_vector_near(f1.s, f2.s, 0.0);
}

TEST(RandomizedSvd, DifferentSeedsStillAccurate) {
  Rng rng(11);
  const Vector spectrum = geometric_spectrum(4, 5.0, 0.3);
  const Matrix a = synthetic_low_rank(50, 30, spectrum, rng);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    RandomizedOptions opts;
    opts.rank = 4;
    opts.seed = seed;
    const SvdResult f = randomized_svd(a, opts);
    EXPECT_NEAR(f.s[0], spectrum[0], 1e-8) << "seed " << seed;
  }
}

TEST(RandomizedSvd, SingularValuesPinnedAcrossCommits) {
  // σ of one fixed call at the default seed, recorded as literals. The
  // Gaussian Ω is pinned bit-exactly in test_sketch.cpp; here a change of
  // Ω moves σ far beyond the 1e-12 relative tolerance, which only leaves
  // room for the kernels' rounding on other hosts (FMA, vector width).
  Rng rng(17);
  const Matrix a = synthetic_low_rank(
      60, 40, workloads::algebraic_spectrum(20, 1.0, 1.0), rng);
  RandomizedOptions opts;
  opts.rank = 5;
  opts.oversampling = 5;
  opts.power_iterations = 1;
  const SvdResult f = randomized_svd(a, opts);
  const double want[] = {0x1.fffff4e95df01p-1, 0x1.fffec498f4803p-2,
                         0x1.55385aec55c11p-2, 0x1.fefe37d8b75b8p-3,
                         0x1.997c9697234ffp-3};
  ASSERT_EQ(f.s.size(), 5);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_NEAR(f.s[i], want[i], 1e-12 * want[i]) << "sigma " << i;
  }
}

TEST(RandomizedSvd, CallerOwnedRngAdvances) {
  // Two calls with the same generator must consume the stream (fresh
  // sketch per call, as the paper prescribes). On an exactly rank-3
  // matrix both sketches recover the exact spectrum, so the values agree
  // even though the sketches differ.
  Rng rng(12);
  const Matrix a =
      synthetic_low_rank(30, 15, geometric_spectrum(3, 2.0, 0.5), rng);
  RandomizedOptions opts;
  opts.rank = 3;
  Rng stream(55);
  const SvdResult f1 = randomized_svd(a, opts, stream);
  const SvdResult f2 = randomized_svd(a, opts, stream);
  testing::expect_vector_near(f1.s, f2.s, 1e-9);
  // The generator moved: a fresh generator at the same seed reproduces
  // the FIRST call bit-for-bit.
  Rng fresh(55);
  const SvdResult f3 = randomized_svd(a, opts, fresh);
  testing::expect_matrix_near(f3.u, f1.u, 0.0);
  // And the second call's state differs from the first's start state.
  Rng fresh2(55);
  EXPECT_NE(stream.next_u64(), fresh2.next_u64());
}

TEST(RandomizedSvd, RankValidation) {
  Rng rng(13);
  const Matrix a = Matrix::gaussian(10, 10, rng);
  RandomizedOptions opts;
  opts.rank = 0;
  EXPECT_THROW(randomized_svd(a, opts), Error);
}

TEST(RandomizedSvd, InnerSvdRecoversLeadingSigma) {
  Rng rng(14);
  const Vector spectrum = geometric_spectrum(3, 2.0, 0.5);
  const Matrix a = synthetic_low_rank(40, 20, spectrum, rng);
  RandomizedOptions opts;
  opts.rank = 3;
  const SvdResult f = randomized_svd(a, opts);
  EXPECT_NEAR(f.s[0], spectrum[0], 1e-8);
}

}  // namespace
}  // namespace parsvd
