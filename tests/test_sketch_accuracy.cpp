// Accuracy sweep for the Gaussian-sketched randomized SVD: the
// Halko-style spectral-error bound on synthetic decaying spectra, an
// adversarial spiked spectrum, exact low-rank recovery, and a
// cross-backend check against the deterministic SVD.
#include <gtest/gtest.h>

#include <cmath>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "test_utils.hpp"
#include "workloads/lowrank.hpp"

namespace parsvd {
namespace {

using workloads::synthetic_low_rank;

// sqrt(Σ_{i >= k} σ_i²) — the Frobenius error of the optimal rank-k
// approximation, the yardstick of the Halko bound.
double tail_fro(const Vector& spectrum, Index k) {
  double sum = 0.0;
  for (Index i = k; i < spectrum.size(); ++i) sum += spectrum[i] * spectrum[i];
  return std::sqrt(sum);
}

double projection_residual(const Matrix& a, const Matrix& q) {
  const Matrix proj = matmul(q, matmul(q, a, Trans::Yes, Trans::No));
  return (a - proj).norm_fro();
}

// Range-finder residual at the given oversampling.
double residual_for(const Matrix& a, Index rank, Index oversampling,
                    std::uint64_t seed) {
  RandomizedOptions opts;
  opts.rank = rank;
  opts.oversampling = oversampling;
  Rng rng(seed);
  const Matrix q = randomized_range_finder(a, opts, rng);
  return projection_residual(a, q);
}

TEST(SketchAccuracy, HalkoBoundOnAlgebraicSpectrum) {
  // σ_i = 1/(1+i): slow decay, a meaningful tail at every truncation.
  // With oversampling 10 the expected residual is (1 + r/(p-1))^{1/2} ≈
  // 1.5x the optimal tail; 3x leaves deterministic-seed headroom.
  Rng rng(101);
  const Vector spectrum = workloads::algebraic_spectrum(40, 1.0, 1.0);
  const Matrix a = synthetic_low_rank(120, 80, spectrum, rng);
  const Index rank = 10;
  const double optimal = tail_fro(spectrum, rank);
  EXPECT_LE(residual_for(a, rank, 10, 0x5eedULL), 3.0 * optimal);
}

TEST(SketchAccuracy, HalkoBoundOnGeometricSpectrum) {
  Rng rng(102);
  const Vector spectrum = workloads::geometric_spectrum(30, 10.0, 0.8);
  const Matrix a = synthetic_low_rank(100, 60, spectrum, rng);
  const Index rank = 8;
  const double optimal = tail_fro(spectrum, rank);
  EXPECT_LE(residual_for(a, rank, 10, 0x5eedULL), 3.0 * optimal);
}

TEST(SketchAccuracy, AdversarialSpikedSpectrum) {
  // Two huge spikes over a flat noise floor: the classic case where a
  // sketch that misses a spike direction is catastrophically wrong.
  Rng rng(103);
  Vector spectrum(32);
  spectrum[0] = 100.0;
  spectrum[1] = 50.0;
  for (Index i = 2; i < spectrum.size(); ++i) spectrum[i] = 0.01;
  const Matrix a = synthetic_low_rank(96, 64, spectrum, rng);
  RandomizedOptions opts;
  opts.rank = 2;
  opts.oversampling = 10;
  const SvdResult f = randomized_svd(a, opts);
  ASSERT_EQ(f.s.size(), 2);
  EXPECT_NEAR(f.s[0], 100.0, 1.0);
  EXPECT_NEAR(f.s[1], 50.0, 1.0);
}

TEST(SketchAccuracy, ExactLowRankRecovered) {
  Rng rng(105);
  const Vector spectrum = workloads::geometric_spectrum(5, 4.0, 0.5);
  const Matrix a = synthetic_low_rank(80, 48, spectrum, rng);
  RandomizedOptions opts;
  opts.rank = 5;
  opts.oversampling = 10;
  const SvdResult f = randomized_svd(a, opts);
  ASSERT_EQ(f.s.size(), 5);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_NEAR(f.s[i], spectrum[i], 1e-8 * spectrum[0]) << "sigma " << i;
  }
}

TEST(SketchAccuracy, CrossBackendAgreesWithDeterministicSvd) {
  // Sketched randomized SVD vs the deterministic backend within the
  // ablation tolerance (reconstruction error within 1.5x of optimal).
  Rng rng(106);
  const Vector spectrum = workloads::algebraic_spectrum(50, 1.0, 1.0);
  const Matrix a = synthetic_low_rank(100, 70, spectrum, rng);
  SvdOptions dopts;
  dopts.rank = 10;
  const double err_det = (a - svd(a, dopts).reconstruct()).norm_fro();
  RandomizedOptions opts;
  opts.rank = 10;
  opts.oversampling = 10;
  opts.power_iterations = 2;
  const double err = (a - randomized_svd(a, opts).reconstruct()).norm_fro();
  EXPECT_LE(err, 1.5 * err_det + 1e-12);
}

}  // namespace
}  // namespace parsvd
