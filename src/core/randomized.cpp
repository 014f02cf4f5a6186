#include "core/randomized.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "sketch/sketch.hpp"

namespace parsvd {

namespace {

Index sketch_width(const Matrix& a, const RandomizedOptions& opts) {
  return std::min(opts.rank + opts.oversampling, std::min(a.rows(), a.cols()));
}

/// fp32 range-finder core shared by the Single and Mixed regimes: the
/// sketch apply and every power-iteration GEMM run on float buffers
/// through the packed fp32 engine. The fp32 copy of A is returned too so
/// the Single path can project without re-converting.
struct RangeF32 {
  MatrixF af;
  MatrixF q;
};

RangeF32 range_finder_f32(const Matrix& a, const RandomizedOptions& opts,
                          Rng& rng) {
  const Index sk = sketch_width(a, opts);
  const sketch::GaussianSketch op(
      a.cols(), sk, sketch::derive_operator_seed(rng.next_u64(), 0));

  // Orthonormalizations here are CholeskyQR2, not MGS2: at range-finder
  // shapes (tall, sketch-width columns) MGS2's dot/axpy sweeps are
  // memory-bound and eat as much wall time as the GEMMs they sit
  // between, which would wash out the fp32 savings end-to-end. CholQR2
  // is all level-3 and falls back to MGS2 on breakdown (qr.hpp).
  RangeF32 r;
  r.af = to_single(a);
  op.apply_right_f32(r.af, r.q);
  orthonormalize_cholqr2_f32(r.q);

  if (opts.power_iterations > 0) {
    MatrixF z(a.cols(), sk);
    for (int it = 0; it < opts.power_iterations; ++it) {
      gemm_f32(Trans::Yes, Trans::No, 1.0f, r.af, r.q, 0.0f, z);
      orthonormalize_cholqr2_f32(z);
      gemm_f32(Trans::No, Trans::No, 1.0f, r.af, z, 0.0f, r.q);
      orthonormalize_cholqr2_f32(r.q);
    }
  }
  return r;
}

}  // namespace

Matrix randomized_range_finder(const Matrix& a, const RandomizedOptions& opts,
                               Rng& rng) {
  PARSVD_REQUIRE(!a.empty(), "range finder of an empty matrix");
  PARSVD_REQUIRE(opts.rank > 0, "randomized rank must be positive");

  if (opts.precision != Precision::Double) {
    // The refinement pass (DESIGN §12): Mixed trades the LAST fp32 power
    // iteration for an fp64 one. The fp32 sketch + early iterations buy
    // the throughput; the final fp64 power step contracts the fp32
    // subspace noise by the spectral gap ratio (twice — once per half
    // step) with no fp32 rounding floor, and the fp64
    // re-orthogonalizations hand the downstream fp64 Rayleigh-Ritz
    // projection an orthonormal basis. Net: singular values track the
    // all-fp64 path quadratically in the contracted angle, at ~2/3 of
    // its GEMM cost. With power_iterations == 0 there is no iteration to
    // trade; Mixed then degrades to sketch-in-fp32 + fp64 re-orth, which
    // keeps the same algorithm shape as Double (no extra iteration that
    // would change what is being computed).
    const bool refine_iter =
        opts.precision == Precision::Mixed && opts.power_iterations > 0;
    RandomizedOptions inner = opts;
    if (refine_iter) inner.power_iterations = opts.power_iterations - 1;
    RangeF32 r = range_finder_f32(a, inner, rng);
    Matrix y = to_double(r.q);
    if (opts.precision == Precision::Mixed) {
      orthonormalize_cholqr2(y);
      if (refine_iter) {
        Matrix z(a.cols(), sketch_width(a, opts));
        gemm(Trans::Yes, Trans::No, 1.0, a, y, 0.0, z);
        orthonormalize_cholqr2(z);
        gemm(Trans::No, Trans::No, 1.0, a, z, 0.0, y);
        orthonormalize_cholqr2(y);
      }
    }
    return y;
  }

  const Index n = a.cols();
  const Index sk = sketch_width(a, opts);

  // One value off the caller's stream seeds the operator through the
  // documented split — the stream still advances per draw (fresh Ω per
  // call), and the operator's own randomness is per-global-row so the
  // same seed realizes the same Ω on every rank.
  const sketch::GaussianSketch op(
      n, sk, sketch::derive_operator_seed(rng.next_u64(), 0));
  Matrix y;
  op.apply_right(a, y);
  orthonormalize_mgs2(y);

  // Y ← orth(A (Aᵀ Y)); the inner orthonormalization keeps the power
  // iterates from collapsing onto the top singular direction. Z and Y
  // are allocated once and written in place by the kernels each pass.
  if (opts.power_iterations > 0) {
    Matrix z(n, sk);
    for (int it = 0; it < opts.power_iterations; ++it) {
      gemm(Trans::Yes, Trans::No, 1.0, a, y, 0.0, z);
      orthonormalize_mgs2(z);
      gemm(Trans::No, Trans::No, 1.0, a, z, 0.0, y);
      orthonormalize_mgs2(y);
    }
  }
  return y;
}

SvdResult randomized_svd(const Matrix& a, const RandomizedOptions& opts,
                         Rng& rng) {
  SvdOptions inner;
  inner.method = opts.inner_method;
  SvdResult f;
  Matrix q;

  if (opts.precision == Precision::Single) {
    // Coarse fp32-throughout path: the projection B = Qᵀ A also runs in
    // fp32, so singular values carry fp32-level error. Bench/ablation
    // regime — Mixed is the accuracy-preserving fast path.
    PARSVD_REQUIRE(!a.empty(), "randomized SVD of an empty matrix");
    PARSVD_REQUIRE(opts.rank > 0, "randomized rank must be positive");
    RangeF32 r = range_finder_f32(a, opts, rng);
    const Matrix b = to_double(matmul_f32(r.q, r.af, Trans::Yes, Trans::No));
    f = svd(b, inner);
    f.u = matmul(to_double(r.q), f.u);
  } else {
    // Double and Mixed share the fp64 Rayleigh-Ritz projection; they
    // differ only inside randomized_range_finder (Mixed runs the sketch
    // and all but the last power iteration in fp32, then finishes in
    // fp64 — see the refinement note there).
    q = randomized_range_finder(a, opts, rng);
    // B = Qᵀ A is (r + p) x n — small enough for a dense SVD.
    const Matrix b = matmul(q, a, Trans::Yes, Trans::No);
    f = svd(b, inner);
    f.u = matmul(q, f.u);
  }

  const Index keep = std::min(opts.rank, f.s.size());
  f.u = f.u.left_cols(keep);
  f.v = f.v.left_cols(keep);
  f.s = f.s.head(keep);
  return f;
}

SvdResult randomized_svd(const Matrix& a, const RandomizedOptions& opts) {
  Rng rng(opts.seed);
  return randomized_svd(a, opts, rng);
}

}  // namespace parsvd
