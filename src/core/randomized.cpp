#include "core/randomized.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "sketch/sketch.hpp"

namespace parsvd {

Matrix randomized_range_finder(const Matrix& a, const RandomizedOptions& opts,
                               Rng& rng) {
  PARSVD_REQUIRE(!a.empty(), "range finder of an empty matrix");
  PARSVD_REQUIRE(opts.rank > 0, "randomized rank must be positive");

  const Index n = a.cols();
  const Index sk =
      std::min(opts.rank + opts.oversampling, std::min(a.rows(), n));

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
  const Matrix q = randomized_range_finder(a, opts, rng);
  // B = Qᵀ A is (r + p) x n — small enough for a dense SVD.
  SvdResult f = svd(matmul(q, a, Trans::Yes, Trans::No));
  f.u = matmul(q, f.u);

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
