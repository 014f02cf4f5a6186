// Randomized SVD (paper §3.3, Halko-Martinsson-Tropp scheme).
//
//   1. Draw a dense Gaussian test matrix Ω (n x (r + p)) —
//      sketch::GaussianSketch (src/sketch/, DESIGN §10).
//   2. Sample the range: Y = A Ω, optionally refined by power iterations
//      Y ← A (Aᵀ Y) with re-orthonormalization between products.
//   3. Orthonormalize Q = qr(Y).
//   4. Project B = Qᵀ A ((r+p) x n, small), take its dense SVD.
//   5. Lift U = Q Ũ and truncate to rank r.
//
// Step 2's re-orthonormalization is essential: without it the powered
// sketch collapses onto the dominant singular direction in floating
// point.  The paper samples a fresh Ω "every time a randomized SVD is
// required"; we mirror that by advancing the RNG stream per call (one
// draw seeds the operator through sketch::derive_operator_seed).
#pragma once

#include "core/options.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "support/rng.hpp"

namespace parsvd {

/// Orthonormal basis approximating the range of `a`.
/// Returns an m x min(rank + oversampling, min(m, n)) matrix Q with
/// orthonormal columns.
Matrix randomized_range_finder(const Matrix& a, const RandomizedOptions& opts,
                               Rng& rng);

/// Rank-truncated randomized SVD with caller-owned RNG (deterministic
/// given the generator state).
SvdResult randomized_svd(const Matrix& a, const RandomizedOptions& opts,
                         Rng& rng);

/// Convenience overload seeding a fresh generator from opts.seed.
SvdResult randomized_svd(const Matrix& a, const RandomizedOptions& opts);

}  // namespace parsvd
