// Singular value decomposition front-end and backends.
//
// One SVD family, two routes to it:
//   * GolubKahan        — Householder bidiagonalization + implicit-shift
//                         QR on the bidiagonal: the LAPACK route that the
//                         paper's np.linalg.svd takes, and the default.
//                         singular_values() and pinv() use it.
//   * MethodOfSnapshots — eigendecomposition of the n x n Gram matrix AᵀA.
//                         O(m n^2) with a tiny constant; the classical POD
//                         route and the one the APMOS paper assumes when
//                         m >> n. Loses half the digits for σ near
//                         sqrt(eps)·σ_max, which tests document.
// Golub–Kahan's accuracy is absolute (eps·σ_max), not relative: σ far
// below σ_max carry that absolute error. The test suite cross-validates
// both backends against an independent one-sided Jacobi SVD
// (tests/oracle), which is not part of the library. Both backends rescale
// inputs far from unit scale by an exact power of two
// (safe_scale_exponent), so they handle entries near 1e±300, and both
// throw NonFiniteError on a NaN or infinite entry.
//
// The convention throughout: thin SVD A = U diag(s) Vᵀ with U (m x r),
// s descending and non-negative, V (n x r), r = min(m, n) (or the
// requested truncation). V is returned untransposed.
#pragma once

#include "linalg/eigh.hpp"
#include "linalg/matrix.hpp"

namespace parsvd {

struct SvdResult {
  Matrix u;   ///< left singular vectors, one per column
  Vector s;   ///< singular values, descending, >= 0
  Matrix v;   ///< right singular vectors, one per column (not transposed)

  /// U diag(s) Vᵀ — reconstruction used by tests and error metrics.
  Matrix reconstruct() const;
};

enum class SvdMethod {
  MethodOfSnapshots,
  GolubKahan,
};

struct SvdOptions {
  SvdMethod method = SvdMethod::GolubKahan;
  /// Keep only the leading `rank` triplets; 0 = full thin SVD. Both
  /// backends form only the kept vectors, so their vector cost is
  /// O(rank), not O(min(m, n)). Golub–Kahan at min(m, n) >= 64 finds
  /// well-separated kept triplets (each σ more than 1e-3·σ_1 above the
  /// next) by bisection and inverse iteration, without its QR sweep.
  Index rank = 0;
  /// Eigensolver of the MethodOfSnapshots backend's Gram matrix (there
  /// is one, eigh()).
  EighMethod eigh_method = EighMethod::Tridiagonal;
};

/// Thin SVD of a general dense matrix (Golub–Kahan unless opts.method
/// says otherwise).
SvdResult svd(const Matrix& a, const SvdOptions& opts = {});

/// Direct entry points for the individual backends (used by tests and
/// by callers that know their matrix shape).
SvdResult svd_method_of_snapshots(const Matrix& a, const SvdOptions& opts = {});
SvdResult svd_golub_kahan(const Matrix& a, const SvdOptions& opts = {});

/// The method of snapshots without its left factor: σ and the kept
/// right vectors V from eigh(AᵀA) (with the backend's rescaling and
/// non-finite guards); `u` stays empty, so the 2·m·n·rank flops of
/// U = A V Σ⁻¹ are skipped. σ and V are bit-identical to
/// svd_method_of_snapshots' at the same rank (0 = all).
SvdResult snapshots_right_vectors(const Matrix& a, Index rank);

/// Singular values only: the Golub–Kahan sweep without its rotation logs,
/// replay or back-transforms, bit-identical to svd(a).s. Accurate to
/// eps·σ_max absolutely.
Vector singular_values(const Matrix& a);

/// Moore-Penrose pseudoinverse via svd(); singular values below
/// rcond * s_max are treated as zero (NumPy-compatible default).
Matrix pinv(const Matrix& a, double rcond = 1e-15);

/// Deterministic sign convention applied to an SVD: for every column j of
/// U, the entry of largest magnitude is made positive (ties broken by the
/// lowest index) and V's column is flipped to match.  Serial and
/// distributed runs then produce directly comparable modes.
void fix_svd_signs(Matrix& u, Matrix& v);

/// Variant for callers that only carry U (e.g. streaming modes).
void fix_mode_signs(Matrix& u);

}  // namespace parsvd
