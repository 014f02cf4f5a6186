// QR factorizations.
//
// Householder QR is the workhorse of both the streaming SVD update
// (Algorithm 1, step 1) and the local stage of TSQR.  The factorization is
// *blocked*: panels of PARSVD_QR_BLOCK reflectors are factored with the
// level-2 sweep, accumulated into a compact-WY representation
// Q = I − V T Vᵀ (LAPACK larft convention, T upper triangular), and the
// trailing matrix is updated with level-3 GEMMs through the packed kernel
// engine; thin_q() and both apply paths use the same GEMMs.  A panel no
// wider than the block (the streaming update's 4096 x 20 is one) never
// leaves the level-2 sweep, so the sweep itself is vectorized: each
// reflector is applied with a multi-accumulator dot and an axpy per
// column, the reflector norm is an unscaled sum of squares with a scaled
// fallback, and T comes from one VᵀV product through the engine.  Single
// thread on a 4-core x86-64 host that took the 4096 x 20 factorization
// from ≈1.5 to ≈5.8 GF/s and the 2592 x 204 one from ≈7 to ≈24 GF/s.
// Each panel's T is built once, during the factorization, and reused by
// every later apply.  We keep the factored representation so Q·B and
// Qᵀ·B products don't need an explicit Q (the distributed TSQR applies
// it to a K-column block instead of forming the m x n local Q), and
// expose a thin-QR convenience with a deterministic sign convention:
// diag(R) >= 0.  The PyParSVD code obtains
// cross-rank consistency by negating NumPy's Q and R ("trick for
// consistency"); fixing the sign inside the factorization achieves the
// same goal deterministically for every backend and rank count.
#pragma once

#include "linalg/matrix.hpp"

namespace parsvd {

/// Thin QR result: for A (m x n), q is m x min(m,n) with orthonormal
/// columns, r is min(m,n) x n upper-triangular(-trapezoidal), A = q r.
struct QrResult {
  Matrix q;
  Matrix r;
};

/// Householder QR in factored form.
///
/// Stores the reflectors in the lower triangle of the working copy plus
/// the tau coefficients (LAPACK geqrf layout). Cost 2mn^2 - 2n^3/3 flops,
/// with the dominant share running as level-3 trailing updates when
/// min(m,n) exceeds the panel width.
class HouseholderQr {
 public:
  /// Factor A (any shape; m >= 1, n >= 1) with the default panel width
  /// (PARSVD_QR_BLOCK, default 32). A is taken by value and factored in
  /// place: a caller done with its matrix moves it in and saves the copy.
  explicit HouseholderQr(Matrix a);

  /// Factor with an explicit panel width. `block == 1` forces the
  /// unblocked column-at-a-time sweep (the reference path tests compare
  /// against); `block <= 0` selects the default.
  HouseholderQr(Matrix a, Index block);

  Index rows() const { return qr_.rows(); }
  Index cols() const { return qr_.cols(); }
  /// Number of reflectors = min(m, n).
  Index rank_bound() const { return static_cast<Index>(tau_.size()); }
  /// Panel width used for the blocked factor/apply paths.
  Index block() const { return block_; }

  /// R factor, min(m,n) x n, upper triangular/trapezoidal.
  Matrix r() const;

  /// Thin Q, m x min(m,n), orthonormal columns (apply_q on [I; 0]).
  Matrix thin_q() const;

  /// In-place B := Qᵀ B (B has m rows).
  void apply_qt(Matrix& b) const;

  /// In-place B := Q B (B has m rows).
  void apply_q(Matrix& b) const;

  /// Minimum-norm least-squares solution of min ||A x - b||_2 for m >= n
  /// with full column rank (no pivoting; throws on exactly-zero pivot).
  Vector solve_least_squares(const Vector& b) const;

 private:
  void factor_unblocked();
  void factor_blocked();
  /// Level-2 panel sweep over columns [j0, j0+jb); reflections are applied
  /// to columns [j0, update_to) only.
  void factor_panel(Index j0, Index jb, Index update_to);
  /// B := Q B (forward=false) or Qᵀ B (forward=true) for B with qr_.rows()
  /// rows, using the blocked WY representation.
  void apply_blocked(Matrix& b, bool transpose) const;

  Matrix qr_;                 // reflectors below diagonal, R on/above
  std::vector<double> tau_;   // reflector scaling coefficients
  Index block_ = 1;           // panel width used by blocked paths
  // One T per panel, built as the panel is factored: a panel's reflector
  // columns are final once it is factored (trailing updates only touch
  // later columns), so the applies reuse them bit-identically.
  std::vector<Matrix> t_;
};

/// Deterministic sign convention on an R factor: negate every row whose
/// diagonal entry is negative. Returns the applied signs (±1 per
/// diagonal entry), so Q·diag(signs) is the Q that pairs with the fixed R.
std::vector<double> fix_r_signs(Matrix& r);

/// Thin QR with the deterministic sign convention diag(R) >= 0.
QrResult qr_thin(const Matrix& a);

/// Thin QR without the sign fix (raw Householder output).
QrResult qr_thin_raw(const Matrix& a);

/// Orthonormalize the columns of `a` in place with modified Gram-Schmidt
/// applied twice (CGS2-quality orthogonality, ~2mn^2 flops). Columns that
/// collapse below `tol * initial_norm` are replaced with zeros and their
/// count is returned (rank deficiency indicator).
Index orthonormalize_mgs2(Matrix& a, double tol = 1e-12);

/// || QᵀQ - I ||_max — orthogonality defect used widely in tests.
double orthogonality_error(const Matrix& q);

}  // namespace parsvd
