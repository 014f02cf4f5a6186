// QR factorizations.
//
// Householder QR is the workhorse of both the streaming SVD update
// (Algorithm 1, step 1) and the local and root stages of TSQR. The
// factorization is *blocked*: panels of 32 reflectors (the constant
// qr_block of linalg/autotune.hpp) are accumulated into a compact-WY
// representation Q = I − V T Vᵀ (LAPACK larft convention, T upper
// triangular), and the trailing matrix is updated with level-3 products.
//
// Each panel is factored recursively (Elmroth & Gustavson 2000; LAPACK
// dgeqrt3): split it in halves, factor the left half, update the right
// half with the left half's WY form, factor the right half, and join the
// two T factors with T12 = −T11 (V1ᵀV2) T22, so T falls out of the
// recursion. Only slivers of at most 8 columns run the level-2 sweep
// (one dot and one axpy per reflector and column) and take T from one
// VᵀV product; a panel too short for its halves' products to reach the
// packed engine keeps that sweep whole. The WY products with V (VᵀB with
// a small output, C −= V·W of rank at most a panel) run through unpacked
// register-tiled kernels; the wide trailing VᵀC goes through the packed
// engine.
//
// Staircase trim: before a panel is factored, its last nonzero row is
// recorded next to its T. Every reflector of the panel vanishes below
// that row, so the panel's sweep, its T products and its trailing and
// apply products stop there. This is exact for any input; a dense panel
// keeps its full height. The TSQR root's row-interleaved stack of R
// factors is a staircase: for four 204-column triangles the trim runs
// about 17 of the dense stack's 62 Mflop (see core/tsqr.hpp).
//
// Each panel's T is built once, during the factorization, and reused by
// every later apply. We keep the factored representation so Q·B and
// Qᵀ·B products don't need an explicit Q (the distributed TSQR applies
// it to a K-column block instead of forming the m x n local Q), and
// expose a thin-QR convenience with a deterministic sign convention:
// diag(R) >= 0. The PyParSVD code obtains cross-rank consistency by
// negating NumPy's Q and R ("trick for consistency"); fixing the sign
// inside the factorization achieves the same goal deterministically for
// every backend and rank count.
//
// The linalg.qr.flops counter is the dense cost model (2mnk − 2k³/3 per
// factorization, 4mck − 2ck² per apply), whatever the trim skips, so
// linalg.qr_flops_per_op does not move with the data's structure.
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
/// the tau coefficients (LAPACK geqrf layout). Cost 2mn^2 - 2n^3/3 flops
/// for a dense input (less where the staircase trim applies), nearly all
/// of it in level-3 products.
class HouseholderQr {
 public:
  /// Factor A (any shape; m >= 1, n >= 1) with the default panel width
  /// (32, linalg/autotune.hpp). A is taken by value and factored in
  /// place: a caller done with its matrix moves it in and saves the copy.
  explicit HouseholderQr(Matrix a);

  /// Factor with an explicit panel width. `block == 1` forces the
  /// unblocked column-at-a-time sweep over the full height, without
  /// recursion or trim (the reference path tests compare against);
  /// `block <= 0` selects the default.
  HouseholderQr(Matrix a, Index block);

  Index rows() const { return qr_.rows(); }
  Index cols() const { return qr_.cols(); }
  /// Number of reflectors = min(m, n).
  Index rank_bound() const { return static_cast<Index>(tau_.size()); }
  /// Panel width used for the blocked factor/apply paths.
  Index block() const { return block_; }

  /// R factor, min(m,n) x n, upper triangular/trapezoidal.
  Matrix r() const;

  /// The factored storage itself: R on and above the diagonal, the
  /// reflector tails below it. Lets a caller read R without a copy.
  const Matrix& factored() const { return qr_; }

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
  /// Factors columns [j0, j0 + jb), whose rows from `end` on are zero,
  /// and returns the panel's T: the level-2 sweep and one VᵀV product up
  /// to a fixed base width, halving recursion above it.
  Matrix factor_recursive(Index j0, Index jb, Index end);
  /// Level-2 sweep over columns [j0, j0+jb) and rows [j0, end);
  /// reflections are applied to columns [j0, update_to) only.
  void factor_panel(Index j0, Index jb, Index update_to, Index end);
  /// B := Q B (forward=false) or Qᵀ B (forward=true) for B with qr_.rows()
  /// rows, using the blocked WY representation.
  void apply_blocked(Matrix& b, bool transpose) const;

  /// One panel's compact-WY T and one past its last nonzero row: its
  /// reflectors, T product and GEMMs stop there (m for a dense panel).
  struct Panel {
    Matrix t;
    Index end;
  };

  Matrix qr_;                 // reflectors below diagonal, R on/above
  std::vector<double> tau_;   // reflector scaling coefficients
  Index block_ = 1;           // panel width used by blocked paths
  // One Panel per block of reflectors, built as it is factored: a panel's
  // reflector columns are final once it is factored (trailing updates only
  // touch later columns), so the applies reuse them bit-identically.
  std::vector<Panel> panels_;
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
