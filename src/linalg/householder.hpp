// Householder reflectors, their compact-WY block form and Givens rotations
// shared by the dense factorizations: the Householder QR (qr.cpp), the
// Golub–Kahan SVD (svd_golub_kahan.cpp) and the tridiagonal eigensolver
// (eigh.cpp). All three build and apply their reflector panels through
// the one WY implementation below (PanelV, build_t, apply_wy).
// Linalg-internal; not part of the public API.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace parsvd::detail {

/// H = I - tau v vᵀ with v = (1; tail), mapping (alpha; x) to (beta; 0).
struct Reflector {
  double tau;
  double beta;
};

/// LAPACK dlarfg: the reflector for x = (alpha; tail). v's tail is written
/// over `tail`; tau = 0 (the identity, beta = alpha) when tail is zero.
/// Scale-safe: a |beta| below 2^-200 is handled at an exact power-of-two
/// rescaling, so a subnormal alpha - beta cannot overflow 1/(alpha - beta).
Reflector make_reflector(double alpha, std::span<double> tail);

/// Applies H = I - tau v vᵀ, v = (1; v_tail) with its unit entry at row j,
/// to the column segment c[j, m): one vectorized dot and one axpy over the
/// m - j - 1 rows below row j.
void apply_reflector(double tau, const double* v_tail, double* c, Index j,
                     Index m);

// ------------------------------------------------ compact-WY block form

/// The reflectors [j0, j0 + jb) of a factored storage, as the WY panel
/// V = [V1; V2] ((end - j0 - shift) x jb, unit lower trapezoidal):
/// reflector j0 + jj has its unit entry at row j0 + jj + shift and its
/// tail below it in its own column, and vanishes from row `end` on. Only
/// the jb x jb unit lower triangle V1 is copied out (its unit diagonal and
/// the zeros above it are implicit in the factored storage); the dense
/// rows V2 below it are read in place, so no panel materializes its V.
struct PanelV {
  Matrix top;           // V1, jb x jb
  const double* dense;  // V2(0, 0), leading dimension ld
  Index dense_rows;
  Index ld;
};

PanelV panel_v(const Matrix& v, Index j0, Index jb, Index end, Index shift);

/// Compact-WY T factor (jb x jb upper triangular, LAPACK larft forward
/// columnwise) of the panel `v` with the jb coefficients `tau`, so that
/// H_{j0} ⋯ H_{j0+jb-1} = I - V T Vᵀ. A zero tau gives a zero row and
/// column of T (the identity reflector). Of VᵀV it forms only the tiles
/// that reach the strict upper triangle, which is all T reads, with the
/// same kernel and summation order as the full product, so T is
/// bit-identical to the one the full VᵀV gives.
Matrix build_t(const PanelV& v, std::span<const double> tau);

/// In-place C := (I - V op(T) Vᵀ) C for C ((end - j0 - shift) x nc,
/// leading dimension ldc, starting at the panel's first unit row): Qᵀ C
/// for op(T) = Tᵀ (transpose = true) and Q C for op(T) = T. The rank-jb
/// products with V run on unpacked register tiles or the packed engine,
/// by size; none of them is billed to the linalg.gemm counters.
void apply_wy(const PanelV& v, const Matrix& t, bool transpose, double* c,
              Index ldc, Index nc);

/// C(m x n, ldc) += Aᵀ B for A (k x m, lda) and B (k x n, ldb): the WY
/// algebra's products with the reflectors, unpacked for a small output.
void vt_times(Index m, Index n, Index k, const double* a, Index lda,
              const double* b, Index ldb, double* c, Index ldc);

/// vt_times for a square C (n x n) of which only the strict upper
/// triangle is wanted: only the work that reaches it runs (its 4 x 4
/// tiles, or below the packing threshold its column loop, down to the
/// last row above the diagonal). Every entry formed takes the same kernel
/// and summation order as in vt_times, so that triangle is bit-identical
/// to vt_times'; a product for the packed engine runs whole.
void vt_times_upper(Index n, Index k, const double* a, Index lda,
                    const double* b, Index ldb, double* c, Index ldc);

/// y(k) += Aᵀ x for A (p x k, lda): the transposed gemv of a panel step,
/// on the same register tiles as vt_times.
void gemv_t(Index p, Index k, const double* a, Index lda, const double* x,
            double* y);

/// y(p) -= A t for A (p x k, lda): a panel step's gemv, on the same
/// register strips as the WY update C -= V·W.
void gemv_sub(Index p, Index k, const double* a, Index lda, const double* t,
              double* y);

/// y(p) += S x for the symmetric p x p block S whose lower triangle starts
/// at s (leading dimension ld), in one pass over that triangle.
void symv_lower(Index p, const double* s, Index ld, const double* x, double* y);

/// In-place W := op(T) W for the jb x jb upper triangular T and W (jb x nc).
void triangular_left(const Matrix& t, bool transpose, Matrix& w);

/// C := H_0 H_1 ⋯ H_{k-1} C for the k = tau.size() reflectors stored
/// column by column in `v`: H_j = I - tau_j v_j v_jᵀ has its unit entry
/// at row j + shift of C and its tail below it, in column j of `v` from
/// row j + shift + 1 on (tau_j = 0 for a reflector that would start past
/// C's last row). Panels of `block` reflectors are applied last to first
/// in compact-WY form; `block` = 1, fewer than kReductionCrossover
/// reflectors, or a C narrower than a panel (whose T would cost more than
/// the products it saves) applies them one at a time, each to every
/// column of C.
void apply_reflectors_backward(const Matrix& v, std::span<const double> tau,
                               Index shift, Matrix& c, Index block);

// ------------------------------------------------ Householder reductions

/// A = Q T Qᵀ with T symmetric tridiagonal (eigh.cpp). Q = H_0 ⋯ H_{n-2}
/// stays in factored form: reflector i acts on rows i+1..n-1 and its tail
/// lives in a(i+2.., i) (apply_reflectors_backward with shift 1).
struct Tridiagonalization {
  Matrix a;
  std::vector<double> tau;  // length n (tau[n-1] = 0)
  std::vector<double> d;    // diagonal, length n
  std::vector<double> e;    // subdiagonal e[i] = T(i+1, i); e[n-1] = 0
};

/// Householder reduction of the symmetric matrix whose lower triangle is
/// `a` (the upper one is ignored). `block` > 1 runs LAPACK dsytrd: panels
/// of `block` columns (dlatrd) and a rank-2·block trailing update through
/// the packed GEMM engine, until the trailing block is no larger than
/// max(block, kReductionCrossover); the rest, and the whole of a smaller
/// matrix or of `block` = 1, runs the column sweep (dsytd2).
Tridiagonalization tridiagonalize(Matrix a, Index block);

/// Householder bidiagonalization A = Q_L B Q_Rᵀ of A (m >= n), with B
/// upper bidiagonal (svd_golub_kahan.cpp). Q_L and Q_R stay in factored
/// form: left reflector j acts on rows j.. and its tail lives below the
/// diagonal of `a` (shift 0); right reflector j acts on rows j+1.. of V
/// and its tail lives in vr(j+2.., j) (shift 1).
struct Bidiagonalization {
  Matrix a;
  Matrix vr;                  // n x n
  std::vector<double> tau_l;  // length n
  std::vector<double> tau_r;  // length n (the last two stay 0)
  std::vector<double> d;      // diagonal, length n
  std::vector<double> e;      // superdiagonal, length n-1
};

/// LAPACK dgebrd for m >= n: panels of `block` columns and rows (dlabrd)
/// and a rank-2·block trailing update through the packed GEMM engine,
/// with the column sweep (dgebd2) on the last max(block,
/// kReductionCrossover) columns, on the whole of a smaller matrix and for
/// `block` = 1.
Bidiagonalization bidiagonalize(Matrix a, Index block);

// ------------------------------------------------ bidiagonal SVD

/// The leading triplets of the upper bidiagonal B (diagonal d, length n;
/// superdiagonal e, length n-1) by the implicit-shift QR sweep: σ
/// descending, r = rank of them (0 = all); with `vectors`, u and v hold
/// B's r kept singular vectors (n x r), replayed from the sweep's
/// rotation logs. svd_golub_kahan's route for every call the bisection
/// route below does not take.
SvdResult bidiagonal_sweep(std::vector<double> d, std::vector<double> e,
                           Index rank, bool vectors);

/// The same r = rank triplets (0 < rank < n) of B without a sweep
/// (LAPACK dbdsvdx's route): bisection for σ_1..σ_{r+1} as the largest
/// eigenvalues of the Golub–Kahan tridiagonal TGK, then one inverse
/// iteration on TGK per kept vector, split into v (even entries) and u
/// (odd entries). Nullopt when some σ_j − σ_{j+1}, j <= r, is at most
/// 1e-3·σ_1 (clustered, repeated or near-zero kept values) or an inverse
/// iteration misses its residual check; the caller then runs the sweep.
std::optional<SvdResult> bidiagonal_kept_triplets(std::span<const double> d,
                                                  std::span<const double> e,
                                                  Index rank);

/// Plane rotation with c·a + s·b = r and -s·a + c·b = 0. r = sqrt(a² + b²)
/// when max(|a|, |b|) lies in (2^-480, 2^480), where neither square can
/// overflow or lose the result to underflow, and std::hypot otherwise (the
/// split LAPACK 3.10's dlartg makes). b = 0 gives (1, 0, a), a = 0 (0, 1, b).
struct Givens {
  double c;
  double s;
  double r;
};
Givens make_givens(double a, double b);

/// The plane rotations a QR/QL sweep applies to an accumulated factor X,
/// in order: entry i stands for X := X·G_i, which rotates columns j and k
/// (col_j := c·col_j + s·col_k, col_k := -s·col_j + c·col_k).
///
/// Instead of carrying all n columns of X through the sweep, a solver
/// records the rotations and replays them onto the r columns it keeps:
/// X G_1 ⋯ G_N E = X (G_1 ⋯ G_N E) for a column selection E (n x r), and
/// G_1 ⋯ G_N E is E with the rotations applied in reverse order.
class RotationLog {
 public:
  /// Reserves room for `expected` rotations up front, so a long sweep does
  /// not pay for repeated regrowth. The reservation costs address space
  /// only: its pages are touched as the log fills.
  explicit RotationLog(Index expected) {
    entries_.reserve(static_cast<std::size_t>(expected));
  }

  void record(Index j, Index k, double c, double s) {
    entries_.push_back({c, s, static_cast<std::int32_t>(j),
                        static_cast<std::int32_t>(k)});
  }

  /// Y := Y (G_1 ⋯ G_N)ᵀ, then frees the log. Y is r x n and holds Eᵀ on
  /// entry, so on return Yᵀ = G_1 ⋯ G_N E: every rotation touches two
  /// contiguous length-r columns of Y.
  void unwind(Matrix& y);

 private:
  struct Entry {
    double c;
    double s;
    std::int32_t j;
    std::int32_t k;
  };
  std::vector<Entry> entries_;
};

}  // namespace parsvd::detail
