// Householder reflectors and Givens rotations shared by the dense
// factorizations: the Householder QR (qr.cpp), the Golub–Kahan SVD
// (svd_golub_kahan.cpp) and the tridiagonal eigensolver (eigh.cpp). Linalg-internal; not part of the public API.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

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

/// C := H_0 H_1 ⋯ H_{k-1} C for the k = tau.size() reflectors stored
/// column by column in `v`: H_j = I - tau_j v_j v_jᵀ has its unit entry
/// at row j + shift of C and its tail below it, in column j of `v` from
/// row j + shift + 1 on. Last to first, each applied to every column of C.
void apply_reflectors_backward(const Matrix& v, std::span<const double> tau,
                               Index shift, Matrix& c);

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
