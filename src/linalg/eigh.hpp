// Symmetric eigendecomposition: Householder tridiagonalization + implicit
// QL (the default) or the cyclic Jacobi rotation method (the reference).
//
// Needed by the method-of-snapshots SVD backend (eigendecomposition of the
// Gram matrix AᵀA), which is the classical POD path the APMOS paper builds
// on.  The tridiagonal backend is one O(n³) reduction (LAPACK dsytd2)
// plus a QL sweep whose rotations are replayed onto the kept eigenvectors
// only, so asking for r of n vectors costs O(n²r) beyond the reduction;
// EXPERIMENTS.md has its timings against Jacobi. Jacobi is quadratically
// convergent once the off-diagonal mass is small and computes small
// eigenvalues to high relative accuracy, which matters because singular
// values are their square roots; tests cross-validate the two. Both
// handle entries near 1e±300: Jacobi rescales inputs far from unit scale
// by an exact power of two (safe_scale_exponent), and the tridiagonal
// reduction's reflectors carry LAPACK dlarfg's scale guard. Both reject
// a NaN or infinite entry with NonFiniteError.
#pragma once

#include "linalg/matrix.hpp"

namespace parsvd {

/// Result of eigh(): a = vectors * diag(values) * vectorsᵀ with
/// eigenvalues sorted in DESCENDING order and orthonormal eigenvectors.
struct EighResult {
  Vector values;
  Matrix vectors;
};

enum class EighMethod {
  /// Cyclic Jacobi rotations. Quadratically convergent, best relative
  /// accuracy for small eigenvalues; O(n³) per sweep. The reference
  /// backend the tests cross-validate against.
  Jacobi,
  /// Householder tridiagonalization + implicit-shift QL iteration
  /// (LAPACK dsytd2 reduction, EISPACK tql2 sweep). One-pass O(n³); the
  /// default.
  Tridiagonal,
};

struct EighOptions {
  EighMethod method = EighMethod::Tridiagonal;
  double tol = 1e-14;     ///< off(A) / ||A||_F convergence threshold (Jacobi)
  int max_sweeps = 64;    ///< hard sweep budget before ConvergenceError
  /// Keep only the leading `rank` eigenpairs (largest eigenvalues); 0 =
  /// all. The tridiagonal backend then forms only those `rank` vectors;
  /// Jacobi truncates its full result.
  Index rank = 0;
};

/// Eigendecomposition of a symmetric matrix (symmetry is validated up to
/// a tolerance, then the strictly-lower triangle is mirrored).
EighResult eigh(const Matrix& a, const EighOptions& opts = {});

/// Direct entry point for the tridiagonalization + QL backend.
EighResult eigh_tridiagonal(const Matrix& a, const EighOptions& opts = {});

}  // namespace parsvd
