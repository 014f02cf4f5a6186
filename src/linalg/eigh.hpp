// Symmetric eigendecomposition: Householder tridiagonalization + implicit
// QL (the default) or the cyclic Jacobi rotation method (the reference).
//
// Needed by the method-of-snapshots SVD backend (eigendecomposition of the
// Gram matrix AᵀA), which is the classical POD path the APMOS paper builds
// on.  Tridiagonal QL is one O(n³) pass and 5–23x faster than Jacobi on
// Gram matrices (EXPERIMENTS.md). Jacobi is quadratically
// convergent once the off-diagonal mass is small and computes small
// eigenvalues to high relative accuracy, which matters because singular
// values are their square roots; tests cross-validate the two. Both
// handle entries near 1e±300: Jacobi rescales inputs far from unit scale
// by an exact power of two (safe_scale_exponent), and tred2 already
// scales every Householder step.
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
  /// (EISPACK tred2/tql2 lineage). One-pass O(n³); the default.
  Tridiagonal,
};

struct EighOptions {
  EighMethod method = EighMethod::Tridiagonal;
  double tol = 1e-14;     ///< off(A) / ||A||_F convergence threshold (Jacobi)
  int max_sweeps = 64;    ///< hard sweep budget before ConvergenceError
};

/// Eigendecomposition of a symmetric matrix (symmetry is validated up to
/// a tolerance, then the strictly-lower triangle is mirrored).
EighResult eigh(const Matrix& a, const EighOptions& opts = {});

/// Direct entry point for the tridiagonalization + QL backend.
EighResult eigh_tridiagonal(const Matrix& a, const EighOptions& opts = {});

}  // namespace parsvd
