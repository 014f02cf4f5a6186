// Symmetric eigendecomposition: Householder tridiagonalization + implicit
// QL, the tridiagonal route np.linalg.eigh takes.
//
// Needed by the method-of-snapshots SVD backend (eigendecomposition of the
// Gram matrix AᵀA), which is the classical POD path the APMOS paper builds
// on. The solver is one O(n³) reduction (LAPACK dsytrd: 16-column dlatrd
// panels whose rank-2·16 trailing updates run through the packed GEMM
// engine, with the dsytd2 column sweep up to order 64) plus a QL sweep
// whose rotations are replayed onto the kept eigenvectors only, and a
// compact-WY back-transform of those r vectors, so asking for r of n
// vectors costs O(n²r) beyond the reduction. The reduction's reflectors
// carry LAPACK dlarfg's scale guard, so entries near 1e±300 are handled;
// a NaN or infinite entry is rejected with NonFiniteError.
// The tests cross-validate it against an independent cyclic-Jacobi
// solver (tests/oracle).
#pragma once

#include "linalg/matrix.hpp"

namespace parsvd {

/// Result of eigh(): a = vectors * diag(values) * vectorsᵀ with
/// eigenvalues sorted in DESCENDING order and orthonormal eigenvectors.
struct EighResult {
  Vector values;
  Matrix vectors;
};

/// The eigensolver (there is one). Still named by SvdOptions::eigh_method
/// and ApmosOptions::eigh_method.
enum class EighMethod {
  /// Householder tridiagonalization + implicit-shift QL iteration
  /// (LAPACK dsytrd reduction, EISPACK tql2 sweep).
  Tridiagonal,
};

struct EighOptions {
  /// Keep only the leading `rank` eigenpairs (largest eigenvalues); 0 =
  /// all. Only those `rank` vectors are formed.
  Index rank = 0;
};

/// Eigendecomposition of a symmetric matrix (symmetry is validated up to
/// a tolerance, then the symmetric part (A + Aᵀ)/2 is factored).
EighResult eigh(const Matrix& a, const EighOptions& opts = {});

}  // namespace parsvd
