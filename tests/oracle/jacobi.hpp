// Jacobi reference solvers for the test suite and the backend ablations.
//
// The library ships one SVD family (Golub–Kahan, plus the method of
// snapshots for tall blocks) and one symmetric eigensolver (Householder
// tridiagonalization + implicit QL). The two solvers here are independent
// implementations of the same decompositions, kept out of the library so
// the tests can cross-validate it against code that shares nothing with
// it beyond the Matrix container and the BLAS-1 kernels:
//   * svd_jacobi  — QR-preconditioned one-sided Jacobi. Computes small
//                   singular values to high relative accuracy, where
//                   Golub–Kahan's accuracy is absolute (eps·σ_max).
//   * eigh_jacobi — cyclic Jacobi rotations (Golub & Van Loan §8.5.2).
//                   Quadratically convergent; small eigenvalues to high
//                   relative accuracy.
// Both follow the library's contracts: descending σ / λ, V untransposed,
// `rank` keeps the leading triplets (0 = all, computed in full and then
// truncated), NonFiniteError on a NaN or infinite entry, correct results
// for entries near 1e±300, ConvergenceError past a 64-sweep budget.
#pragma once

#include "linalg/eigh.hpp"
#include "linalg/svd.hpp"

namespace parsvd::oracle {

/// Thin SVD A = U diag(s) Vᵀ by one-sided Jacobi.
SvdResult svd_jacobi(const Matrix& a, Index rank = 0);

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi (symmetry is
/// validated up to a tolerance, then the matrix is symmetrized).
EighResult eigh_jacobi(const Matrix& a, Index rank = 0);

}  // namespace parsvd::oracle
