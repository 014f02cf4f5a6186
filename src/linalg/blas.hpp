// BLAS-style dense kernels.
//
// The substrate the paper gets for free from NumPy/LAPACK. Level-3 matmul
// runs through a packed, register-tiled kernel engine (BLIS-style
// MC/KC/NC cache blocking around an MR x NR micro-kernel — see
// linalg/gemm_engine.hpp) and fans out to the shared-memory thread pool
// above a size threshold; gram() and gemv() reuse the same engine /
// partitioning. The library's cost profile is dominated by GEMM and the
// factorizations built on it.
//
// All arithmetic is fp64, as in the paper's NumPy pipelines. The one
// variant is compensated (double-double two-sum/two-prod) accumulation for
// Gram matrices and long-stream dots behind PARSVD_COMPENSATED, for the
// ill-conditioned spots where naive fp64 summation loses digits
// (DESIGN.md §12).
//
// The blocking is a compile-time constant (linalg/autotune.hpp):
// MC/KC/NC 96/256/4032 around an 8x6 micro tile.
#pragma once

#include "linalg/matrix.hpp"

namespace parsvd {

/// Transposition selector for matmul operands.
enum class Trans { No, Yes };

// ------------------------------------------------------------- level 1

/// dot(x, y) = xᵀy. Routes to dot_compensated when PARSVD_COMPENSATED
/// is on (long-stream dots are one of the two ill-conditioned spots).
double dot(std::span<const double> x, std::span<const double> y);

/// Compensated dot product (Ogita–Rump–Oishi Dot2: two-prod via FMA plus
/// running two-sum compensation) — results as if accumulated in roughly
/// twice the working precision, at ~4x the flops.
double dot_compensated(std::span<const double> x, std::span<const double> y);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha
void scal(double alpha, std::span<double> x);

/// Euclidean norm: an unscaled sum of squares, redone with overflow-safe
/// scaling when that sum over- or underflows.
double nrm2(std::span<const double> x);

// ------------------------------------------------------------- level 2

/// y = alpha * op(A) x + beta * y.
/// Above kGemvParallelThreshold the row (No) / column (Yes) range is
/// partitioned over the thread pool.
void gemv(Trans trans_a, double alpha, const Matrix& a,
          std::span<const double> x, double beta, std::span<double> y);

/// A += alpha * x yᵀ  (rank-1 update)
void ger(double alpha, std::span<const double> x, std::span<const double> y,
         Matrix& a);

// ------------------------------------------------------------- level 3

/// C = alpha * op(A) op(B) + beta * C.
/// Shapes are validated; C must already have the result shape and must not
/// alias A or B (checked — an aliased output would be silently corrupted
/// by the packed kernel's accumulation order).
/// All four transpose combinations route through the same packed kernel,
/// so Trans::Yes operands pay no strided-access penalty.
void gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix& c);

/// Convenience: returns op(A) op(B) as a fresh matrix.
Matrix matmul(const Matrix& a, const Matrix& b,
              Trans trans_a = Trans::No, Trans trans_b = Trans::No);

/// C = AᵀA (n x n Gram matrix). Only the upper triangle is computed (per
/// column block, through the packed kernel) and mirrored; column blocks are
/// partitioned over the thread pool above the GEMM threshold. Routes to
/// gram_compensated when PARSVD_COMPENSATED is on.
Matrix gram(const Matrix& a);

/// Compensated Gram matrix: every entry is a Dot2 compensated column dot,
/// so G = AᵀA carries roughly double-double accumulation accuracy. Much
/// slower than the packed path — reserved for ill-conditioned spots.
Matrix gram_compensated(const Matrix& a);

/// True when PARSVD_COMPENSATED requests compensated accumulation for the
/// routing entry points dot() / gram() (cached once per process).
bool compensated_enabled();

/// Minimum per-op flop proxy (m*n*k) before GEMM fans out to the thread
/// pool; exposed so tests can force both the serial and parallel paths.
inline constexpr Index kGemmParallelThreshold = 64 * 64 * 64;

/// Minimum per-op flop proxy (m*n*k) before GEMM packs its operands;
/// smaller products run an unpacked loop.
inline constexpr Index kGemmPackThreshold = 24 * 24 * 24;

/// Minimum element count (m*n) before GEMV fans out to the thread pool.
inline constexpr Index kGemvParallelThreshold = 128 * 1024;

namespace detail {

/// Plain xᵀy over n elements with independent partial sums (vectorizes;
/// deterministic lane order). dot() uses it unless PARSVD_COMPENSATED is
/// on; the Householder QR calls it directly, so it never compensates.
double dot_kernel(const double* x, const double* y, std::size_t n);

/// Core packed-kernel entry on raw column-major views:
///   C(m x n, leading dim ldc) += alpha * op(A)(m x k) * op(B)(k x n)
/// with op resolved during packing. `lda`/`ldb` are the leading dimensions
/// of the *stored* (untransposed) operands. Used by gemm/gram and the
/// blocked-QR trailing updates; callers guarantee C does not alias A or B.
/// `allow_parallel` gates the pool fan-out (callers already running inside
/// a parallel_for must pass false).
void gemm_accumulate(Trans trans_a, Trans trans_b, Index m, Index n, Index k,
                     double alpha, const double* a, Index lda,
                     const double* b, Index ldb, double* c, Index ldc,
                     bool allow_parallel = true);

}  // namespace detail

}  // namespace parsvd
