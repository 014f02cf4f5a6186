// Gaussian test matrix of the randomized range finder (paper §3.3).
//
// The Halko-style range finder samples Y = A Ω with Ω (n x s) an i.i.d.
// N(0,1) test matrix; applying it costs one m x n x s GEMM.
//
// Seeding contract (DESIGN §10). An operator is fully determined by
// (dim, sketch_dim, operator_seed):
//   * operator_seed is derived from a caller base seed with
//     derive_operator_seed(base, draw_index) — the documented split that
//     keeps per-call fresh-Ω streams from silently correlating;
//   * row r of Ω is drawn from row_rng(operator_seed, r) — a fresh
//     generator per GLOBAL row index, so realize_rows(lo, n) is bit-exact
//     regardless of how the row range is blocked.
#pragma once

#include <cstdint>

#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace parsvd::sketch {

/// Derive the seed of one operator from a caller stream value.
/// `draw_index` distinguishes multiple operators minted from one base
/// (e.g. per power-iteration refresh).
std::uint64_t derive_operator_seed(std::uint64_t base_seed,
                                   std::uint64_t draw_index);

/// Generator of row `global_row` of Ω. Fresh per row — never advanced
/// across rows — so block realizations are partition-invariant
/// bit-for-bit.
Rng row_rng(std::uint64_t operator_seed, Index global_row);

/// Dense i.i.d. N(0,1) test matrix Ω : R^dim → R^sketch_dim. Immutable
/// after construction, so concurrent applies are safe.
class GaussianSketch {
 public:
  /// Ω maps R^dim (the columns of A in Y = A Ω) to R^sketch_dim (rank +
  /// oversampling).
  GaussianSketch(Index dim, Index sketch_dim, std::uint64_t operator_seed);

  /// Y = A Ω (A: m x dim, Y resized to m x sketch_dim) — the range
  /// finder's sketch: realize Ω, then one GEMM.
  void apply_right(const Matrix& a, Matrix& y) const;
  Matrix apply_right(const Matrix& a) const;

  /// Dense realization of rows [row0, row0 + nrows) of Ω — bit-exact for
  /// any blocking of the row range.
  Matrix realize_rows(Index row0, Index nrows) const;

  /// Flop estimate of one apply_right on an m x dim input (the GEMM plus
  /// the Ω draw), for the metrics counters.
  double apply_flops(Index m) const;

 private:
  Index dim_;
  Index sketch_dim_;
  std::uint64_t seed_;
  // Cached registry series ("sketch.dense_gaussian.applies" / ".flops"):
  // one relaxed add per apply.
  obs::Counter* applies_ = nullptr;
  obs::Counter* flops_ = nullptr;
};

}  // namespace parsvd::sketch
