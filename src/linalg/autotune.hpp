// Kernel blocking constants: the one place the packed GEMM's cache blocks
// and micro tile, and the blocked QR's panel width, are declared.
//
// They are compile-time values, not a search result. BLIS-style blocking
// follows from the cache sizes (Low et al., "Analytical Modeling Is Enough
// for High-Performance BLIS", ACM TOMS 2016): KC sizes an MR x KC A-sliver
// plus a KC x NR B-sliver to L1, MC x KC of packed A to L2, and KC x NC of
// packed B to L3. The values are the ones every committed benchmark ran
// with. The QR panel width 32 measured within noise of 16 once the panels
// recurse (qr.cpp). The symmetric tridiagonal and Golub–Kahan bidiagonal
// reductions (eigh.cpp, svd_golub_kahan.cpp) take 16-column panels: on
// the 256 x 256 APMOS Gram and a 204 x 204 R, 16 beat 32 on the reduction
// and on the WY back-transform alike (EXPERIMENTS.md), as a panel's
// level-2 corrections and T grow with its width.
#pragma once

#include "linalg/matrix.hpp"

namespace parsvd::autotune {

/// Full blocking description of the packed GEMM path.
struct Blocking {
  Index mc = 0;  ///< rows of the packed A block (L2 resident)
  Index kc = 0;  ///< panel depth (L1/L2 resident)
  Index nc = 0;  ///< columns of the packed B block (L3 resident)
  Index mr = 0;  ///< micro-tile rows (compile-time kernel choice)
  Index nr = 0;  ///< micro-tile cols (compile-time kernel choice)
};

/// The fp64 GEMM blocking and the QR panel width.
struct Profile {
  Blocking f64;
  Index qr_block = 0;
  /// Always false: the values are constants, not a measured sweep
  /// (the benchmark's host line still reports the field).
  bool tuned = false;
};

/// The blocking the kernels use: MC/KC/NC 96/256/4032 at an 8x6 micro
/// tile, QR panel 32.
constexpr Profile active_profile() {
  return {{96, 256, 4032, 8, 6}, 32, false};
}

/// Panel width of the blocked Householder reductions (tridiagonal and
/// bidiagonal) and of the compact-WY back-transforms through their
/// reflectors.
inline constexpr Index kReductionBlock = 16;

/// Reductions of order below this run the column-at-a-time sweep whole,
/// and a blocked reduction hands its last trailing block to that sweep
/// once the block is this small. Back-transforms through fewer reflectors
/// apply them one at a time. Below it a rank-2·nb trailing update stays
/// too small for the packed engine to pay back its panel bookkeeping.
inline constexpr Index kReductionCrossover = 64;

}  // namespace parsvd::autotune
