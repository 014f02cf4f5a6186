// User-facing configuration for the parsvd core algorithms.
//
// Defaults mirror the paper: forget factor ff = 0.95 (§3.1), APMOS
// truncation r1 = 50, r2 = 5 (§3.2), Gaussian sketching for the
// randomized path (§3.3), and LAPACK-style dense kernels — Golub–Kahan
// SVD and tridiagonal-QL eigh, the routes np.linalg takes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace parsvd {

/// Outcome metadata for a fault-tolerant (degraded-completion) run.
///
/// When ranks die mid-computation the survivors finish the SVD on the
/// rows they still hold. The result is exact for the surviving
/// partitions of the row space; what is lost is the dead ranks' row
/// blocks. By Weyl's inequality the singular values of the full matrix
/// and of the survivor submatrix differ by at most ‖A_lost‖₂ ≤
/// ‖A_lost‖_F, so with coverage = Σ_alive ‖A_i‖_F² / Σ_all ‖A_i‖_F²
/// the relative perturbation is bounded by √(1 − coverage)·‖A‖_F
/// (cf. Iwen & Ong, arXiv:1601.07010; Li et al., arXiv:1612.08709).
struct FaultReport {
  /// True when at least one rank's contribution was lost.
  bool degraded = false;
  /// Ranks excluded from the result (dead at the deciding collective).
  std::vector<int> dead_ranks;
  /// Rows of the global matrix still represented in the result.
  Index surviving_rows = 0;
  /// Rows owned by dead ranks (0 when extent_known is false).
  Index lost_rows = 0;
  /// False when a rank died before ever reporting its row extent, so
  /// lost_rows is a lower bound rather than exact.
  bool extent_known = true;
  /// Fraction of the total Frobenius energy Σ‖A_i‖_F² retained by the
  /// survivors; 1.0 for a clean run.
  double coverage = 1.0;
  /// Weyl-type bound √(1 − coverage) on the relative (‖A‖_F-scaled)
  /// singular-value perturbation caused by the lost rows.
  double accuracy_bound = 0.0;

  /// Flat double encoding so the report can ride a bcast from root to
  /// the survivors: [degraded, ndead, dead..., surviving_rows,
  /// lost_rows, extent_known, coverage, accuracy_bound].
  std::vector<double> to_doubles() const;
  static FaultReport from_doubles(const std::vector<double>& flat);
};

/// The fault policy's accept-or-throw decision, taken at root once a
/// death-aware collective reports the ranks whose contribution it lost
/// (`missing`; `what` names the collective). A fault-tolerant policy
/// accepts the degraded result and lets the FaultReport account for the
/// loss; the strict policy raises RankDeadError naming the first missing
/// rank, so no result is ever built on fewer rows (pmpi::run_on then
/// aborts the job).
void accept_or_throw(bool fault_tolerant, std::span<const int> missing,
                     const char* what);

/// Randomized range-finder configuration (Halko et al. style). The small
/// inner SVD of Qᵀ A is Golub–Kahan.
struct RandomizedOptions {
  /// Target rank r of the approximation (required, > 0).
  Index rank = 10;
  /// Extra sketch columns beyond `rank`; improves accuracy at tiny cost.
  Index oversampling = 8;
  /// Power (subspace) iterations; 1-2 sharpen spectra with slow decay.
  int power_iterations = 0;
  /// Seed for the test matrix (deterministic per seed).
  std::uint64_t seed = 0x5eed;
};

/// Streaming (Levy-Lindenbaum) configuration, serial and parallel.
struct StreamingOptions {
  /// Number of retained modes K (leading left singular vectors).
  Index num_modes = 10;
  /// Forget factor in (0, 1]; 1.0 reproduces the batch SVD exactly.
  double forget_factor = 0.95;
  /// Route the inner dense SVDs (the root SVD of every streaming update)
  /// through the randomized path; unset, they are Golub–Kahan.
  bool low_rank = false;
  RandomizedOptions randomized{};
  /// Optional positive row weights w defining the inner product
  /// ⟨u, v⟩ = uᵀ diag(w) v — e.g. cell-area (cos-latitude) weights for
  /// lat-lon grids, the standard EOF convention in weather/climate work.
  /// Empty = Euclidean. For the distributed implementation each rank
  /// passes the weights of ITS rows. Internally the data is scaled by
  /// √w so the factorization machinery is unchanged; modes() then holds
  /// the √w-scaled (Euclidean-orthonormal) vectors and physical_modes()
  /// undoes the scaling, yielding vectors orthonormal under ⟨·,·⟩_w.
  Vector row_weights{};
  /// Fault policy. The collectives are death-aware either way; this
  /// decides what a lost contribution means. Set: ranks that die
  /// mid-run are excluded and the SVD completes on the survivors, with
  /// the loss quantified in a FaultReport (costing one energy-ledger
  /// gather and one report broadcast per update). Unset (the default):
  /// a lost contribution raises RankDeadError at root.
  bool fault_tolerant = false;

  void validate() const;
};

/// APMOS distributed-SVD configuration (Algorithm 2).
struct ApmosOptions {
  /// r1: columns of V and Σ each rank contributes to the gathered W.
  Index r1 = 50;
  /// r2: retained global modes broadcast back to the ranks.
  Index r2 = 5;
  /// Randomize the root SVD of W.
  bool low_rank = false;
  RandomizedOptions randomized{};
  /// Backend for the local (stage 1-2) and root (stage 4-5) SVDs.
  SvdMethod method = SvdMethod::GolubKahan;
  /// Eigensolver for the MethodOfSnapshots local stage (the paper's
  /// suggested path when M_i >> N; Tridiagonal is the fast default).
  EighMethod eigh_method = EighMethod::Tridiagonal;
  /// Fault policy (see StreamingOptions::fault_tolerant); set, it costs
  /// one FaultReport broadcast per call.
  bool fault_tolerant = false;

  void validate() const;
};

}  // namespace parsvd
