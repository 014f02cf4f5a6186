// Distributed streaming SVD (the paper's ParSVD_Parallel, Listing 2).
//
// Combines the three building blocks: APMOS initializes the distributed
// factorization, TSQR re-factors the concatenated [ff·U_loc Σ | A_i] on
// every streaming step, and the small root SVD of the global R may be
// randomized.  Each rank owns a fixed row-block (its grid points); the
// snapshot dimension streams in batches.
#pragma once

#include "core/apmos.hpp"
#include "core/streaming.hpp"
#include "core/tsqr.hpp"
#include "pmpi/comm.hpp"

namespace parsvd {

class ParallelStreamingSVD final : public SvdBase {
 public:
  /// `comm` must outlive the object; every rank of the communicator
  /// constructs its own instance with identical options.
  ParallelStreamingSVD(pmpi::Communicator& comm, StreamingOptions opts);

  /// Collective. `batch` is this rank's row-block of the first batch.
  void initialize(const Matrix& batch) override;

  /// Collective. Streaming update with this rank's row-block of A_i.
  void incorporate_data(const Matrix& batch) override;

  /// This rank's rows of the retained global modes (local_rows x K).
  /// In √w-scaled space when row weights are configured.
  const Matrix& local_modes() const { return u_local_; }

  /// Collective: gathers the weight-unscaled global modes at root
  /// (empty on other ranks). Equals modes() when unweighted.
  Matrix physical_modes() override;

  /// Collective: modal coefficients of a distributed batch (this rank
  /// passes its row block). Every rank receives the global K x B result.
  Matrix project(const Matrix& batch) override;

  /// Reconstruct THIS RANK's rows of the field from global coefficients.
  Matrix reconstruct(const Matrix& coefficients) const override;

  /// Row offset of this rank's block within the global mode matrix.
  Index row_offset() const { return row_offset_; }

  /// Global row count across all ranks.
  Index global_rows() const { return global_rows_; }

  /// Loss metadata when opts.fault_tolerant is set and ranks died during
  /// a streaming update (without it such a death raises RankDeadError at
  /// root); default-clean otherwise. Because initialize()
  /// records every rank's row extent and Frobenius energy up front, the
  /// report carries exact lost_rows and a sharp √(1 − coverage) bound —
  /// unlike one-shot APMOS. Updated by each incorporate_data() call.
  const FaultReport& fault_report() const { return report_; }

 private:
  /// Root only: SVD of the TSQR R factor truncated to K, (Ũ, Σ̃) — the
  /// "small operation" of Levy-Lindenbaum step 2 in the distributed
  /// setting. Ũ goes out as Q·Ũ row blocks, Σ̃ by broadcast.
  void root_svd(const Matrix& r, Matrix& u_small, Vector& s);

  /// Re-gather the global modes at root into SvdBase::modes_.
  void gather_modes();

  /// Collective: vcat at root of every rank's `local` row block that
  /// arrived (empty elsewhere), after the fault policy's accept-or-throw
  /// decision on the missing ones.
  Matrix gather_rows(const Matrix& local);

  /// Fault-tolerant policy only: root turns its per-rank energy ledger
  /// (fed by the per-batch energy gathers) and the dead ranks into a
  /// FaultReport; broadcasting it keeps the survivors consistent.
  void update_fault_report();

  pmpi::Communicator& comm_;
  Matrix u_local_;        // local rows of the global modes, M_i x K
  Rng rng_;               // root-rank sketch stream (low_rank mode)
  Index num_rows_ = 0;    // this rank's row count (fixed after init)
  Index row_offset_ = 0;
  Index global_rows_ = 0;
  std::vector<Index> rows_by_rank_;     // recorded at initialize()
  std::vector<double> energy_by_rank_;  // Σ‖batchᵢ‖_F² per rank (root, ft)
  FaultReport report_;
};

}  // namespace parsvd
