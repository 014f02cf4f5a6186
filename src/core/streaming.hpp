// Streaming SVD base class and serial implementation.
//
// Mirrors PyParSVD's factory design (§4): a shared base (ParSVD_Base)
// with Serial and Parallel derivations. The serial algorithm is
// Levy & Lindenbaum's sequential Karhunen-Loève update (Algorithm 1):
// keep (U, Σ) of everything seen so far, and on each new batch A_i
// factor the concatenation [ff·U Σ | A_i] to refresh the leading K
// modes. ff < 1 exponentially discounts older batches.
#pragma once

#include <memory>

#include "core/options.hpp"
#include "linalg/matrix.hpp"
#include "support/rng.hpp"

namespace parsvd {

/// Abstract streaming-SVD interface shared by the serial and parallel
/// implementations (the paper's ParSVD_Base).
class SvdBase {
 public:
  explicit SvdBase(StreamingOptions opts);
  virtual ~SvdBase() = default;

  SvdBase(const SvdBase&) = delete;
  SvdBase& operator=(const SvdBase&) = delete;

  /// Ingest the first data batch (performs the initial factorization).
  /// Must be called exactly once, before any incorporate_data.
  virtual void initialize(const Matrix& batch) = 0;

  /// Ingest a subsequent batch (streaming update). Snapshot dimension
  /// (row count of the batch) must match the initialized one.
  virtual void incorporate_data(const Matrix& batch) = 0;

  /// Leading singular values (length = retained mode count).
  const Vector& singular_values() const { return singular_values_; }

  /// Retained left singular vectors. For the parallel implementation
  /// this is the *gathered global* mode matrix, populated on the root
  /// rank only (empty elsewhere). When row weights are configured these
  /// vectors live in √w-scaled space (Euclidean-orthonormal); use
  /// physical_modes() for vectors orthonormal under ⟨·,·⟩_w.
  const Matrix& modes() const { return modes_; }

  /// Modes mapped back to physical space: column j is W^{-1/2} modes_j,
  /// orthonormal under the weighted inner product. Without weights this
  /// is identical to modes(). For the parallel implementation this is a
  /// COLLECTIVE call (it re-gathers at root; non-root ranks get empty).
  virtual Matrix physical_modes();

  /// Modal coefficients of a batch of snapshots: C = Φᵀ W B where Φ are
  /// the physical modes (K x batch_cols). This is the Galerkin
  /// projection used to build reduced-order models (paper §2). For the
  /// parallel implementation this is a COLLECTIVE call (each rank
  /// contributes its row block; the summed coefficients are returned on
  /// every rank).
  virtual Matrix project(const Matrix& batch);

  /// Reconstruct snapshots from modal coefficients: B ≈ Φ C. The serial
  /// implementation returns the full field; the parallel one returns
  /// this rank's row block. `coefficients` is K x batch_cols.
  virtual Matrix reconstruct(const Matrix& coefficients) const;

  /// Number of incorporate_data calls performed so far.
  Index iterations() const { return iteration_; }

  /// Number of snapshots ingested so far (all batches).
  Index snapshots_seen() const { return snapshots_seen_; }

  bool initialized() const { return initialized_; }

  const StreamingOptions& options() const { return opts_; }

 protected:
  void require_initialized() const {
    PARSVD_REQUIRE(initialized_, "initialize() must be called first");
  }

  /// Returns `batch` with row i scaled by √row_weights[i] (the map into
  /// the Euclidean space the factorization runs in); pass-through when
  /// no weights are configured. Validates the weight length lazily on
  /// the first batch.
  Matrix apply_row_weights(const Matrix& batch) const;

  /// The same weighted batch written into columns [col0, col0 +
  /// batch.cols()) of `out` (same rows), so a caller assembling a wider
  /// matrix copies the batch once.
  void write_row_weighted(const Matrix& batch, Matrix& out, Index col0) const;

  /// Undo the √w scaling on a mode block whose rows correspond to
  /// row_weights (identity when unweighted).
  Matrix remove_row_weights(const Matrix& modes) const;

  StreamingOptions opts_;
  Matrix modes_;             // M x K (serial) or gathered global (parallel root)
  Vector singular_values_;   // K
  Index iteration_ = 0;
  Index snapshots_seen_ = 0;
  bool initialized_ = false;
};

/// Serial Levy-Lindenbaum streaming SVD (the paper's ParSVD_Serial,
/// Listing 1).
class SerialStreamingSVD final : public SvdBase {
 public:
  explicit SerialStreamingSVD(StreamingOptions opts);

  void initialize(const Matrix& batch) override;
  void incorporate_data(const Matrix& batch) override;

 private:
  /// Inner dense SVD honoring the low_rank/randomized switch.
  SvdResult inner_svd(const Matrix& a, Index rank);

  Rng rng_;
  Index num_rows_ = 0;
};

}  // namespace parsvd
