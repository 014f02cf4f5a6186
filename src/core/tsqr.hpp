// Distributed tall-skinny QR (TSQR).
//
// The streaming update (Algorithm 1, step 1) needs the QR of a tall
// matrix whose rows are partitioned across ranks. This is the direct
// TSQR (Benson, Gleich & Demmel 2013; the one PyParSVD implements in
// Listing 4): every rank computes a local thin QR, the R factors are
// gathered and stacked at rank 0, one QR of the (Σkᵢ x n) stack yields
// the global R, and rank 0 scatters the matching row-slices of the
// stack's Q back, so rank i's rows of the global Q are Qᵢ · sliceᵢ. Only
// the small R factors and Q slices travel, as in Li–Kluger–Tygert.
//
// Rank i keeps Qᵢ in Householder form and never forms it: the streaming
// update only needs Q·u_small (K columns), which q_times() computes by
// applying the stored reflectors to a K-column block.
//
// It uses the deterministic positive-diagonal sign convention from
// qr_thin, which replaces the sign-negation "trick for consistency" in
// the PyParSVD listing (see DESIGN.md §4).
#pragma once

#include <optional>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "pmpi/comm.hpp"

namespace parsvd {

class TsqrResult {
 public:
  /// Global R factor, identical on every surviving rank.
  Matrix r;
  /// Root-side only: ranks that died before posting their R factor, so
  /// their rows are absent from R. Always empty on the other ranks and
  /// in a run where nobody dies.
  std::vector<int> excluded_ranks;

  /// This rank's rows of Q·Y, for the global thin Q and Y with r.rows()
  /// rows: the local reflectors applied to [D·sliceᵢ·Y; 0], D the local
  /// diag(R) signs. Costs O(mᵢ·kᵢ·Y.cols()) instead of the O(mᵢ·kᵢ·n) of
  /// forming Qᵢ·sliceᵢ.
  Matrix q_times(const Matrix& y) const;

  /// This rank's rows of the global Q: q_times(I). Rows match a_local,
  /// columns = r.rows() = min(Σ min(Mᵢ, n), n) over the contributing
  /// ranks.
  Matrix q_local() const;

 private:
  friend TsqrResult tsqr(pmpi::Communicator& comm, const Matrix& a_local);

  std::optional<HouseholderQr> local_;  // this rank's panel, factored form
  std::vector<double> signs_;           // diag(R_local) sign fix, ±1
  Matrix slice_;  // this rank's rows of the stack's Q; empty = identity (P = 1)
};

/// Distributed thin QR of the implicitly row-stacked matrix
/// A = [a_local⁰; a_local¹; ...]. Collective: every rank must call with
/// the same column count.
///
/// Death-aware: a rank that dies before posting its R factor is left
/// out and the factorization completes on the survivors' rows; rank 0
/// lists it in excluded_ranks, and the caller's fault policy decides
/// whether to accept that result (see accept_or_throw). Rank 0's death
/// remains unrecoverable (it owns the stacked factorization).
TsqrResult tsqr(pmpi::Communicator& comm, const Matrix& a_local);

}  // namespace parsvd
