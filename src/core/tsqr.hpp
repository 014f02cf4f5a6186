// Distributed tall-skinny QR (TSQR).
//
// The streaming update (Algorithm 1, step 1) needs the QR of a tall
// matrix whose rows are partitioned across ranks. This is the direct
// TSQR (Benson, Gleich & Demmel 2013; the one PyParSVD implements in
// Listing 4): every rank computes a local thin QR, the R factors are
// gathered and stacked at rank 0, one QR of the (Σkᵢ x n) stack yields
// the global R, and rank 0 scatters the matching row-slices of the
// stack's Q back so each rank forms Q_localᵢ = Qᵢ · sliceᵢ. Only the
// small R factors and Q slices travel, as in Li–Kluger–Tygert.
//
// It uses the deterministic positive-diagonal sign convention from
// qr_thin, which replaces the sign-negation "trick for consistency" in
// the PyParSVD listing (see DESIGN.md §4).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "pmpi/comm.hpp"

namespace parsvd {

struct TsqrResult {
  /// Local slice of the global Q: rows match this rank's a_local rows,
  /// columns = min(Σ min(Mᵢ, n), n) over the contributing ranks.
  Matrix q_local;
  /// Global R factor, identical on every surviving rank.
  Matrix r;
  /// Root-side only: ranks that died before posting their R factor, so
  /// their rows are absent from R. Always empty on the other ranks and
  /// in a run where nobody dies.
  std::vector<int> excluded_ranks;
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
