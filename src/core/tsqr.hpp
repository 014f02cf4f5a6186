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
  /// columns = min(Σ min(Mᵢ, n), n).
  Matrix q_local;
  /// Global R factor, identical on every rank.
  Matrix r;
  /// Ranks whose R factor was lost to a failure (fault-tolerant mode
  /// only; always empty otherwise). Their rows are absent from R.
  std::vector<int> excluded_ranks;
};

/// Distributed thin QR of the implicitly row-stacked matrix
/// A = [a_local⁰; a_local¹; ...]. Collective: every rank must call with
/// the same column count.
///
/// With `fault_tolerant` set the gather/broadcast legs use the
/// ft-collectives: ranks that die mid-call are excluded and the
/// factorization completes on the survivors' rows (excluded_ranks lists
/// the casualties). Rank 0's death remains unrecoverable (it owns the
/// stacked factorization).
TsqrResult tsqr(pmpi::Communicator& comm, const Matrix& a_local,
                bool fault_tolerant = false);

}  // namespace parsvd
