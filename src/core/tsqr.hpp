// Distributed tall-skinny QR (TSQR).
//
// The streaming update (Algorithm 1, step 1) needs the QR of a tall
// matrix whose rows are partitioned across ranks. This is the direct
// TSQR (Benson, Gleich & Demmel 2013; the one PyParSVD implements in
// Listing 4): every rank computes a local thin QR, the R factors are
// gathered and stacked at rank 0, and one QR of the (Σkᵢ x n) stack
// yields the global R. The global Q is Q_local · Q_stack, and no rank
// ever forms either factor: both stay in Householder form.
//
// Root stacks the R factors interleaved by row index (row i of every
// contributor, in rank order), so the stack of triangles is a staircase
// whose zeros the blocked QR skips panel by panel, as the structured
// stack QR of communication-avoiding TSQR does (Demmel, Grigori, Hoemmen
// & Langou 2012). Permuting rows only permutes Q, so R is the one of the
// rank-ordered stack up to rounding; q_times un-interleaves before it
// scatters, and the wire is that of the rank-ordered protocol.
//
// The streaming update only needs Q·Ũ for the K kept left vectors Ũ of
// the root SVD, so q_times() is the second half of the protocol: the
// root applies the stack's reflectors to [Ũ; 0] and scatters the kᵢ x K
// row blocks, and every rank applies its local reflectors to its block.
// Only the small R factors and the K-column blocks travel, as in
// Li–Kluger–Tygert; the n x n stack Q is never formed, sliced or sent.
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
  /// Root-side only: the global R factor. Empty on the other ranks.
  Matrix r;
  /// Root-side only: ranks that died before posting their R factor, so
  /// their rows are absent from R. Always empty on the other ranks and
  /// in a run where nobody dies.
  std::vector<int> excluded_ranks;

  /// Collective: this rank's rows of Q·Y, for the global thin Q and a Y
  /// of r.rows() rows that only the root reads (the other ranks may pass
  /// an empty matrix). The root applies the stack's reflectors to
  /// [D·Y; 0] (D its diag(R) signs), un-interleaves the rows and sends
  /// each contributor its kᵢ x Y.cols() block on tsqr_down(0); an excluded rank gets nothing,
  /// and a rank that died after posting its R leaves its block
  /// unconsumed. Every rank then applies its local reflectors to
  /// [D·blockᵢ; 0]. Costs O(Σkᵢ·n·c) at root and O(mᵢ·kᵢ·c) per rank.
  Matrix q_times(pmpi::Communicator& comm, const Matrix& y) const;

 private:
  friend TsqrResult tsqr(pmpi::Communicator& comm, Matrix a_local);

  std::optional<HouseholderQr> local_;  // this rank's panel, factored form
  std::vector<double> signs_;           // diag(R_local) sign fix, ±1
  // Root only, P > 1: the factored row-interleaved stack of R factors,
  // its diag(R) signs, and every rank's kᵢ (0 = excluded) in rank order.
  std::optional<HouseholderQr> stack_;
  std::vector<double> stack_signs_;
  std::vector<Index> block_rows_;
};

/// Distributed thin QR of the implicitly row-stacked matrix
/// A = [a_local⁰; a_local¹; ...]. Collective: every rank must call with
/// the same column count. `a_local` is factored in place; a caller done
/// with it moves it in.
///
/// Death-aware: a rank that dies before posting its R factor is left
/// out and the factorization completes on the survivors' rows; rank 0
/// lists it in excluded_ranks, and the caller's fault policy decides
/// whether to accept that result (see accept_or_throw). Rank 0's death
/// remains unrecoverable (it owns the stacked factorization).
TsqrResult tsqr(pmpi::Communicator& comm, Matrix a_local);

}  // namespace parsvd
