// Distributed sketch-apply for row-distributed matrices.
//
// A (global m x n) lives as row blocks A_i on P ranks. Every rank holds an
// identically-seeded SketchOperator over the GLOBAL row dimension m; the
// per-global-row seeding contract (sketch.hpp) means rank i's
// accumulate_left realizes exactly rows [offset_i, offset_i + m_i) of the
// one global Ω, so
//     B = Ωᵀ A = Σ_i Ω[rows_i, :]ᵀ A_i
// is one local sketch per rank followed by an allreduce-sum over the s x n
// partials through the existing collectives.
#pragma once

#include "linalg/matrix.hpp"
#include "pmpi/comm.hpp"
#include "sketch/sketch.hpp"

namespace parsvd::sketch {

/// B = Ωᵀ A for a row-distributed A. `a_local` is this rank's row block,
/// `row_offset` its first global row; `op.dim()` must equal the global row
/// count. Collective: every rank of `comm` must call with the same
/// operator (kind, dims, operator_seed) and a consistent row partition.
/// Returns the full sketch_dim x cols(A) sketch on every rank.
Matrix distributed_sketch_apply(pmpi::Communicator& comm,
                                const SketchOperator& op,
                                const Matrix& a_local, Index row_offset);

}  // namespace parsvd::sketch
