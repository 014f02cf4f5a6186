#include "core/tsqr.hpp"

#include <algorithm>
#include <optional>

#include "linalg/blas.hpp"
#include "obs/trace.hpp"
#include "pmpi/tags.hpp"

namespace parsvd {

// Wire tag from the pmpi registry: the Q-slice scatter owns the
// kTsqrDownBase band.
using pmpi::tags::tsqr_down;

TsqrResult tsqr(pmpi::Communicator& comm, const Matrix& a_local) {
  PARSVD_REQUIRE(!a_local.empty(), "tsqr of an empty local block");
  PARSVD_TRACE_SCOPE("tsqr.direct");
  const int p = comm.size();

  // Stage 1: local Householder QR with the deterministic sign convention;
  // the local Q stays in factored form.
  TsqrResult out;
  Matrix local_r;
  {
    PARSVD_TRACE_SCOPE("tsqr.factor_panel");
    out.local_.emplace(a_local);
    local_r = out.local_->r();
    out.signs_ = fix_r_signs(local_r);
  }
  if (p == 1) {
    out.r = std::move(local_r);
    return out;
  }

  // Stage 2: gather R factors at root and factor the stack of the ones
  // that arrived.
  std::vector<std::optional<Matrix>> r_blocks =
      comm.gather_matrices(local_r, 0);

  if (comm.is_root()) {
    std::vector<Index> block_rows(static_cast<std::size_t>(p), 0);
    std::vector<Matrix> stack;
    stack.reserve(r_blocks.size());
    for (int src = 0; src < p; ++src) {
      auto& block = r_blocks[static_cast<std::size_t>(src)];
      if (!block) {
        out.excluded_ranks.push_back(src);
        continue;
      }
      block_rows[static_cast<std::size_t>(src)] = block->rows();
      stack.push_back(std::move(*block));
    }
    QrResult root = qr_thin(vcat(stack));
    out.r = std::move(root.r);

    // Stage 3: scatter row-slices of the stack's Q in rank order to the
    // contributors. A rank dying after its gather contribution just
    // leaves the posted slice unconsumed in its mailbox.
    Index offset = 0;
    for (int dst = 0; dst < p; ++dst) {
      const Index nrows = block_rows[static_cast<std::size_t>(dst)];
      if (nrows == 0) continue;  // excluded: no R factor, no slice
      Matrix slice = root.q.block(offset, 0, nrows, root.q.cols());
      offset += nrows;
      if (dst == 0) {
        out.slice_ = std::move(slice);
      } else {
        comm.send_matrix(slice, dst, tsqr_down(0));
      }
    }
  } else {
    // Root-must-survive contract: rank 0 owns the stacked factorization
    // and always sends the slice to a rank it saw deliver its R block.
    // parsvd-lint: allow-ft-wait
    out.slice_ = comm.recv_matrix(0, tsqr_down(0));
  }
  comm.bcast_matrix(out.r, 0);
  return out;
}

Matrix TsqrResult::q_times(const Matrix& y) const {
  PARSVD_REQUIRE(local_.has_value(), "q_times on a TsqrResult tsqr() did not fill");
  PARSVD_REQUIRE(y.rows() == r.rows(), "q_times: Y must have one row per column of Q");
  // [D·slice·Y; 0], then the reflectors: Qᵢ·slice·Y without forming Qᵢ.
  const Matrix top = slice_.empty() ? y : matmul(slice_, y);
  Matrix b(local_->rows(), y.cols());
  for (Index j = 0; j < y.cols(); ++j) {
    for (Index i = 0; i < top.rows(); ++i) {
      b(i, j) = signs_[static_cast<std::size_t>(i)] * top(i, j);
    }
  }
  local_->apply_q(b);
  return b;
}

Matrix TsqrResult::q_local() const { return q_times(Matrix::identity(r.rows())); }

}  // namespace parsvd
