#include "core/tsqr.hpp"

#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "pmpi/tags.hpp"

namespace parsvd {

// Wire tag from the pmpi registry: the Q·Y block scatter owns the
// kTsqrDownBase band.
using pmpi::tags::tsqr_down;

namespace {

// [D·top; 0] with `rows` rows: the input the reflectors of a factor with
// diag(R) signs D turn into that factor's thin Q times `top`.
Matrix lift(const Matrix& top, const std::vector<double>& signs, Index rows) {
  Matrix b(rows, top.cols());
  for (Index j = 0; j < top.cols(); ++j) {
    for (Index i = 0; i < top.rows(); ++i) {
      b(i, j) = signs[static_cast<std::size_t>(i)] * top(i, j);
    }
  }
  return b;
}

}  // namespace

TsqrResult tsqr(pmpi::Communicator& comm, Matrix a_local) {
  PARSVD_REQUIRE(!a_local.empty(), "tsqr of an empty local block");
  PARSVD_TRACE_SCOPE("tsqr.direct");
  const int p = comm.size();

  // Stage 1: local Householder QR with the deterministic sign convention;
  // the local Q stays in factored form.
  TsqrResult out;
  Matrix local_r;
  {
    PARSVD_TRACE_SCOPE("tsqr.factor_panel");
    out.local_.emplace(std::move(a_local));
    local_r = out.local_->r();
    out.signs_ = fix_r_signs(local_r);
  }
  if (p == 1) {
    out.r = std::move(local_r);
    return out;
  }

  // Stage 2: gather R factors at root and factor the stack of the ones
  // that arrived, keeping its Q in factored form for q_times().
  std::vector<std::optional<Matrix>> r_blocks =
      comm.gather_matrices(local_r, 0);
  if (!comm.is_root()) return out;

  out.block_rows_.assign(static_cast<std::size_t>(p), 0);
  std::vector<Matrix> stack;
  stack.reserve(r_blocks.size());
  for (int src = 0; src < p; ++src) {
    auto& block = r_blocks[static_cast<std::size_t>(src)];
    if (!block) {
      out.excluded_ranks.push_back(src);
      continue;
    }
    out.block_rows_[static_cast<std::size_t>(src)] = block->rows();
    stack.push_back(std::move(*block));
  }
  out.stack_.emplace(vcat(stack));
  out.r = out.stack_->r();
  out.stack_signs_ = fix_r_signs(out.r);
  return out;
}

Matrix TsqrResult::q_times(pmpi::Communicator& comm, const Matrix& y) const {
  PARSVD_REQUIRE(local_.has_value(), "q_times on a TsqrResult tsqr() did not fill");
  PARSVD_TRACE_SCOPE("tsqr.q_times");
  Matrix top;  // this rank's kᵢ rows of Q_stack·Y
  if (!comm.is_root()) {
    // Root-must-survive contract: rank 0 owns the stacked factorization
    // and always sends the block to a rank it saw deliver its R factor.
    // parsvd-lint: allow-ft-wait
    top = comm.recv_matrix(0, tsqr_down(0));
  } else {
    PARSVD_REQUIRE(y.rows() == r.rows(), "q_times: Y must have one row per column of Q");
    if (!stack_) {
      top = y;  // P = 1: the stack is this rank's R alone
    } else {
      Matrix qy = lift(y, stack_signs_, stack_->rows());
      stack_->apply_q(qy);
      // Scatter the row blocks in rank order to the contributors.
      Index offset = 0;
      for (int dst = 0; dst < comm.size(); ++dst) {
        const Index nrows = block_rows_[static_cast<std::size_t>(dst)];
        if (nrows == 0) continue;  // excluded: no R factor, no block
        Matrix block = qy.block(offset, 0, nrows, qy.cols());
        offset += nrows;
        if (dst == 0) {
          top = std::move(block);
        } else {
          comm.send_matrix(block, dst, tsqr_down(0));
        }
      }
    }
  }
  PARSVD_REQUIRE(top.rows() == local_->rank_bound(),
                 "q_times: block rows differ from the local R factor");
  Matrix b = lift(top, signs_, local_->rows());
  local_->apply_q(b);
  return b;
}

}  // namespace parsvd
