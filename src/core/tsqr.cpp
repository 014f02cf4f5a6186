#include "core/tsqr.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
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

// Visits the interleaved stack order: row i of every contributing block,
// in rank order, for i = 0, 1, ... (below `rows`); f(rank, i, stack row).
// Upper triangular blocks then stack to a staircase, column j nonzero
// only in its first Σ min(kᵢ, j + 1) rows, which the blocked QR's panel
// trim skips below (about 17 instead of 62 Mflop for four 204 x 204
// blocks).
template <typename F>
void for_each_interleaved(const std::vector<Index>& block_rows, F f,
                          Index rows = std::numeric_limits<Index>::max()) {
  const Index depth =
      std::min(rows, *std::max_element(block_rows.begin(), block_rows.end()));
  Index s = 0;
  for (Index i = 0; i < depth; ++i) {
    for (std::size_t b = 0; b < block_rows.size(); ++b) {
      if (i < block_rows[b]) f(b, i, s++);
    }
  }
}

// This rank's sign-fixed R (row i times signs[i]) in pack_matrix's wire
// form, written once from the factored storage: the shape header, then
// the column-major body, zero below the diagonal. `signs` receives the
// diag(R) signs fix_r_signs would return.
std::vector<std::byte> pack_signed_r(const HouseholderQr& f,
                                     std::vector<double>& signs) {
  const Matrix& qr = f.factored();
  const Index k = f.rank_bound();
  const Index n = f.cols();
  signs.resize(static_cast<std::size_t>(k));
  for (Index i = 0; i < k; ++i) {
    signs[static_cast<std::size_t>(i)] = qr(i, i) < 0.0 ? -1.0 : 1.0;
  }
  const std::int64_t header[2] = {static_cast<std::int64_t>(k),
                                  static_cast<std::int64_t>(n)};
  std::vector<std::byte> payload(sizeof(header) +
                                 static_cast<std::size_t>(k * n) * sizeof(double));
  std::memcpy(payload.data(), header, sizeof(header));
  std::byte* body = payload.data() + sizeof(header);
  for (Index j = 0; j < n; ++j) {
    const double* col = qr.col_data(j);
    for (Index i = 0; i <= std::min(j, k - 1); ++i) {
      const double x = signs[static_cast<std::size_t>(i)] * col[i];
      std::memcpy(body + static_cast<std::size_t>(i + j * k) * sizeof(double), &x,
                  sizeof(double));
    }
  }
  return payload;
}

// The body of a pack_signed_r payload with `cols` columns; its row count
// goes to `rows`.
const std::byte* packed_body(const std::vector<std::byte>& payload, Index cols,
                             Index& rows) {
  std::int64_t header[2];
  PARSVD_REQUIRE(payload.size() >= sizeof(header), "tsqr: R payload too short");
  std::memcpy(header, payload.data(), sizeof(header));
  rows = static_cast<Index>(header[0]);
  PARSVD_REQUIRE(header[1] == cols &&
                     payload.size() == sizeof(header) + static_cast<std::size_t>(
                                                            rows * cols) * sizeof(double),
                 "tsqr: R factors differ in shape");
  return payload.data() + sizeof(header);
}

}  // namespace

TsqrResult tsqr(pmpi::Communicator& comm, Matrix a_local) {
  PARSVD_REQUIRE(!a_local.empty(), "tsqr of an empty local block");
  PARSVD_TRACE_SCOPE("tsqr.direct");
  const int p = comm.size();

  // Stage 1: local Householder QR with the deterministic sign convention;
  // the local Q stays in factored form.
  TsqrResult out;
  {
    PARSVD_TRACE_SCOPE("tsqr.factor_panel");
    out.local_.emplace(std::move(a_local));
  }
  if (p == 1) {
    out.r = out.local_->r();
    out.signs_ = fix_r_signs(out.r);
    return out;
  }

  // Stage 2: gather R factors at root and factor the stack of the ones
  // that arrived, keeping its Q in factored form for q_times(). Each R
  // goes on the wire straight from its rank's factored storage, and root
  // reads the interleaved stack straight out of the payloads.
  const Index n = out.local_->cols();
  std::vector<std::optional<std::vector<std::byte>>> parts =
      comm.gather_bytes(pack_signed_r(*out.local_, out.signs_), 0);
  if (!comm.is_root()) return out;

  out.block_rows_.assign(static_cast<std::size_t>(p), 0);
  std::vector<const std::byte*> bodies(static_cast<std::size_t>(p), nullptr);
  Index stack_rows = 0;
  for (int src = 0; src < p; ++src) {
    const auto& part = parts[static_cast<std::size_t>(src)];
    if (!part) {
      out.excluded_ranks.push_back(src);
      continue;
    }
    Index& rows = out.block_rows_[static_cast<std::size_t>(src)];
    bodies[static_cast<std::size_t>(src)] = packed_body(*part, n, rows);
    stack_rows += rows;
  }
  // Column j of the stack is nonzero in its first Σ min(kᵢ, j + 1) rows
  // only, the rows i <= j of every block; the rest stays zero.
  Matrix stack(stack_rows, n);
  for (Index j = 0; j < n; ++j) {
    double* col = stack.col_data(j);
    for_each_interleaved(
        out.block_rows_,
        [&](std::size_t b, Index i, Index s) {
          const auto at = static_cast<std::size_t>(i + j * out.block_rows_[b]);
          std::memcpy(col + s, bodies[b] + at * sizeof(double), sizeof(double));
        },
        j + 1);
  }
  out.stack_.emplace(std::move(stack));
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
      // Un-interleave the stack rows into each contributor's block, then
      // scatter the blocks in rank order.
      std::vector<Matrix> blocks;
      blocks.reserve(block_rows_.size());
      for (const Index nrows : block_rows_) blocks.emplace_back(nrows, qy.cols());
      for_each_interleaved(block_rows_, [&](std::size_t b, Index i, Index s) {
        for (Index j = 0; j < qy.cols(); ++j) blocks[b](i, j) = qy(s, j);
      });
      for (int dst = 0; dst < comm.size(); ++dst) {
        if (block_rows_[static_cast<std::size_t>(dst)] == 0) continue;  // excluded
        Matrix& block = blocks[static_cast<std::size_t>(dst)];
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
