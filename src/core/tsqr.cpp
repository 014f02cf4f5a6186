#include "core/tsqr.hpp"

#include <algorithm>
#include <optional>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "obs/trace.hpp"
#include "pmpi/tags.hpp"

namespace parsvd {
namespace {

// Wire tag from the pmpi registry: the Q-slice scatter owns the
// kTsqrDownBase band.
using pmpi::tags::tsqr_down;

TsqrResult tsqr_direct(pmpi::Communicator& comm, const Matrix& a_local) {
  PARSVD_TRACE_SCOPE("tsqr.direct");
  const int p = comm.size();

  // Stage 1: local thin QR with the deterministic sign convention.
  QrResult local = [&] {
    PARSVD_TRACE_SCOPE("tsqr.factor_panel");
    return qr_thin(a_local);
  }();
  if (p == 1) {
    return {std::move(local.q), std::move(local.r), {}};
  }

  // Stage 2: gather R factors at root and factor the stack.
  std::vector<Matrix> r_blocks = comm.gather_matrices(local.r, 0);

  Matrix r_final;
  if (comm.is_root()) {
    const Matrix stacked = vcat(r_blocks);
    QrResult root = qr_thin(stacked);
    r_final = std::move(root.r);

    // Stage 3: scatter row-slices of the stack's Q in rank order.
    Index offset = 0;
    Matrix my_slice;
    for (int dst = 0; dst < p; ++dst) {
      const Index nrows = r_blocks[static_cast<std::size_t>(dst)].rows();
      Matrix slice = root.q.block(offset, 0, nrows, root.q.cols());
      offset += nrows;
      if (dst == 0) {
        my_slice = std::move(slice);
      } else {
        comm.send_matrix(slice, dst, tsqr_down(0));
      }
    }
    comm.bcast_matrix(r_final, 0);
    return {matmul(local.q, my_slice), std::move(r_final), {}};
  }

  Matrix my_slice = comm.recv_matrix(0, tsqr_down(0));
  comm.bcast_matrix(r_final, 0);
  return {matmul(local.q, my_slice), std::move(r_final), {}};
}

// Fault-tolerant direct TSQR: dead ranks' R factors are excluded from
// the stack and the factorization completes on the survivors' rows.
TsqrResult tsqr_direct_ft(pmpi::Communicator& comm, const Matrix& a_local) {
  PARSVD_TRACE_SCOPE("tsqr.direct_ft");
  const int p = comm.size();

  QrResult local = [&] {
    PARSVD_TRACE_SCOPE("tsqr.factor_panel");
    return qr_thin(a_local);
  }();
  if (p == 1) {
    return {std::move(local.q), std::move(local.r), {}};
  }

  std::vector<std::optional<Matrix>> r_blocks =
      comm.gather_matrices_ft(local.r, 0);

  Matrix r_final;
  std::vector<double> excluded;  // rides bcast_doubles_ft as doubles
  Matrix my_slice;
  if (comm.is_root()) {
    std::vector<Matrix> surviving;
    surviving.reserve(r_blocks.size());
    for (int src = 0; src < p; ++src) {
      const auto& block = r_blocks[static_cast<std::size_t>(src)];
      if (block) {
        surviving.push_back(*block);
      } else {
        excluded.push_back(static_cast<double>(src));
      }
    }
    QrResult root = qr_thin(vcat(surviving));
    r_final = std::move(root.r);

    // Scatter row-slices of the stack's Q to the surviving ranks. A
    // rank dying after its gather contribution just leaves the posted
    // slice unconsumed in its mailbox.
    Index offset = 0;
    for (int dst = 0; dst < p; ++dst) {
      const auto& block = r_blocks[static_cast<std::size_t>(dst)];
      if (!block) continue;
      const Index nrows = block->rows();
      Matrix slice = root.q.block(offset, 0, nrows, root.q.cols());
      offset += nrows;
      if (dst == 0) {
        my_slice = std::move(slice);
      } else {
        comm.send_matrix(slice, dst, tsqr_down(0));
      }
    }
  } else {
    // Root-must-survive contract: rank 0 owns the stacked factorization
    // and always sends the slice to a rank it saw deliver its R block.
    // parsvd-lint: allow-ft-wait
    my_slice = comm.recv_matrix(0, tsqr_down(0));
  }
  comm.bcast_matrix_ft(r_final, 0);
  comm.bcast_doubles_ft(excluded, 0);

  TsqrResult out{matmul(local.q, my_slice), std::move(r_final), {}};
  out.excluded_ranks.reserve(excluded.size());
  for (double r : excluded) out.excluded_ranks.push_back(static_cast<int>(r));
  return out;
}

}  // namespace

TsqrResult tsqr(pmpi::Communicator& comm, const Matrix& a_local,
                bool fault_tolerant) {
  PARSVD_REQUIRE(!a_local.empty(), "tsqr of an empty local block");
  return fault_tolerant ? tsqr_direct_ft(comm, a_local)
                        : tsqr_direct(comm, a_local);
}

}  // namespace parsvd
