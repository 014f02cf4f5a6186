#include "core/apmos.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "obs/trace.hpp"

namespace parsvd {

std::pair<Matrix, Vector> generate_right_vectors(const Matrix& a, Index r1,
                                                 SvdMethod method,
                                                 EighMethod eigh_method) {
  PARSVD_REQUIRE(!a.empty(), "right vectors of an empty matrix");
  PARSVD_REQUIRE(r1 > 0, "r1 must be positive");
  SvdOptions opts;
  opts.method = method;
  opts.eigh_method = eigh_method;
  opts.rank = std::min(r1, std::min(a.rows(), a.cols()));
  // The caller keeps V and σ only; the method of snapshots forms no U.
  SvdResult f = method == SvdMethod::MethodOfSnapshots
                    ? snapshots_right_vectors(a, opts.rank)
                    : svd(a, opts);
  return {std::move(f.v), std::move(f.s)};
}

ApmosResult apmos_svd(pmpi::Communicator& comm, const Matrix& a_local,
                      const ApmosOptions& opts, Rng* rng) {
  opts.validate();
  PARSVD_REQUIRE(!a_local.empty(), "apmos of an empty local block");
  PARSVD_TRACE_SCOPE("apmos.svd");

  // Stages 1-2: local right vectors scaled by singular values.
  Matrix wlocal;  // n x k1
  {
    PARSVD_TRACE_SCOPE("apmos.stage12.local_svd");
    auto [vlocal, slocal] =
        generate_right_vectors(a_local, opts.r1, opts.method, opts.eigh_method);
    wlocal = std::move(vlocal);
    for (Index j = 0; j < wlocal.cols(); ++j) {
      scal(slocal[j], wlocal.col_span(j));
    }
  }

  // Root SVD of the assembled W with truncation to r2 (stages 4-5).
  const auto root_svd = [&](const Matrix& w) {
    PARSVD_TRACE_SCOPE("apmos.stage45.root_svd");
    SvdResult f;
    if (opts.low_rank) {
      RandomizedOptions ropts = opts.randomized;
      ropts.rank = std::min<Index>(opts.r2, std::min(w.rows(), w.cols()));
      if (rng != nullptr) {
        f = randomized_svd(w, ropts, *rng);
      } else {
        f = randomized_svd(w, ropts);
      }
    } else {
      SvdOptions sopts;
      sopts.method = opts.method;
      sopts.eigh_method = opts.eigh_method;
      sopts.rank = std::min<Index>(opts.r2, std::min(w.rows(), w.cols()));
      f = svd(w, sopts);
    }
    // Deterministic mode orientation so distributed results are
    // comparable across rank counts and against serial references.
    fix_svd_signs(f.u, f.v);
    return f;
  };

  // Stage 3: gather W at rank 0 (column-wise concatenation). One atomic
  // payload per rank — its row count, then the packed W^i — so a
  // contribution that arrives always carries its own extent.
  const std::int64_t rows = a_local.rows();
  std::vector<std::byte> payload(sizeof(rows));
  std::memcpy(payload.data(), &rows, sizeof(rows));
  pmpi::pack_matrix_into(wlocal, payload);
  std::vector<std::optional<std::vector<std::byte>>> parts;
  {
    PARSVD_TRACE_SCOPE("apmos.stage3.gather");
    parts = comm.gather_bytes(std::move(payload), 0);
  }

  Matrix x;
  Vector lambda;
  FaultReport report;
  if (comm.is_root()) {
    std::vector<Matrix> blocks;
    blocks.reserve(parts.size());
    for (int src = 0; src < comm.size(); ++src) {
      const auto& part = parts[static_cast<std::size_t>(src)];
      if (!part) {
        report.dead_ranks.push_back(src);
        continue;
      }
      PARSVD_REQUIRE(part->size() > sizeof(rows), "apmos: short W payload");
      std::int64_t src_rows = 0;
      std::memcpy(&src_rows, part->data(), sizeof(src_rows));
      report.surviving_rows += static_cast<Index>(src_rows);
      blocks.push_back(pmpi::unpack_matrix(
          std::span<const std::byte>(*part).subspan(sizeof(rows))));
    }
    accept_or_throw(opts.fault_tolerant, report.dead_ranks, "apmos W gather");
    report.degraded = !report.dead_ranks.empty();
    // A rank that died before its gather post never reported its
    // extent, so the lost rows and energy are unknowable here and the
    // Weyl-type bound degrades to the vacuous worst case.
    report.extent_known = !report.degraded;
    report.coverage = report.degraded ? 0.0 : 1.0;
    report.accuracy_bound = report.degraded ? 1.0 : 0.0;

    SvdResult f = root_svd(hcat(blocks));
    x = std::move(f.u);
    lambda = std::move(f.s);
  }
  comm.bcast_matrix(x, 0);
  {
    std::vector<double> lam(lambda.begin(), lambda.end());
    comm.bcast(lam, 0);
    lambda = Vector(static_cast<Index>(lam.size()));
    std::copy(lam.begin(), lam.end(), lambda.begin());
  }
  if (opts.fault_tolerant) {
    std::vector<double> flat = report.to_doubles();
    comm.bcast(flat, 0);
    report = FaultReport::from_doubles(flat);
  }

  // Stage 6: lift the global right-space modes through the local block:
  // Ũ^i = A^i X̃ diag(1/Λ̃).
  PARSVD_TRACE_SCOPE("apmos.stage6.lift");
  ApmosResult out;
  out.u_local = matmul(a_local, x);
  out.s = lambda;
  out.report = std::move(report);
  const double cutoff = (lambda.size() > 0 ? lambda[0] : 0.0) * 1e-14;
  for (Index j = 0; j < out.u_local.cols(); ++j) {
    if (lambda[j] > cutoff && lambda[j] > 0.0) {
      scal(1.0 / lambda[j], out.u_local.col_span(j));
    } else {
      auto col = out.u_local.col_span(j);
      std::fill(col.begin(), col.end(), 0.0);
    }
  }
  return out;
}

}  // namespace parsvd
