#include "core/parallel_streaming.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "obs/trace.hpp"

namespace parsvd {

ParallelStreamingSVD::ParallelStreamingSVD(pmpi::Communicator& comm,
                                           StreamingOptions opts)
    : SvdBase(std::move(opts)), comm_(comm), rng_(opts_.randomized.seed) {}

void ParallelStreamingSVD::initialize(const Matrix& batch) {
  PARSVD_REQUIRE(!initialized_, "initialize() called twice");
  PARSVD_REQUIRE(!batch.empty(), "empty initial batch");
  PARSVD_TRACE_SCOPE("pssvd.initialize");
  num_rows_ = batch.rows();

  // Row layout of the distributed mode matrix (needed by gather_modes
  // and by callers mapping local rows to global grid points).
  const std::vector<Index> all_rows = comm_.allgather_index(num_rows_);
  row_offset_ = 0;
  global_rows_ = 0;
  for (int r = 0; r < comm_.size(); ++r) {
    if (r < comm_.rank()) row_offset_ += all_rows[static_cast<std::size_t>(r)];
    global_rows_ += all_rows[static_cast<std::size_t>(r)];
  }
  rows_by_rank_ = all_rows;

  const Matrix weighted = apply_row_weights(batch);

  // Fault-tolerant bookkeeping: record every rank's row extent (above)
  // and initial Frobenius energy while everyone is still alive, so a
  // later death yields exact lost_rows and a sharp coverage bound.
  // initialize() itself is a healthy collective — all ranks must
  // survive it; deaths are tolerated from the first streaming update on.
  if (opts_.fault_tolerant) {
    const double frob = weighted.norm_fro();
    energy_by_rank_ = comm_.allgather_double(frob * frob);
  }

  // Listing 2: initialization runs APMOS with r1 = r2 = K (the parallel
  // SVD of the first batch), honoring the low-rank switch at the root.
  ApmosOptions aopts;
  const Index keep = std::min(opts_.num_modes, batch.cols());
  aopts.r1 = keep;
  aopts.r2 = keep;
  aopts.low_rank = opts_.low_rank;
  aopts.randomized = opts_.randomized;
  ApmosResult init = apmos_svd(comm_, weighted, aopts, &rng_);

  u_local_ = std::move(init.u_local);
  singular_values_ = std::move(init.s);
  snapshots_seen_ = batch.cols();
  initialized_ = true;
  gather_modes();
}

void ParallelStreamingSVD::root_svd(const Matrix& r, Matrix& u_small,
                                    Vector& s) {
  PARSVD_TRACE_SCOPE("pssvd.root_svd");
  const Index keep = std::min(opts_.num_modes, std::min(r.rows(), r.cols()));
  SvdResult f;
  if (opts_.low_rank) {
    RandomizedOptions ropts = opts_.randomized;
    ropts.rank = keep;
    f = randomized_svd(r, ropts, rng_);
  } else {
    SvdOptions sopts;
    sopts.rank = keep;
    f = svd(r, sopts);
  }
  fix_svd_signs(f.u, f.v);
  u_small = std::move(f.u);
  s = std::move(f.s);
}

void ParallelStreamingSVD::incorporate_data(const Matrix& batch) {
  require_initialized();
  PARSVD_REQUIRE(batch.rows() == num_rows_,
                 "batch row count differs from the initialized problem");
  PARSVD_REQUIRE(batch.cols() > 0, "empty streaming batch");
  PARSVD_TRACE_SCOPE("pssvd.incorporate");
  ++iteration_;
  snapshots_seen_ += batch.cols();

  // Step 1 (distributed): the discounted local factorization next to the
  // new local snapshots, [U·diag(ff·σ), W·batch], written once into the
  // matrix TSQR factors.
  const Index k = u_local_.cols();
  Matrix ll(num_rows_, k + batch.cols());
  for (Index j = 0; j < k; ++j) {
    const double scale = opts_.forget_factor * singular_values_[j];
    const double* u = u_local_.col_data(j);
    double* dst = ll.col_data(j);
    for (Index i = 0; i < num_rows_; ++i) dst[i] = u[i] * scale;
  }
  write_row_weighted(batch, ll, k);

  // Fault-tolerant policy: fold this batch's energy into root's
  // per-rank ledger before the factorization touches the network, so a
  // rank that dies later in this update counts its in-flight batch as
  // lost (the conservative direction for the coverage bound).
  if (opts_.fault_tolerant) {
    const double frob = frobenius_norm(std::span<const double>(
        ll.col_data(k), static_cast<std::size_t>(batch.size())));
    const double energy = frob * frob;
    std::vector<std::byte> buf(sizeof(double));
    std::memcpy(buf.data(), &energy, sizeof(double));
    const auto parts = comm_.gather_bytes(std::move(buf), 0);
    if (comm_.is_root()) {
      for (int src = 0; src < comm_.size(); ++src) {
        const auto& c = parts[static_cast<std::size_t>(src)];
        if (!c || c->size() != sizeof(double)) continue;
        double e = 0.0;
        std::memcpy(&e, c->data(), sizeof(double));
        energy_by_rank_[static_cast<std::size_t>(src)] += e;
      }
    }
  }

  // TSQR across ranks.
  TsqrResult qr = tsqr(comm_, std::move(ll));
  accept_or_throw(opts_.fault_tolerant, qr.excluded_ranks, "tsqr R gather");

  // Step 2 (small, at root): SVD of the global R, truncated to K.
  // PyParSVD's listing only truncates on the low-rank path, which lets
  // the factorization width grow by B per batch; we truncate on both
  // paths, matching Algorithm 1 steps 3-5 (see DESIGN.md).
  Matrix u_small;
  Vector s;
  if (comm_.is_root()) root_svd(qr.r, u_small, s);

  // Steps 4-5: rotate the local Q onto the leading modes. Root applies
  // the stack's reflectors to [Ũ; 0] and scatters the K-column row
  // blocks; each rank applies its own reflectors (no Q is ever formed).
  u_local_ = qr.q_times(comm_, u_small);

  // Every rank needs Σ̃ for the next discount.
  std::vector<double> sv(s.begin(), s.end());
  comm_.bcast(sv, 0);
  singular_values_ = Vector(static_cast<Index>(sv.size()));
  std::copy(sv.begin(), sv.end(), singular_values_.begin());
  gather_modes();
  if (opts_.fault_tolerant) update_fault_report();
}

void ParallelStreamingSVD::gather_modes() {
  PARSVD_TRACE_SCOPE("pssvd.gather_modes");
  modes_ = gather_rows(u_local_);
}

Matrix ParallelStreamingSVD::gather_rows(const Matrix& local) {
  std::vector<std::optional<Matrix>> blocks = comm_.gather_matrices(local, 0);
  if (!comm_.is_root()) return Matrix{};
  std::vector<Matrix> alive;
  std::vector<int> missing;
  alive.reserve(blocks.size());
  for (int src = 0; src < comm_.size(); ++src) {
    auto& b = blocks[static_cast<std::size_t>(src)];
    if (b) {
      alive.push_back(std::move(*b));
    } else {
      missing.push_back(src);
    }
  }
  accept_or_throw(opts_.fault_tolerant, missing, "mode gather");
  return vcat(alive);
}

void ParallelStreamingSVD::update_fault_report() {
  std::vector<double> flat;
  if (comm_.is_root()) {
    FaultReport rep;
    // Communicator-scoped, not Context-wide: on a group communicator
    // this lists group-local ranks and a sibling group's death never
    // appears here — the degraded report is the group's own.
    rep.dead_ranks = comm_.dead_ranks();
    rep.degraded = !rep.dead_ranks.empty();
    rep.extent_known = true;
    std::vector<bool> dead(static_cast<std::size_t>(comm_.size()), false);
    for (int d : rep.dead_ranks) dead[static_cast<std::size_t>(d)] = true;
    double lost_energy = 0.0;
    double total_energy = 0.0;
    Index lost_rows = 0;
    for (int r = 0; r < comm_.size(); ++r) {
      const auto i = static_cast<std::size_t>(r);
      total_energy += energy_by_rank_[i];
      if (dead[i]) {
        lost_energy += energy_by_rank_[i];
        lost_rows += rows_by_rank_[i];
      }
    }
    rep.lost_rows = lost_rows;
    rep.surviving_rows = global_rows_ - lost_rows;
    rep.coverage = total_energy > 0.0
                       ? (total_energy - lost_energy) / total_energy
                       : 1.0;
    rep.accuracy_bound = std::sqrt(std::max(0.0, 1.0 - rep.coverage));
    flat = rep.to_doubles();
  }
  comm_.bcast(flat, 0);
  report_ = FaultReport::from_doubles(flat);
}

Matrix ParallelStreamingSVD::project(const Matrix& batch) {
  require_initialized();
  PARSVD_REQUIRE(batch.rows() == num_rows_,
                 "project: batch row count differs from this rank's block");
  // Local contribution of the W-inner product, summed across ranks.
  Matrix local =
      matmul(u_local_, apply_row_weights(batch), Trans::Yes, Trans::No);
  std::span<double> flat(local.data(), static_cast<std::size_t>(local.size()));
  // Accept-or-throw: without the fault-tolerant policy a lost addend
  // raises RankDeadError at root, before the sum is broadcast.
  std::vector<int> lost;
  comm_.allreduce(flat, pmpi::Op::Sum, opts_.fault_tolerant ? &lost : nullptr);
  return local;
}

Matrix ParallelStreamingSVD::reconstruct(const Matrix& coefficients) const {
  PARSVD_REQUIRE(initialized_, "initialize() must be called first");
  PARSVD_REQUIRE(coefficients.rows() == u_local_.cols(),
                 "coefficient rows must equal the retained mode count");
  return remove_row_weights(matmul(u_local_, coefficients));
}

Matrix ParallelStreamingSVD::physical_modes() {
  // Each rank unscales its own rows (it holds its own weights), then the
  // physical blocks are gathered at root.
  return gather_rows(remove_row_weights(u_local_));
}

}  // namespace parsvd
