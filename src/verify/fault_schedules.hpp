// Protocol schedule emitters: one per SPMD protocol, parameterised by a
// FaultScenario.
//
// Each emitter rebuilds, from (rank, P) and the payload shape alone, the
// exact per-rank wire schedule the production path posts — same tags
// (pmpi/tags.hpp), same framing (pack_matrix's 16-byte header), same
// program order, same byte counts, and the same death handling: the
// collectives' root-side waits are death-bounded (dead-resolved slots
// are skipped), the bcast fan-out's is_dead() guard skips a dead
// destination, and non-roots wait on the root with a plain receive
// (the root-must-survive contract). The kill is a FaultScenario: the
// victim runs its first kill_step events, then vanishes (DESIGN §13).
// Under the default kKillFree scenario nobody dies and the emitter
// yields the fault-free schedule, so the schedule the sweep proves
// deadlock-free and the schedule every kill perturbs are one program.
//
// A degraded schedule is a function of the scenario: which
// contributions the root collects decides the stacked-QR extent, the
// Q·Y block sizes and the FaultReport. The emitters replay that dataflow
// and additionally predict the observable side effects the
// cross-validation tests pin to the real runtime:
//   - effective registry totals (messages / bytes actually posted),
//   - the FaultReport wire payload the root broadcasts,
//   - whether the scenario is deterministic, i.e. free of the one
//     benign race the runtime allows: a root-side is_dead() guard
//     sampled while the kill is concurrent with the victim's matching
//     receive. Racy scenarios are still CHECKED (the model takes the
//     alive branch, which dominates traffic), but not cross-validated.
//
// The degraded executions are those of the fault-tolerant policy. The
// strict policy (and the strict pmpi callers gatherv / allgather /
// reduce without `missing`) raise RankDeadError at the root once a
// contribution is missing; that abort is not a quiescing schedule and
// is pinned by runtime tests instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "verify/comm_script.hpp"

namespace parsvd::verify {

/// A protocol schedule plus the scenario that shaped it and the
/// runtime observables the model predicts for it.
struct FaultSchedule {
  Schedule schedule;       ///< victim's script = its full healthy program
  FaultScenario scenario;  ///< the kill the survivors' scripts assume
  /// False when a root is_dead() guard races the kill (see file
  /// comment); such scenarios are model-checked but not byte-pinned.
  bool deterministic = true;
  std::uint64_t messages = 0;  ///< posts that execute under the kill
  std::uint64_t bytes = 0;     ///< payload bytes of those posts
  /// Predicted FaultReport::to_doubles() payload (fault-tolerant APMOS /
  /// streaming only; empty otherwise).
  std::vector<double> report_flat;
};

/// Communicator::gather_bytes (the engine under gatherv /
/// gather_matrices): non-roots post on tags::kGather, the root
/// death-bounded-waits on every source in ascending rank order.
/// `bytes_per_rank` is each rank's contribution payload (size p).
FaultSchedule script_gather(int p, int root,
                            std::span<const std::uint64_t> bytes_per_rank,
                            const FaultScenario& f = kKillFree);

/// Communicator::bcast: the root posts tags::kBcast copies to every
/// destination its is_dead() guard does not skip; non-roots block on a
/// plain receive from the root.
FaultSchedule script_bcast(int p, int root, std::uint64_t bytes,
                           const FaultScenario& f = kKillFree);

/// Communicator::reduce: the gather's root loop on tags::kReduce.
FaultSchedule script_reduce(int p, int root, std::uint64_t bytes,
                            const FaultScenario& f = kKillFree);

/// Communicator::allreduce: reduce to rank 0, then bcast.
FaultSchedule script_allreduce(int p, std::uint64_t bytes,
                               const FaultScenario& f = kKillFree);

/// allgather_double / allgather_index: gather to rank 0 of
/// `per_rank_bytes` each, then bcast of the p-entry table.
FaultSchedule script_allgather(int p, std::uint64_t per_rank_bytes,
                               const FaultScenario& f = kKillFree);

/// core tsqr followed by TsqrResult::q_times (root = rank 0): gather of
/// the local R factors (min(rows, k) x k each), stacked QR over the
/// contributors, then the min(rows, k) x y_cols blocks of Q_stack·Y on
/// tags::tsqr_down(0) back to the contributors only. `rows_by_rank` may
/// be ragged, including ranks with fewer rows than k. A victim must be
/// a non-root rank.
FaultSchedule script_tsqr_direct(std::span<const std::int64_t> rows_by_rank,
                                 std::int64_t k, std::int64_t y_cols,
                                 const FaultScenario& f = kKillFree);

/// core apmos_svd (root = rank 0): gather of the [rows] header + W
/// payloads, root SVD over the surviving stack, bcasts of X and Λ, and
/// — under the fault-tolerant policy — of the FaultReport. A victim
/// must be a non-root rank.
FaultSchedule script_apmos(std::span<const std::int64_t> rows_by_rank,
                           std::int64_t n_cols, std::int64_t r1,
                           std::int64_t r2, bool fault_tolerant,
                           const FaultScenario& f = kKillFree);

/// Shape of a ParallelStreamingSVD run for the update-loop emitter.
struct StreamingShape {
  std::vector<std::int64_t> rows_by_rank;
  std::int64_t num_modes = 2;  ///< K — modes retained per update
  std::int64_t batch_cols = 2; ///< B — columns in every update batch
  int rounds = 1;              ///< update() calls modelled
  /// StreamingOptions::fault_tolerant: adds the energy-ledger gather and
  /// the FaultReport bcast to every update.
  bool fault_tolerant = false;
  /// Columns of u_local_ entering the first modelled update (the keep
  /// count initialize() produced). Defaults to num_modes, which is
  /// exact whenever the initialize batch had >= num_modes columns.
  std::int64_t start_cols = -1;
  /// Energy ledger inputs for exact FaultReport coverage prediction:
  /// per-rank ||initialize batch||_F^2, then per-round per-rank update
  /// energies. Leave empty to default every entry to 1.0 (sweep mode,
  /// where only the report's SIZE is load-bearing).
  std::vector<double> init_energy;
  std::vector<std::vector<double>> round_energy;
};

/// core parallel_streaming.cpp update loop (root = rank 0), `rounds`
/// updates after a healthy initialize. Per round: [energy gather], the
/// tsqr R gather on [discounted modes | batch], the root SVD, the
/// q_times scatter of Q·[Ũ; 0], the singular value bcast, mode gather,
/// [FaultReport bcast] — bracketed legs under the fault-tolerant
/// policy only. A victim must be a non-root rank; report_flat is the
/// LAST round's report payload.
FaultSchedule script_streaming_updates(const StreamingShape& shape,
                                       const FaultScenario& f = kKillFree);

}  // namespace parsvd::verify
