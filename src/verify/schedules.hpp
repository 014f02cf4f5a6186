// Schedule emitters: one per SPMD protocol in the library.
//
// Each emitter rebuilds, from (rank, P) and the payload shape alone, the
// exact per-rank wire schedule the production path posts — same
// topology functions (pmpi/topology.hpp), same tag registry
// (pmpi/tags.hpp), same program order, same byte counts. The result is
// a CommScript Schedule the ScheduleChecker can prove match-complete and
// deadlock-free without running a single thread.
//
// Scope: the fault-FREE protocols. The degraded-mode (_ft) collectives
// react to deaths observed at runtime, so their schedules are pure
// functions of (rank, P) only once the failure is part of the input —
// verify/fault_schedules.hpp emits them conditioned on a
// (victim, kill_step) scenario, and schedule_check --faults sweeps that
// failure space (DESIGN §13).
#pragma once

#include <cstdint>
#include <map>
#include <span>

#include "verify/comm_script.hpp"

namespace parsvd::verify {

/// Communicator::bcast — binomial tree rooted at `root`.
Schedule script_bcast(int p, int root, std::uint64_t bytes);

/// The gather engine under gatherv / gather_matrices: flat root loop.
/// `bytes_per_rank` is each rank's contribution payload (size p).
Schedule script_gather(int p, int root,
                       std::span<const std::uint64_t> bytes_per_rank);

/// allgather_double / allgather_index: gatherv to root 0 then bcast.
Schedule script_allgather(int p, std::uint64_t per_rank_bytes);

/// Communicator::reduce — flat root loop.
Schedule script_reduce(int p, int root, std::uint64_t bytes);

/// Communicator::allreduce — reduce to rank 0, then bcast.
Schedule script_allreduce(int p, std::uint64_t bytes);

/// Communicator::scatter_rows — root fans row blocks out directly.
/// `block_bytes` is the packed payload each rank receives (size p).
Schedule script_scatter_rows(int p, int root,
                             std::span<const std::uint64_t> block_bytes);

/// core/tsqr.cpp tsqr_direct (root = rank 0): gather of the local R
/// factors (min(rows, k) x k each) on tags::kGather, Q row-slices back
/// on tags::tsqr_down(0), then the binomial bcast of the final R. The
/// healthy twin of script_ft_tsqr_direct; `rows_by_rank` may be ragged,
/// including ranks with fewer rows than k.
Schedule script_tsqr_direct(std::span<const std::int64_t> rows_by_rank,
                            std::int64_t k);

/// core/apmos.cpp Stage-3 W gather (root pre-posts, consumes via
/// wait_any) plus the Stage-5 X / Λ result broadcasts.
Schedule script_apmos(int p, std::uint64_t w_bytes, std::uint64_t x_bytes,
                      std::uint64_t lambda_bytes);

// ------------------------------------------------ communicator groups
// Mirrors of Communicator::split / subgroup (pmpi/comm.hpp): a group
// communicator runs the SAME protocols with its group size and dense
// group ranks, and the wire layer rewrites (rank, tag) via
// Group::world_rank and tags::group_scope. embed_group_schedule applies
// exactly that rewrite to a model schedule, so the partition schedules
// the checker proves safe are the schedules concurrent group jobs post.

/// Model of one pmpi::Group: its Context-minted id and its members as
/// world ranks, indexed by group rank (the split/subgroup ordering).
struct GroupSpec {
  int id = 1;
  std::vector<int> members;
};

/// Splice `local` — a p-rank schedule emitted as if the group were the
/// whole world — into `world`, translating every event the way the
/// group communicator's wire layer does: peers through g.members, tags
/// through tags::group_scope(g.id, tag), request ids remapped into the
/// destination scripts. Events land in each member's program order,
/// after whatever that member's script already contains.
void embed_group_schedule(Schedule& world, const Schedule& local,
                          const GroupSpec& g);

/// Communicator::barrier on a group communicator: flat gather-then-
/// release through group rank 0 on tags::kBarrier (the world barrier is
/// the Context's central rendezvous and posts no wire traffic).
Schedule script_group_barrier(int p);

/// The protocol one group of a partition runs concurrently with its
/// siblings.
enum class GroupProtocol {
  Bcast,
  Gather,
  Reduce,
  Allreduce,
  Allgather,
  Barrier,
  Tsqr,
  Apmos,
};

const char* to_string(GroupProtocol proto);

/// A full partitioned job: every group of `groups` runs its protocol
/// concurrently on one world of `world_p` ranks, each embedded with its
/// own tag scope. Members must be disjoint; a world rank in no group
/// simply stays silent. `bytes` seeds the collective and APMOS payload
/// sizes; TSQR runs a fixed ragged k = 3 layout.
Schedule script_partition(int world_p, std::span<const GroupSpec> groups,
                          std::span<const GroupProtocol> protocols,
                          std::uint64_t bytes);

/// Per-group send totals of a schedule — the model-side mirror of the
/// "comm.group<id>.messages" / "comm.group<id>.bytes" registry counters
/// (pmpi bumps both on every post of group-scoped traffic).
struct GroupTotals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Totals keyed by group id, decoded from the scoped wire tags.
std::map<int, GroupTotals> group_send_totals(const Schedule& s);

}  // namespace parsvd::verify
