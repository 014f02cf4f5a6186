// Schedule emitters for the protocols that have no fault story of their
// own, and the communicator-group machinery.
//
// The death-aware collectives and solvers (gather, bcast, reduce,
// allreduce, allgather, TSQR, APMOS, streaming) each have ONE emitter,
// parameterised by a FaultScenario, in verify/fault_schedules.hpp; its
// kill-free emission is the fault-free schedule. This header holds the
// rest: scatter_rows, the message-based group barrier, and the
// embedding of a group-local schedule into a world schedule. Same tag
// registry (pmpi/tags.hpp), same program order, same byte counts as the
// production path, as plain CommScript data the ScheduleChecker can
// prove match-complete and deadlock-free without running a thread.
#pragma once

#include <cstdint>
#include <map>
#include <span>

#include "verify/comm_script.hpp"

namespace parsvd::verify {

/// Communicator::scatter_rows — root fans row blocks out directly.
/// `block_bytes` is the packed payload each rank receives (size p).
Schedule script_scatter_rows(int p, int root,
                             std::span<const std::uint64_t> block_bytes);

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
/// simply stays silent. `bytes` seeds the collective payload sizes;
/// TSQR runs a fixed ragged k = 3 layout and APMOS a fixed ragged
/// n = 6, r1 = 3, r2 = 2 one.
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
