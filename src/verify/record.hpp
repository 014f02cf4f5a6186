// Schedules recorded from the runtime.
//
// The checker (checker.hpp) proves properties of a Schedule. The
// recorder makes that Schedule by running the production code itself —
// the pmpi collectives, tsqr + q_times, apmos_svd, ParallelStreamingSVD
// and subgroup jobs — on pmpi's rank threads, on tiny seeded payloads,
// with a pmpi::WireTap on the Context. Every post becomes a Send and
// every blocking wait a Recv (bounded when death-bounded), carrying the
// world peer, the wire tag, the payload bytes and the pmpi op index. The
// schedules the checker sweeps are therefore the protocols as they are
// written; a protocol change needs no edit here.
//
// A FaultScenario (victim, kill_step) reruns the job under
// FaultPlan::kill_rank(victim, op), where op is the pmpi op index of the
// victim's kill_step-th event in the kill-free recording: the victim
// runs its first kill_step events, then dies before the next one starts
// (kills are evaluated before an op posts or blocks). The victim's script
// is its kill-free recording, which check_fault_schedule truncates; the
// survivors' scripts are what they really did. A receive that resolved
// dead carries kAnyBytes: no message was consumed.
//
// Determinism. A rank's program order is fixed except where it branches
// on a peer's liveness (the bcast fan-out guard, the streaming report's
// dead_ranks()). Under the tap those reads answer from the reading
// rank's own observations — a peer is dead to it only once one of its
// own waits on that peer resolved dead — so two recordings of one
// scenario are identical. A read that answered "alive" although the
// victim, unobserved, may already have been dead makes the recording
// racy: that is the case when the victim dies at or before the event that
// consumes the reader's next message to it. A racy recording still
// checks the alive branch, which carries the most traffic; in the dead
// branch the post merely lands in a dead mailbox.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "pmpi/comm.hpp"
#include "verify/comm_script.hpp"

namespace parsvd::verify {

/// One SPMD job: `body` runs on every rank of a `p`-rank world.
struct Job {
  std::string name;  ///< names the Schedule, e.g. "bcast(p=4, root=0, 64 B)"
  int p = 1;
  std::function<void(pmpi::Communicator&)> body;
  /// Runs on the fresh Context before the ranks start.
  std::function<void(pmpi::Context&)> setup;
};

/// A recorded Schedule under one FaultScenario.
struct Recording {
  Schedule schedule;
  FaultScenario scenario = kKillFree;
  /// A liveness read raced the kill (see the file comment).
  bool racy = false;
};

/// The kill-free recording of `job`. Throws what a rank throws.
Schedule record(const Job& job);

/// `job` recorded under `f`; `kill_free` is record(job). A kill_step
/// past the victim's events (kNoKillStep) is the kill-free run itself.
/// Throws what a survivor throws, or Error when the victim did not run
/// exactly its first kill_step events.
Recording record(const Job& job, const Schedule& kill_free,
                 const FaultScenario& f);

/// Leave the calling rank's traffic so far out of the recording, so a
/// job can exclude its set-up phase. A no-op without a tap.
void restart_recording(pmpi::Communicator& comm);

// ------------------------------------------------------------ the jobs
// Each runs one production call on seeded payloads; row counts and
// byte counts are per rank.

/// bcast_job, reduce_job and allreduce_job post `bytes` of doubles.
Job bcast_job(int p, int root, std::uint64_t bytes);
Job gather_job(int p, int root, std::vector<std::uint64_t> bytes);
Job scatter_rows_job(int p, int root, std::vector<Index> rows, Index cols);
/// Death-aware: the root lists a lost addend instead of throwing.
Job reduce_job(int p, int root, std::uint64_t bytes);
Job allreduce_job(int p, std::uint64_t bytes);
Job allgather_job(int p);  ///< allgather_double
/// tsqr of a rows[r] x k panel, then q_times with a y_cols-column Y.
Job tsqr_job(std::vector<Index> rows, Index k, Index y_cols);
Job apmos_job(std::vector<Index> rows, Index n_cols, Index r1, Index r2,
              bool fault_tolerant);
/// ParallelStreamingSVD: initialize() with num_modes columns (left out of
/// the recording), then `rounds` updates of batch_cols columns.
Job streaming_job(std::vector<Index> rows, Index num_modes, Index batch_cols,
                  int rounds, bool fault_tolerant);

/// The protocol one group of a partition runs.
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

/// Concurrent subgroup jobs on one `world_p`-rank Context: group i (ids
/// minted 1, 2, ... in order) holds the world ranks groups[i] and runs
/// protocols[i] on a subgroup communicator. `bytes` sizes the
/// collectives; TSQR runs a ragged k = 3 layout, APMOS a ragged n = 6,
/// r1 = 3, r2 = 2 one. Members must be disjoint (Error otherwise); a
/// world rank in no group stays silent.
Job partition_job(int world_p, std::vector<std::vector<int>> groups,
                  std::vector<GroupProtocol> protocols, std::uint64_t bytes);

/// One partition of the subgroup sweep: the groups' world ranks and the
/// protocol each group runs (partition_job's arguments).
struct PartitionCase {
  std::vector<std::vector<int>> groups;
  std::vector<GroupProtocol> protocols;
};

/// The subgroup sweep at world size `p`: contiguous halves, a singleton
/// plus the rest, contiguous thirds, and an even/odd interleave
/// (non-contiguous members, so the group-rank -> world-rank translation
/// is exercised, not just offsetting), with empty groups dropped. Shapes
/// collapse for tiny p (p = 1 yields one single-group partition per
/// shape). Protocols are dealt to the groups of all shapes in turn from a
/// counter that starts at p, so at every p >= 2 (8 or 9 groups) each
/// GroupProtocol runs, and the concurrent pairings rotate with p.
std::vector<PartitionCase> group_sweep(int p);

}  // namespace parsvd::verify
