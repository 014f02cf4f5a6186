// Deterministic fault injection for the pmpi runtime.
//
// A FaultPlan is an immutable, seeded schedule of faults evaluated
// against per-rank operation counters: every post()/wait()/barrier() a
// rank performs advances its counter, and the plan decides — as a pure
// function of (seed, rank, op) — whether that operation is faulted.
// Because each rank's operation sequence is deterministic, the same plan
// reproduces the same faults run after run, regardless of thread
// interleaving.  Two layers compose:
//
//   * explicit events: exact (rank, op) -> fault, for regression tests
//     that must hit one specific message;
//   * probabilistic rates: a seeded hash draw per operation, for chaos
//     sweeps (FaultPlan::chaos) across hundreds of seeds.
//
// The transport itself is lossless, as MPI's is: a message is never lost,
// duplicated or corrupted. Two fault kinds remain:
//   Delay — evaluated at the sending rank's post(): delivery is deferred
//           by a number of milliseconds. Later messages on the same
//           (src, tag) channel wait behind it (non-overtaking).
//   Kill  — evaluated at any operation: the rank is marked dead and
//           RankKilledError is thrown out of its rank function; peers
//           observe the death as typed RankDeadError (or exclude it in
//           degraded mode).
//
// Plans can also be loaded from the environment (PARSVD_FAULT_* — see
// from_env), so any binary can be run under chaos without recompiling.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace parsvd::pmpi {

class FaultPlan {
 public:
  /// Empty plan: never faults anything.
  FaultPlan() = default;

  /// Probabilistic chaos plan: every post draws once from a seeded hash
  /// for a delay, every operation once for a kill. Kill draws use an
  /// independent stream so enabling kills does not reshuffle the delays
  /// of the same seed. Both rates must lie in [0, 1].
  static FaultPlan chaos(std::uint64_t seed, double delay_rate,
                         double kill_rate = 0.0);

  /// Build a plan from PARSVD_FAULT_* environment variables:
  ///   PARSVD_FAULT_SEED       hash seed (default 0)
  ///   PARSVD_FAULT_DELAY      delay rate in [0,1]        (default 0)
  ///   PARSVD_FAULT_KILL       kill rate in [0,1]         (default 0)
  ///   PARSVD_FAULT_DELAY_MS   delay parameter            (default 2)
  ///   PARSVD_FAULT_KILL_RANK + PARSVD_FAULT_KILL_AT  explicit kill
  ///   PARSVD_FAULT_PROTECT_ROOT  never kill rank 0      (default true)
  /// A rate outside [0,1] (or NaN) throws ConfigError. Returns an empty
  /// plan when no variable is set.
  static FaultPlan from_env();

  // ------------------------------------------------------------- builders

  /// Kill `rank` when its operation counter reaches `at_op`.
  FaultPlan& kill_rank(int rank, std::uint64_t at_op);

  /// Delay the message `rank` posts as its `at_op`-th operation by `ms`
  /// milliseconds.
  FaultPlan& delay(int rank, std::uint64_t at_op, std::uint32_t ms);

  /// Exempt `rank` from kills (probabilistic and explicit). Degraded-mode
  /// tests protect the root: its death is unrecoverable by design.
  FaultPlan& protect_rank(int rank);

  // -------------------------------------------------------------- queries
  // Pure functions of the immutable plan — safe to call from all rank
  // threads concurrently.

  bool empty() const;

  /// True if any schedule (explicit or probabilistic) can kill a rank.
  bool can_kill() const;

  /// Delivery delay in milliseconds for the message sender `src_rank`
  /// posts as operation `op`, or nullopt when it is not delayed.
  std::optional<std::uint32_t> message_delay(int src_rank,
                                             std::uint64_t op) const;

  /// Should `rank` die at operation `op`?
  bool kills(int rank, std::uint64_t op) const;

  /// Delay parameter used by probabilistic Delay faults (milliseconds).
  std::uint32_t delay_ms = 2;

 private:
  bool is_protected(int rank) const;

  struct Event {
    int rank;
    std::uint64_t op;
  };
  struct DelayEvent {
    int rank;
    std::uint64_t op;
    std::uint32_t ms;
  };
  std::vector<Event> kills_;
  std::vector<DelayEvent> delays_;
  std::vector<int> protected_ranks_;
  std::uint64_t seed_ = 0;
  double delay_ = 0.0, kill_ = 0.0;
};

}  // namespace parsvd::pmpi
