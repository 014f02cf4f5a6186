// CommScript: a solver's communication schedule as plain data.
//
// A Schedule holds, per rank, the ordered sequence of wire operations
// the rank performs: sends, blocking receives, non-blocking receive
// posts and their completion waits, each carrying (peer, tag, byte
// count) and nothing else. The recorder (record.hpp) takes it from the
// threaded runtime by running the production code under a wire tap;
// the seeded defects (selftest.hpp) are built by hand. The
// ScheduleChecker (checker.hpp) then proves properties of the
// choreography without executing it again.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace parsvd::verify {

/// Wildcard byte count for messages whose size is not statically known
/// to the receiver (the checker then matches on (peer, tag) only).
inline constexpr std::uint64_t kAnyBytes = ~std::uint64_t{0};

/// One wire operation of one rank, in program order.
struct CommEvent {
  enum class Kind {
    Send,       ///< buffered post to `peer` — never blocks in pmpi
    Recv,       ///< blocking receive from `peer`
    IrecvPost,  ///< non-blocking receive registration (opens `req`)
    Wait,       ///< blocking completion of the irecv that opened `req`
    WaitAll,    ///< blocking completion of `reqs` in any order (the
                ///< wait_any consume loop, order-abstracted)
  };
  Kind kind = Kind::Send;
  int peer = -1;  ///< Send: destination rank; Recv/IrecvPost: source rank
  int tag = 0;
  std::uint64_t bytes = 0;  ///< payload bytes (kAnyBytes = unknown)
  int req = -1;             ///< IrecvPost: id it opens; Wait: id it closes
  std::vector<int> reqs;    ///< WaitAll: ids it closes
  /// Recv only: the receive resolves when its source rank dies (the
  /// collectives' root-side waits catch RankDeadError and dead-resolve
  /// instead of blocking forever). A naked (bounded=false) receive
  /// stuck on a dead source is the OrphanedWait defect the fault
  /// checker exists to catch.
  bool bounded = false;
  std::string note;         ///< human context for counterexample traces
  /// Recorded events: the rank's pmpi op index (what FaultPlan::kill_rank
  /// aims at); -1 for hand-built ones.
  std::int64_t op = -1;
};

const char* to_string(CommEvent::Kind kind);
/// One-line rendering for counterexample traces, e.g.
/// "Recv(src=3, tag=-2, 40 B)  // bcast down-edge".
std::string to_string(const CommEvent& e);

/// One rank's ordered schedule plus its irecv bookkeeping.
class CommScript {
 public:
  explicit CommScript(int rank) : rank_(rank) {}

  int rank() const { return rank_; }
  const std::vector<CommEvent>& events() const { return events_; }

  void send(int dest, int tag, std::uint64_t bytes, std::string note = "");
  void recv(int src, int tag, std::uint64_t bytes, std::string note = "");
  /// A death-bounded blocking receive: resolves (without consuming)
  /// once `src` is dead with nothing recoverable in flight — the
  /// collectives' degraded-completion wait.
  void recv_bounded(int src, int tag, std::uint64_t bytes,
                    std::string note = "");
  /// Returns the request id for a later wait()/wait_all().
  int irecv(int src, int tag, std::uint64_t bytes, std::string note = "");
  void wait(int req, std::string note = "");
  void wait_all(std::vector<int> reqs, std::string note = "");
  /// Append a Send or Recv taken from a recording.
  void append(CommEvent e) { events_.push_back(std::move(e)); }

 private:
  int rank_;
  int next_req_ = 0;
  std::vector<CommEvent> events_;
};

/// One protocol instance: a named set of per-rank scripts, index = rank.
struct Schedule {
  std::string name;  ///< e.g. "gather(p=12, root=0)"
  std::vector<CommScript> ranks;

  int size() const { return static_cast<int>(ranks.size()); }
  std::size_t total_events() const {
    std::size_t n = 0;
    for (const CommScript& s : ranks) n += s.events().size();
    return n;
  }
};

/// A Schedule with one per-rank script builder per rank, ready to emit.
Schedule make_schedule(std::string name, int p);

/// A single-rank failure transition over a Schedule: `victim` executes
/// exactly its first `kill_step` events, then dies. The event at index
/// kill_step never starts — pmpi evaluates kills inside account_op,
/// BEFORE the op posts a message or blocks, so a killing post neither
/// delivers nor counts in the registry totals. kill_step >= the
/// victim's event count (e.g. kNoKillStep) models a run the victim
/// survives; victim = -1 (kKillFree) models a run where no rank dies.
struct FaultScenario {
  int victim = -1;
  std::size_t kill_step = 0;

  std::string suffix() const;  ///< " + kill(victim=3, step=2)"
};

/// kill_step sentinel for "the victim never dies" (healthy emission).
inline constexpr std::size_t kNoKillStep = ~std::size_t{0};

/// The scenario in which nobody dies.
inline constexpr FaultScenario kKillFree{-1, kNoKillStep};

}  // namespace parsvd::verify
