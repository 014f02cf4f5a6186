// pmpi — a small message-passing runtime with MPI semantics.
//
// The paper's library runs on mpi4py; no MPI implementation is available
// in this environment, so pmpi provides the same programming model with
// ranks executed as OS threads inside one process:
//   * explicit point-to-point send/recv with (source, tag) matching and
//     per-channel FIFO ordering — the MPI guarantee algorithms rely on;
//   * the collectives PyParSVD uses (gather, bcast, scatter, allgather,
//     allreduce, reduce, barrier) built on top of point-to-point as flat
//     root loops and fan-outs that are death-aware by construction;
//   * communication-volume accounting (bytes per rank and total), which
//     feeds the weak-scaling cost model in the Figure 1(c) bench.
//
// Ranks do NOT share algorithm state: all inter-rank data flows through
// byte-copied messages, so every communication an MPI run would perform
// is performed (and counted) here too.  What this cannot reproduce is
// network latency/bandwidth — the scaling bench reports measured time and
// modeled communication volume separately for that reason.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pmpi/fault.hpp"
#include "pmpi/request.hpp"
#include "pmpi/tags.hpp"
#include "support/error.hpp"

namespace parsvd::pmpi {

/// Reduction operators for reduce/allreduce.
enum class Op { Sum, Max, Min };

/// Serialize a matrix into the wire format used by send_matrix (shape
/// header + column-major body). Exposed so callers can build composite
/// payloads (metadata + matrix) for one atomic gather.
std::vector<std::byte> pack_matrix(const Matrix& m);
/// Append the wire form of `m` to `out` — lets composite payloads
/// (header + matrix) be built in ONE buffer that is then moved into
/// Context::post, instead of packing into a temporary and copying.
void pack_matrix_into(const Matrix& m, std::vector<std::byte>& out);
Matrix unpack_matrix(std::span<const std::byte> payload);

/// How a strict caller rejects a contribution a death-aware collective
/// could not collect: throws RankDeadError naming the first rank of
/// `missing` (and the collective, `what`); returns when it is empty.
void require_no_missing(std::span<const int> missing, const char* what);

class Context;

/// One wire operation of one rank, as a WireTap records it.
struct WireEvent {
  bool send = false;        ///< a post; otherwise a blocking receive
  int peer = -1;            ///< world rank: the destination / the source
  int tag = 0;              ///< wire tag (group-scoped on a subgroup)
  std::uint64_t bytes = 0;  ///< payload bytes; 0 when resolved dead
  std::uint64_t op = 0;     ///< the rank's pmpi op index (Context::ops)
  bool bounded = false;     ///< a death-bounded receive (wait_bounded)
  /// The receive ended in RankDeadError: its source died before
  /// posting the message.
  bool resolved_dead = false;
};

/// A recording of a job's wire traffic. While a tap is set on a Context
/// every post and every blocking wait of rank r appends a WireEvent to
/// r's log, in program order. Liveness reads (Communicator::is_dead /
/// dead_ranks, e.g. the bcast fan-out guard) then answer from what the
/// reading rank has observed instead of the context's racy truth: a rank
/// sees a peer dead only after one of its own waits on that peer
/// resolved dead. Every read is logged too. Each rank touches only its
/// own log, so the tap needs no lock; read it after the ranks joined.
class WireTap {
 public:
  /// A read of `peer`'s (world rank) liveness, made before the reading
  /// rank's event number `at`.
  struct LivenessRead {
    std::size_t at = 0;
    int peer = -1;
  };

  explicit WireTap(int size) : logs_(static_cast<std::size_t>(size)) {}

  const std::vector<WireEvent>& events(int rank) const {
    return logs_[static_cast<std::size_t>(rank)].events;
  }
  const std::vector<LivenessRead>& reads(int rank) const {
    return logs_[static_cast<std::size_t>(rank)].reads;
  }
  /// Forget `rank`'s events and reads so far (op indices stay absolute),
  /// so a recording can leave out a job's set-up phase.
  void restart(int rank) {
    logs_[static_cast<std::size_t>(rank)].events.clear();
    logs_[static_cast<std::size_t>(rank)].reads.clear();
  }

 private:
  friend class Context;
  struct Log {
    std::vector<WireEvent> events;
    std::vector<LivenessRead> reads;
    std::set<int> seen_dead;
  };
  std::vector<Log> logs_;
};

/// An ordered subset of a Context's world ranks with its own dense rank
/// numbering [0, size()). Minted by Context::group_for — one shared
/// instance per distinct ordered member list, so every member rank that
/// derives the same list gets the same Group (and the same id) with no
/// extra communication. Group ids start at 1 (0 is the implicit world
/// communicator) and key both the group's private wire-tag band
/// (tags::group_scope) and its metric series ("comm.group<id>.messages"
/// / "comm.group<id>.bytes" in the context registry).
class Group {
 public:
  /// Dense group id >= 1, stable for the Context's lifetime.
  int id() const { return id_; }
  int size() const { return static_cast<int>(members_.size()); }
  /// Group rank -> world rank, in group rank order.
  const std::vector<int>& members() const { return members_; }
  int world_rank(int group_rank) const {
    return members_[static_cast<std::size_t>(group_rank)];
  }
  /// World rank -> group rank; -1 for non-members.
  int group_rank_of_world(int world_rank) const {
    return world_to_group_[static_cast<std::size_t>(world_rank)];
  }
  /// Bump the group's metric series for one posted message. Counters are
  /// owned by the context registry; this is the group-scoped view of the
  /// same traffic "comm.messages"/"comm.bytes" count world-wide.
  void note_post(std::size_t bytes) const {
    messages_->add(1);
    bytes_->add(bytes);
  }

 private:
  friend class Context;
  Group() = default;
  int id_ = 0;
  std::vector<int> members_;
  std::vector<int> world_to_group_;
  obs::Counter* messages_ = nullptr;
  obs::Counter* bytes_ = nullptr;
};

/// Shared state of one communicator "job": mailboxes, barrier, counters
/// and fault-injection hooks.
/// Owned jointly by every Communicator handle of the job.
class Context {
 public:
  explicit Context(int size);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  int size() const { return size_; }

  /// Deliver a message into `dest`'s mailbox. The transport is lossless:
  /// the payload is moved in whole and delivered exactly once. The
  /// installed FaultPlan may delay its delivery or kill `src`
  /// (RankKilledError).
  void post(int src, int dest, int tag, std::vector<std::byte> payload);

  /// Block until a message with exactly (src, tag) is available for
  /// `dest` and return its payload. Matching is FIFO per (src, tag)
  /// (MPI's non-overtaking rule): a delayed message holds back every
  /// later message on its channel, and no other channel. A wait that
  /// cannot complete becomes a typed error: CommTimeout once the wait
  /// timeout expires with nothing deliverable or delayed in flight,
  /// RankDeadError when `src` is dead with no message queued or delayed
  /// in flight.
  std::vector<std::byte> wait(int dest, int src, int tag);

  /// wait(), death-bounded: nullopt instead of RankDeadError when `src`
  /// died before posting the message.
  std::optional<std::vector<std::byte>> wait_bounded(int dest, int src,
                                                     int tag);

  /// One point-to-point channel, as named by the multi-channel waits.
  struct Channel {
    int src;
    int tag;
  };

  /// Non-blocking counterpart of wait(): consume and return the next
  /// deliverable (src, tag) message if there is one, nullopt otherwise.
  /// Same channel order as wait(): nullopt while the channel's head is
  /// still delayed, even if its successors are queued. Throws the same
  /// RankDeadError / JobAbortedError once the message can no longer
  /// arrive. Does NOT advance the fault-plan op counter — non-blocking
  /// receives account their operation once, at post time, so polling
  /// frequency cannot perturb a deterministic fault schedule.
  std::optional<std::vector<std::byte>> try_wait(int dest, int src, int tag);

  /// Block until ANY of `channels` has a deliverable message for `dest`;
  /// returns (channel index, payload). Scans channels in order each
  /// round, so an already-queued earlier channel wins ties. Throws
  /// RankDeadError only when every queried source is dead with nothing
  /// in flight — while one source lives, messages already posted by
  /// dead ones are still consumed. Like try_wait, never accounts an op.
  std::pair<std::size_t, std::vector<std::byte>> wait_any(
      int dest, std::span<const Channel> channels);

  /// Advance `rank`'s operation counter (and evaluate kill faults) as
  /// one communication operation. post/wait/barrier call this
  /// internally; the non-blocking layer calls it when a receive is
  /// POSTED so the per-rank op sequence is deterministic under polling.
  std::uint64_t account_op(int rank);

  /// Debug-build channel discipline for non-blocking receives: at most
  /// one outstanding irecv per (dest, src, tag). A second registration
  /// throws a typed CommError naming the channel; release builds
  /// compile both calls to no-ops.
  void register_irecv(int dest, int src, int tag);
  void unregister_irecv(int dest, int src, int tag);

  /// Mint (or look up) the group with exactly this ordered world-rank
  /// member list. Deterministic per list: the first caller allocates the
  /// next id, every later caller with the same list gets the shared
  /// instance — so all members of one split/subgroup agree on the id
  /// without any extra protocol. Concurrent first mints of DIFFERENT
  /// lists take arrival order; callers that need run-to-run stable ids
  /// either mint in a fixed order (Communicator::split does) or pre-mint
  /// here before ranks start.
  std::shared_ptr<const Group> group_for(std::vector<int> members);

  /// Two-phase dissemination barrier over the mailbox fabric is not
  /// needed in-process; a generation-counted central barrier is exact.
  /// Dead ranks are not waited for; pass the calling rank so fault
  /// injection can account (and possibly kill) the operation.
  void barrier(int rank = -1);

  /// Mark the job as failed and wake every blocked rank: any rank
  /// currently (or subsequently) blocked in wait()/barrier() throws
  /// CommError instead of deadlocking. Called by the run() harness when a
  /// rank function exits with an exception.
  void abort_job();
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  // --------------------------------------------- fault injection / faults

  /// Install a fault schedule (before ranks start communicating). If no
  /// wait timeout is configured yet, a default of 2000 ms is set so an
  /// injected death can never hang a rank.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return plan_; }

  /// Maximum blocking time of one wait() before it throws CommTimeout.
  /// Zero (the default without a fault plan) waits forever.
  void set_wait_timeout(std::chrono::milliseconds timeout);

  /// Install a wire tap (before ranks start; nullptr removes it). Null
  /// in production, where it costs one branch per operation.
  void set_tap(WireTap* tap) { tap_ = tap; }
  WireTap* tap() const { return tap_; }

  /// Reject any single payload larger than this (typed CommError).
  void set_max_payload_bytes(std::uint64_t bytes) { max_payload_ = bytes; }
  std::uint64_t max_payload_bytes() const { return max_payload_; }

  /// Mark `rank` dead and wake every blocked rank so waits on it turn
  /// into typed errors (or degraded-mode exclusion) instead of hangs.
  void mark_dead(int rank);
  bool is_dead(int rank) const {
    return dead_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }
  int alive_count() const { return size_ - dead_count_.load(std::memory_order_acquire); }
  std::vector<int> dead_ranks() const;
  /// is_dead(peer) as `rank` may branch on it: the context's truth, or
  /// under a wire tap only a death `rank` observed (see WireTap).
  bool sees_dead(int rank, int peer);

  /// Operations (post/wait/barrier) `rank` has performed so far. The
  /// per-rank sequence is deterministic for a fixed workload, so a probe
  /// run's count is how tests aim kill_rank at a specific later phase.
  std::uint64_t ops(int rank) const {
    return op_counters_[static_cast<std::size_t>(rank)].load(
        std::memory_order_relaxed);
  }

  // ------------------------------------------------------------ statistics

  /// Total payload bytes posted so far (all ranks).
  std::uint64_t total_bytes() const;

  /// Payload bytes posted by one rank.
  std::uint64_t rank_bytes(int rank) const;

  /// Total number of messages posted.
  std::uint64_t total_messages() const;

  /// Always 0: the transport is lossless, so nothing is ever resent.
  /// Kept because the end-to-end benchmark reports it as
  /// pmpi.retransmits.
  std::uint64_t retransmits() const { return 0; }

  /// Faults the installed plan actually injected.
  std::uint64_t faults_injected() const { return faults_injected_->value(); }

  /// The per-context metrics registry backing every statistic above —
  /// the single source of truth ("comm.messages", "comm.bytes",
  /// "comm.rank<r>.bytes", "comm.faults_injected",
  /// "comm.timeouts", "comm.payload_bytes" histogram). The accessors
  /// above are views into it.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingMessage {
    int src;
    int tag;
    Clock::time_point deliver_after;  // epoch = deliverable immediately
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<PendingMessage> queue;  // arrival order, all channels
  };

  /// Consume the first queued (src, tag) message of dest's queue into
  /// *out. If that message is still delayed, nothing on the channel is
  /// deliverable yet (non-overtaking): its release time is folded into
  /// *next_deliverable and the scan returns false. Caller holds box.mu.
  bool scan_channel_locked(Mailbox& box, int dest, int src, int tag,
                           std::vector<std::byte>* out,
                           Clock::time_point* next_deliverable);

  /// Shared engine under wait / wait_any: blocking multi-channel scan
  /// with the lazily-armed watchdog deadline. Never accounts an op
  /// (callers decide).
  std::pair<std::size_t, std::vector<std::byte>> wait_any_impl(
      int dest, std::span<const Channel> channels);

  /// wait / wait_bounded: accounts the op, records it on the tap.
  std::optional<std::vector<std::byte>> wait_channel(int dest, int src,
                                                     int tag,
                                                     bool death_bounded);

  /// Lazily start the deadline watchdog (bounded waits sleep untimed and
  /// rely on its periodic mailbox wakes to re-check their deadline).
  void ensure_watchdog();
  void watchdog_loop();

  int size_;
  std::atomic<bool> aborted_{false};
  std::vector<std::unique_ptr<Mailbox>> boxes_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Communication statistics live in the per-context metrics registry;
  // the hot-path pointers below are resolved once at construction so
  // post() pays one relaxed atomic add per series, no mutex.
  obs::Registry metrics_;
  obs::Counter* messages_total_ = nullptr;
  obs::Counter* bytes_total_ = nullptr;
  std::vector<obs::Counter*> bytes_by_rank_;
  obs::Histogram* payload_hist_ = nullptr;

  FaultPlan plan_;
  bool plan_active_ = false;
  bool plan_can_kill_ = false;  // cached plan_.can_kill(): skips the
                                // per-operation kill lookup for plans
                                // that only delay messages
  std::chrono::milliseconds wait_timeout_{0};
  WireTap* tap_ = nullptr;
  std::uint64_t max_payload_ = std::uint64_t{1} << 33;  // 8 GiB
  std::vector<std::atomic<std::uint64_t>> op_counters_;
  std::vector<std::atomic<bool>> dead_;
  std::atomic<int> dead_count_{0};
  /// Watchdog tick period: the granularity of bounded-wait deadlines.
  /// Coarse on purpose — the timeout is hang protection, not a precise
  /// timer, and the coarse tick keeps armed timers off the message path.
  static constexpr std::chrono::milliseconds kWatchdogTick{20};
  std::thread watchdog_;
  std::atomic<bool> watchdog_started_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<std::uint64_t> watchdog_ticks_{0};
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  obs::Counter* faults_injected_ = nullptr;
  obs::Counter* timeouts_ = nullptr;

  // Debug-build registry of outstanding non-blocking receives, keyed
  // (dest, src, tag). Unused (but kept declared, for a single layout
  // across build types) in release builds.
  std::mutex irecv_mu_;
  std::set<std::tuple<int, int, int>> open_irecvs_;

  // Communicator groups, keyed by their ordered member list so every
  // member minting the same subgroup resolves to one shared instance.
  std::mutex groups_mu_;
  std::map<std::vector<int>, std::shared_ptr<const Group>> groups_;
  int next_group_id_ = 1;
};

/// Per-rank handle: the library-facing API (mirrors the MPI calls used in
/// PyParSVD Listings 3 and 4).
///
/// A Communicator is either the world communicator (every Context rank,
/// world rank numbering, raw tags on the wire) or a GROUP communicator
/// produced by split()/subgroup(): ranks are the group's dense
/// [0, size()) numbering, and every post/wait internally translates
/// (rank, tag) to (world rank, tags::group_scope(id, tag)) — so the full
/// API, the collectives, fault injection and the Request layer work
/// unchanged on subgroups, and sibling groups can
/// run concurrently on one Context without tag collisions.
class Communicator {
 public:
  Communicator(int rank, std::shared_ptr<Context> ctx);
  /// Group communicator: `rank` is the GROUP-local rank of this handle
  /// inside `group` (pass the result of Group::group_rank_of_world).
  Communicator(int rank, std::shared_ptr<Context> ctx,
               std::shared_ptr<const Group> group);

  int rank() const { return rank_; }
  int size() const { return group_ ? group_->size() : ctx_->size(); }
  bool is_root() const { return rank_ == 0; }
  Context& context() { return *ctx_; }
  const Context& context() const { return *ctx_; }

  /// The group behind this communicator; nullptr for the world
  /// communicator.
  const Group* group() const { return group_.get(); }
  /// This handle's rank in the underlying Context (== rank() on the
  /// world communicator).
  int world_rank() const { return wr(rank_); }

  // ------------------------------------------------- communicator groups

  /// Collective over this communicator (MPI_Comm_split semantics): ranks
  /// passing the same non-negative `color` form one subgroup, ordered by
  /// (key, parent rank); `color < 0` opts out and yields nullopt. One
  /// allgather of (color, key) over the parent is the only
  /// communication; every member then derives the member list locally
  /// and resolves the same shared Group. Groups are minted in ascending
  /// color order, so ids are deterministic run-to-run.
  std::optional<Communicator> split(int color, int key = 0);

  /// Purely local subgroup of this communicator's ranks: every member of
  /// `ranks` must call with an identical list (the MPI_Comm_create
  /// contract); non-members may call and get nullopt. `ranks` order
  /// defines the group's dense numbering. No communication — but
  /// concurrent FIRST mints of different lists get arrival-order ids;
  /// pre-mint via Context::group_for when ids must be run-to-run stable.
  std::optional<Communicator> subgroup(std::span<const int> ranks) const;

  /// Dead ranks as THIS communicator numbers them: group-local ranks on
  /// a group communicator (a sibling group's dead rank is invisible
  /// here — the death-isolation contract), world ranks on the world
  /// communicator.
  /// Both read through Context::sees_dead, so a wire tap can answer.
  std::vector<int> dead_ranks() const;
  bool is_dead(int rank) const {
    return ctx_->sees_dead(world_rank(), wr(rank));
  }
  int alive_count() const;

  // ------------------------------------------------------- point-to-point

  /// Blocking-buffered send of trivially copyable elements. Payloads
  /// beyond the context's size cap raise a typed CommError before any
  /// buffering happens.
  template <typename T>
  void send(std::span<const T> data, int dest, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_peer(dest);
    check_tag(tag);
    check_payload(data.size_bytes());
    std::vector<std::byte> payload(data.size_bytes());
    std::memcpy(payload.data(), data.data(), data.size_bytes());
    post_scoped(dest, tag, std::move(payload));
  }

  /// Blocking receive; returns the full payload reinterpreted as T.
  template <typename T>
  std::vector<T> recv(int src, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_peer(src);
    check_tag(tag);
    const std::vector<std::byte> payload = wait_scoped(src, tag);
    PARSVD_REQUIRE(payload.size() % sizeof(T) == 0,
                   "received payload not a whole number of elements");
    std::vector<T> out(payload.size() / sizeof(T));
    std::memcpy(out.data(), payload.data(), payload.size());
    return out;
  }

  /// Matrix-valued send/recv (shape travels with the data).
  void send_matrix(const Matrix& m, int dest, int tag = 0);
  Matrix recv_matrix(int src, int tag = 0);

  // ------------------------------------------------- non-blocking layer
  // isend posts immediately (buffered) and returns an already-complete
  // request; irecv registers a channel and completes via test()/wait()/
  // wait_any(). See request.hpp for the full lifecycle contract.

  template <typename T>
  Request isend(std::span<const T> data, int dest, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_peer(dest);
    check_tag(tag);
    check_payload(data.size_bytes());
    std::vector<std::byte> payload(data.size_bytes());
    std::memcpy(payload.data(), data.data(), data.size_bytes());
    post_scoped(dest, tag, std::move(payload));
    return Request(ctx_, Request::Kind::Send, wr(rank_), wr(dest),
                   wire_tag(tag), /*done=*/true);
  }

  Request isend_matrix(const Matrix& m, int dest, int tag = 0);

  /// Post a non-blocking receive on (src, tag). The fault-plan op is
  /// accounted here, once; debug builds reject a second outstanding
  /// irecv on the same channel.
  Request irecv(int src, int tag = 0);

  // ----------------------------------------------------------- collectives
  // Every collective must be called by all SURVIVING ranks of the
  // communicator, in the same order — the MPI contract. One family,
  // death-aware by construction: every root-side wait is death-bounded
  // (a rank that died before posting leaves a missing slot instead of a
  // hang), and the bcast fan-out skips ranks already marked dead.
  // Messages a rank posted before dying are still consumed, so a
  // contribution is only missing when its rank died before sending it.
  // The root must survive: non-roots wait on it with a plain receive,
  // and its death surfaces as RankDeadError.

  /// World communicator: the context's central generation barrier.
  /// Group communicator: a message-based flat gather + release on the
  /// group's scoped tags::kBarrier channel, so a member death surfaces
  /// here (RankDeadError) and never stalls a sibling group's barrier.
  void barrier();

  /// Flat fan-out broadcast: the root posts one copy on tags::kBcast to
  /// every rank not marked dead; `data` is input at root, output
  /// elsewhere.
  template <typename T>
  void bcast(std::vector<T>& data, int root = 0);

  void bcast_matrix(Matrix& m, int root = 0);
  void bcast_double(double& value, int root = 0);
  void bcast_index(Index& value, int root = 0);

  /// The gather engine (flat root loop on tags::kGather, ascending rank
  /// order): at root, slot i holds rank i's payload, or nullopt when
  /// rank i died before posting it. Non-root ranks receive an empty
  /// vector.
  std::vector<std::optional<std::vector<std::byte>>> gather_bytes(
      std::vector<std::byte> local, int root = 0);

  /// gather_bytes of packed matrices, unpacked at root.
  std::vector<std::optional<Matrix>> gather_matrices(const Matrix& local,
                                                     int root = 0);

  /// Gather variable-length element buffers at root (concatenated in rank
  /// order); the per-rank lengths are returned via `counts` at root.
  /// Strict: a missing contribution raises RankDeadError at root.
  template <typename T>
  std::vector<T> gatherv(std::span<const T> local, int root,
                         std::vector<std::size_t>* counts = nullptr);

  /// Allgather of one scalar per rank → vector indexed by rank. Strict.
  std::vector<double> allgather_double(double value);
  std::vector<Index> allgather_index(Index value);

  /// Scatter row-blocks of a matrix held at root: rank i receives
  /// rows [offsets[i], offsets[i] + rows_per_rank[i]). Only root reads
  /// `full`.
  Matrix scatter_rows(const Matrix& full, std::span<const Index> rows_per_rank,
                      int root = 0);

  /// Elementwise reduction to root (flat root loop on tags::kReduce):
  /// the root's own data first, then the other ranks in ascending order,
  /// so the result is deterministic run-to-run. `data` must be the same
  /// length on every rank; non-root contents are left untouched. A rank
  /// that died before posting is left out of the fold: with `missing`
  /// null that raises RankDeadError at root (strict), otherwise root
  /// lists the rank in `*missing` and reduces over the survivors.
  void reduce(std::span<double> data, Op op, int root = 0,
              std::vector<int>* missing = nullptr);

  /// Reduction visible on every rank: reduce to rank 0, then bcast.
  /// `missing` as for reduce (filled at rank 0 only).
  void allreduce(std::span<double> data, Op op,
                 std::vector<int>* missing = nullptr);
  double allreduce_scalar(double value, Op op);

 private:
  void check_peer(int peer) const {
    PARSVD_REQUIRE(peer >= 0 && peer < size(), "peer rank out of range");
  }
  void check_tag(int tag) const {
    PARSVD_REQUIRE(tag >= 0, "user tags must be non-negative");
    PARSVD_REQUIRE(!group_ || tag < tags::kGroupUserLimit,
                   "group communicator user tags must be below "
                   "tags::kGroupUserLimit (the scoped band is finite)");
  }
  /// Reject degenerate payload sizes with a typed CommError before any
  /// buffer is allocated (oversized sends were previously unguarded).
  void check_payload(std::size_t bytes) const;

  // Collective tags live in the tags:: registry (tags.hpp); they are
  // negative, which the public API rejects for user traffic.

  // ------------------------------------- group rank/tag translation
  // EVERY context access of this communicator funnels through these:
  // on a group communicator they translate local ranks to world ranks
  // and relocate local tags into the group's scoped band, and
  // post_scoped additionally bumps the group's metric series. On the
  // world communicator all three are identities.

  int wr(int rank) const { return group_ ? group_->world_rank(rank) : rank; }
  int wire_tag(int tag) const {
    return group_ ? tags::group_scope(group_->id(), tag) : tag;
  }
  void post_scoped(int dest, int tag, std::vector<std::byte> payload);
  std::vector<std::byte> wait_scoped(int src, int tag);

  /// A death-bounded receive: the payload, or nullopt when `src` died
  /// before posting it (RankDeadError from the wait, caught).
  std::optional<std::vector<std::byte>> wait_bounded(int src, int tag);

  /// The bcast engine under bcast / bcast_matrix: `payload` is input at
  /// root, output elsewhere.
  void bcast_bytes(std::vector<std::byte>& payload, int root);

  // Group-local rank on a group communicator, world rank otherwise.
  int rank_;
  std::shared_ptr<Context> ctx_;
  std::shared_ptr<const Group> group_;  // null on the world communicator
};

template <typename T>
void Communicator::bcast(std::vector<T>& data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> payload;
  if (rank_ == root) {
    payload.resize(data.size() * sizeof(T));
    std::memcpy(payload.data(), data.data(), payload.size());
  }
  bcast_bytes(payload, root);
  if (rank_ != root) {
    PARSVD_REQUIRE(payload.size() % sizeof(T) == 0,
                   "bcast: payload not a whole number of elements");
    data.resize(payload.size() / sizeof(T));
    std::memcpy(data.data(), payload.data(), payload.size());
  }
}

template <typename T>
std::vector<T> Communicator::gatherv(std::span<const T> local, int root,
                                     std::vector<std::size_t>* counts) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_peer(root);
  std::vector<std::byte> payload(local.size_bytes());
  std::memcpy(payload.data(), local.data(), local.size_bytes());
  std::vector<std::optional<std::vector<std::byte>>> parts =
      gather_bytes(std::move(payload), root);
  if (rank_ != root) return {};
  std::vector<int> missing;
  std::size_t total = 0;
  for (int src = 0; src < size(); ++src) {
    const auto& part = parts[static_cast<std::size_t>(src)];
    if (part) {
      total += part->size();
    } else {
      missing.push_back(src);
    }
  }
  require_no_missing(missing, "gatherv");
  if (counts) counts->assign(static_cast<std::size_t>(size()), 0);
  std::vector<T> out(total / sizeof(T));
  std::byte* cursor = reinterpret_cast<std::byte*>(out.data());
  for (int src = 0; src < size(); ++src) {
    const std::vector<std::byte>& part = *parts[static_cast<std::size_t>(src)];
    if (counts) (*counts)[static_cast<std::size_t>(src)] = part.size() / sizeof(T);
    if (part.empty()) continue;
    std::memcpy(cursor, part.data(), part.size());
    cursor += part.size();
  }
  return out;
}

/// Launch `size` ranks (threads), each running fn(comm). Joins all ranks;
/// the first rank exception (by rank order) is rethrown in the caller.
/// RankKilledError (an injected fault-plan death) is NOT rethrown: the
/// dead rank is recorded in Context::dead_ranks() and the survivors'
/// outcome decides the job's fate — degraded completion returns normally,
/// a stuck survivor surfaces as RankDeadError/CommTimeout.
void run(int size, const std::function<void(Communicator&)>& fn);

/// As `run`, but also returns the context for post-mortem statistics
/// (communication volume, message counts, dead ranks).
std::shared_ptr<Context> run_with_stats(
    int size, const std::function<void(Communicator&)>& fn);

/// Run ranks on a caller-configured context (fault plan, timeouts,
/// payload cap). The context must be freshly constructed with the
/// desired size. Returns `ctx` for post-mortem inspection.
std::shared_ptr<Context> run_on(std::shared_ptr<Context> ctx,
                                const std::function<void(Communicator&)>& fn);

// The two halves of run_on, for callers that keep their own rank threads.

/// One rank of run_on: fn on rank `rank` of `ctx`. An injected death ends
/// the rank quietly; any other exception lands in *error and aborts the
/// job so no peer waits for it forever.
void run_rank(const std::shared_ptr<Context>& ctx, int rank,
              const std::function<void(Communicator&)>& fn,
              std::exception_ptr* error);

/// After every rank returned: rethrow the job's root-cause error, if any
/// (a non-comm error before a comm error before JobAbortedError, then
/// lowest rank first).
void rethrow_job_error(std::span<const std::exception_ptr> errors);

}  // namespace parsvd::pmpi
