#include "pmpi/comm.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <thread>

#include "support/env.hpp"
#include "support/log.hpp"

namespace parsvd::pmpi {

// ---------------------------------------------------------------- Context

Context::Context(int size)
    : size_(size),
      op_counters_(static_cast<std::size_t>(std::max(size, 1))),
      dead_(static_cast<std::size_t>(std::max(size, 1))) {
  PARSVD_REQUIRE(size >= 1, "communicator size must be >= 1");
  boxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) boxes_.push_back(std::make_unique<Mailbox>());
  messages_total_ = &metrics_.counter("comm.messages");
  bytes_total_ = &metrics_.counter("comm.bytes");
  bytes_by_rank_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    bytes_by_rank_.push_back(
        &metrics_.counter("comm.rank" + std::to_string(r) + ".bytes"));
  }
  payload_hist_ = &metrics_.histogram("comm.payload_bytes");
  faults_injected_ = &metrics_.counter("comm.faults_injected");
  timeouts_ = &metrics_.counter("comm.timeouts");
  // Timeout up to a day; payload cap up to 1 TiB, 0 keeping the default.
  wait_timeout_ = std::chrono::milliseconds(
      env::get_int("PARSVD_FAULT_TIMEOUT_MS", 0, 0, 86'400'000));
  const std::int64_t max_mb =
      env::get_int("PARSVD_MAX_PAYLOAD_MB", 0, 0, std::int64_t{1} << 20);
  if (max_mb > 0) max_payload_ = static_cast<std::uint64_t>(max_mb) << 20;
  FaultPlan env_plan = FaultPlan::from_env();
  if (!env_plan.empty()) set_fault_plan(std::move(env_plan));
}

Context::~Context() {
  watchdog_stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_cv_.notify_all();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

void Context::ensure_watchdog() {
  if (watchdog_started_.load(std::memory_order_acquire)) return;
  // Called with a mailbox mutex held; safe because the watchdog never
  // holds watchdog_mu_ while taking a mailbox mutex.
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  if (watchdog_started_.load(std::memory_order_relaxed)) return;
  watchdog_ = std::thread([this] { watchdog_loop(); });
  watchdog_started_.store(true, std::memory_order_release);
}

void Context::watchdog_loop() {
  obs::set_thread_identity(-1, 90, "watchdog");
  // Low-frequency broadcaster backing bounded wait() deadlines: sleeping
  // receivers use plain (untimed) cv waits and rely on these periodic
  // wakes to notice an expired deadline. The tick bounds how late a
  // CommTimeout can fire, and one shared timer replaces a per-sleep
  // armed timer on every blocking receive.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock, kWatchdogTick);
    }
    if (watchdog_stop_.load(std::memory_order_acquire)) return;
    watchdog_ticks_.fetch_add(1, std::memory_order_relaxed);
    for (auto& box : boxes_) {
      std::lock_guard<std::mutex> lock(box->mu);
      box->cv.notify_all();
    }
  }
}

void Context::set_fault_plan(FaultPlan plan) {
  plan_ = std::move(plan);
  plan_active_ = !plan_.empty();
  plan_can_kill_ = plan_active_ && plan_.can_kill();
  // Under a fault plan, a wait that can no longer complete must end in a
  // typed error rather than a hang.
  if (plan_active_ && wait_timeout_.count() == 0) {
    wait_timeout_ = std::chrono::milliseconds(2000);
  }
}

void Context::set_wait_timeout(std::chrono::milliseconds timeout) {
  wait_timeout_ = std::max(timeout, std::chrono::milliseconds(0));
}

std::uint64_t Context::account_op(int rank) {
  if (rank < 0) return 0;
  const std::uint64_t op = op_counters_[static_cast<std::size_t>(rank)]
                               .fetch_add(1, std::memory_order_relaxed);
  if (plan_can_kill_ && plan_.kills(rank, op)) {
    faults_injected_->add(1);
    PARSVD_TRACE_INSTANT("fault.kill");
    log::warn("pmpi: fault plan kills rank ", rank, " at op ", op);
    mark_dead(rank);
    throw RankKilledError("rank " + std::to_string(rank) +
                          " killed by fault plan at op " + std::to_string(op));
  }
  return op;
}

void Context::mark_dead(int rank) {
  if (rank < 0 || rank >= size_) return;
  if (dead_[static_cast<std::size_t>(rank)].exchange(
          true, std::memory_order_acq_rel)) {
    return;
  }
  dead_count_.fetch_add(1, std::memory_order_acq_rel);
  log::warn("pmpi: rank ", rank, " is dead (", alive_count(), " of ", size_,
            " ranks survive)");
  // Wake every blocked wait() so peers observing the death convert it
  // into RankDeadError / degraded exclusion instead of sleeping on.
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
  // A barrier no longer waits for the dead rank: release the current
  // generation if the survivors are all present.
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    if (barrier_waiting_ > 0 &&
        barrier_waiting_ + dead_count_.load(std::memory_order_acquire) >=
            size_) {
      barrier_waiting_ = 0;
      ++barrier_generation_;
    }
    barrier_cv_.notify_all();
  }
}

std::vector<int> Context::dead_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < size_; ++r) {
    if (is_dead(r)) out.push_back(r);
  }
  return out;
}

bool Context::sees_dead(int rank, int peer) {
  if (tap_ == nullptr) return is_dead(peer);
  WireTap::Log& log = tap_->logs_[static_cast<std::size_t>(rank)];
  log.reads.push_back({log.events.size(), peer});
  return log.seen_dead.count(peer) != 0;
}

void Context::post(int src, int dest, int tag, std::vector<std::byte> payload) {
  PARSVD_REQUIRE(dest >= 0 && dest < size_, "post: dest out of range");
  if (payload.size() > max_payload_) {
    throw CommError("pmpi: payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the per-message cap of " +
                    std::to_string(max_payload_) + " bytes");
  }
  const std::uint64_t op = account_op(src);
  if (tap_) {
    tap_->logs_[static_cast<std::size_t>(src)].events.push_back(
        {true, dest, tag, payload.size(), op});
  }
  messages_total_->add(1);
  bytes_total_->add(payload.size());
  bytes_by_rank_[static_cast<std::size_t>(src)]->add(payload.size());
  payload_hist_->record(payload.size());
  std::optional<std::uint32_t> delay;
  if (plan_active_) delay = plan_.message_delay(src, op);

  Mailbox& box = *boxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    PendingMessage msg{src, tag, Clock::time_point{}, std::move(payload)};
    log::trace("pmpi: post src=", src, " dest=", dest, " tag=", tag,
               " bytes=", msg.payload.size());
    if (delay) {
      faults_injected_->add(1);
      PARSVD_TRACE_INSTANT("fault.inject");
      log::debug("pmpi: inject delay of ", *delay, " ms src=", src,
                 " dest=", dest, " tag=", tag);
      msg.deliver_after = Clock::now() + std::chrono::milliseconds(*delay);
    }
    box.queue.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

bool Context::scan_channel_locked(Mailbox& box, int dest, int src, int tag,
                                  std::vector<std::byte>* out,
                                  Clock::time_point* next_deliverable) {
  // Only the channel's first queued message is a candidate: the queue
  // holds arrival order, so delivering it first is MPI's non-overtaking
  // rule, and a delayed head holds back its successors.
  const auto it = std::find_if(box.queue.begin(), box.queue.end(),
                               [src, tag](const PendingMessage& m) {
                                 return m.src == src && m.tag == tag;
                               });
  if (it == box.queue.end()) return false;
  // Only delayed messages carry a non-epoch deliver_after, so the scan
  // normally needs no clock read at all.
  if (it->deliver_after != Clock::time_point{} &&
      it->deliver_after > Clock::now()) {
    *next_deliverable = std::min(*next_deliverable, it->deliver_after);
    return false;
  }
  log::trace("pmpi: consume dest=", dest, " src=", src, " tag=", tag,
             " bytes=", it->payload.size());
  *out = std::move(it->payload);
  box.queue.erase(it);
  return true;
}

std::vector<std::byte> Context::wait(int dest, int src, int tag) {
  return *wait_channel(dest, src, tag, /*death_bounded=*/false);
}

std::optional<std::vector<std::byte>> Context::wait_bounded(int dest, int src,
                                                            int tag) {
  return wait_channel(dest, src, tag, /*death_bounded=*/true);
}

std::optional<std::vector<std::byte>> Context::wait_channel(
    int dest, int src, int tag, bool death_bounded) {
  const std::uint64_t op = account_op(dest);
#ifndef NDEBUG
  {
    // A blocking receive racing an outstanding irecv on the same channel
    // would steal its message: same channel-discipline violation as two
    // overlapping irecvs.
    std::lock_guard<std::mutex> lock(irecv_mu_);
    if (open_irecvs_.count({dest, src, tag}) != 0) {
      throw CommError(
          "pmpi: blocking receive overlaps an outstanding non-blocking "
          "receive on channel (dest " +
          std::to_string(dest) + " <- src " + std::to_string(src) + ", tag " +
          std::to_string(tag) + ")");
    }
  }
#endif
  const Channel channel{src, tag};
  try {
    std::vector<std::byte> payload =
        wait_any_impl(dest, std::span<const Channel>(&channel, 1)).second;
    if (tap_) {
      tap_->logs_[static_cast<std::size_t>(dest)].events.push_back(
          {false, src, tag, payload.size(), op, death_bounded});
    }
    return payload;
  } catch (const RankDeadError&) {
    if (tap_) {
      WireTap::Log& log = tap_->logs_[static_cast<std::size_t>(dest)];
      log.events.push_back({false, src, tag, 0, op, death_bounded, true});
      log.seen_dead.insert(src);
    }
    if (!death_bounded) throw;
    return std::nullopt;  // died before posting: excluded, not waited for
  }
}

std::optional<std::vector<std::byte>> Context::try_wait(int dest, int src,
                                                        int tag) {
  PARSVD_REQUIRE(dest >= 0 && dest < size_, "try_wait: dest out of range");
  PARSVD_REQUIRE(src >= 0 && src < size_, "try_wait: src out of range");
  Mailbox& box = *boxes_[static_cast<std::size_t>(dest)];
  std::lock_guard<std::mutex> lock(box.mu);
  std::vector<std::byte> out;
  Clock::time_point next_deliverable = Clock::time_point::max();
  if (scan_channel_locked(box, dest, src, tag, &out, &next_deliverable)) {
    return out;
  }
  if (aborted()) {
    throw JobAbortedError("communicator aborted while polling for a message");
  }
  // A delayed message still scheduled for delivery counts as "in
  // flight", so a dead source with one pending is not yet an error.
  if (is_dead(src) && next_deliverable == Clock::time_point::max()) {
    throw RankDeadError("pmpi: rank " + std::to_string(dest) +
                        " polling dead rank " + std::to_string(src) +
                        " (tag " + std::to_string(tag) + ")");
  }
  return std::nullopt;
}

std::pair<std::size_t, std::vector<std::byte>> Context::wait_any(
    int dest, std::span<const Channel> channels) {
  return wait_any_impl(dest, channels);
}

void Context::register_irecv(int dest, int src, int tag) {
#ifndef NDEBUG
  std::lock_guard<std::mutex> lock(irecv_mu_);
  if (!open_irecvs_.insert({dest, src, tag}).second) {
    throw CommError(
        "pmpi: concurrent non-blocking receives share channel (dest " +
        std::to_string(dest) + " <- src " + std::to_string(src) + ", tag " +
        std::to_string(tag) + ")");
  }
#else
  (void)dest;
  (void)src;
  (void)tag;
#endif
}

void Context::unregister_irecv(int dest, int src, int tag) {
#ifndef NDEBUG
  std::lock_guard<std::mutex> lock(irecv_mu_);
  open_irecvs_.erase({dest, src, tag});
#else
  (void)dest;
  (void)src;
  (void)tag;
#endif
}

std::pair<std::size_t, std::vector<std::byte>> Context::wait_any_impl(
    int dest, std::span<const Channel> channels) {
  PARSVD_REQUIRE(dest >= 0 && dest < size_, "wait: dest out of range");
  PARSVD_REQUIRE(!channels.empty(), "wait: no channels to wait on");
  for (const Channel& c : channels) {
    PARSVD_REQUIRE(c.src >= 0 && c.src < size_, "wait: src out of range");
  }
  PARSVD_TRACE_SCOPE("comm.wait");
  Mailbox& box = *boxes_[static_cast<std::size_t>(dest)];
  std::unique_lock<std::mutex> lock(box.mu);

  const bool bounded = wait_timeout_.count() > 0;
  // Deadlines run on the watchdog's coarse tick counter: arming and
  // expiry checks are one relaxed atomic load each, so a bounded wait
  // adds no clock reads or armed timers to the messaging fast path. The
  // deadline is armed lazily on the first sleep — a wait that finds its
  // message already queued (the common case) pays nothing at all.
  constexpr std::uint64_t kUnarmed = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t deadline_tick = kUnarmed;
  const auto ticks_for = [](std::chrono::milliseconds ms) {
    // Round up, plus one tick of slop for the partial tick in flight.
    return static_cast<std::uint64_t>(
               (ms + kWatchdogTick - std::chrono::milliseconds(1)) /
               kWatchdogTick) +
           1;
  };
  for (;;) {
    Clock::time_point next_deliverable = Clock::time_point::max();
    for (std::size_t i = 0; i < channels.size(); ++i) {
      std::vector<std::byte> out;
      if (scan_channel_locked(box, dest, channels[i].src, channels[i].tag,
                              &out, &next_deliverable)) {
        return {i, std::move(out)};
      }
    }
    if (aborted()) {
      throw JobAbortedError("communicator aborted while waiting for a message");
    }
    // Messages already posted by a now-dead rank are still consumable
    // (the scans above), so the wait only fails once EVERY queried
    // source is dead with nothing in flight.
    bool any_alive = false;
    for (const Channel& c : channels) {
      if (!is_dead(c.src)) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive && next_deliverable == Clock::time_point::max()) {
      if (channels.size() == 1) {
        throw RankDeadError("pmpi: rank " + std::to_string(dest) +
                            " waiting on dead rank " +
                            std::to_string(channels[0].src) + " (tag " +
                            std::to_string(channels[0].tag) + ")");
      }
      throw RankDeadError("pmpi: rank " + std::to_string(dest) +
                          " waiting on " + std::to_string(channels.size()) +
                          " channels whose source ranks are all dead");
    }
    if (bounded) {
      // Expiry is only ever evaluated here — when the rank is about to
      // sleep AGAIN with nothing deliverable — so a wake that finds its
      // message can never time out spuriously.
      const std::uint64_t t = watchdog_ticks_.load(std::memory_order_relaxed);
      if (deadline_tick == kUnarmed) {
        ensure_watchdog();
        deadline_tick = t + ticks_for(wait_timeout_);
      } else if (t >= deadline_tick) {
        timeouts_->add(1);
        PARSVD_TRACE_INSTANT("comm.timeout");
        throw CommTimeout("pmpi: receive timed out after " +
                          std::to_string(wait_timeout_.count()) +
                          " ms (dest " + std::to_string(dest) + " <- src " +
                          std::to_string(channels[0].src) + ", tag " +
                          std::to_string(channels[0].tag) + ", " +
                          std::to_string(channels.size()) + " channel(s))");
      }
    }
    if (next_deliverable != Clock::time_point::max()) {
      // A delayed message is scheduled: delivery wants millisecond
      // precision, so this sleep keeps an armed timer. A pending delayed
      // message also defers timeout expiry to the next loop — a timeout
      // means "nothing deliverable and nothing scheduled".
      box.cv.wait_until(lock, next_deliverable);
    } else {
      // Deadline enforcement does NOT need a per-sleep armed timer (the
      // cost of which shows up as whole percents on chatty workloads):
      // sleep untimed; bounded waits are woken by the shared
      // low-frequency watchdog to re-check their deadline.
      box.cv.wait(lock);
    }
  }
}

void Context::abort_job() {
  log::warn("pmpi: aborting job of ", size_, " ranks after a rank failure");
  aborted_.store(true, std::memory_order_release);
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    ++barrier_generation_;  // release current waiters
    barrier_cv_.notify_all();
  }
}

void Context::barrier(int rank) {
  PARSVD_TRACE_SCOPE("comm.barrier");
  account_op(rank);
  std::unique_lock<std::mutex> lock(barrier_mu_);
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_waiting_ + dead_count_.load(std::memory_order_acquire) >=
      size_) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(lock, [this, my_generation] {
    return barrier_generation_ != my_generation || aborted();
  });
  if (aborted()) throw JobAbortedError("communicator aborted during barrier");
}

std::shared_ptr<const Group> Context::group_for(std::vector<int> members) {
  PARSVD_REQUIRE(!members.empty(), "group_for: empty member list");
  std::lock_guard<std::mutex> lock(groups_mu_);
  auto it = groups_.find(members);
  if (it != groups_.end()) return it->second;
  PARSVD_REQUIRE(next_group_id_ <= tags::kMaxGroups,
                 "group_for: group id space exhausted");
  std::shared_ptr<Group> grp(new Group());
  grp->id_ = next_group_id_;
  grp->members_ = members;
  grp->world_to_group_.assign(static_cast<std::size_t>(size_), -1);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int r = members[i];
    PARSVD_REQUIRE(r >= 0 && r < size_, "group_for: member rank out of range");
    PARSVD_REQUIRE(grp->world_to_group_[static_cast<std::size_t>(r)] == -1,
                   "group_for: duplicate member rank");
    grp->world_to_group_[static_cast<std::size_t>(r)] = static_cast<int>(i);
  }
  const std::string prefix = "comm.group" + std::to_string(grp->id_);
  grp->messages_ = &metrics_.counter(prefix + ".messages");
  grp->bytes_ = &metrics_.counter(prefix + ".bytes");
  ++next_group_id_;
  log::debug("pmpi: minted group ", grp->id_, " with ", members.size(),
             " member(s)");
  std::shared_ptr<const Group> out = std::move(grp);
  groups_.emplace(std::move(members), out);
  return out;
}

std::uint64_t Context::total_bytes() const { return bytes_total_->value(); }

std::uint64_t Context::rank_bytes(int rank) const {
  PARSVD_REQUIRE(rank >= 0 && rank < size_, "rank out of range");
  return bytes_by_rank_[static_cast<std::size_t>(rank)]->value();
}

std::uint64_t Context::total_messages() const {
  return messages_total_->value();
}

// ----------------------------------------------------------- Communicator

Communicator::Communicator(int rank, std::shared_ptr<Context> ctx)
    : rank_(rank), ctx_(std::move(ctx)) {
  PARSVD_REQUIRE(ctx_ != nullptr, "null context");
  PARSVD_REQUIRE(rank_ >= 0 && rank_ < ctx_->size(), "rank out of range");
}

Communicator::Communicator(int rank, std::shared_ptr<Context> ctx,
                           std::shared_ptr<const Group> group)
    : rank_(rank), ctx_(std::move(ctx)), group_(std::move(group)) {
  PARSVD_REQUIRE(ctx_ != nullptr, "null context");
  PARSVD_REQUIRE(group_ != nullptr, "null group");
  PARSVD_REQUIRE(rank_ >= 0 && rank_ < group_->size(),
                 "group rank out of range");
}

void Communicator::check_payload(std::size_t bytes) const {
  if (static_cast<std::uint64_t>(bytes) > ctx_->max_payload_bytes()) {
    throw CommError("pmpi: send of " + std::to_string(bytes) +
                    " bytes exceeds the per-message cap of " +
                    std::to_string(ctx_->max_payload_bytes()) + " bytes");
  }
}

void Communicator::post_scoped(int dest, int tag,
                               std::vector<std::byte> payload) {
  if (group_) group_->note_post(payload.size());
  ctx_->post(wr(rank_), wr(dest), wire_tag(tag), std::move(payload));
}

std::vector<std::byte> Communicator::wait_scoped(int src, int tag) {
  return ctx_->wait(wr(rank_), wr(src), wire_tag(tag));
}

// ------------------------------------------------- communicator groups

std::optional<Communicator> Communicator::split(int color, int key) {
  PARSVD_TRACE_SCOPE("comm.split");
  const int p = size();
  // One allgather of (color, key) over the parent communicator; every
  // rank then derives every subgroup's member list locally and resolves
  // the shared Group from the context registry — no further protocol.
  std::vector<std::int64_t> mine{color, key};
  std::vector<std::int64_t> table = gatherv<std::int64_t>(mine, 0);
  bcast(table, 0);
  PARSVD_REQUIRE(table.size() == 2 * static_cast<std::size_t>(p),
                 "split: malformed (color, key) table");
  // Mint the partition's groups in ascending color order. Every rank
  // walks the same order, so a group can only ever be created after all
  // lower-colored groups exist — ids are deterministic run-to-run even
  // though sibling members race into group_for.
  std::vector<int> colors;
  for (int r = 0; r < p; ++r) {
    const int c = static_cast<int>(table[2 * static_cast<std::size_t>(r)]);
    if (c >= 0) colors.push_back(c);
  }
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  std::optional<Communicator> out;
  for (const int c : colors) {
    // Members of color c, ordered by (key, parent rank) — the
    // MPI_Comm_split tie-break — then mapped to world ranks.
    std::vector<std::pair<std::int64_t, int>> members;
    for (int r = 0; r < p; ++r) {
      if (static_cast<int>(table[2 * static_cast<std::size_t>(r)]) != c) {
        continue;
      }
      members.emplace_back(table[2 * static_cast<std::size_t>(r) + 1], r);
    }
    std::sort(members.begin(), members.end());
    std::vector<int> world;
    world.reserve(members.size());
    int my_group_rank = -1;
    for (const auto& [k, r] : members) {
      if (r == rank_) my_group_rank = static_cast<int>(world.size());
      world.push_back(wr(r));
    }
    std::shared_ptr<const Group> grp = ctx_->group_for(std::move(world));
    if (c == color) out.emplace(Communicator(my_group_rank, ctx_, grp));
  }
  return out;
}

std::optional<Communicator> Communicator::subgroup(
    std::span<const int> ranks) const {
  PARSVD_REQUIRE(!ranks.empty(), "subgroup: empty member list");
  std::vector<int> world;
  world.reserve(ranks.size());
  int my_group_rank = -1;
  for (const int r : ranks) {
    PARSVD_REQUIRE(r >= 0 && r < size(), "subgroup: member rank out of range");
    if (r == rank_) my_group_rank = static_cast<int>(world.size());
    world.push_back(wr(r));
  }
  if (my_group_rank < 0) return std::nullopt;
  return Communicator(my_group_rank, ctx_, ctx_->group_for(std::move(world)));
}

std::vector<int> Communicator::dead_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < size(); ++r) {
    if (is_dead(r)) out.push_back(r);
  }
  return out;
}

int Communicator::alive_count() const {
  if (!group_) return ctx_->alive_count();
  return size() - static_cast<int>(dead_ranks().size());
}

void Communicator::barrier() {
  if (!group_) {
    ctx_->barrier(rank_);
    return;
  }
  // Group barriers cannot use the context's central barrier (it counts
  // every world rank); a flat gather + release over the group's scoped
  // kBarrier channel gives the same rendezvous with group-local death
  // semantics: a member death surfaces to the group root as
  // RankDeadError while sibling groups' barriers proceed untouched.
  PARSVD_TRACE_SCOPE("comm.barrier.group");
  const int p = size();
  if (p == 1) {
    ctx_->account_op(wr(rank_));
    return;
  }
  if (rank_ == 0) {
    for (int src = 1; src < p; ++src) {
      (void)wait_scoped(src, tags::kBarrier);
    }
    for (int dst = 1; dst < p; ++dst) {
      post_scoped(dst, tags::kBarrier, {});
    }
  } else {
    post_scoped(0, tags::kBarrier, {});
    (void)wait_scoped(0, tags::kBarrier);
  }
}

void pack_matrix_into(const Matrix& m, std::vector<std::byte>& out) {
  const std::int64_t header[2] = {static_cast<std::int64_t>(m.rows()),
                                  static_cast<std::int64_t>(m.cols())};
  const std::size_t body = static_cast<std::size_t>(m.size()) * sizeof(double);
  const std::size_t base = out.size();
  out.resize(base + sizeof(header) + body);
  std::memcpy(out.data() + base, header, sizeof(header));
  std::memcpy(out.data() + base + sizeof(header), m.data(), body);
}

std::vector<std::byte> pack_matrix(const Matrix& m) {
  std::vector<std::byte> payload;
  payload.reserve(2 * sizeof(std::int64_t) +
                  static_cast<std::size_t>(m.size()) * sizeof(double));
  pack_matrix_into(m, payload);
  return payload;
}

Matrix unpack_matrix(std::span<const std::byte> payload) {
  PARSVD_REQUIRE(payload.size() >= 2 * sizeof(std::int64_t),
                 "matrix payload too short");
  std::int64_t header[2];
  std::memcpy(header, payload.data(), sizeof(header));
  Matrix m(static_cast<Index>(header[0]), static_cast<Index>(header[1]));
  const std::size_t body = static_cast<std::size_t>(m.size()) * sizeof(double);
  PARSVD_REQUIRE(payload.size() == sizeof(header) + body,
                 "matrix payload size mismatch");
  std::memcpy(m.data(), payload.data() + sizeof(header), body);
  return m;
}

void Communicator::send_matrix(const Matrix& m, int dest, int tag) {
  check_peer(dest);
  check_tag(tag);
  check_payload(2 * sizeof(std::int64_t) +
                static_cast<std::size_t>(m.size()) * sizeof(double));
  post_scoped(dest, tag, pack_matrix(m));
}

Matrix Communicator::recv_matrix(int src, int tag) {
  check_peer(src);
  check_tag(tag);
  return unpack_matrix(wait_scoped(src, tag));
}

Request Communicator::isend_matrix(const Matrix& m, int dest, int tag) {
  check_peer(dest);
  check_tag(tag);
  check_payload(2 * sizeof(std::int64_t) +
                static_cast<std::size_t>(m.size()) * sizeof(double));
  post_scoped(dest, tag, pack_matrix(m));
  return Request(ctx_, Request::Kind::Send, wr(rank_), wr(dest), wire_tag(tag),
                 /*done=*/true);
}

Request Communicator::irecv(int src, int tag) {
  check_peer(src);
  check_tag(tag);
  // The op is accounted NOW, not when the message is consumed, so a
  // deterministic fault schedule sees the same per-rank op sequence no
  // matter how often the request is polled before completion.
  ctx_->account_op(wr(rank_));
  ctx_->register_irecv(wr(rank_), wr(src), wire_tag(tag));
  return Request(ctx_, Request::Kind::Recv, wr(rank_), wr(src), wire_tag(tag),
                 /*done=*/false);
}

void require_no_missing(std::span<const int> missing, const char* what) {
  if (missing.empty()) return;
  throw RankDeadError("pmpi: " + std::string(what) +
                      " is missing the contribution of dead rank " +
                      std::to_string(missing.front()));
}

void Communicator::bcast_bytes(std::vector<std::byte>& payload, int root) {
  check_peer(root);
  if (size() == 1) return;
  PARSVD_TRACE_SCOPE("comm.bcast.flat");
  if (rank_ == root) {
    for (int dst = 0; dst < size(); ++dst) {
      if (dst == root || is_dead(dst)) continue;
      // A rank dying after this aliveness check is harmless: the posted
      // copy simply stays unconsumed in its mailbox.
      post_scoped(dst, tags::kBcast, std::vector<std::byte>(payload));
    }
  } else {
    // Root-must-survive contract: the root owns the broadcast value, so
    // a plain wait on it is the documented exception.
    // parsvd-lint: allow-ft-wait
    payload = wait_scoped(root, tags::kBcast);
  }
}

void Communicator::bcast_matrix(Matrix& m, int root) {
  std::vector<std::byte> payload;
  if (rank_ == root) payload = pack_matrix(m);
  bcast_bytes(payload, root);
  if (rank_ != root) m = unpack_matrix(payload);
}

void Communicator::bcast_double(double& value, int root) {
  std::vector<double> buf{value};
  bcast(buf, root);
  value = buf.at(0);
}

void Communicator::bcast_index(Index& value, int root) {
  std::vector<std::int64_t> buf{static_cast<std::int64_t>(value)};
  bcast(buf, root);
  value = static_cast<Index>(buf.at(0));
}

std::optional<std::vector<std::byte>> Communicator::wait_bounded(int src,
                                                                 int tag) {
  return ctx_->wait_bounded(wr(rank_), wr(src), wire_tag(tag));
}

std::vector<std::optional<std::vector<std::byte>>> Communicator::gather_bytes(
    std::vector<std::byte> local, int root) {
  check_peer(root);
  PARSVD_TRACE_SCOPE("comm.gather.flat");
  if (rank_ != root) {
    post_scoped(root, tags::kGather, std::move(local));
    return {};
  }
  std::vector<std::optional<std::vector<std::byte>>> out(
      static_cast<std::size_t>(size()));
  out[static_cast<std::size_t>(root)] = std::move(local);
  for (int src = 0; src < size(); ++src) {
    if (src == root) continue;
    out[static_cast<std::size_t>(src)] = wait_bounded(src, tags::kGather);
  }
  return out;
}

std::vector<std::optional<Matrix>> Communicator::gather_matrices(
    const Matrix& local, int root) {
  std::vector<std::optional<std::vector<std::byte>>> parts =
      gather_bytes(pack_matrix(local), root);
  std::vector<std::optional<Matrix>> out(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i]) out[i] = unpack_matrix(*parts[i]);
  }
  return out;
}

std::vector<double> Communicator::allgather_double(double value) {
  std::vector<double> local{value};
  std::vector<double> all = gatherv<double>(local, 0);
  bcast(all, 0);
  return all;
}

std::vector<Index> Communicator::allgather_index(Index value) {
  std::vector<std::int64_t> local{static_cast<std::int64_t>(value)};
  std::vector<std::int64_t> all = gatherv<std::int64_t>(local, 0);
  bcast(all, 0);
  std::vector<Index> out(all.size());
  std::transform(all.begin(), all.end(), out.begin(),
                 [](std::int64_t v) { return static_cast<Index>(v); });
  return out;
}

Matrix Communicator::scatter_rows(const Matrix& full,
                                  std::span<const Index> rows_per_rank,
                                  int root) {
  PARSVD_TRACE_SCOPE("comm.scatter_rows");
  check_peer(root);
  PARSVD_REQUIRE(static_cast<int>(rows_per_rank.size()) == size(),
                 "scatter_rows: need one row count per rank");
  if (rank_ == root) {
    Index total = 0;
    for (Index r : rows_per_rank) total += r;
    PARSVD_REQUIRE(total == full.rows(), "scatter_rows: counts don't sum to rows");
    Index offset = 0;
    Matrix mine;
    for (int dst = 0; dst < size(); ++dst) {
      const Index nrows = rows_per_rank[static_cast<std::size_t>(dst)];
      if (dst == root) {
        mine = full.block(offset, 0, nrows, full.cols());
      } else {
        // Pack the row block straight into the wire buffer (one strided
        // pass) instead of materializing a block copy and packing that.
        const std::int64_t header[2] = {static_cast<std::int64_t>(nrows),
                                        static_cast<std::int64_t>(full.cols())};
        std::vector<std::byte> payload(
            sizeof(header) +
            static_cast<std::size_t>(nrows * full.cols()) * sizeof(double));
        std::byte* cursor = payload.data();
        std::memcpy(cursor, header, sizeof(header));
        cursor += sizeof(header);
        for (Index c = 0; c < full.cols(); ++c) {
          std::memcpy(cursor, full.data() + c * full.rows() + offset,
                      static_cast<std::size_t>(nrows) * sizeof(double));
          cursor += static_cast<std::size_t>(nrows) * sizeof(double);
        }
        post_scoped(dst, tags::kScatter, std::move(payload));
      }
      offset += nrows;
    }
    return mine;
  }
  return unpack_matrix(wait_scoped(root, tags::kScatter));
}

namespace {

void apply_op(Op op, std::span<double> acc, std::span<const double> incoming) {
  PARSVD_REQUIRE(acc.size() == incoming.size(), "reduce length mismatch");
  switch (op) {
    case Op::Sum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += incoming[i];
      return;
    case Op::Max:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::max(acc[i], incoming[i]);
      return;
    case Op::Min:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::min(acc[i], incoming[i]);
      return;
  }
  throw ConfigError("unknown reduction op");
}

}  // namespace

void Communicator::reduce(std::span<double> data, Op op, int root,
                          std::vector<int>* missing) {
  check_peer(root);
  if (size() == 1) return;
  PARSVD_TRACE_SCOPE("comm.reduce.flat");
  if (rank_ != root) {
    std::vector<std::byte> payload(data.size_bytes());
    std::memcpy(payload.data(), data.data(), data.size_bytes());
    post_scoped(root, tags::kReduce, std::move(payload));
    return;
  }
  // Accumulate contributions in a fixed rank order so the result is
  // deterministic run-to-run (floating-point reduction order matters).
  std::vector<int> lost;
  for (int src = 0; src < size(); ++src) {
    if (src == root) continue;
    const std::optional<std::vector<std::byte>> payload =
        wait_bounded(src, tags::kReduce);
    if (!payload) {
      lost.push_back(src);
      continue;
    }
    PARSVD_REQUIRE(payload->size() == data.size_bytes(),
                   "reduce: contribution size mismatch");
    std::span<const double> incoming(
        reinterpret_cast<const double*>(payload->data()), data.size());
    apply_op(op, data, incoming);
  }
  if (missing == nullptr) {
    require_no_missing(lost, "reduce");
  } else {
    *missing = std::move(lost);
  }
}

void Communicator::allreduce(std::span<double> data, Op op,
                             std::vector<int>* missing) {
  if (size() == 1) return;
  PARSVD_TRACE_SCOPE("comm.allreduce.flat");
  reduce(data, op, 0, missing);
  std::vector<double> buf(data.begin(), data.end());
  bcast(buf, 0);
  std::copy(buf.begin(), buf.end(), data.begin());
}

double Communicator::allreduce_scalar(double value, Op op) {
  double buf[1] = {value};
  allreduce(std::span<double>(buf, 1), op);
  return buf[0];
}

// ------------------------------------------------------------------ run

void run_rank(const std::shared_ptr<Context>& ctx, int rank,
              const std::function<void(Communicator&)>& fn,
              std::exception_ptr* error) {
  try {
    Communicator comm(rank, ctx);
    fn(comm);
  } catch (const RankKilledError&) {
    // Injected death: the context marked the rank dead and woke its
    // peers. The survivors decide the job's fate — degraded completion
    // returns normally, stuck survivors surface typed
    // RankDeadError/CommTimeout through the branch below.
  } catch (...) {
    *error = std::current_exception();
    // Wake peers blocked on messages this rank will never send.
    ctx->abort_job();
  }
}

void rethrow_job_error(std::span<const std::exception_ptr> errors) {
  // Prefer the root cause. Ranks merely woken by abort_job carry
  // JobAbortedError; a non-comm error (assertion, bad_alloc, ...) beats
  // any comm error, and any primary comm error beats an abort victim.
  std::exception_ptr first;      // fallback: lowest-rank error of any kind
  std::exception_ptr primary;    // lowest-rank non-JobAborted CommError
  for (const auto& err : errors) {
    if (!err) continue;
    if (!first) first = err;
    try {
      std::rethrow_exception(err);
    } catch (const JobAbortedError&) {
      continue;
    } catch (const CommError&) {
      if (!primary) primary = err;
      continue;
    } catch (...) {
      primary = err;
      break;
    }
  }
  if (primary) std::rethrow_exception(primary);
  if (first) std::rethrow_exception(first);
}

std::shared_ptr<Context> run_on(std::shared_ptr<Context> ctx,
                                const std::function<void(Communicator&)>& fn) {
  PARSVD_REQUIRE(ctx != nullptr, "run_on: null context");
  const int size = ctx->size();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size));
  threads.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    threads.emplace_back([r, &fn, ctx, &errors] {
      // Rank threads get pid = rank+1 in the trace (pid 0 is reserved
      // for shared infrastructure threads: pool, watchdog, prefetch).
      obs::set_thread_identity(r, 0, "rank-main");
      run_rank(ctx, r, fn, &errors[static_cast<std::size_t>(r)]);
    });
  }
  for (auto& t : threads) t.join();
  rethrow_job_error(errors);
  return ctx;
}

std::shared_ptr<Context> run_with_stats(
    int size, const std::function<void(Communicator&)>& fn) {
  return run_on(std::make_shared<Context>(size), fn);
}

void run(int size, const std::function<void(Communicator&)>& fn) {
  run_with_stats(size, fn);
}

}  // namespace parsvd::pmpi
