#include "pmpi/fault.hpp"

#include <algorithm>
#include <limits>

#include "support/env.hpp"
#include "support/error.hpp"

namespace parsvd::pmpi {

namespace {

// splitmix64 finalizer: the standard cheap bijective mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Deterministic uniform draw in [0, 1) for one (seed, rank, op, stream).
double unit_draw(std::uint64_t seed, int rank, std::uint64_t op,
                 std::uint64_t stream) {
  const std::uint64_t h =
      mix64(seed ^ mix64(static_cast<std::uint64_t>(rank) ^ (stream << 32)) ^
            mix64(op * 0x2545f4914f6cdd1dull));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kMessageStream = 0x6d73ull;  // "ms"
constexpr std::uint64_t kKillStream = 0x6b6cull;     // "kl"

}  // namespace

FaultPlan FaultPlan::chaos(std::uint64_t seed, double delay_rate,
                           double kill_rate) {
  // NaN fails both comparisons, so it is rejected too.
  PARSVD_REQUIRE(delay_rate >= 0.0 && delay_rate <= 1.0,
                 "chaos: delay rate must lie in [0, 1]");
  PARSVD_REQUIRE(kill_rate >= 0.0 && kill_rate <= 1.0,
                 "chaos: kill rate must lie in [0, 1]");
  FaultPlan plan;
  plan.seed_ = seed;
  plan.delay_ = delay_rate;
  plan.kill_ = kill_rate;
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const auto seed = static_cast<std::uint64_t>(env::get_int("PARSVD_FAULT_SEED", 0));
  FaultPlan plan =
      chaos(seed, env::get_double("PARSVD_FAULT_DELAY", 0.0, 0.0, 1.0),
            env::get_double("PARSVD_FAULT_KILL", 0.0, 0.0, 1.0));
  plan.delay_ms = static_cast<std::uint32_t>(
      env::get_int("PARSVD_FAULT_DELAY_MS", 2, 0, 60'000));
  const std::int64_t kill_rank = env::get_int("PARSVD_FAULT_KILL_RANK", -1);
  if (kill_rank >= 0) {
    plan.kill_rank(static_cast<int>(kill_rank),
                   static_cast<std::uint64_t>(env::get_int(
                       "PARSVD_FAULT_KILL_AT", 0, 0,
                       std::numeric_limits<std::int64_t>::max())));
  }
  if (env::get_bool("PARSVD_FAULT_PROTECT_ROOT", true)) plan.protect_rank(0);
  return plan;
}

FaultPlan& FaultPlan::kill_rank(int rank, std::uint64_t at_op) {
  kills_.push_back(Event{rank, at_op});
  return *this;
}

FaultPlan& FaultPlan::delay(int rank, std::uint64_t at_op, std::uint32_t ms) {
  delays_.push_back(DelayEvent{rank, at_op, ms});
  return *this;
}

FaultPlan& FaultPlan::protect_rank(int rank) {
  protected_ranks_.push_back(rank);
  return *this;
}

bool FaultPlan::empty() const {
  return kills_.empty() && delays_.empty() && delay_ == 0.0 && kill_ == 0.0;
}

bool FaultPlan::can_kill() const { return kill_ > 0.0 || !kills_.empty(); }

bool FaultPlan::is_protected(int rank) const {
  return std::find(protected_ranks_.begin(), protected_ranks_.end(), rank) !=
         protected_ranks_.end();
}

std::optional<std::uint32_t> FaultPlan::message_delay(int src_rank,
                                                      std::uint64_t op) const {
  for (const DelayEvent& e : delays_) {
    if (e.rank == src_rank && e.op == op) return e.ms;
  }
  if (delay_ > 0.0 && unit_draw(seed_, src_rank, op, kMessageStream) < delay_) {
    return delay_ms;
  }
  return std::nullopt;
}

bool FaultPlan::kills(int rank, std::uint64_t op) const {
  if (is_protected(rank)) return false;
  for (const Event& e : kills_) {
    if (e.rank == rank && e.op == op) return true;
  }
  if (kill_ <= 0.0) return false;
  return unit_draw(seed_, rank, op, kKillStream) < kill_;
}

}  // namespace parsvd::pmpi
