#include "pmpi/fault.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "support/env.hpp"

namespace parsvd::pmpi {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Drop: return "drop";
    case FaultKind::Delay: return "delay";
    case FaultKind::Duplicate: return "duplicate";
    case FaultKind::Truncate: return "truncate";
    case FaultKind::Kill: return "kill";
  }
  return "?";
}

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
constexpr std::uint64_t kParamStream = 0x7072ull;    // "pr"

}  // namespace

FaultPlan FaultPlan::chaos(std::uint64_t seed, double drop_rate,
                           double delay_rate, double duplicate_rate,
                           double truncate_rate, double kill_rate) {
  FaultPlan plan;
  plan.seed_ = seed;
  plan.drop_ = std::clamp(drop_rate, 0.0, 1.0);
  plan.delay_ = std::clamp(delay_rate, 0.0, 1.0);
  plan.dup_ = std::clamp(duplicate_rate, 0.0, 1.0);
  plan.trunc_ = std::clamp(truncate_rate, 0.0, 1.0);
  plan.kill_ = std::clamp(kill_rate, 0.0, 1.0);
  plan.probabilistic_ =
      plan.drop_ + plan.delay_ + plan.dup_ + plan.trunc_ + plan.kill_ > 0.0;
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const auto seed = static_cast<std::uint64_t>(env::get_int("PARSVD_FAULT_SEED", 0));
  FaultPlan plan = chaos(seed, env::get_double("PARSVD_FAULT_DROP", 0.0),
                         env::get_double("PARSVD_FAULT_DELAY", 0.0),
                         env::get_double("PARSVD_FAULT_DUP", 0.0),
                         env::get_double("PARSVD_FAULT_TRUNC", 0.0),
                         env::get_double("PARSVD_FAULT_KILL", 0.0));
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
  events_.push_back(Event{rank, at_op, FaultKind::Kill, 0});
  return *this;
}

FaultPlan& FaultPlan::inject(int rank, std::uint64_t at_op, FaultKind kind,
                             std::uint32_t param) {
  events_.push_back(Event{rank, at_op, kind, param});
  return *this;
}

FaultPlan& FaultPlan::protect_rank(int rank) {
  protected_ranks_.push_back(rank);
  return *this;
}

bool FaultPlan::empty() const { return events_.empty() && !probabilistic_; }

bool FaultPlan::can_kill() const {
  if (kill_ > 0.0) return true;
  return std::any_of(events_.begin(), events_.end(), [](const Event& e) {
    return e.kind == FaultKind::Kill;
  });
}

bool FaultPlan::is_protected(int rank) const {
  return std::find(protected_ranks_.begin(), protected_ranks_.end(), rank) !=
         protected_ranks_.end();
}

std::optional<FaultDecision> FaultPlan::on_message(int src_rank,
                                                   std::uint64_t op) const {
  for (const Event& e : events_) {
    if (e.kind != FaultKind::Kill && e.rank == src_rank && e.op == op) {
      return FaultDecision{e.kind, e.param};
    }
  }
  if (!probabilistic_) return std::nullopt;
  const double u = unit_draw(seed_, src_rank, op, kMessageStream);
  double edge = drop_;
  if (u < edge) return FaultDecision{FaultKind::Drop, 0};
  edge += delay_;
  if (u < edge) return FaultDecision{FaultKind::Delay, delay_ms};
  edge += dup_;
  if (u < edge) return FaultDecision{FaultKind::Duplicate, 0};
  edge += trunc_;
  if (u < edge) {
    // Chop 1..16 deterministic bytes so both short and long payloads see
    // detectable corruption.
    const auto bytes = static_cast<std::uint32_t>(
        1 + static_cast<std::uint32_t>(
                unit_draw(seed_, src_rank, op, kParamStream) * 16.0));
    return FaultDecision{FaultKind::Truncate, bytes};
  }
  return std::nullopt;
}

bool FaultPlan::kills(int rank, std::uint64_t op) const {
  if (is_protected(rank)) return false;
  for (const Event& e : events_) {
    if (e.kind == FaultKind::Kill && e.rank == rank && e.op == op) return true;
  }
  if (kill_ <= 0.0) return false;
  return unit_draw(seed_, rank, op, kKillStream) < kill_;
}

std::uint64_t payload_checksum(const void* data, std::size_t size) {
  constexpr std::uint64_t kMul = 0xd6e8feb86659fd93ull;
  std::uint64_t h0 = 0x9e3779b97f4a7c15ull ^ size;
  std::uint64_t h1 = 0xbf58476d1ce4e5b9ull;
  std::uint64_t h2 = 0x94d049bb133111ebull;
  std::uint64_t h3 = 0x2545f4914f6cdd1dull;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t n = size;
  // Four independent lanes: the multiply latency chains overlap, so the
  // loop streams at close to copy bandwidth instead of one mul per word.
  while (n >= 32) {
    std::uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    std::memcpy(&w2, p + 16, 8);
    std::memcpy(&w3, p + 24, 8);
    h0 = (h0 ^ w0) * kMul;
    h1 = (h1 ^ w1) * kMul;
    h2 = (h2 ^ w2) * kMul;
    h3 = (h3 ^ w3) * kMul;
    p += 32;
    n -= 32;
  }
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h0 = (h0 ^ w) * kMul;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h0 = (h0 ^ w) * kMul;
  }
  std::uint64_t h = h0 ^ (h1 * 3) ^ (h2 * 5) ^ (h3 * 7);
  return mix64(h);
}

}  // namespace parsvd::pmpi
