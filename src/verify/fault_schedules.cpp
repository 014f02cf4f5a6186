#include "verify/fault_schedules.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "pmpi/tags.hpp"
#include "support/error.hpp"

namespace parsvd::verify {
namespace {

namespace tags = pmpi::tags;

/// Scenario-aware emission. Routes every event into the Schedule while
/// tracking (a) the victim's healthy event index, (b) per-channel FIFO
/// queues of the victim's sends, so a survivor's bounded receive knows
/// whether it consumes or dead-resolves, (c) which survivors have
/// OBSERVED the death through a dead-resolved wait — the only
/// happens-before edge pmpi gives an is_dead() guard — and (d) the
/// post totals that actually execute (a killing post neither delivers
/// nor counts: account_op fires before the registry bumps).
class FaultBuilder {
 public:
  FaultBuilder(Schedule& s, const FaultScenario& f)
      : s_(s), f_(f), observed_(static_cast<std::size_t>(s.size()), false) {}

  void send(int r, int dst, int tag, std::uint64_t bytes, std::string note) {
    s_.ranks[static_cast<std::size_t>(r)].send(dst, tag, bytes,
                                               std::move(note));
    if (r == f_.victim) {
      if (victim_next_ < f_.kill_step) count(bytes);
      // Enqueue even post-kill sends: the consumer side pops in FIFO
      // order and decides delivery from the recorded index.
      victim_sends_[{dst, tag}].push_back(victim_next_);
      ++victim_next_;
    } else {
      count(bytes);
    }
  }

  void recv(int r, int src, int tag, std::uint64_t bytes, std::string note) {
    s_.ranks[static_cast<std::size_t>(r)].recv(src, tag, bytes,
                                               std::move(note));
    if (r == f_.victim) {
      ++victim_next_;
    } else if (src == f_.victim) {
      // Keep the FIFO aligned; whether a naked receive orphans here is
      // the checker's verdict, not the builder's.
      consume_victim(r, tag);
    }
  }

  /// Death-bounded receive. Returns true when the matching message is
  /// actually delivered, false when the wait dead-resolves — in which
  /// case rank `r` has now observed the death.
  bool recv_bounded(int r, int src, int tag, std::uint64_t bytes,
                    std::string note) {
    s_.ranks[static_cast<std::size_t>(r)].recv_bounded(src, tag, bytes,
                                                       std::move(note));
    if (r == f_.victim) {
      ++victim_next_;
      return true;
    }
    if (src != f_.victim) return true;
    const bool delivered = consume_victim(r, tag);
    if (!delivered) observed_[static_cast<std::size_t>(r)] = true;
    return delivered;
  }

  /// The root-side is_dead(victim) guard of the bcast fan-out, consulted
  /// immediately before the victim's matching receive is emitted.
  /// True: the guard deterministically skips the post (`r` observed the
  /// death through an earlier dead-resolved wait). False: the post is
  /// emitted; if the victim is not provably alive at that point (the
  /// kill lands at or before its matching receive, unobserved by `r`)
  /// the branch races mark_dead and the scenario is demoted to
  /// non-deterministic — the alive branch the model commits to is the
  /// traffic-dominating one, and the dead branch merely drops a post
  /// into a dead mailbox, which quiesces a fortiori.
  bool guard_skips(int r) {
    if (observed_[static_cast<std::size_t>(r)]) return true;
    if (!victim_reaches(victim_next_ + 1)) deterministic_ = false;
    return false;
  }

  /// The root reading Communicator::dead_ranks() for the streaming
  /// FaultReport, again consulted immediately before the victim's
  /// report receive is emitted. Returns the dead count the read
  /// observes (0 or 1), with the same race rule as guard_skips.
  int report_ndead(int r) {
    if (observed_[static_cast<std::size_t>(r)]) return 1;
    if (!victim_reaches(victim_next_ + 1)) deterministic_ = false;
    return 0;
  }

  /// True when the victim executes at least its first `n` events.
  bool victim_reaches(std::size_t n) const { return f_.kill_step >= n; }

  bool deterministic() const { return deterministic_; }
  std::uint64_t messages() const { return messages_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  void count(std::uint64_t bytes) {
    ++messages_;
    bytes_ += bytes;
  }

  /// Pop the victim's next send on (dst, tag); true iff it executes.
  bool consume_victim(int dst, int tag) {
    auto& q = victim_sends_[{dst, tag}];
    PARSVD_REQUIRE(!q.empty(),
                   "fault emitter bug: receive from the victim emitted "
                   "before its matching healthy send");
    const std::size_t idx = q.front();
    q.pop_front();
    return idx < f_.kill_step;
  }

  Schedule& s_;
  const FaultScenario& f_;
  std::vector<bool> observed_;
  std::map<std::pair<int, int>, std::deque<std::size_t>> victim_sends_;
  std::size_t victim_next_ = 0;
  bool deterministic_ = true;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Mirror of the flat root loop on `tag` (Communicator::gather_bytes on
/// kGather, Communicator::reduce on kReduce): every non-root posts its
/// contribution, the root death-bounded-waits on each source in
/// ascending rank order (its own entry needs no wire). Returns
/// delivered[src] — root and survivors always, the victim iff its post
/// executes.
std::vector<bool> root_loop(FaultBuilder& b, Schedule& s, int root, int tag,
                            std::span<const std::uint64_t> bytes_per_rank,
                            const std::string& what) {
  const int p = s.size();
  PARSVD_REQUIRE(static_cast<int>(bytes_per_rank.size()) == p,
                 "root_loop: need one byte count per rank");
  std::vector<bool> delivered(static_cast<std::size_t>(p), true);
  for (int src = 0; src < p; ++src) {
    if (src == root) continue;
    b.send(src, root, tag, bytes_per_rank[static_cast<std::size_t>(src)],
           what);
  }
  for (int src = 0; src < p; ++src) {
    if (src == root) continue;
    delivered[static_cast<std::size_t>(src)] = b.recv_bounded(
        root, src, tag, bytes_per_rank[static_cast<std::size_t>(src)], what);
  }
  return delivered;
}

/// Mirror of the bcast fan-out from `root`: guarded sends to every other
/// rank, then the non-root receives — plain, per the root-must-survive
/// contract. `healthy` is the fault-free payload (the victim's receive
/// expectation), `actual` the degraded payload surviving destinations
/// get; whenever the victim's receive actually executes the two are
/// equal by construction (a live victim means nothing was excluded).
void bcast(FaultBuilder& b, Schedule& s, int root, std::uint64_t healthy,
           std::uint64_t actual, const std::string& what, int victim) {
  const int p = s.size();
  if (p == 1) return;  // bcast_bytes early-outs on size()==1
  for (int dst = 0; dst < p; ++dst) {
    if (dst == root) continue;
    if (dst == victim && victim != root && b.guard_skips(root)) continue;
    b.send(root, dst, tags::kBcast, actual, what);
  }
  for (int dst = 0; dst < p; ++dst) {
    if (dst == root) continue;
    b.recv(dst, root, tags::kBcast, dst == victim ? healthy : actual, what);
  }
}

/// Ranks whose contribution a root loop lost.
int count_lost(const std::vector<bool>& delivered) {
  return static_cast<int>(
      std::count(delivered.begin(), delivered.end(), false));
}

void check_victim(int p, const FaultScenario& f, bool root_must_survive) {
  if (f.victim == kKillFree.victim) return;
  PARSVD_REQUIRE(f.victim >= 0 && f.victim < p,
                 "fault scenario: victim outside [0, P)");
  if (root_must_survive) {
    PARSVD_REQUIRE(f.victim != 0,
                   "fault scenario: this protocol's root (rank 0) must "
                   "survive — pick a non-root victim");
  }
}

/// A fresh FaultSchedule for `f` over p ranks.
FaultSchedule start(std::string name, int p, const FaultScenario& f) {
  FaultSchedule out;
  out.scenario = f;
  out.schedule = make_schedule(std::move(name), p);
  return out;
}

void finish(FaultSchedule& out, const FaultBuilder& b) {
  out.deterministic = b.deterministic();
  out.messages = b.messages();
  out.bytes = b.bytes();
}

std::string p_root(int p, int root) {
  return "(p=" + std::to_string(p) + ", root=" + std::to_string(root);
}

/// Mirror of TsqrResult::q_times: the root sends every contributor its
/// block of Q_stack·Y (`bytes[dst]`) on tags::tsqr_down(0), then each
/// non-root blocks on a plain receive (root must survive). The skip is
/// decided from the R gather's `delivered` — deterministic, not an
/// is_dead race; a contributor dying after its R post just leaves its
/// block unconsumed in the dead mailbox. `healthy` holds the fault-free
/// blocks; only the victim's receive expects its healthy one.
void scatter_q_blocks(FaultBuilder& b, int p, const std::vector<bool>& delivered,
                      std::span<const std::uint64_t> bytes,
                      std::span<const std::uint64_t> healthy, int victim,
                      const std::string& what) {
  for (int dst = 1; dst < p; ++dst) {
    if (!delivered[static_cast<std::size_t>(dst)]) continue;
    b.send(0, dst, tags::tsqr_down(0), bytes[static_cast<std::size_t>(dst)],
           what);
  }
  for (int dst = 1; dst < p; ++dst) {
    b.recv(dst, 0, tags::tsqr_down(0),
           (dst == victim ? healthy : bytes)[static_cast<std::size_t>(dst)],
           what + " (plain; root must survive)");
  }
}

}  // namespace

FaultSchedule script_gather(int p, int root,
                            std::span<const std::uint64_t> bytes_per_rank,
                            const FaultScenario& f) {
  PARSVD_REQUIRE(p >= 1 && root >= 0 && root < p, "gather: bad (p, root)");
  check_victim(p, f, /*root_must_survive=*/false);
  FaultSchedule out = start("gather" + p_root(p, root) + ")", p, f);
  FaultBuilder b(out.schedule, f);
  root_loop(b, out.schedule, root, tags::kGather, bytes_per_rank,
            "gather contribution");
  finish(out, b);
  return out;
}

FaultSchedule script_bcast(int p, int root, std::uint64_t bytes,
                           const FaultScenario& f) {
  PARSVD_REQUIRE(p >= 1 && root >= 0 && root < p, "bcast: bad (p, root)");
  check_victim(p, f, /*root_must_survive=*/false);
  FaultSchedule out = start(
      "bcast" + p_root(p, root) + ", " + std::to_string(bytes) + " B)", p, f);
  FaultBuilder b(out.schedule, f);
  bcast(b, out.schedule, root, bytes, bytes, "bcast payload", f.victim);
  finish(out, b);
  return out;
}

FaultSchedule script_reduce(int p, int root, std::uint64_t bytes,
                            const FaultScenario& f) {
  PARSVD_REQUIRE(p >= 1 && root >= 0 && root < p, "reduce: bad (p, root)");
  check_victim(p, f, /*root_must_survive=*/false);
  FaultSchedule out = start(
      "reduce" + p_root(p, root) + ", " + std::to_string(bytes) + " B)", p, f);
  FaultBuilder b(out.schedule, f);
  const std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(p), bytes);
  root_loop(b, out.schedule, root, tags::kReduce, per_rank, "reduce addend");
  finish(out, b);
  return out;
}

FaultSchedule script_allreduce(int p, std::uint64_t bytes,
                               const FaultScenario& f) {
  PARSVD_REQUIRE(p >= 1, "allreduce: bad p");
  check_victim(p, f, /*root_must_survive=*/true);
  FaultSchedule out = start("allreduce(p=" + std::to_string(p) + ", " +
                                std::to_string(bytes) + " B)",
                            p, f);
  FaultBuilder b(out.schedule, f);
  const std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(p), bytes);
  root_loop(b, out.schedule, 0, tags::kReduce, per_rank, "allreduce addend");
  bcast(b, out.schedule, 0, bytes, bytes, "allreduce total", f.victim);
  finish(out, b);
  return out;
}

FaultSchedule script_allgather(int p, std::uint64_t per_rank_bytes,
                               const FaultScenario& f) {
  PARSVD_REQUIRE(p >= 1, "allgather: bad p");
  check_victim(p, f, /*root_must_survive=*/true);
  FaultSchedule out = start("allgather(p=" + std::to_string(p) + ", " +
                                std::to_string(per_rank_bytes) + " B/rank)",
                            p, f);
  FaultBuilder b(out.schedule, f);
  const std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(p),
                                            per_rank_bytes);
  const std::vector<bool> delivered = root_loop(
      b, out.schedule, 0, tags::kGather, per_rank, "allgather gather leg");
  const auto table = [&](int entries) {
    return per_rank_bytes * static_cast<std::uint64_t>(entries);
  };
  bcast(b, out.schedule, 0, table(p), table(p - count_lost(delivered)),
        "allgather bcast leg", f.victim);
  finish(out, b);
  return out;
}

FaultSchedule script_tsqr_direct(std::span<const std::int64_t> rows_by_rank,
                                 std::int64_t k, std::int64_t y_cols,
                                 const FaultScenario& f) {
  const int p = static_cast<int>(rows_by_rank.size());
  PARSVD_REQUIRE(p >= 1 && k >= 1 && y_cols >= 1,
                 "tsqr_direct: need p >= 1, k >= 1 and y_cols >= 1");
  check_victim(p, f, /*root_must_survive=*/true);
  FaultSchedule out = start("tsqr_direct(p=" + std::to_string(p) +
                                ", k=" + std::to_string(k) +
                                ", c=" + std::to_string(y_cols) + ", rows=" +
                                rows_suffix(rows_by_rank) + ")",
                            p, f);
  if (p == 1) return out;
  FaultBuilder b(out.schedule, f);
  Schedule& s = out.schedule;

  // The local QR of an m x k block yields a min(m, k) x k R factor.
  const auto rloc = [&](int r) {
    return std::min<std::int64_t>(rows_by_rank[static_cast<std::size_t>(r)], k);
  };
  std::vector<std::uint64_t> rbytes(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    rbytes[static_cast<std::size_t>(r)] = matrix_bytes(rloc(r), k);
  }
  const std::vector<bool> delivered =
      root_loop(b, s, 0, tags::kGather, rbytes, "local R factor");

  // q_times: the contributors' rloc(r) x y_cols blocks of Q_stack·Y.
  std::vector<std::uint64_t> qbytes(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    qbytes[static_cast<std::size_t>(r)] = matrix_bytes(rloc(r), y_cols);
  }
  // The blocks keep their shape whoever is excluded.
  scatter_q_blocks(b, p, delivered, qbytes, qbytes, f.victim, "Q·Y block");
  finish(out, b);
  return out;
}

FaultSchedule script_apmos(std::span<const std::int64_t> rows_by_rank,
                           std::int64_t n_cols, std::int64_t r1,
                           std::int64_t r2, bool fault_tolerant,
                           const FaultScenario& f) {
  const int p = static_cast<int>(rows_by_rank.size());
  PARSVD_REQUIRE(p >= 1 && n_cols >= 1 && r1 >= 1 && r2 >= 1,
                 "apmos: need p >= 1 and positive n_cols/r1/r2");
  check_victim(p, f, /*root_must_survive=*/true);
  FaultSchedule out = start(
      "apmos(p=" + std::to_string(p) + ", n=" + std::to_string(n_cols) +
          ", r1=" + std::to_string(r1) + ", r2=" + std::to_string(r2) +
          ", rows=" + rows_suffix(rows_by_rank) +
          (fault_tolerant ? ", fault_tolerant)" : ")"),
      p, f);
  FaultBuilder b(out.schedule, f);
  Schedule& s = out.schedule;

  // Stage-3 payload per rank: 8-byte row-count header + packed W^i,
  // W^i being n_cols x k1 with k1 = min(r1, rows, n_cols).
  const auto k1 = [&](int r) {
    return std::min(
        r1, std::min(rows_by_rank[static_cast<std::size_t>(r)], n_cols));
  };
  std::vector<std::uint64_t> wbytes(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    wbytes[static_cast<std::size_t>(r)] =
        sizeof(std::int64_t) + matrix_bytes(n_cols, k1(r));
  }
  const std::vector<bool> delivered =
      root_loop(b, s, 0, tags::kGather, wbytes, "W block + extent header");

  // Root SVD extent over the surviving stack, degraded and healthy.
  std::int64_t ksum = 0;
  std::int64_t ksum_h = 0;
  std::int64_t surviving_rows = 0;
  for (int r = 0; r < p; ++r) {
    ksum_h += k1(r);
    if (delivered[static_cast<std::size_t>(r)]) {
      ksum += k1(r);
      surviving_rows += rows_by_rank[static_cast<std::size_t>(r)];
    }
  }
  const std::int64_t rho = std::min(r2, std::min(n_cols, ksum));
  const std::int64_t rho_h = std::min(r2, std::min(n_cols, ksum_h));
  const bool degraded = count_lost(delivered) > 0;

  bcast(b, s, 0, matrix_bytes(n_cols, rho_h), matrix_bytes(n_cols, rho),
        "X modes", f.victim);
  bcast(b, s, 0, static_cast<std::uint64_t>(rho_h) * sizeof(double),
        static_cast<std::uint64_t>(rho) * sizeof(double), "singular values",
        f.victim);

  if (fault_tolerant) {
    // The APMOS FaultReport is derived entirely from the gather results,
    // so unlike the streaming report it is race-free by construction.
    out.report_flat.push_back(degraded ? 1.0 : 0.0);
    out.report_flat.push_back(degraded ? 1.0 : 0.0);  // ndead
    if (degraded) out.report_flat.push_back(static_cast<double>(f.victim));
    out.report_flat.push_back(static_cast<double>(surviving_rows));
    out.report_flat.push_back(0.0);  // lost_rows: unknowable pre-extent
    out.report_flat.push_back(degraded ? 0.0 : 1.0);  // extent_known
    out.report_flat.push_back(degraded ? 0.0 : 1.0);  // coverage
    out.report_flat.push_back(degraded ? 1.0 : 0.0);  // accuracy_bound
    bcast(b, s, 0, 7 * sizeof(double),
          out.report_flat.size() * sizeof(double), "fault report", f.victim);
  }
  finish(out, b);
  return out;
}

FaultSchedule script_streaming_updates(const StreamingShape& shape,
                                       const FaultScenario& f) {
  const int p = static_cast<int>(shape.rows_by_rank.size());
  PARSVD_REQUIRE(p >= 1, "streaming: need p >= 1");
  PARSVD_REQUIRE(shape.num_modes >= 1 && shape.batch_cols >= 1 &&
                     shape.rounds >= 1,
                 "streaming: need positive num_modes/batch_cols/rounds");
  check_victim(p, f, /*root_must_survive=*/true);
  PARSVD_REQUIRE(shape.init_energy.empty() ||
                     static_cast<int>(shape.init_energy.size()) == p,
                 "streaming: init_energy size != p");
  PARSVD_REQUIRE(shape.round_energy.empty() ||
                     static_cast<int>(shape.round_energy.size()) ==
                         shape.rounds,
                 "streaming: round_energy size != rounds");

  const std::int64_t K = shape.num_modes;
  const std::int64_t B = shape.batch_cols;
  const std::int64_t total_rows = [&] {
    std::int64_t n = 0;
    for (const std::int64_t r : shape.rows_by_rank) n += r;
    return n;
  }();

  FaultSchedule out = start(
      "streaming(p=" + std::to_string(p) + ", K=" + std::to_string(K) +
          ", B=" + std::to_string(B) + ", T=" + std::to_string(shape.rounds) +
          ", rows=" + rows_suffix(shape.rows_by_rank) +
          (shape.fault_tolerant ? ", fault_tolerant)" : ")"),
      p, f);
  FaultBuilder b(out.schedule, f);
  Schedule& s = out.schedule;

  // Root's per-rank energy ledger, seeded by the healthy initialize.
  std::vector<double> ledger(static_cast<std::size_t>(p), 1.0);
  if (!shape.init_energy.empty()) ledger = shape.init_energy;

  const auto rows = [&](int r) {
    return shape.rows_by_rank[static_cast<std::size_t>(r)];
  };

  // u_local_ column count entering each round, degraded and healthy
  // (they diverge only once an exclusion actually shrinks the stack).
  std::int64_t ucols = shape.start_cols >= 0 ? shape.start_cols : K;
  std::int64_t ucols_h = ucols;

  for (int t = 0; t < shape.rounds; ++t) {
    const std::string round = "update " + std::to_string(t + 1);

    if (shape.fault_tolerant) {
      // Energy ledger: 8-byte Frobenius addend per rank.
      const std::vector<std::uint64_t> ebytes(static_cast<std::size_t>(p),
                                              sizeof(double));
      const std::vector<bool> delivered_e =
          root_loop(b, s, 0, tags::kGather, ebytes, round + ": batch energy");
      for (int r = 0; r < p; ++r) {
        if (!delivered_e[static_cast<std::size_t>(r)]) continue;
        ledger[static_cast<std::size_t>(r)] +=
            shape.round_energy.empty()
                ? 1.0
                : shape.round_energy[static_cast<std::size_t>(t)]
                                    [static_cast<std::size_t>(r)];
      }
    }

    // tsqr on [discounted modes | batch]: k = ucols + B. Its R gather,
    // then the root SVD of the global R (qcols x k), truncated to K.
    const std::int64_t k = ucols + B;
    const std::int64_t k_h = ucols_h + B;
    std::int64_t qcols = std::min(rows(0), k);  // P = 1: rank 0's own R
    std::int64_t qcols_h = qcols;
    std::vector<bool> delivered_t(static_cast<std::size_t>(p), true);
    if (p > 1) {
      std::vector<std::uint64_t> rbytes(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        const std::int64_t kk = r == f.victim ? k_h : k;
        rbytes[static_cast<std::size_t>(r)] =
            matrix_bytes(std::min(rows(r), kk), kk);
      }
      delivered_t =
          root_loop(b, s, 0, tags::kGather, rbytes, round + ": local R factor");
      std::int64_t stack = 0;
      std::int64_t stack_h = 0;
      for (int r = 0; r < p; ++r) {
        stack_h += std::min(rows(r), k_h);
        if (delivered_t[static_cast<std::size_t>(r)]) {
          stack += std::min(rows(r), k);
        }
      }
      qcols = std::min(stack, k);
      qcols_h = std::min(stack_h, k_h);
    }
    const std::int64_t keep = std::min(K, qcols);
    const std::int64_t keep_h = std::min(K, qcols_h);

    // q_times scatter of the min(rows, k) x keep blocks of Q_stack·Ũ,
    // then the singular value bcast.
    std::vector<std::uint64_t> qbytes(static_cast<std::size_t>(p));
    std::vector<std::uint64_t> qbytes_h(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      qbytes[static_cast<std::size_t>(r)] =
          matrix_bytes(std::min(rows(r), k), keep);
      qbytes_h[static_cast<std::size_t>(r)] =
          matrix_bytes(std::min(rows(r), k_h), keep_h);
    }
    scatter_q_blocks(b, p, delivered_t, qbytes, qbytes_h, f.victim,
                     round + ": Q·U block");
    bcast(b, s, 0, static_cast<std::uint64_t>(keep_h) * sizeof(double),
          static_cast<std::uint64_t>(keep) * sizeof(double),
          round + ": singular values", f.victim);
    ucols = keep;
    ucols_h = keep_h;

    // Mode gather of the rotated u_local blocks (rows x keep each).
    std::vector<std::uint64_t> mbytes(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      mbytes[static_cast<std::size_t>(r)] =
          matrix_bytes(rows(r), r == f.victim ? ucols_h : ucols);
    }
    root_loop(b, s, 0, tags::kGather, mbytes, round + ": mode block");

    if (!shape.fault_tolerant) continue;
    // FaultReport: root reads Communicator::dead_ranks() — context
    // truth, so the observation is racy when the kill lands exactly at
    // the victim's report receive.
    const int ndead = b.report_ndead(0);
    const std::int64_t lost_rows = ndead ? rows(f.victim) : 0;
    double total_energy = 0.0;
    for (const double e : ledger) total_energy += e;
    const double lost_energy =
        ndead ? ledger[static_cast<std::size_t>(f.victim)] : 0.0;
    const double coverage =
        total_energy > 0.0 ? (total_energy - lost_energy) / total_energy : 1.0;
    std::vector<double> flat;
    flat.push_back(ndead ? 1.0 : 0.0);
    flat.push_back(static_cast<double>(ndead));
    if (ndead) flat.push_back(static_cast<double>(f.victim));
    flat.push_back(static_cast<double>(total_rows - lost_rows));
    flat.push_back(static_cast<double>(lost_rows));
    flat.push_back(1.0);  // extent_known: rows recorded at initialize
    flat.push_back(coverage);
    flat.push_back(std::sqrt(std::max(0.0, 1.0 - coverage)));
    bcast(b, s, 0, 7 * sizeof(double), flat.size() * sizeof(double),
          round + ": fault report", f.victim);
    out.report_flat = std::move(flat);
  }
  finish(out, b);
  return out;
}

}  // namespace parsvd::verify
