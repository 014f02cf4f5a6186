// schedule_check: sweep every SPMD protocol schedule over P in [1, 64],
// proving match-completeness, tag hygiene, channel discipline and
// deadlock-freedom statically (no threads, no payloads). Also self-tests the checker against seeded
// defective schedules, printing the counterexample trace for each.
//
// Subgroup schedules are swept alongside the world ones: every P is
// partitioned into halves / singleton+rest / three-way / even-odd
// member lists, each group runs a different protocol concurrently under
// its own tag scope, and the partition is checked as one world
// schedule — proving sibling groups cannot interfere by construction.
//
// Every death-aware protocol has ONE emitter (verify/fault_schedules.hpp),
// parameterised by a FaultScenario: the default and --groups sweeps run
// its kill-free emission, and the --faults mode sweeps the FAILURE space
// over the same emitters (DESIGN §13): every protocol × P in [2, 32] ×
// every non-root victim × every single-rank kill point, each scenario
// checked for degraded-mode quiescence with check_fault_schedule, plus
// the emission where the victim survives. Seeded recovery-path defects
// self-test the fault checker the same way seeded_defects() self-tests
// the fault-free one.
//
//   schedule_check            full sweep (world + groups) + selftest
//   schedule_check --smoke    reduced rank set (CI gate)
//   schedule_check --groups   subgroup-partition sweep only (+ selftest)
//   schedule_check --selftest seeded-defect detection only
//   schedule_check --faults   failure-space sweep + fault selftest;
//                             --proto=<gather|bcast|allreduce|tsqr|
//                             apmos|streaming> restricts to one
//                             protocol family (the CI shard axis)
//
// Exit code 0 iff every real schedule passes AND every seeded defect is
// caught with the expected violation kind.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "verify/checker.hpp"
#include "verify/fault_schedules.hpp"
#include "verify/schedules.hpp"
#include "verify/selftest.hpp"

namespace {

using namespace parsvd;
using namespace parsvd::verify;

struct SweepStats {
  std::size_t schedules = 0;
  std::size_t events = 0;
  std::size_t failures = 0;
};

void run_check(const Schedule& s, SweepStats* stats) {
  const CheckReport report = check_schedule(s);
  ++stats->schedules;
  stats->events += report.events_checked;
  if (!report.ok()) {
    ++stats->failures;
    std::cerr << report.to_string();
  }
}

void sweep_p(int p, SweepStats* stats) {
  // Roots: first, last, middle (deduplicated for small p) so the
  // virtual-rank rotation is exercised, not just the root-0 layout.
  std::vector<int> roots{0};
  if (p > 1) roots.push_back(p - 1);
  if (p > 4) roots.push_back(p / 2);

  // Asymmetric per-rank contributions (gatherv has no symmetry
  // guarantee) and per-rank scatter blocks.
  std::vector<std::uint64_t> gather_bytes(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> scatter_bytes(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    gather_bytes[static_cast<std::size_t>(r)] =
        24 + 8 * static_cast<std::uint64_t>(r);
    scatter_bytes[static_cast<std::size_t>(r)] =
        16 + 8 * 3 * static_cast<std::uint64_t>(r + 1);
  }

  for (const int root : roots) {
    run_check(script_bcast(p, root, 4096).schedule, stats);
    run_check(script_gather(p, root, gather_bytes).schedule, stats);
    run_check(script_scatter_rows(p, root, scatter_bytes), stats);
    run_check(script_reduce(p, root, 64).schedule, stats);
  }
  run_check(script_allgather(p, 8).schedule, stats);
  run_check(script_allreduce(p, 64).schedule, stats);
  for (const std::int64_t k : {std::int64_t{3}, std::int64_t{5}}) {
    // Uniform tall panels, and a ragged layout with some blocks shorter
    // than k so the min(rows, k) extents are exercised.
    std::vector<std::int64_t> uniform(static_cast<std::size_t>(p), k + 2);
    std::vector<std::int64_t> ragged(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      ragged[static_cast<std::size_t>(r)] = 2 + (r % 5);
    }
    // q_times with a 2-column Y, as the streaming update's K = 2 below.
    run_check(script_tsqr_direct(uniform, k, 2).schedule, stats);
    run_check(script_tsqr_direct(ragged, k, 2).schedule, stats);
  }
  std::vector<std::int64_t> rows(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    rows[static_cast<std::size_t>(r)] = 3 + (r % 4);
  }
  for (const bool fault_tolerant : {false, true}) {
    run_check(script_apmos(rows, 6, 4, 4, fault_tolerant).schedule, stats);
    StreamingShape shape;
    shape.rows_by_rank = rows;
    shape.rounds = 2;
    shape.fault_tolerant = fault_tolerant;
    run_check(script_streaming_updates(shape).schedule, stats);
  }
}

/// The partition shapes swept per world size: contiguous halves, a
/// singleton plus the rest, contiguous thirds, and an even/odd
/// interleave (non-contiguous members, so the group-rank -> world-rank
/// translation is exercised, not just offsetting). Shapes collapse for
/// tiny p (p=1 yields the same single-group partition three times over);
/// empty groups are dropped. Group ids are minted 1..n in partition
/// order, matching Communicator::split's ascending-color order.
std::vector<std::vector<GroupSpec>> partitions_for(int p) {
  std::vector<std::vector<int>> shapes[4];
  // halves
  shapes[0].assign(2, {});
  for (int r = 0; r < p; ++r) {
    shapes[0][r < p / 2 ? 0u : 1u].push_back(r);
  }
  // singleton + rest
  shapes[1].assign(2, {});
  shapes[1][0].push_back(0);
  for (int r = 1; r < p; ++r) shapes[1][1].push_back(r);
  // three-way
  shapes[2].assign(3, {});
  for (int r = 0; r < p; ++r) {
    shapes[2][static_cast<std::size_t>(std::min(r / ((p + 2) / 3), 2))]
        .push_back(r);
  }
  // even/odd interleave
  shapes[3].assign(2, {});
  for (int r = 0; r < p; ++r) shapes[3][static_cast<std::size_t>(r % 2)]
      .push_back(r);

  std::vector<std::vector<GroupSpec>> out;
  for (auto& shape : shapes) {
    std::vector<GroupSpec> partition;
    int next_id = 1;
    for (auto& members : shape) {
      if (members.empty()) continue;
      partition.push_back({next_id++, std::move(members)});
    }
    out.push_back(std::move(partition));
  }
  return out;
}

void sweep_groups(int p, SweepStats* stats) {
  constexpr GroupProtocol kProtos[] = {
      GroupProtocol::Tsqr,     GroupProtocol::Allreduce,
      GroupProtocol::Gather,   GroupProtocol::Bcast,
      GroupProtocol::Barrier,  GroupProtocol::Allgather,
      GroupProtocol::Reduce,   GroupProtocol::Apmos,
  };
  constexpr int kNumProtos = static_cast<int>(std::size(kProtos));
  const std::vector<std::vector<GroupSpec>> partitions = partitions_for(p);
  for (std::size_t shape = 0; shape < partitions.size(); ++shape) {
    const std::vector<GroupSpec>& groups = partitions[shape];
    // Rotate protocol assignments with the shape index so every protocol
    // eventually runs concurrently with every other.
    std::vector<GroupProtocol> protos;
    protos.reserve(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      protos.push_back(kProtos[(static_cast<int>(i + shape)) % kNumProtos]);
    }
    run_check(script_partition(p, groups, protos, 64), stats);
  }
}

bool run_sweep(bool smoke, bool groups_only) {
  SweepStats stats;
  const std::vector<int> smoke_ps{1, 2, 3, 4, 5, 8, 16, 33, 64};
  if (smoke) {
    for (const int p : smoke_ps) {
      if (!groups_only) sweep_p(p, &stats);
      sweep_groups(p, &stats);
    }
  } else {
    for (int p = 1; p <= 64; ++p) {
      if (!groups_only) sweep_p(p, &stats);
      sweep_groups(p, &stats);
    }
  }
  std::cout << "schedule_check: " << stats.schedules << " schedules, "
            << stats.events << " events, " << stats.failures << " failure(s)"
            << (groups_only ? " [groups]" : "") << (smoke ? " [smoke]" : "")
            << "\n";
  return stats.failures == 0;
}

// ------------------------------------------------- failure-space sweep

/// Check one degraded schedule; racy scenarios (a root is_dead() guard
/// concurrent with the kill) are counted but still checked — the model
/// commits to the traffic-dominating alive branch.
void run_fault_check(const FaultSchedule& fs, SweepStats* stats,
                     std::size_t* racy) {
  const CheckReport report = check_fault_schedule(fs.schedule, fs.scenario);
  ++stats->schedules;
  stats->events += report.events_checked;
  if (!fs.deterministic) ++*racy;
  if (!report.ok()) {
    ++stats->failures;
    std::cerr << report.to_string();
  }
}

/// Enumerate every kill point of one (protocol, victim) pair: emit the
/// healthy scenario once to learn the victim's event count, check it,
/// then check the kill at every step before each of those events.
template <typename Emit>
void sweep_kill_points(Emit&& emit, int victim, SweepStats* stats,
                       std::size_t* racy) {
  const FaultSchedule healthy = emit(FaultScenario{victim, kNoKillStep});
  const std::size_t n =
      healthy.schedule.ranks[static_cast<std::size_t>(victim)].events().size();
  run_fault_check(healthy, stats, racy);
  for (std::size_t step = 0; step < n; ++step) {
    run_fault_check(emit(FaultScenario{victim, step}), stats, racy);
  }
}

bool proto_enabled(const std::string& filter, const char* name) {
  return filter.empty() || filter == name;
}

/// Every death-aware protocol × P in [2, 32] × every non-root victim ×
/// every kill point. Root victims are excluded by contract — every
/// collective documents root-must-survive; the seeded fault defects
/// cover what the checker reports when that contract is broken. P=1
/// runs no wire protocol, so the sweep starts at the first p with a
/// victim.
bool run_fault_sweep(bool smoke, const std::string& proto) {
  SweepStats stats;
  std::size_t racy = 0;

  std::vector<int> ps;
  if (smoke) {
    ps = {2, 3, 4, 5, 8, 16, 32};
  } else {
    for (int p = 2; p <= 32; ++p) ps.push_back(p);
  }

  for (const int p : ps) {
    std::vector<int> roots{0};
    if (p > 2) roots.push_back(p - 1);
    if (p > 4) roots.push_back(p / 2);

    if (proto_enabled(proto, "gather")) {
      std::vector<std::uint64_t> bytes(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        bytes[static_cast<std::size_t>(r)] =
            24 + 8 * static_cast<std::uint64_t>(r);
      }
      for (const int root : roots) {
        for (int v = 0; v < p; ++v) {
          if (v == root) continue;
          sweep_kill_points(
              [&](FaultScenario f) { return script_gather(p, root, bytes, f); },
              v, &stats, &racy);
        }
      }
    }
    if (proto_enabled(proto, "bcast")) {
      for (const int root : roots) {
        for (int v = 0; v < p; ++v) {
          if (v == root) continue;
          sweep_kill_points(
              [&](FaultScenario f) { return script_bcast(p, root, 4096, f); },
              v, &stats, &racy);
        }
      }
    }
    if (proto_enabled(proto, "allreduce")) {
      for (int v = 1; v < p; ++v) {
        sweep_kill_points(
            [&](FaultScenario f) { return script_allreduce(p, 48, f); }, v,
            &stats, &racy);
        sweep_kill_points(
            [&](FaultScenario f) { return script_reduce(p, 0, 48, f); }, v,
            &stats, &racy);
      }
    }
    if (proto_enabled(proto, "tsqr")) {
      for (const std::int64_t k : {std::int64_t{3}, std::int64_t{5}}) {
        // Uniform tall panels, and a ragged layout with some blocks
        // shorter than k so the min(rows, k) extents are exercised.
        std::vector<std::int64_t> uniform(static_cast<std::size_t>(p), k + 2);
        std::vector<std::int64_t> ragged(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
          ragged[static_cast<std::size_t>(r)] = 2 + (r % 5);
        }
        for (const auto& rows : {uniform, ragged}) {
          for (int v = 1; v < p; ++v) {
            sweep_kill_points(
                [&](FaultScenario f) {
                  return script_tsqr_direct(rows, k, 2, f);
                },
                v, &stats, &racy);
          }
        }
      }
    }
    if (proto_enabled(proto, "apmos")) {
      struct ApmosShape {
        std::int64_t n_cols, r1, r2;
      };
      for (const ApmosShape& sh : {ApmosShape{6, 3, 2}, ApmosShape{4, 5, 4}}) {
        std::vector<std::int64_t> rows(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
          rows[static_cast<std::size_t>(r)] = 3 + (r % 4);
        }
        for (int v = 1; v < p; ++v) {
          sweep_kill_points(
              [&](FaultScenario f) {
                return script_apmos(rows, sh.n_cols, sh.r1, sh.r2,
                                    /*fault_tolerant=*/true, f);
              },
              v, &stats, &racy);
        }
      }
    }
    if (proto_enabled(proto, "streaming")) {
      struct StreamKB {
        std::int64_t num_modes, batch_cols;
      };
      for (const StreamKB& kb : {StreamKB{2, 2}, StreamKB{3, 1}}) {
        for (int rounds = 1; rounds <= 4; ++rounds) {
          StreamingShape shape;
          shape.rows_by_rank.resize(static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) {
            shape.rows_by_rank[static_cast<std::size_t>(r)] = 4 + (r % 3);
          }
          shape.num_modes = kb.num_modes;
          shape.batch_cols = kb.batch_cols;
          shape.rounds = rounds;
          shape.fault_tolerant = true;
          for (int v = 1; v < p; ++v) {
            sweep_kill_points(
                [&](FaultScenario f) {
                  return script_streaming_updates(shape, f);
                },
                v, &stats, &racy);
          }
        }
      }
    }
  }

  std::cout << "schedule_check --faults: " << stats.schedules
            << " scenarios (" << racy << " racy), " << stats.events
            << " events, " << stats.failures << " failure(s)"
            << (proto.empty() ? "" : " [proto=" + proto + "]")
            << (smoke ? " [smoke]" : "") << "\n";
  return stats.failures == 0;
}

bool run_fault_selftest() {
  bool ok = true;
  for (const SeededFaultDefect& defect : seeded_fault_defects()) {
    const CheckReport report =
        check_fault_schedule(defect.schedule, defect.scenario);
    bool found = false;
    for (const Violation& v : report.violations) {
      if (v.kind == defect.expected) found = true;
    }
    std::cout << "--- seeded fault defect: " << defect.schedule.name
              << defect.scenario.suffix() << " (expect "
              << to_string(defect.expected) << ")\n";
    if (report.ok()) {
      std::cout << "NOT DETECTED — fault checker is unsound for this class\n";
      ok = false;
    } else {
      std::cout << report.to_string();
      if (!found) {
        std::cout << "detected, but without the expected "
                  << to_string(defect.expected) << " violation\n";
        ok = false;
      }
    }
  }
  std::cout << (ok ? "fault selftest: all seeded defects detected\n"
                   : "fault selftest: FAILED\n");
  return ok;
}

bool run_selftest() {
  bool ok = true;
  for (const SeededDefect& defect : seeded_defects()) {
    const CheckReport report = check_schedule(defect.schedule);
    bool found = false;
    for (const Violation& v : report.violations) {
      if (v.kind == defect.expected) found = true;
    }
    std::cout << "--- seeded defect: " << defect.schedule.name
              << " (expect " << to_string(defect.expected) << ")\n";
    if (report.ok()) {
      std::cout << "NOT DETECTED — checker is unsound for this class\n";
      ok = false;
    } else {
      std::cout << report.to_string();
      if (!found) {
        std::cout << "detected, but without the expected "
                  << to_string(defect.expected) << " violation\n";
        ok = false;
      }
    }
  }
  std::cout << (ok ? "selftest: all seeded defects detected\n"
                   : "selftest: FAILED\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool selftest_only = false;
  bool groups_only = false;
  bool faults = false;
  std::string proto;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest_only = true;
    } else if (std::strcmp(argv[i], "--groups") == 0) {
      groups_only = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    } else if (std::strncmp(argv[i], "--proto=", 8) == 0) {
      proto = argv[i] + 8;
    } else {
      std::cerr << "usage: schedule_check [--smoke] "
                   "[--groups|--selftest|--faults [--proto=NAME]]\n";
      return 2;
    }
  }
  if (faults) {
    bool ok = run_fault_sweep(smoke, proto);
    ok = run_fault_selftest() && ok;
    return ok ? 0 : 1;
  }
  bool ok = true;
  if (!selftest_only) ok = run_sweep(smoke, groups_only) && ok;
  ok = run_selftest() && ok;
  return ok ? 0 : 1;
}
