// schedule_check: sweep every SPMD protocol schedule over P in [1, 64],
// proving match-completeness, tag hygiene, channel discipline and
// deadlock-freedom. The schedules are recorded from the runtime
// (verify/record.hpp): each protocol's production code runs once on
// pmpi's rank threads under a wire tap, on tiny seeded payloads. Also
// self-tests the checker against seeded defective schedules, printing
// the counterexample trace for each.
//
// Subgroup schedules are swept alongside the world ones: every P is
// partitioned into halves / singleton+rest / three-way / even-odd
// member lists, each group runs a different protocol concurrently under
// its own tag scope, and the partition is checked as one world
// schedule — proving sibling groups cannot interfere by construction.
//
// The --faults mode sweeps the FAILURE space (DESIGN §13): every
// death-aware protocol × P in [2, 32] × every non-root victim × every
// single-rank kill point, each recorded by rerunning the protocol with
// the victim killed there and checked for degraded-mode quiescence with
// check_fault_schedule, plus the run where the victim survives. Seeded
// recovery-path defects self-test the fault checker the same way
// seeded_defects() self-tests the fault-free one.
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
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/log.hpp"
#include "verify/checker.hpp"
#include "verify/record.hpp"
#include "verify/selftest.hpp"

namespace {

using namespace parsvd;
using namespace parsvd::verify;

/// Recordings the fault sweep runs at once.
constexpr int kRecordingThreads = 2;

struct SweepStats {
  std::size_t schedules = 0;
  std::size_t events = 0;
  std::size_t failures = 0;
  std::size_t racy = 0;  ///< fault sweep: recordings that raced the kill
};

/// Record `job` and check it; a job the runtime cannot finish (a rank
/// throws, a wait times out) is a failure too.
void run_check(const Job& job, SweepStats* stats) {
  ++stats->schedules;
  try {
    const CheckReport report = check_schedule(record(job));
    stats->events += report.events_checked;
    if (report.ok()) return;
    std::cerr << report.to_string();
  } catch (const std::exception& e) {
    std::cerr << "FAIL " << job.name << ": " << e.what() << "\n";
  }
  ++stats->failures;
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
  std::vector<Index> scatter_rows(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    gather_bytes[static_cast<std::size_t>(r)] =
        24 + 8 * static_cast<std::uint64_t>(r);
    scatter_rows[static_cast<std::size_t>(r)] = r + 1;
  }

  for (const int root : roots) {
    run_check(bcast_job(p, root, 4096), stats);
    run_check(gather_job(p, root, gather_bytes), stats);
    run_check(scatter_rows_job(p, root, scatter_rows, 3), stats);
    run_check(reduce_job(p, root, 64), stats);
  }
  run_check(allgather_job(p), stats);
  run_check(allreduce_job(p, 64), stats);
  for (const Index k : {Index{3}, Index{5}}) {
    // Uniform tall panels, and a ragged layout with some blocks shorter
    // than k so the min(rows, k) extents are exercised.
    std::vector<Index> uniform(static_cast<std::size_t>(p), k + 2);
    std::vector<Index> ragged(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      ragged[static_cast<std::size_t>(r)] = 2 + (r % 5);
    }
    // q_times with a 2-column Y, as the streaming update's K = 2 below.
    run_check(tsqr_job(uniform, k, 2), stats);
    run_check(tsqr_job(ragged, k, 2), stats);
  }
  std::vector<Index> rows(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    rows[static_cast<std::size_t>(r)] = 3 + (r % 4);
  }
  for (const bool fault_tolerant : {false, true}) {
    run_check(apmos_job(rows, 6, 4, 4, fault_tolerant), stats);
    run_check(streaming_job(rows, 2, 2, 2, fault_tolerant), stats);
  }
}

void sweep_groups(int p, SweepStats* stats) {
  for (PartitionCase& c : group_sweep(p)) {
    run_check(partition_job(p, std::move(c.groups), std::move(c.protocols), 64),
              stats);
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

/// Check one degraded recording; racy ones (a liveness read concurrent
/// with the kill) are counted but still checked — the recording commits
/// to the traffic-dominating alive branch.
void run_fault_check(const Recording& rec, SweepStats* stats,
                     std::ostream& log) {
  const CheckReport report = check_fault_schedule(rec.schedule, rec.scenario);
  ++stats->schedules;
  stats->events += report.events_checked;
  if (rec.racy) ++stats->racy;
  if (!report.ok()) {
    ++stats->failures;
    log << report.to_string();
  }
}

/// Enumerate every kill point of every non-root victim of one protocol:
/// the kill-free recording gives each victim's event count and stands
/// for the run the victim survives; then one recording per kill step.
/// Diagnostics go to `log`.
void sweep_kill_points(const Job& job, int root, SweepStats* stats,
                       std::ostream& log) {
  try {
    const Schedule kill_free = record(job);
    for (int victim = 0; victim < job.p; ++victim) {
      if (victim == root) continue;
      const std::size_t n =
          kill_free.ranks[static_cast<std::size_t>(victim)].events().size();
      run_fault_check({kill_free, {victim, kNoKillStep}, false}, stats, log);
      for (std::size_t step = 0; step < n; ++step) {
        run_fault_check(record(job, kill_free, {victim, step}), stats, log);
      }
    }
  } catch (const std::exception& e) {
    ++stats->schedules;
    ++stats->failures;
    log << "FAIL " << job.name << ": " << e.what() << "\n";
  }
}

/// A protocol instance of the fault sweep and the root no kill targets.
struct FaultJob {
  Job job;
  int root = 0;
};

/// Sweep `jobs` on a few recording threads (each recording already runs
/// job.p rank threads, so two of them keep a small host busy). Totals
/// are sums, so they do not depend on the interleaving.
void sweep_fault_jobs(const std::vector<FaultJob>& jobs, SweepStats* stats) {
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      SweepStats s;
      std::ostringstream log;
      sweep_kill_points(jobs[i].job, jobs[i].root, &s, log);
      std::lock_guard<std::mutex> lock(mu);
      stats->schedules += s.schedules;
      stats->events += s.events;
      stats->failures += s.failures;
      stats->racy += s.racy;
      std::cerr << log.str();
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kRecordingThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
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
  std::vector<FaultJob> jobs;
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
        jobs.push_back({gather_job(p, root, bytes), root});
      }
    }
    if (proto_enabled(proto, "bcast")) {
      for (const int root : roots) {
        jobs.push_back({bcast_job(p, root, 4096), root});
      }
    }
    if (proto_enabled(proto, "allreduce")) {
      jobs.push_back({allreduce_job(p, 48), 0});
      jobs.push_back({reduce_job(p, 0, 48), 0});
    }
    if (proto_enabled(proto, "tsqr")) {
      for (const Index k : {Index{3}, Index{5}}) {
        // Uniform tall panels, and a ragged layout with some blocks
        // shorter than k so the min(rows, k) extents are exercised.
        std::vector<Index> uniform(static_cast<std::size_t>(p), k + 2);
        std::vector<Index> ragged(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
          ragged[static_cast<std::size_t>(r)] = 2 + (r % 5);
        }
        for (const auto& rows : {uniform, ragged}) {
          jobs.push_back({tsqr_job(rows, k, 2), 0});
        }
      }
    }
    if (proto_enabled(proto, "apmos")) {
      struct ApmosShape {
        Index n_cols, r1, r2;
      };
      std::vector<Index> rows(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        rows[static_cast<std::size_t>(r)] = 3 + (r % 4);
      }
      for (const ApmosShape& sh : {ApmosShape{6, 3, 2}, ApmosShape{4, 5, 4}}) {
        jobs.push_back({apmos_job(rows, sh.n_cols, sh.r1, sh.r2,
                                  /*fault_tolerant=*/true),
                        0});
      }
    }
    if (proto_enabled(proto, "streaming")) {
      struct StreamKB {
        Index num_modes, batch_cols;
      };
      std::vector<Index> rows(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        rows[static_cast<std::size_t>(r)] = 4 + (r % 3);
      }
      for (const StreamKB& kb : {StreamKB{2, 2}, StreamKB{3, 1}}) {
        for (int rounds = 1; rounds <= 4; ++rounds) {
          jobs.push_back({streaming_job(rows, kb.num_modes, kb.batch_cols,
                                        rounds, /*fault_tolerant=*/true),
                          0});
        }
      }
    }
  }

  SweepStats stats;
  sweep_fault_jobs(jobs, &stats);
  std::cout << "schedule_check --faults: " << stats.schedules
            << " scenarios (" << stats.racy << " racy), " << stats.events
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
  // Every kill scenario logs its injected death at warn level.
  log::set_level(log::Level::Error);
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
