// Failure-space checker tests (DESIGN §13), three layers:
//
//   * golden counterexample traces — the seeded recovery-path defects
//     must render the victim, the kill step and the stuck op verbatim,
//     so the traces stay debuggable and deterministic;
//   * degraded runs — for sampled (protocol, P, victim, step) tuples the
//     recording under the kill must quiesce under check_fault_schedule,
//     and the runtime's registry totals, degraded results and FaultReport
//     contents are pinned to their closed-form values;
//   * the zero-failure regression — the recorded sweep over every
//     death-aware protocol and kill point must stay clean, so any future
//     recovery-path edit that breaks quiescence fails here, not in
//     production.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/apmos.hpp"
#include "core/parallel_streaming.hpp"
#include "core/tsqr.hpp"
#include "pmpi/comm.hpp"
#include "pmpi/fault.hpp"
#include "test_utils.hpp"
#include "verify/checker.hpp"
#include "verify/record.hpp"
#include "verify/selftest.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using pmpi::Context;
using pmpi::FaultPlan;
using verify::check_fault_schedule;
using verify::CheckReport;
using verify::FaultScenario;
using verify::Job;
using verify::kNoKillStep;
using verify::Recording;
using verify::Schedule;
using verify::Violation;

std::shared_ptr<Context> make_ctx(int size, FaultPlan plan) {
  auto ctx = std::make_shared<Context>(size);
  ctx->set_fault_plan(std::move(plan));
  return ctx;
}

void expect_contains(const std::string& text, const std::string& needle) {
  EXPECT_NE(text.find(needle), std::string::npos)
      << "missing:\n  " << needle << "\nin report:\n" << text;
}

const verify::SeededFaultDefect& defect_named(const std::string& prefix) {
  static const std::vector<verify::SeededFaultDefect> defects =
      verify::seeded_fault_defects();
  for (const auto& d : defects) {
    if (d.schedule.name.rfind(prefix, 0) == 0) return d;
  }
  ADD_FAILURE() << "no seeded fault defect named " << prefix;
  return defects.front();
}

// ------------------------------------------- golden counterexample traces

TEST(FaultTraceGolden, NakedWaitNamesVictimStepAndStuckOp) {
  const auto& d = defect_named("bad:ft-naked-wait");
  const CheckReport report = check_fault_schedule(d.schedule, d.scenario);
  ASSERT_FALSE(report.ok());
  const std::string text = report.to_string();
  expect_contains(text, "+ kill(victim=1, step=0)");
  expect_contains(text,
                  "[orphaned-wait] receive 0 on channel (src 1 -> dst 0, tag "
                  "-3) is a naked wait on rank 1, which dies at step 0 "
                  "without posting it — the wait can never complete");
  expect_contains(text,
                  "[orphaned-wait] rank 0 blocks forever on rank 1, which "
                  "died at step 0 — the wait is not death-bounded, so "
                  "recovery never runs");
  // The stuck op is marked at the blocked rank's program position.
  expect_contains(text, "rank 0 (event 0 of 2):");
  expect_contains(
      text,
      "> [0] Recv(src=1, tag=-3, 64 B)  // NAKED wait on a possibly-dead "
      "child — the defect");
  expect_contains(text,
                  "[1] Recv(src=2, tag=-3, 64 B, bounded)  // bounded wait");
}

TEST(FaultTraceGolden, RetransmitReframeIsByteMismatchOnLiveChannel) {
  const auto& d = defect_named("bad:ft-retransmit-reframed");
  const CheckReport report = check_fault_schedule(d.schedule, d.scenario);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::ByteMismatch);
  const std::string text = report.to_string();
  expect_contains(text,
                  "[byte-mismatch] message 1 on channel (src 2 -> dst 0, tag "
                  "-3): sender posts 72 B, receiver expects 64 B");
  expect_contains(text, "rank 2 (event 1 of 2):");
  expect_contains(text,
                  "> [1] Send(dest=0, tag=-3, 72 B)  // retransmit of rank "
                  "1's slot, +8 B repair header — the defect");
}

TEST(FaultTraceGolden, SkippedReleaseDeadlocksTheLiveSurvivor) {
  const auto& d = defect_named("bad:ft-skipped-release");
  const CheckReport report = check_fault_schedule(d.schedule, d.scenario);
  ASSERT_FALSE(report.ok());
  const std::string text = report.to_string();
  expect_contains(text,
                  "[deadlock] 1 of 4 ranks cannot run to completion under "
                  "the kill");
  // Rank 3 is stuck on the ALIVE root, so this must NOT read as an
  // orphaned wait on the victim.
  expect_contains(text,
                  "rank 3 blocked on channel (src 0 -> dst 3, tag -2) — "
                  "source rank has FINISHED its script (dropped send)");
  expect_contains(
      text, "> [1] Recv(src=0, tag=-2, 16 B)  // release — never sent");
}

TEST(FaultTraceGolden, DroppedContributionIsUnmatchedPreKillSend) {
  const auto& d = defect_named("bad:ft-dropped-contribution");
  const CheckReport report = check_fault_schedule(d.schedule, d.scenario);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::UnmatchedSend);
  const std::string text = report.to_string();
  expect_contains(text, "+ kill(victim=1, step=1)");
  expect_contains(text,
                  "[unmatched-send] send 0 on channel (src 1 -> dst 0, tag "
                  "-3) (64 B) was posted by the victim pre-kill but no "
                  "survivor ever consumes it");
  expect_contains(text,
                  "> [0] Send(dest=0, tag=-3, 64 B)  // contribution — "
                  "executes before the kill");
}

TEST(FaultTraceGolden, EverySeededFaultDefectIsDetectedWithExpectedKind) {
  for (const auto& d : verify::seeded_fault_defects()) {
    const CheckReport report = check_fault_schedule(d.schedule, d.scenario);
    ASSERT_FALSE(report.ok()) << d.schedule.name;
    bool found = false;
    for (const Violation& v : report.violations) {
      if (v.kind == d.expected) found = true;
    }
    EXPECT_TRUE(found) << d.schedule.name << ": expected "
                       << verify::to_string(d.expected) << " in\n"
                       << report.to_string();
    // Every violation must carry a non-empty counterexample trace.
    for (const Violation& v : report.violations) {
      EXPECT_FALSE(v.trace.empty()) << d.schedule.name;
    }
  }
}

// --------------------------------------------- zero-failure regression

// The failure-space sweep on the shipped protocols must stay clean.
// schedule_check --faults covers the full grid; this in-process slice
// keeps the guarantee inside the unit suite so a recovery-path edit
// cannot regress quiescence without a red test.
TEST(FaultSweepRegression, AllKillPointsQuiesceOnShippedProtocols) {
  std::size_t scenarios = 0;
  std::size_t failures = 0;
  const auto run = [&](const Recording& rec) {
    ++scenarios;
    const CheckReport r = check_fault_schedule(rec.schedule, rec.scenario);
    if (!r.ok()) {
      ++failures;
      ADD_FAILURE() << r.to_string();
    }
  };
  // Every kill point of every non-root victim, plus the run it survives.
  const auto sweep = [&](const Job& job) {
    const Schedule kill_free = verify::record(job);
    for (int v = 1; v < job.p; ++v) {
      run({kill_free, {v, kNoKillStep}, false});
      const std::size_t n =
          kill_free.ranks[static_cast<std::size_t>(v)].events().size();
      for (std::size_t step = 0; step < n; ++step) {
        run(verify::record(job, kill_free, {v, step}));
      }
    }
  };

  for (int p = 2; p <= 9; ++p) {
    std::vector<std::uint64_t> bytes(static_cast<std::size_t>(p), 48);
    std::vector<Index> rows(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      rows[static_cast<std::size_t>(r)] = 2 + (r % 4);
    }
    sweep(verify::gather_job(p, 0, bytes));
    sweep(verify::bcast_job(p, 0, 256));
    sweep(verify::allreduce_job(p, 5 * sizeof(double)));
    sweep(verify::tsqr_job(rows, 3, 2));
    sweep(verify::apmos_job(rows, 4, 3, 2, /*fault_tolerant=*/true));
    sweep(verify::streaming_job(rows, 2, 2, 2, /*fault_tolerant=*/true));
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(scenarios, 1000u);  // the slice must stay a real sweep
}

// ------------------------------------------------------ degraded runs
// Each test pins one deterministic (protocol, P, victim, step) tuple:
// the recording under the kill quiesces and took no racy branch, and a
// plain run under the same kill reproduces the closed-form registry
// totals and degraded results.

/// Record `job` under `f`: it must quiesce and be race-free.
void expect_quiescent(const Job& job, const FaultScenario& f) {
  const Recording rec = verify::record(job, verify::record(job), f);
  EXPECT_FALSE(rec.racy) << job.name << f.suffix();
  const CheckReport report = check_fault_schedule(rec.schedule, f);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

/// pack_matrix framing: 16-byte [rows, cols] header + doubles.
std::uint64_t matrix_bytes(Index rows, Index cols) {
  return 16 + 8 * static_cast<std::uint64_t>(rows * cols);
}

TEST(FaultCrossValidation, GatherKillBeforePost) {
  const int p = 4;
  const int root = 0;
  const int victim = 2;
  std::vector<std::uint64_t> bytes;
  for (int r = 0; r < p; ++r) {
    bytes.push_back(24 + 8 * static_cast<std::uint64_t>(r));
  }
  const Job job = verify::gather_job(p, root, bytes);
  expect_quiescent(job, {victim, 0});

  FaultPlan plan;
  plan.kill_rank(victim, 0);
  auto ctx = make_ctx(p, std::move(plan));
  pmpi::run_on(ctx, [&](Communicator& comm) {
    std::vector<std::byte> payload(
        bytes[static_cast<std::size_t>(comm.rank())]);
    const auto out = comm.gather_bytes(std::move(payload), root);
    if (comm.rank() == root) {
      ASSERT_EQ(out.size(), static_cast<std::size_t>(p));
      EXPECT_FALSE(out[victim].has_value());
      EXPECT_TRUE(out[1].has_value());
      EXPECT_TRUE(out[3].has_value());
    }
  });
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{victim});
  EXPECT_EQ(ctx->total_messages(), 2u);
  EXPECT_EQ(ctx->total_bytes(), bytes[1] + bytes[3]);
}

TEST(FaultCrossValidation, GatherRotatedRootKillBeforePost) {
  const int p = 3;
  const int root = 2;
  const int victim = 0;
  const std::vector<std::uint64_t> bytes{40, 56, 72};
  expect_quiescent(verify::gather_job(p, root, bytes), {victim, 0});

  FaultPlan plan;
  plan.kill_rank(victim, 0);
  auto ctx = make_ctx(p, std::move(plan));
  pmpi::run_on(ctx, [&](Communicator& comm) {
    std::vector<std::byte> payload(
        bytes[static_cast<std::size_t>(comm.rank())]);
    const auto out = comm.gather_bytes(std::move(payload), root);
    if (comm.rank() == root) {
      EXPECT_FALSE(out[0].has_value());
      EXPECT_TRUE(out[1].has_value());
    }
  });
  EXPECT_EQ(ctx->total_messages(), 1u);
  EXPECT_EQ(ctx->total_bytes(), 56u);
}

TEST(FaultCrossValidation, AllreduceKillBeforeContribution) {
  const int p = 4;
  const int victim = 1;
  const std::size_t n = 6;
  expect_quiescent(verify::allreduce_job(p, n * sizeof(double)), {victim, 0});

  // Survivors must agree on the survivors-only sum.
  std::vector<double> expected(n, 0.0);
  for (int r = 0; r < p; ++r) {
    if (r == victim) continue;
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] += static_cast<double>(r * 100) + static_cast<double>(i);
    }
  }

  FaultPlan plan;
  plan.kill_rank(victim, 0);
  auto ctx = make_ctx(p, std::move(plan));
  std::array<std::vector<double>, 4> results;
  pmpi::run_on(ctx, [&](Communicator& comm) {
    std::vector<double> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<double>(comm.rank() * 100) + static_cast<double>(i);
    }
    std::vector<int> missing;
    comm.allreduce(std::span<double>(data), pmpi::Op::Sum, &missing);
    if (comm.is_root()) {
      EXPECT_EQ(missing, std::vector<int>{victim});
    }
    results[static_cast<std::size_t>(comm.rank())] = std::move(data);
  });
  for (int r = 0; r < p; ++r) {
    if (r == victim) continue;
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
  // Two addends up, and the total only to the two survivors: the root
  // saw the death in its reduce wait, so its bcast guard skips rank 1.
  EXPECT_EQ(ctx->total_messages(), 4u);
  EXPECT_EQ(ctx->total_bytes(), 4 * n * sizeof(double));
}

TEST(FaultCrossValidation, AllreduceLargerWorldKillBeforeContribution) {
  const int p = 6;
  const int victim = 5;
  expect_quiescent(verify::allreduce_job(p, 9 * sizeof(double)), {victim, 0});

  FaultPlan plan;
  plan.kill_rank(victim, 0);
  auto ctx = make_ctx(p, std::move(plan));
  pmpi::run_on(ctx, [&](Communicator& comm) {
    std::vector<double> data(9, 1.0);
    std::vector<int> missing;
    comm.allreduce(std::span<double>(data), pmpi::Op::Sum, &missing);
    if (comm.rank() != victim) {
      EXPECT_EQ(data[0], static_cast<double>(p - 1)) << "rank " << comm.rank();
    }
  });
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{victim});
  EXPECT_EQ(ctx->total_messages(), 8u);
  EXPECT_EQ(ctx->total_bytes(), 8 * 9 * sizeof(double));
}

TEST(FaultCrossValidation, TsqrDirectKillBeforeRFactorPost) {
  const int p = 4;
  const Index k = 3;
  const Index c = 2;
  const int victim = 2;
  const std::vector<Index> rows{5, 6, 7, 8};
  expect_quiescent(verify::tsqr_job(rows, k, c), {victim, 0});

  FaultPlan plan;
  plan.kill_rank(victim, 0);
  auto ctx = make_ctx(p, std::move(plan));
  pmpi::run_on(ctx, [&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const Matrix a = testing::random_matrix(rows[r], k, 900 + r);
    const TsqrResult out = tsqr(comm, a);
    if (comm.rank() != victim) {
      // The exclusion list and R are root-side only.
      EXPECT_EQ(out.excluded_ranks,
                comm.is_root() ? std::vector<int>{victim} : std::vector<int>{})
          << "rank " << comm.rank();
      EXPECT_EQ(out.r.rows(), comm.is_root() ? k : 0);
      EXPECT_EQ(out.r.cols(), comm.is_root() ? k : 0);
    }
    const Matrix y =
        comm.is_root() ? testing::random_matrix(k, c, 901) : Matrix{};
    const Matrix qy = out.q_times(comm, y);
    EXPECT_EQ(qy.rows(), rows[r]);
    EXPECT_EQ(qy.cols(), c);
  });
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{victim});
  // Ranks 1 and 3 post their 3 x 3 R and get a 3 x 2 Q·Y block back;
  // the excluded rank gets none.
  EXPECT_EQ(ctx->total_messages(), 4u);
  EXPECT_EQ(ctx->total_bytes(), 2 * (matrix_bytes(k, k) + matrix_bytes(k, c)));
}

TEST(FaultCrossValidation, ApmosKillBeforeGatherPostPinsReport) {
  const int p = 4;
  const int victim = 1;
  const Index n_cols = 6;
  const std::vector<Index> rows{4, 5, 6, 7};
  expect_quiescent(verify::apmos_job(rows, n_cols, 3, 2, true), {victim, 0});

  FaultPlan plan;
  plan.kill_rank(victim, 0);
  auto ctx = make_ctx(p, std::move(plan));
  std::array<std::optional<FaultReport>, 4> reports;
  pmpi::run_on(ctx, [&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const Matrix a = testing::random_matrix(rows[r], n_cols, 950 + r);
    ApmosOptions opts;
    opts.r1 = 3;
    opts.r2 = 2;
    opts.fault_tolerant = true;
    const ApmosResult out = apmos_svd(comm, a, opts);
    reports[r] = out.report;
  });
  // Degraded, rank 1 dead, the 4 + 6 + 7 surviving rows; the dead rank
  // never reported its extent, so lost_rows is 0, extent_known false,
  // coverage 0 and the bound the vacuous 1.
  const std::vector<double> want{1, 1, 1, 17, 0, 0, 0, 1};
  for (int r = 0; r < p; ++r) {
    if (r == victim) continue;
    ASSERT_TRUE(reports[static_cast<std::size_t>(r)].has_value());
    EXPECT_EQ(reports[static_cast<std::size_t>(r)]->to_doubles(), want)
        << "rank " << r;
  }
  // Two W payloads (8-byte row header + 6 x 3 W) up; X (6 x 2), Λ and
  // the 8-double report down to the two survivors.
  EXPECT_EQ(ctx->total_messages(), 8u);
  EXPECT_EQ(ctx->total_bytes(),
            2 * (8 + matrix_bytes(n_cols, 3)) +
                2 * (matrix_bytes(n_cols, 2) + 2 * 8 + 8 * 8));
}

/// Streaming degraded run: the victim dies before its `kill_step`-th
/// recorded update event (initialize() is healthy and left out). The
/// recording must quiesce race-free, and every survivor's FaultReport
/// must carry the victim's exact rows and the energy-ledger coverage:
/// the victim's ledger holds its initialize batch plus the update
/// batches whose energy post ran before the kill (`victim_batches`).
void pin_streaming_report(std::vector<Index> rows, Index cols0, int victim,
                          int rounds, std::size_t kill_step,
                          int victim_batches) {
  const int p = static_cast<int>(rows.size());
  constexpr Index K = 2;
  constexpr Index B = 2;
  const auto init_batch = [&](int r) {
    return testing::random_matrix(rows[static_cast<std::size_t>(r)], cols0,
                                  70 + static_cast<std::uint64_t>(r));
  };
  const auto update_batch = [&](int r, int t) {
    return testing::random_matrix(
        rows[static_cast<std::size_t>(r)], B,
        100 + 10 * static_cast<std::uint64_t>(t) +
            static_cast<std::uint64_t>(r));
  };
  std::array<std::optional<FaultReport>, 8> reports;
  const Job job{"streaming report", p,
                [&](Communicator& comm) {
                  StreamingOptions opts;
                  opts.num_modes = K;
                  opts.fault_tolerant = true;
                  ParallelStreamingSVD svd(comm, opts);
                  svd.initialize(init_batch(comm.rank()));
                  verify::restart_recording(comm);
                  for (int t = 0; t < rounds; ++t) {
                    svd.incorporate_data(update_batch(comm.rank(), t));
                  }
                  reports[static_cast<std::size_t>(comm.rank())] =
                      svd.fault_report();
                },
                {}};
  const FaultScenario f{victim, kill_step};
  const Recording rec = verify::record(job, verify::record(job), f);
  ASSERT_FALSE(rec.racy);
  const CheckReport report = check_fault_schedule(rec.schedule, f);
  ASSERT_TRUE(report.ok()) << report.to_string();

  double total = 0.0;
  double lost = 0.0;
  Index total_rows = 0;
  for (int r = 0; r < p; ++r) {
    const auto energy = [](const Matrix& m) {
      return m.norm_fro() * m.norm_fro();
    };
    double e = energy(init_batch(r));
    for (int t = 0; t < (r == victim ? victim_batches : rounds); ++t) {
      e += energy(update_batch(r, t));
    }
    total += e;
    if (r == victim) lost = e;
    total_rows += rows[static_cast<std::size_t>(r)];
  }
  const Index lost_rows = rows[static_cast<std::size_t>(victim)];
  const double coverage = (total - lost) / total;
  for (int r = 0; r < p; ++r) {
    if (r == victim) continue;
    const auto& got = reports[static_cast<std::size_t>(r)];
    ASSERT_TRUE(got.has_value()) << "rank " << r;
    EXPECT_TRUE(got->degraded) << "rank " << r;
    EXPECT_EQ(got->dead_ranks, std::vector<int>{victim}) << "rank " << r;
    EXPECT_EQ(got->surviving_rows, total_rows - lost_rows) << "rank " << r;
    EXPECT_EQ(got->lost_rows, lost_rows) << "rank " << r;
    EXPECT_TRUE(got->extent_known) << "rank " << r;
    EXPECT_DOUBLE_EQ(got->coverage, coverage) << "rank " << r;
    EXPECT_DOUBLE_EQ(got->accuracy_bound, std::sqrt(1.0 - coverage))
        << "rank " << r;
  }
}

TEST(FaultCrossValidation, StreamingKillAtSecondRoundEnergyPost) {
  // Victim dies at its round-2 energy post (step 6, after the six
  // round-1 events: energy post, R post, Q·U block, sigma, modes post,
  // report): round 1 is fully healthy, round 2 runs degraded with the
  // death observed at the energy gather.
  pin_streaming_report({4, 5, 6, 7}, /*cols0=*/4, /*victim=*/1,
                       /*rounds=*/2, /*kill_step=*/6, /*victim_batches=*/1);
}

TEST(FaultCrossValidation, StreamingKillAtModesPostShrinksRoundTwo) {
  // Single-row blocks make the stacked-QR extent rank-limited, so the
  // round-2 degraded sizes genuinely diverge from the healthy ones
  // (qcols drops from 3 to 2). The kill lands at the victim's round-1
  // modes post (step 4), after it already consumed its round-1 Q·U
  // block and the sigma broadcast.
  pin_streaming_report({1, 1, 1}, /*cols0=*/4, /*victim=*/2, /*rounds=*/2,
                       /*kill_step=*/4, /*victim_batches=*/1);
}

}  // namespace
}  // namespace parsvd
