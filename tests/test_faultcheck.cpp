// Failure-space checker tests (DESIGN §13), three layers:
//
//   * golden counterexample traces — the seeded recovery-path defects
//     must render the victim, the kill step and the stuck op verbatim,
//     so the traces stay debuggable and deterministic;
//   * cross-validation — for sampled (protocol, P, victim, step)
//     tuples, the real runtime runs under a probe-pinned FaultPlan
//     kill and the registry message/byte totals and FaultReport
//     contents must equal the model's prediction. Only deterministic
//     scenarios (no is_dead()-guard race) are pinned;
//   * the zero-failure regression — the sweep over every death-aware
//     protocol and kill point must stay clean, so any future
//     recovery-path edit that breaks quiescence fails here, not in
//     production.
#include <gtest/gtest.h>

#include <array>
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
#include "verify/fault_schedules.hpp"
#include "verify/selftest.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using pmpi::Context;
using pmpi::FaultPlan;
using verify::check_fault_schedule;
using verify::CheckReport;
using verify::FaultScenario;
using verify::FaultSchedule;
using verify::kNoKillStep;
using verify::StreamingShape;
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
  const auto run = [&](const FaultSchedule& fs) {
    ++scenarios;
    const CheckReport r = check_fault_schedule(fs.schedule, fs.scenario);
    if (!r.ok()) {
      ++failures;
      ADD_FAILURE() << r.to_string();
    }
  };
  const auto sweep = [&](auto&& emit, int victim) {
    const FaultSchedule healthy = emit(FaultScenario{victim, kNoKillStep});
    const std::size_t n = healthy.schedule.ranks[static_cast<std::size_t>(
        victim)].events().size();
    run(healthy);
    for (std::size_t step = 0; step < n; ++step) {
      run(emit(FaultScenario{victim, step}));
    }
  };

  for (int p = 2; p <= 9; ++p) {
    std::vector<std::uint64_t> bytes(static_cast<std::size_t>(p), 48);
    std::vector<std::int64_t> rows(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      rows[static_cast<std::size_t>(r)] = 2 + (r % 4);
    }
    for (int v = 1; v < p; ++v) {
      sweep([&](FaultScenario f) {
        return verify::script_gather(p, 0, bytes, f);
      }, v);
      sweep([&](FaultScenario f) {
        return verify::script_bcast(p, 0, 256, f);
      }, v);
      sweep([&](FaultScenario f) {
        return verify::script_allreduce(p, 5 * sizeof(double), f);
      }, v);
      sweep([&](FaultScenario f) {
        return verify::script_tsqr_direct(rows, 3, 2, f);
      }, v);
      sweep([&](FaultScenario f) {
        return verify::script_apmos(rows, 4, 3, 2, /*fault_tolerant=*/true,
                                    f);
      }, v);
      StreamingShape shape;
      shape.rows_by_rank = rows;
      shape.num_modes = 2;
      shape.batch_cols = 2;
      shape.rounds = 2;
      shape.fault_tolerant = true;
      sweep([&](FaultScenario f) {
        return verify::script_streaming_updates(shape, f);
      }, v);
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(scenarios, 1000u);  // the slice must stay a real sweep
}

// ------------------------------------------------------ cross-validation
// Each test pins one deterministic (protocol, P, victim, step) tuple:
// model-checked quiescence, then the real runtime under the same kill
// with registry totals (and FaultReport, where the protocol emits one)
// byte-identical to the model's prediction.

TEST(FaultCrossValidation, GatherKillBeforePost) {
  const int p = 4;
  const int root = 0;
  const int victim = 2;
  std::vector<std::uint64_t> bytes;
  for (int r = 0; r < p; ++r) {
    bytes.push_back(24 + 8 * static_cast<std::uint64_t>(r));
  }
  const FaultSchedule model =
      verify::script_gather(p, root, bytes, {victim, 0});
  ASSERT_TRUE(model.deterministic);
  ASSERT_TRUE(check_fault_schedule(model.schedule, model.scenario).ok());

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
  EXPECT_EQ(ctx->total_messages(), model.messages);
  EXPECT_EQ(ctx->total_bytes(), model.bytes);
}

TEST(FaultCrossValidation, GatherRotatedRootKillBeforePost) {
  const int p = 3;
  const int root = 2;
  const int victim = 0;
  const std::vector<std::uint64_t> bytes{40, 56, 72};
  const FaultSchedule model =
      verify::script_gather(p, root, bytes, {victim, 0});
  ASSERT_TRUE(model.deterministic);
  ASSERT_TRUE(check_fault_schedule(model.schedule, model.scenario).ok());

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
  EXPECT_EQ(ctx->total_messages(), model.messages);
  EXPECT_EQ(ctx->total_bytes(), model.bytes);
}

TEST(FaultCrossValidation, AllreduceKillBeforeContribution) {
  const int p = 4;
  const int victim = 1;
  const std::size_t n = 6;
  const FaultSchedule model =
      verify::script_allreduce(p, n * sizeof(double), {victim, 0});
  ASSERT_TRUE(model.deterministic);
  ASSERT_TRUE(check_fault_schedule(model.schedule, model.scenario).ok());

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
  EXPECT_EQ(ctx->total_messages(), model.messages);
  EXPECT_EQ(ctx->total_bytes(), model.bytes);
}

TEST(FaultCrossValidation, AllreduceLargerWorldKillBeforeContribution) {
  const int p = 6;
  const int victim = 5;
  const FaultSchedule model =
      verify::script_allreduce(p, 9 * sizeof(double), {victim, 0});
  ASSERT_TRUE(model.deterministic);
  ASSERT_TRUE(check_fault_schedule(model.schedule, model.scenario).ok());

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
  EXPECT_EQ(ctx->total_messages(), model.messages);
  EXPECT_EQ(ctx->total_bytes(), model.bytes);
}

TEST(FaultCrossValidation, TsqrDirectKillBeforeRFactorPost) {
  const int p = 4;
  const std::int64_t k = 3;
  const std::int64_t c = 2;
  const int victim = 2;
  const std::vector<std::int64_t> rows{5, 6, 7, 8};
  const FaultSchedule model =
      verify::script_tsqr_direct(rows, k, c, {victim, 0});
  ASSERT_TRUE(model.deterministic);
  ASSERT_TRUE(check_fault_schedule(model.schedule, model.scenario).ok());

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
  EXPECT_EQ(ctx->total_messages(), model.messages);
  EXPECT_EQ(ctx->total_bytes(), model.bytes);
}

TEST(FaultCrossValidation, ApmosKillBeforeGatherPostPinsReport) {
  const int p = 4;
  const int victim = 1;
  const std::int64_t n_cols = 6;
  const std::vector<std::int64_t> rows{4, 5, 6, 7};
  const FaultSchedule model = verify::script_apmos(
      rows, n_cols, /*r1=*/3, /*r2=*/2, /*fault_tolerant=*/true, {victim, 0});
  ASSERT_TRUE(model.deterministic);
  ASSERT_TRUE(check_fault_schedule(model.schedule, model.scenario).ok());
  ASSERT_FALSE(model.report_flat.empty());

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
  for (int r = 0; r < p; ++r) {
    if (r == victim) continue;
    ASSERT_TRUE(reports[static_cast<std::size_t>(r)].has_value());
    EXPECT_EQ(reports[static_cast<std::size_t>(r)]->to_doubles(),
              model.report_flat)
        << "rank " << r;
  }
  EXPECT_EQ(ctx->total_messages(), model.messages);
  EXPECT_EQ(ctx->total_bytes(), model.bytes);
}

/// Streaming cross-validation harness: probe the healthy
/// initialize-only run to pin the victim's op offset and the init
/// section's registry totals, then rerun with `rounds` updates under
/// the probe-pinned kill and compare everything to the model.
void cross_validate_streaming(int p, std::vector<std::int64_t> rows,
                              std::int64_t cols0, int victim, int rounds,
                              std::size_t kill_step) {
  const std::int64_t K = 2;
  const std::int64_t B = 2;

  StreamingShape shape;
  shape.rows_by_rank = rows;
  shape.num_modes = K;
  shape.batch_cols = B;
  shape.rounds = rounds;
  shape.fault_tolerant = true;
  shape.init_energy.resize(static_cast<std::size_t>(p));
  shape.round_energy.assign(static_cast<std::size_t>(rounds),
                            std::vector<double>(static_cast<std::size_t>(p)));
  for (int r = 0; r < p; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const double f0 =
        testing::random_matrix(rows[ri], cols0, 70 + ri).norm_fro();
    shape.init_energy[ri] = f0 * f0;
    for (int t = 0; t < rounds; ++t) {
      const double ft = testing::random_matrix(
                            rows[ri], B,
                            100 + 10 * static_cast<std::uint64_t>(t) + ri)
                            .norm_fro();
      shape.round_energy[static_cast<std::size_t>(t)][ri] = ft * ft;
    }
  }

  const FaultSchedule model =
      verify::script_streaming_updates(shape, {victim, kill_step});
  ASSERT_TRUE(model.deterministic);
  ASSERT_TRUE(check_fault_schedule(model.schedule, model.scenario).ok());

  const auto job = [&](Communicator& comm, int updates,
                       std::array<std::optional<FaultReport>, 8>& reports) {
    const auto r = static_cast<std::size_t>(comm.rank());
    StreamingOptions opts;
    opts.num_modes = K;
    opts.fault_tolerant = true;
    ParallelStreamingSVD svd(comm, opts);
    svd.initialize(testing::random_matrix(rows[r], cols0, 70 + r));
    for (int t = 0; t < updates; ++t) {
      svd.incorporate_data(testing::random_matrix(
          rows[r], B, 100 + 10 * static_cast<std::uint64_t>(t) + r));
    }
    reports[r] = svd.fault_report();
  };

  // Healthy probe: initialize only. Its op counts and registry totals
  // are the (identical) init-section baseline of the kill run.
  auto probe = std::make_shared<Context>(p);
  std::array<std::optional<FaultReport>, 8> probe_reports;
  pmpi::run_on(probe, [&](Communicator& comm) {
    job(comm, 0, probe_reports);
  });
  const std::uint64_t offset = probe->ops(victim);
  const std::uint64_t base_msgs = probe->total_messages();
  const std::uint64_t base_bytes = probe->total_bytes();

  FaultPlan plan;
  plan.kill_rank(victim, offset + kill_step);
  auto ctx = make_ctx(p, std::move(plan));
  std::array<std::optional<FaultReport>, 8> reports;
  pmpi::run_on(ctx, [&](Communicator& comm) { job(comm, rounds, reports); });

  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{victim});
  EXPECT_EQ(ctx->total_messages(), base_msgs + model.messages);
  EXPECT_EQ(ctx->total_bytes(), base_bytes + model.bytes);

  const FaultReport want = FaultReport::from_doubles(model.report_flat);
  for (int r = 0; r < p; ++r) {
    if (r == victim) continue;
    const auto& got = reports[static_cast<std::size_t>(r)];
    ASSERT_TRUE(got.has_value()) << "rank " << r;
    EXPECT_EQ(got->degraded, want.degraded) << "rank " << r;
    EXPECT_EQ(got->dead_ranks, want.dead_ranks) << "rank " << r;
    EXPECT_EQ(got->surviving_rows, want.surviving_rows) << "rank " << r;
    EXPECT_EQ(got->lost_rows, want.lost_rows) << "rank " << r;
    EXPECT_EQ(got->extent_known, want.extent_known) << "rank " << r;
    EXPECT_DOUBLE_EQ(got->coverage, want.coverage) << "rank " << r;
    EXPECT_DOUBLE_EQ(got->accuracy_bound, want.accuracy_bound)
        << "rank " << r;
  }
}

TEST(FaultCrossValidation, StreamingKillAtSecondRoundEnergyPost) {
  // Victim dies at its round-2 energy post (model step 6, after the six
  // round-1 events: energy post, R post, Q·U block, sigma, modes post,
  // report): round 1 is fully healthy, round 2 runs degraded with the
  // death observed at the energy gather.
  cross_validate_streaming(/*p=*/4, {4, 5, 6, 7}, /*cols0=*/4, /*victim=*/1,
                           /*rounds=*/2, /*kill_step=*/6);
}

TEST(FaultCrossValidation, StreamingKillAtModesPostShrinksRoundTwo) {
  // Single-row blocks make the stacked-QR extent rank-limited, so the
  // round-2 degraded sizes genuinely diverge from the healthy ones
  // (qcols drops from 3 to 2) — the totals only match if the model
  // tracks the degraded size evolution exactly. The kill lands at the
  // victim's round-1 modes post (model step 4), after it already
  // consumed its round-1 Q·U block and the sigma broadcast.
  cross_validate_streaming(/*p=*/3, {1, 1, 1}, /*cols0=*/4, /*victim=*/2,
                           /*rounds=*/2, /*kill_step=*/4);
}

}  // namespace
}  // namespace parsvd
