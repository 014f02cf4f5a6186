// Fault-injection tests for the pmpi runtime and the degraded-completion
// mode of the distributed solvers.
//
// Three layers:
//   * deterministic single-fault tests (explicit FaultPlan events) that
//     pin down what a delay and a kill do, including the channel order a
//     delayed message keeps;
//   * chaos sweeps — 220 seeded plans (120 delay-only seeds that must
//     produce bit-exact results, 100 delay+kill seeds that must either
//     succeed or fail with a typed parsvd::Error) over a workload
//     mixing send/recv, bcast, gather, allreduce and barrier.  The
//     invariant under test is "never a hang": every run terminates, via
//     delivery, RankDeadError, CommTimeout or abort_job cascade;
//   * degraded-completion tests: killing a rank mid-call still yields
//     modes for the surviving partitions, with the loss quantified in a
//     FaultReport (the streaming driver's bound is sharp because it
//     records per-rank extents and energies up front);
//   * strict-policy tests: without fault_tolerant the same kill makes
//     the job raise RankDeadError instead of returning a result built
//     on fewer rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/apmos.hpp"
#include "core/parallel_streaming.hpp"
#include "core/tsqr.hpp"
#include "pmpi/comm.hpp"
#include "pmpi/fault.hpp"
#include "support/rng.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using pmpi::Context;
using pmpi::FaultPlan;

std::shared_ptr<Context> make_ctx(int size, FaultPlan plan) {
  auto ctx = std::make_shared<Context>(size);
  ctx->set_fault_plan(std::move(plan));
  return ctx;
}

/// Deterministic payload so every receiver can verify bit-exact delivery.
std::vector<double> pattern(std::uint64_t seed, int stream, std::size_t len) {
  Rng rng(seed * 1000003 + static_cast<std::uint64_t>(stream));
  std::vector<double> v(len);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_doubles_eq(const std::vector<double>& got,
                       const std::vector<double>& want, std::uint64_t seed,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what << " seed " << seed;
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
  }
  EXPECT_EQ(err, 0.0) << what << " seed " << seed;
}

// --------------------------------------------------------- fault plumbing

TEST(FaultPlanTest, ChaosPlanIsDeterministicPerSeed) {
  const FaultPlan a = FaultPlan::chaos(42, 0.3, 0.05);
  const FaultPlan b = FaultPlan::chaos(42, 0.3, 0.05);
  const FaultPlan c = FaultPlan::chaos(43, 0.3, 0.05);
  int differs = 0;
  for (int rank = 0; rank < 4; ++rank) {
    for (std::uint64_t op = 0; op < 200; ++op) {
      const auto da = a.message_delay(rank, op);
      EXPECT_EQ(da, b.message_delay(rank, op));
      EXPECT_EQ(a.kills(rank, op), b.kills(rank, op));
      if (da != c.message_delay(rank, op)) ++differs;
    }
  }
  EXPECT_GT(differs, 0) << "different seeds should reshuffle the faults";
}

TEST(FaultPlanTest, FromEnvReadsRatesAndDefaultsEmpty) {
  EXPECT_TRUE(FaultPlan::from_env().empty());
  ::setenv("PARSVD_FAULT_SEED", "7", 1);
  ::setenv("PARSVD_FAULT_DELAY", "0.25", 1);
  const FaultPlan plan = FaultPlan::from_env();
  ::unsetenv("PARSVD_FAULT_SEED");
  ::unsetenv("PARSVD_FAULT_DELAY");
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.can_kill());
  int delays = 0;
  for (std::uint64_t op = 0; op < 400; ++op) {
    const auto d = plan.message_delay(1, op);
    if (d) {
      EXPECT_EQ(*d, plan.delay_ms);
      ++delays;
    }
  }
  EXPECT_GT(delays, 40);  // ~100 expected at rate 0.25
}

TEST(FaultPlanTest, MalformedEnvValueThrows) {
  // A typo in a fault knob must stop the job, not silently run the
  // default (here: an unbounded wait, or no faults at all).
  ::setenv("PARSVD_FAULT_TIMEOUT_MS", "5s", 1);
  EXPECT_THROW(Context(2), ConfigError);
  ::unsetenv("PARSVD_FAULT_TIMEOUT_MS");
  // Out of range is an error too, not a silent clamp to zero retries.
  ::setenv("PARSVD_FAULT_RETRIES", "-1", 1);
  EXPECT_THROW(Context(2), ConfigError);
  ::unsetenv("PARSVD_FAULT_RETRIES");
  ::setenv("PARSVD_FAULT_DELAY_MS", "-5", 1);
  EXPECT_THROW(FaultPlan::from_env(), ConfigError);
  ::unsetenv("PARSVD_FAULT_DELAY_MS");
  ::setenv("PARSVD_FAULT_DELAY", "two percent", 1);
  EXPECT_THROW(FaultPlan::from_env(), ConfigError);
  ::unsetenv("PARSVD_FAULT_DELAY");
  // A rate is a probability: outside [0, 1] it is an error, not a clamp,
  // and NaN — which would slip past a clamp and never fire — is too.
  for (const char* name : {"PARSVD_FAULT_DELAY", "PARSVD_FAULT_KILL"}) {
    for (const char* bad : {"5", "-0.1", "nan", "inf"}) {
      ::setenv(name, bad, 1);
      EXPECT_THROW(FaultPlan::from_env(), ConfigError) << name << "=" << bad;
      ::unsetenv(name);
    }
  }
  ::setenv("PARSVD_FAULT_KILL", "1", 1);
  EXPECT_TRUE(FaultPlan::from_env().can_kill());
  ::unsetenv("PARSVD_FAULT_KILL");
  // The programmatic builder holds rates to the same range.
  EXPECT_THROW(FaultPlan::chaos(1, 1.5), Error);
  EXPECT_THROW(FaultPlan::chaos(1, 0.0,
                                std::numeric_limits<double>::quiet_NaN()),
               Error);
}

// ------------------------------------------------------- single faults

TEST(FaultInjection, DelayedMessageStillArrivesIntact) {
  FaultPlan plan;
  plan.delay(0, 0, 30);
  auto ctx = make_ctx(2, std::move(plan));
  const auto payload = pattern(4, 5, 64);
  const auto t0 = std::chrono::steady_clock::now();
  pmpi::run_on(ctx, [&payload](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(payload, 1, 2);
    } else {
      expect_doubles_eq(comm.recv<double>(0, 2), payload, 4, "delay");
    }
  });
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(ctx->faults_injected(), 1u);
  EXPECT_GE(elapsed.count(), 20);  // the 30 ms hold actually held
}

TEST(FaultInjection, DelayedHeadHoldsBackItsChannelOnly) {
  // MPI's non-overtaking rule under Delay: rank 0 posts A then B on tag
  // 1 with A held 30 ms, then C on tag 2. B must not overtake A, in a
  // non-blocking or a blocking receive, and C must not wait for A.
  // Rank 0's ops: A 0, B 1, C 2, barrier 3, A2 4, B2 5.
  constexpr std::uint32_t kHoldMs = 30;
  FaultPlan plan;
  plan.delay(0, 0, kHoldMs).delay(0, 4, kHoldMs);
  auto ctx = make_ctx(2, std::move(plan));
  const auto a = pattern(7, 1, 24);
  const auto b = pattern(7, 2, 24);
  const auto c = pattern(7, 3, 24);
  using Clock = std::chrono::steady_clock;
  Clock::time_point posted_a;  // written before the barrier, read after
  pmpi::run_on(ctx, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      posted_a = Clock::now();
      comm.send<double>(a, 1, 1);
      comm.send<double>(b, 1, 1);
      comm.send<double>(c, 1, 2);
      comm.barrier();
      comm.send<double>(a, 1, 1);
      comm.send<double>(b, 1, 1);
      return;
    }
    comm.barrier();  // A, B and C are all queued from here on
    // The other channel is deliverable at once, whatever A's hold.
    pmpi::Request other = comm.irecv(0, 2);
    EXPECT_TRUE(other.test()) << "tag 2 waited behind a tag 1 delay";
    expect_doubles_eq(other.take<double>(), c, 7, "other channel");
    // A is the head of tag 1: while it is held, a probe finds nothing,
    // although B is queued behind it. The expectation only binds while
    // the hold has certainly not expired, so a slow host cannot fail it.
    pmpi::Request head = comm.irecv(0, 1);
    const bool done = head.test();
    if (Clock::now() < posted_a + std::chrono::milliseconds(kHoldMs)) {
      EXPECT_FALSE(done) << "a probe delivered past the delayed head";
    }
    head.wait();
    expect_doubles_eq(head.take<double>(), a, 7, "irecv head");
    expect_doubles_eq(comm.recv<double>(0, 1), b, 7, "irecv successor");
    // Blocking receives keep the same order for A2 (held) and B2.
    expect_doubles_eq(comm.recv<double>(0, 1), a, 7, "recv head");
    expect_doubles_eq(comm.recv<double>(0, 1), b, 7, "recv successor");
  });
  EXPECT_EQ(ctx->faults_injected(), 2u);
}

TEST(FaultInjection, WaitOnKilledRankThrowsRankDeadError) {
  FaultPlan plan;
  plan.kill_rank(1, 0);
  auto ctx = make_ctx(2, std::move(plan));
  EXPECT_THROW(pmpi::run_on(ctx,
                            [](Communicator& comm) {
                              if (comm.rank() == 1) {
                                comm.send<int>(std::vector<int>{1}, 0, 3);
                              } else {
                                comm.recv<int>(1, 3);
                              }
                            }),
               RankDeadError);
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{1});
  EXPECT_EQ(ctx->alive_count(), 1);
}

TEST(FaultInjection, MessagePostedBeforeDeathIsStillConsumed) {
  // Death is not retroactive: a payload already in the mailbox outlives
  // its sender.
  FaultPlan plan;
  plan.kill_rank(1, 1);  // second op: the send succeeds, then it dies
  auto ctx = make_ctx(2, std::move(plan));
  const auto payload = pattern(5, 1, 16);
  pmpi::run_on(ctx, [&payload](Communicator& comm) {
    if (comm.rank() == 1) {
      comm.send<double>(payload, 0, 8);
      comm.barrier();  // killed here
    } else {
      expect_doubles_eq(comm.recv<double>(0 + 1, 8), payload, 5, "pre-death");
    }
  });
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{1});
}

TEST(FaultInjection, SilentPeerTimesOutWithCommTimeout) {
  auto ctx = std::make_shared<Context>(2);
  ctx->set_wait_timeout(std::chrono::milliseconds(50));
  ctx->set_max_retries(1);
  EXPECT_THROW(pmpi::run_on(ctx,
                            [](Communicator& comm) {
                              if (comm.rank() == 0) {
                                comm.recv<int>(1, 6);  // never sent
                              }
                            }),
               CommTimeout);
}

TEST(FaultInjection, BarrierReleasesWhenARankDies) {
  FaultPlan plan;
  plan.kill_rank(2, 0);
  auto ctx = make_ctx(3, std::move(plan));
  pmpi::run_on(ctx, [](Communicator& comm) { comm.barrier(); });
  EXPECT_EQ(ctx->alive_count(), 2);
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{2});
}

void chaos_workload(Communicator& comm, std::uint64_t seed);

TEST(FaultInjection, ZeroFaultRunInjectsNothing) {
  auto ctx = std::make_shared<Context>(3);
  pmpi::run_on(ctx, [](Communicator& comm) {
    std::vector<double> b;
    if (comm.rank() == 0) b = pattern(6, 0, 40);
    comm.bcast(b, 0);
    expect_doubles_eq(b, pattern(6, 0, 40), 6, "healthy bcast");
    comm.barrier();
  });
  EXPECT_EQ(ctx->faults_injected(), 0u);
  EXPECT_EQ(ctx->retransmits(), 0u);

  // An installed plan whose single event sits at an op no run reaches:
  // every post consults it, nothing fires, and fifty rounds of the
  // chaos workload still deliver bit-exact data.
  FaultPlan idle;
  idle.delay(0, std::numeric_limits<std::uint64_t>::max() - 1, 30);
  auto armed = make_ctx(4, std::move(idle));
  pmpi::run_on(armed, [](Communicator& comm) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) chaos_workload(comm, seed);
  });
  EXPECT_GT(armed->total_messages(), 0u);
  EXPECT_EQ(armed->faults_injected(), 0u);
}

// ----------------------------------------------------------- chaos sweeps

/// Mixed workload touching every communication primitive, with results
/// that are exact functions of (seed, rank) so any corruption is caught.
void chaos_workload(Communicator& comm, std::uint64_t seed) {
  const int p = comm.size();
  const int r = comm.rank();

  // Point-to-point ring with per-sender tags.
  const int next = (r + 1) % p;
  const int prev = (r + p - 1) % p;
  comm.send<double>(pattern(seed, 10 + r, 64), next, 10 + r);
  expect_doubles_eq(comm.recv<double>(prev, 10 + prev),
                    pattern(seed, 10 + prev, 64), seed, "ring");

  // Broadcast from root.
  std::vector<double> b;
  if (r == 0) b = pattern(seed, 99, 48);
  comm.bcast(b, 0);
  expect_doubles_eq(b, pattern(seed, 99, 48), seed, "bcast");

  // Gather at root.
  const std::vector<double> mine{static_cast<double>(r + 1)};
  const std::vector<double> all = comm.gatherv<double>(mine, 0);
  if (r == 0) {
    ASSERT_EQ(static_cast<int>(all.size()), p) << "seed " << seed;
    for (int i = 0; i < p; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(i)], i + 1) << "seed " << seed;
    }
  }

  // Allreduce.
  double v[1] = {static_cast<double>(r)};
  comm.allreduce(std::span<double>(v, 1), pmpi::Op::Sum);
  EXPECT_EQ(v[0], p * (p - 1) / 2.0) << "seed " << seed;

  comm.barrier();
}

TEST(FaultChaos, DelaySweepIsExact) {
  // 120 seeded delay plans: every run must finish with bit-exact
  // results — delays are waited out, and no delayed message is
  // overtaken on its channel.
  constexpr std::uint64_t kSeeds = 120;
  std::uint64_t injected = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    FaultPlan plan = FaultPlan::chaos(seed, 0.2);
    plan.delay_ms = 1;
    auto ctx = make_ctx(4, std::move(plan));
    pmpi::run_on(ctx,
                 [seed](Communicator& comm) { chaos_workload(comm, seed); });
    injected += ctx->faults_injected();
  }
  // Rate sanity: at a 20% delay rate the sweep must have actually
  // delayed many messages.
  EXPECT_GT(injected, 200u);
}

TEST(FaultChaos, KillSweepEndsInSuccessOrTypedErrorNeverHangs) {
  // 100 seeded plans with rank kills enabled (root protected): a run
  // either completes exactly or surfaces a typed parsvd::Error through
  // run_on. Anything else — a hang, a raw std::exception — fails.
  constexpr std::uint64_t kSeeds = 100;
  int clean = 0;
  int typed = 0;
  std::uint64_t deaths = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    FaultPlan plan = FaultPlan::chaos(1000 + seed, 0.03, 0.02);
    plan.delay_ms = 1;
    plan.protect_rank(0);
    auto ctx = make_ctx(4, std::move(plan));
    try {
      pmpi::run_on(ctx, [seed](Communicator& comm) {
        chaos_workload(comm, 1000 + seed);
      });
      ++clean;
    } catch (const Error&) {
      ++typed;
    }
    const std::vector<int> dead = ctx->dead_ranks();
    deaths += dead.size();
    EXPECT_TRUE(std::find(dead.begin(), dead.end(), 0) == dead.end())
        << "protected root died, seed " << seed;
  }
  EXPECT_EQ(clean + typed, static_cast<int>(kSeeds));
  EXPECT_GT(typed, 0) << "kill rate 2% over 100 seeds must hit some runs";
  EXPECT_GT(clean, 0) << "some runs must survive untouched";
  EXPECT_GT(deaths, 0u);
  std::printf("kill sweep: %d clean, %d typed failures, %llu rank deaths\n",
              clean, typed, static_cast<unsigned long long>(deaths));
}

// ---------------------------------------------------- degraded completion

TEST(FaultDegraded, ApmosCompletesWithoutTheDeadRank) {
  const int p = 4;
  const Index rows = 12;
  const Index cols = 10;
  FaultPlan plan;
  plan.kill_rank(2, 0);  // dies on its first op: the W gather post
  auto ctx = make_ctx(p, std::move(plan));
  std::array<std::optional<ApmosResult>, 4> results;
  pmpi::run_on(ctx, [&results, rows, cols](Communicator& comm) {
    const Matrix a = testing::random_matrix(
        rows, cols, 40 + static_cast<std::uint64_t>(comm.rank()));
    ApmosOptions opts;
    opts.r1 = 6;
    opts.r2 = 4;
    opts.fault_tolerant = true;
    results[static_cast<std::size_t>(comm.rank())] = apmos_svd(comm, a, opts);
  });
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{2});
  EXPECT_FALSE(results[2].has_value()) << "killed rank must not produce";
  for (int r : {0, 1, 3}) {
    const auto& res = results[static_cast<std::size_t>(r)];
    ASSERT_TRUE(res.has_value()) << "rank " << r;
    EXPECT_TRUE(res->report.degraded);
    EXPECT_EQ(res->report.dead_ranks, std::vector<int>{2});
    EXPECT_EQ(res->report.surviving_rows, 3 * rows);
    // One-shot APMOS never heard from rank 2, so the lost extent is
    // unknown and the bound is the vacuous worst case.
    EXPECT_FALSE(res->report.extent_known);
    EXPECT_EQ(res->report.accuracy_bound, 1.0);
    EXPECT_EQ(res->u_local.rows(), rows);
    EXPECT_EQ(res->u_local.cols(), 4);
    ASSERT_EQ(res->s.size(), 4);
    for (Index j = 0; j < res->s.size(); ++j) EXPECT_GT(res->s[j], 0.0);
  }
}

TEST(FaultDegraded, TsqrExcludesDeadRankAndStaysAFactorization) {
  const int p = 3;
  const Index rows = 8;
  const Index cols = 5;
  std::array<Matrix, 3> blocks;
  for (int r = 0; r < p; ++r) {
    blocks[static_cast<std::size_t>(r)] = testing::random_matrix(
        rows, cols, 60 + static_cast<std::uint64_t>(r));
  }
  FaultPlan plan;
  plan.kill_rank(1, 0);  // dies on its first op: the R gather post
  auto ctx = make_ctx(p, std::move(plan));
  std::array<std::optional<TsqrResult>, 3> results;
  pmpi::run_on(ctx, [&](Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        tsqr(comm, blocks[static_cast<std::size_t>(comm.rank())]);
  });
  EXPECT_FALSE(results[1].has_value());
  // The exclusion list is root-side only.
  EXPECT_EQ(results[0]->excluded_ranks, std::vector<int>{1});
  EXPECT_TRUE(results[2]->excluded_ranks.empty());
  for (int r : {0, 2}) {
    const auto& res = results[static_cast<std::size_t>(r)];
    ASSERT_TRUE(res.has_value()) << "rank " << r;
    // Still an exact factorization of the surviving rows.
    testing::expect_matrix_near(
        testing::naive_matmul(res->q_local(), res->r),
        blocks[static_cast<std::size_t>(r)], 1e-10, "q_local * r");
  }
  // Survivor Q slices stack to an orthonormal basis.
  const Matrix stacked = vcat(results[0]->q_local(), results[2]->q_local());
  EXPECT_LT(testing::ortho_defect(stacked), 1e-10);
}

TEST(FaultDegraded, StreamingSurvivesKillingOneOfFourMidStream) {
  // The acceptance scenario: 4 ranks stream batches; rank 1 dies at the
  // start of the second update. The survivors finish that update and a
  // further one, and the fault report quantifies the loss sharply.
  const int p = 4;
  const Index cols0 = 8;
  const Index cols = 6;
  const auto job = [&](Communicator& comm, int updates,
                       std::array<std::optional<FaultReport>, 4>& reports,
                       Index* modes_rows) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    const Index rows = 10 + comm.rank();  // uneven partitions
    StreamingOptions opts;
    opts.num_modes = 5;
    opts.fault_tolerant = true;
    ParallelStreamingSVD svd(comm, opts);
    svd.initialize(testing::random_matrix(rows, cols0, 70 + r));
    for (int i = 0; i < updates; ++i) {
      svd.incorporate_data(testing::random_matrix(
          rows, cols, 100 + 10 * static_cast<std::uint64_t>(i) + r));
    }
    // Survivors can still project a distributed batch afterwards.
    const Matrix coeff =
        svd.project(testing::random_matrix(rows, cols, 500 + r));
    EXPECT_EQ(coeff.rows(), 5);
    EXPECT_EQ(coeff.cols(), cols);
    reports[static_cast<std::size_t>(comm.rank())] = svd.fault_report();
    if (comm.is_root() && modes_rows != nullptr) {
      *modes_rows = svd.modes().rows();
    }
  };

  // Probe run (healthy, one update) pins the op count at which the
  // second update starts for rank 1 — the fault schedule is a pure
  // function of the per-rank op sequence, so this is exact.
  auto probe = std::make_shared<Context>(p);
  std::array<std::optional<FaultReport>, 4> probe_reports;
  pmpi::run_on(probe, [&](Communicator& comm) {
    job(comm, 1, probe_reports, nullptr);
  });
  for (const auto& rep : probe_reports) {
    ASSERT_TRUE(rep.has_value());
    EXPECT_FALSE(rep->degraded);
    EXPECT_EQ(rep->coverage, 1.0);
    EXPECT_EQ(rep->accuracy_bound, 0.0);
  }
  const std::uint64_t kill_at = probe->ops(1);

  FaultPlan plan;
  plan.kill_rank(1, kill_at);
  auto ctx = make_ctx(p, std::move(plan));
  std::array<std::optional<FaultReport>, 4> reports;
  Index modes_rows = -1;
  pmpi::run_on(ctx, [&](Communicator& comm) {
    job(comm, 2, reports, &modes_rows);
  });

  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{1});
  EXPECT_FALSE(reports[1].has_value());
  const Index total_rows = 10 + 11 + 12 + 13;
  const Index lost_rows = 11;
  for (int r : {0, 2, 3}) {
    const auto& rep = reports[static_cast<std::size_t>(r)];
    ASSERT_TRUE(rep.has_value()) << "rank " << r;
    EXPECT_TRUE(rep->degraded);
    EXPECT_EQ(rep->dead_ranks, std::vector<int>{1});
    EXPECT_TRUE(rep->extent_known);
    EXPECT_EQ(rep->lost_rows, lost_rows);
    EXPECT_EQ(rep->surviving_rows, total_rows - lost_rows);
    EXPECT_GT(rep->coverage, 0.0);
    EXPECT_LT(rep->coverage, 1.0);
    EXPECT_NEAR(rep->accuracy_bound, std::sqrt(1.0 - rep->coverage), 1e-12);
  }
  // Root's gathered modes cover exactly the surviving partitions.
  EXPECT_EQ(modes_rows, total_rows - lost_rows);
}

// ------------------------------------------------------- strict policy
// Without fault_tolerant the collectives stay death-aware, but a lost
// contribution is fatal: the root raises RankDeadError (run_on then
// aborts the job), so no rank ever returns a result built on fewer
// rows. Each job kills rank 2 of 4 at its TSQR / APMOS gather post.

constexpr int kStrictRanks = 4;
constexpr int kStrictVictim = 2;

TEST(FaultStrict, StreamingKillAtTsqrGatherPostRaises) {
  const Index rows = 12;
  const auto job = [&](Communicator& comm, int updates,
                       std::array<bool, kStrictRanks>& returned) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    StreamingOptions opts;
    opts.num_modes = 3;
    ParallelStreamingSVD svd(comm, opts);
    svd.initialize(testing::random_matrix(rows, 4, 70 + r));
    for (int i = 0; i < updates; ++i) {
      svd.incorporate_data(testing::random_matrix(rows, 3, 100 + r));
    }
    returned[static_cast<std::size_t>(comm.rank())] = true;
  };
  // Probe: the victim's first op of the first update is its R-gather
  // post (the strict policy runs no energy ledger).
  auto probe = std::make_shared<Context>(kStrictRanks);
  std::array<bool, kStrictRanks> probe_returned{};
  pmpi::run_on(probe,
               [&](Communicator& comm) { job(comm, 0, probe_returned); });

  FaultPlan plan;
  plan.kill_rank(kStrictVictim, probe->ops(kStrictVictim));
  auto ctx = make_ctx(kStrictRanks, std::move(plan));
  std::array<bool, kStrictRanks> returned{};
  EXPECT_THROW(
      pmpi::run_on(ctx, [&](Communicator& comm) { job(comm, 1, returned); }),
      RankDeadError);
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{kStrictVictim});
  for (int r = 0; r < kStrictRanks; ++r) {
    EXPECT_FALSE(returned[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

TEST(FaultStrict, ApmosKillAtGatherPostRaises) {
  FaultPlan plan;
  plan.kill_rank(kStrictVictim, 0);  // its first op: the W gather post
  auto ctx = make_ctx(kStrictRanks, std::move(plan));
  std::array<bool, kStrictRanks> returned{};
  EXPECT_THROW(pmpi::run_on(ctx,
                            [&](Communicator& comm) {
                              const Matrix a = testing::random_matrix(
                                  12, 10,
                                  40 + static_cast<std::uint64_t>(comm.rank()));
                              ApmosOptions opts;
                              opts.r1 = 6;
                              opts.r2 = 4;
                              (void)apmos_svd(comm, a, opts);
                              returned[static_cast<std::size_t>(
                                  comm.rank())] = true;
                            }),
               RankDeadError);
  for (int r = 0; r < kStrictRanks; ++r) {
    EXPECT_FALSE(returned[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

TEST(FaultStrict, BareTsqrKillAtGatherPostRaisesAtRoot) {
  // Bare tsqr reports the loss at root; the strict decision there is the
  // same accept_or_throw the solvers take, so the job raises.
  FaultPlan plan;
  plan.kill_rank(kStrictVictim, 0);  // its first op: the R gather post
  auto ctx = make_ctx(kStrictRanks, std::move(plan));
  bool root_returned = false;
  EXPECT_THROW(pmpi::run_on(ctx,
                            [&](Communicator& comm) {
                              const TsqrResult res = tsqr(
                                  comm,
                                  testing::random_matrix(
                                      8, 5,
                                      60 + static_cast<std::uint64_t>(
                                               comm.rank())));
                              accept_or_throw(/*fault_tolerant=*/false,
                                              res.excluded_ranks, "tsqr");
                              if (comm.is_root()) root_returned = true;
                            }),
               RankDeadError);
  EXPECT_FALSE(root_returned);
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{kStrictVictim});
}

}  // namespace
}  // namespace parsvd
