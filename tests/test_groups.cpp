// Communicator groups (Communicator::split / subgroup): dense group
// numbering, tag-scope isolation between siblings and the world
// communicator, group-scoped collectives and barriers, communicator-
// scoped death reporting, and the acceptance scenario — two concurrent
// solver jobs on disjoint subgroups of one Context, bit-identical to
// solo runs including under a seeded rank kill in the sibling group.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/parallel_streaming.hpp"
#include "core/tsqr.hpp"
#include "pmpi/comm.hpp"
#include "pmpi/fault.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using pmpi::Context;
using pmpi::FaultPlan;

void expect_bits_equal(const Matrix& got, const Matrix& want,
                       const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.size()) * sizeof(double)),
            0)
      << what << ": matrices differ bitwise";
}

// ------------------------------------------------------ split / subgroup

TEST(Groups, SplitByParityOrderedByKey) {
  // color = rank parity; key = -rank, so each group's dense numbering is
  // DESCENDING parent rank — split must honour (key, parent rank) order,
  // not member order.
  pmpi::run(6, [](Communicator& comm) {
    std::optional<Communicator> sub = comm.split(comm.rank() % 2, -comm.rank());
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->size(), 3);
    const std::vector<int> want = comm.rank() % 2 == 0
                                      ? std::vector<int>{4, 2, 0}
                                      : std::vector<int>{5, 3, 1};
    ASSERT_NE(sub->group(), nullptr);
    EXPECT_EQ(sub->group()->members(), want);
    EXPECT_EQ(sub->world_rank(), comm.rank());
    // This rank's group rank is its position in the ordered member list.
    for (int gr = 0; gr < 3; ++gr) {
      if (want[static_cast<std::size_t>(gr)] == comm.rank()) {
        EXPECT_EQ(sub->rank(), gr);
      }
    }
    // Ascending-color minting: even group is id 1, odd group id 2.
    EXPECT_EQ(sub->group()->id(), 1 + comm.rank() % 2);
  });
}

TEST(Groups, SplitNegativeColorOptsOut) {
  pmpi::run(4, [](Communicator& comm) {
    std::optional<Communicator> sub =
        comm.split(comm.rank() == 3 ? -1 : 0);
    if (comm.rank() == 3) {
      EXPECT_FALSE(sub.has_value());
    } else {
      ASSERT_TRUE(sub.has_value());
      EXPECT_EQ(sub->size(), 3);
      EXPECT_EQ(sub->rank(), comm.rank());
    }
  });
}

TEST(Groups, SubgroupIsLocalAndOrdered) {
  // subgroup() never communicates; the list order defines group ranks.
  pmpi::run(4, [](Communicator& comm) {
    const std::array<int, 2> members{3, 1};
    std::optional<Communicator> sub = comm.subgroup(members);
    if (comm.rank() == 3 || comm.rank() == 1) {
      ASSERT_TRUE(sub.has_value());
      EXPECT_EQ(sub->size(), 2);
      EXPECT_EQ(sub->rank(), comm.rank() == 3 ? 0 : 1);
      EXPECT_EQ(sub->world_rank(), comm.rank());
      // Group rank 0 (world 3) -> group rank 1 (world 1).
      if (sub->rank() == 0) {
        const std::vector<double> v{2.5, -1.0};
        sub->send<double>(v, 1, pmpi::tags::kUserBase);
      } else {
        const std::vector<double> got =
            sub->recv<double>(0, pmpi::tags::kUserBase);
        EXPECT_EQ(got, (std::vector<double>{2.5, -1.0}));
      }
    } else {
      EXPECT_FALSE(sub.has_value());
    }
  });
}

TEST(Groups, SplitOfGroupNestsTranslation) {
  // Splitting a group communicator: member lists are world ranks even
  // when the parent is itself a group (wr() composes).
  pmpi::run(8, [](Communicator& comm) {
    std::optional<Communicator> half = comm.split(comm.rank() / 4);
    ASSERT_TRUE(half.has_value());
    // Split each half by parity of its GROUP rank.
    std::optional<Communicator> quarter = half->split(half->rank() % 2);
    ASSERT_TRUE(quarter.has_value());
    EXPECT_EQ(quarter->size(), 2);
    EXPECT_EQ(quarter->world_rank(), comm.rank());
    // Even group ranks of the upper half are world ranks {4, 6}.
    if (comm.rank() >= 4 && comm.rank() % 2 == 0) {
      EXPECT_EQ(quarter->group()->members(), (std::vector<int>{4, 6}));
    }
    // Exchange inside the nested group still routes correctly.
    double v = quarter->rank() == 0 ? 10.0 + comm.rank() : 0.0;
    quarter->bcast_double(v, 0);
    const int gr0_world = quarter->group()->members()[0];
    EXPECT_EQ(v, 10.0 + gr0_world);
  });
}

// ------------------------------------------------------ tag-scope hygiene

TEST(Groups, SameTagIsolatedAcrossWorldAndSiblings) {
  // Three streams on the SAME user tag: world 0->1, group{0,1} 0->1 and
  // group{2,3} 0->1, world 2->3. Receivers consume the group stream
  // before the world stream while senders post world first — only the
  // scoped tag namespace keeps the channels apart.
  constexpr int kTag = pmpi::tags::kUserBase + 5;
  pmpi::run(4, [](Communicator& comm) {
    std::optional<Communicator> sub = comm.split(comm.rank() / 2);
    ASSERT_TRUE(sub.has_value());
    const double world_v = 1.0 + comm.rank();
    const double group_v = 100.0 + comm.rank();
    if (comm.rank() % 2 == 0) {
      // World first, then the group stream, same tag, same peer thread.
      comm.send<double>(std::vector<double>{world_v}, comm.rank() + 1, kTag);
      sub->send<double>(std::vector<double>{group_v}, 1, kTag);
    } else {
      const std::vector<double> g = sub->recv<double>(0, kTag);
      const std::vector<double> w = comm.recv<double>(comm.rank() - 1, kTag);
      ASSERT_EQ(g.size(), 1u);
      ASSERT_EQ(w.size(), 1u);
      EXPECT_EQ(g[0], 100.0 + comm.rank() - 1);
      EXPECT_EQ(w[0], 1.0 + comm.rank() - 1);
    }
  });
}

TEST(Groups, GroupUserTagLimitEnforced) {
  pmpi::run(2, [](Communicator& comm) {
    std::optional<Communicator> sub = comm.split(0);
    ASSERT_TRUE(sub.has_value());
    const std::vector<double> v{1.0};
    // World communicators accept any non-negative tag; group ones must
    // reject tags the finite scoped band cannot hold.
    EXPECT_THROW(sub->send<double>(v, 0, pmpi::tags::kGroupUserLimit),
                 Error);
    if (comm.rank() == 0) {
      sub->send<double>(v, 1, pmpi::tags::kGroupUserLimit - 1);
    } else {
      EXPECT_EQ(sub->recv<double>(0, pmpi::tags::kGroupUserLimit - 1), v);
    }
  });
}

// ------------------------------------------------- collectives / barrier

TEST(Groups, ConcurrentSiblingCollectives) {
  // Both halves run the full collective menu concurrently; results are
  // group-local throughout.
  pmpi::run(8, [](Communicator& comm) {
    const int color = comm.rank() / 4;
    std::optional<Communicator> sub = comm.split(color);
    ASSERT_TRUE(sub.has_value());
    const int p = sub->size();

    std::vector<double> b{color == 0 ? 7.0 : -3.0};
    sub->bcast(b, 0);
    EXPECT_EQ(b[0], color == 0 ? 7.0 : -3.0);

    std::vector<double> acc{1.0 + sub->rank()};
    sub->allreduce(acc, pmpi::Op::Sum);
    EXPECT_EQ(acc[0], 1.0 + 2.0 + 3.0 + 4.0);

    const std::vector<double> mine(
        static_cast<std::size_t>(sub->rank() + 1),
        static_cast<double>(100 * color + sub->rank()));
    const std::vector<double> all = sub->gatherv<double>(mine, 0);
    if (sub->is_root()) {
      std::size_t at = 0;
      for (int r = 0; r < p; ++r) {
        for (int i = 0; i <= r; ++i) {
          EXPECT_EQ(all[at++], 100 * color + r);
        }
      }
    } else {
      EXPECT_TRUE(all.empty());
    }

    sub->barrier();
    const std::vector<Index> rows = sub->allgather_index(10 + sub->rank());
    EXPECT_EQ(rows, (std::vector<Index>{10, 11, 12, 13}));
  });
}

TEST(Groups, GroupBarrierSingletonAndRepeated) {
  pmpi::run(3, [](Communicator& comm) {
    std::optional<Communicator> solo =
        comm.subgroup(std::array<int, 1>{comm.rank()});
    ASSERT_TRUE(solo.has_value());
    solo->barrier();  // p == 1 path must not touch the world barrier
    std::optional<Communicator> all = comm.split(0);
    ASSERT_TRUE(all.has_value());
    for (int i = 0; i < 5; ++i) all->barrier();
  });
}

// ------------------------------------------------------- death isolation

TEST(Groups, DeadRanksAreCommunicatorScoped) {
  auto ctx = std::make_shared<Context>(4);
  ctx->mark_dead(3);
  pmpi::run_on(ctx, [](Communicator& comm) {
    if (comm.rank() == 3) return;  // the "dead" rank stays silent
    const std::array<int, 2> lo{0, 1};
    const std::array<int, 2> hi{2, 3};
    std::optional<Communicator> a = comm.subgroup(lo);
    std::optional<Communicator> b = comm.subgroup(hi);
    EXPECT_EQ(comm.dead_ranks(), std::vector<int>{3});
    if (a) {
      // The sibling's death is invisible to this group.
      EXPECT_TRUE(a->dead_ranks().empty());
      EXPECT_EQ(a->alive_count(), 2);
    }
    if (b) {
      // World rank 3 is THIS group's rank 1.
      EXPECT_EQ(b->dead_ranks(), std::vector<int>{1});
      EXPECT_TRUE(b->is_dead(1));
      EXPECT_EQ(b->alive_count(), 1);
    }
  });
}

// ------------------------------------ concurrent jobs on one Context

TEST(Groups, ConcurrentTsqrBitIdenticalToSolo) {
  const Index k = 4;
  const auto local_panel = [&](int grank, std::uint64_t job_seed) {
    return testing::random_matrix(8 + grank, k,
                                  job_seed + static_cast<std::uint64_t>(grank));
  };

  // Each rank's R (root only) and its rows of the global Q.
  struct Out {
    Matrix r;
    Matrix q;
  };
  const auto run_job = [](Communicator& comm, const Matrix& panel) {
    const TsqrResult res = tsqr(comm, panel);
    return Out{res.r, testing::q_local(comm, res)};
  };

  // Solo baselines: each job alone on its own 4-rank world.
  std::array<std::optional<Out>, 4> solo_a;
  std::array<std::optional<Out>, 4> solo_b;
  pmpi::run(4, [&](Communicator& comm) {
    solo_a[static_cast<std::size_t>(comm.rank())] =
        run_job(comm, local_panel(comm.rank(), 1000));
  });
  pmpi::run(4, [&](Communicator& comm) {
    solo_b[static_cast<std::size_t>(comm.rank())] =
        run_job(comm, local_panel(comm.rank(), 2000));
  });

  // Both jobs concurrently, on disjoint halves of one 8-rank Context.
  std::array<std::optional<Out>, 8> got;
  pmpi::run(8, [&](Communicator& comm) {
    std::optional<Communicator> sub = comm.split(comm.rank() / 4);
    ASSERT_TRUE(sub.has_value());
    const std::uint64_t job_seed = comm.rank() < 4 ? 1000 : 2000;
    got[static_cast<std::size_t>(comm.rank())] =
        run_job(*sub, local_panel(sub->rank(), job_seed));
  });

  for (int r = 0; r < 8; ++r) {
    const auto& want = r < 4 ? solo_a[static_cast<std::size_t>(r)]
                             : solo_b[static_cast<std::size_t>(r - 4)];
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got[static_cast<std::size_t>(r)].has_value());
    expect_bits_equal(got[static_cast<std::size_t>(r)]->r, want->r, "R");
    expect_bits_equal(got[static_cast<std::size_t>(r)]->q, want->q, "q_local");
  }
}

// The acceptance scenario (and the group-scoped fault-injection
// coverage): two fault-tolerant streaming jobs on disjoint halves, a
// seeded FaultPlan kills one rank of group B mid-stream, and
//   * group A's results stay bit-identical to its solo run,
//   * group A's FaultReport stays clean,
//   * group B completes degraded, reporting the death in GROUP-LOCAL
//     numbering — the death-isolation contract end to end.
TEST(GroupsFault, KillInOneGroupIsolatedFromSibling) {
  constexpr int kWorld = 8;
  constexpr int kHalf = 4;
  const Index cols0 = 8;
  const Index cols = 6;

  // One half-job: rank r streams two batches of its row block. Seeds
  // depend only on (group rank, job seed) so the solo and concurrent
  // runs see identical data.
  const auto job = [&](Communicator& comm, std::uint64_t job_seed,
                       std::optional<FaultReport>* report, Matrix* modes,
                       Vector* values) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    const Index rows = 10 + comm.rank();
    StreamingOptions opts;
    opts.num_modes = 5;
    opts.fault_tolerant = true;
    ParallelStreamingSVD svd(comm, opts);
    svd.initialize(testing::random_matrix(rows, cols0, job_seed + 70 + r));
    for (int i = 0; i < 2; ++i) {
      svd.incorporate_data(testing::random_matrix(
          rows, cols, job_seed + 100 + 10 * static_cast<std::uint64_t>(i) + r));
    }
    if (report) *report = svd.fault_report();
    if (comm.is_root()) {
      if (modes) *modes = svd.modes();
      if (values) *values = svd.singular_values();
    }
  };

  const auto concurrent = [&](Communicator& comm,
                              std::array<std::optional<FaultReport>, kWorld>&
                                  reports,
                              Matrix* a_modes, Vector* a_values) {
    std::optional<Communicator> sub = comm.split(comm.rank() / kHalf);
    ASSERT_TRUE(sub.has_value());
    const bool in_a = comm.rank() < kHalf;
    job(*sub, in_a ? 1000 : 2000,
        &reports[static_cast<std::size_t>(comm.rank())],
        in_a ? a_modes : nullptr, in_a ? a_values : nullptr);
  };

  // Solo baseline for group A's job.
  std::array<std::optional<FaultReport>, kWorld> solo_reports;
  Matrix solo_modes;
  Vector solo_values;
  pmpi::run(kHalf, [&](Communicator& comm) {
    job(comm, 1000, &solo_reports[static_cast<std::size_t>(comm.rank())],
        &solo_modes, &solo_values);
  });

  // Probe run (healthy) pins the op count at which world rank 5 — group
  // B's local rank 1 — begins its second streaming update.
  auto probe = std::make_shared<Context>(kWorld);
  {
    std::array<std::optional<FaultReport>, kWorld> reports;
    pmpi::run_on(probe, [&](Communicator& comm) {
      std::optional<Communicator> sub = comm.split(comm.rank() / kHalf);
      ASSERT_TRUE(sub.has_value());
      const auto r = static_cast<std::uint64_t>(sub->rank());
      const Index rows = 10 + sub->rank();
      StreamingOptions opts;
      opts.num_modes = 5;
      opts.fault_tolerant = true;
      const std::uint64_t seed = comm.rank() < kHalf ? 1000 : 2000;
      ParallelStreamingSVD svd(*sub, opts);
      svd.initialize(testing::random_matrix(rows, cols0, seed + 70 + r));
      svd.incorporate_data(
          testing::random_matrix(rows, cols, seed + 100 + r));
      reports[static_cast<std::size_t>(comm.rank())] = svd.fault_report();
    });
    for (const auto& rep : reports) {
      ASSERT_TRUE(rep.has_value());
      EXPECT_FALSE(rep->degraded);
    }
  }

  FaultPlan plan;
  plan.kill_rank(5, probe->ops(5));
  auto ctx = std::make_shared<Context>(kWorld);
  ctx->set_fault_plan(std::move(plan));

  std::array<std::optional<FaultReport>, kWorld> reports;
  Matrix a_modes;
  Vector a_values;
  pmpi::run_on(ctx, [&](Communicator& comm) {
    concurrent(comm, reports, &a_modes, &a_values);
  });

  // The context saw exactly one death, world rank 5.
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{5});
  EXPECT_FALSE(reports[5].has_value());

  // Group A: untouched — clean reports and a bit-identical result.
  for (int r = 0; r < kHalf; ++r) {
    const auto& rep = reports[static_cast<std::size_t>(r)];
    ASSERT_TRUE(rep.has_value()) << "group A rank " << r;
    EXPECT_FALSE(rep->degraded) << "group A rank " << r;
    EXPECT_TRUE(rep->dead_ranks.empty()) << "group A rank " << r;
  }
  expect_bits_equal(a_modes, solo_modes, "group A modes vs solo");
  ASSERT_EQ(a_values.size(), solo_values.size());
  for (Index i = 0; i < a_values.size(); ++i) {
    EXPECT_EQ(a_values[i], solo_values[i]) << "singular value " << i;
  }

  // Group B: degraded, and the death is reported in GROUP-LOCAL
  // numbering (world 5 == group B rank 1), with the group's own extents.
  const Index b_total_rows = 10 + 11 + 12 + 13;
  for (int r = kHalf; r < kWorld; ++r) {
    if (r == 5) continue;
    const auto& rep = reports[static_cast<std::size_t>(r)];
    ASSERT_TRUE(rep.has_value()) << "group B rank " << r;
    EXPECT_TRUE(rep->degraded) << "group B rank " << r;
    EXPECT_EQ(rep->dead_ranks, std::vector<int>{1}) << "group B rank " << r;
    EXPECT_TRUE(rep->extent_known);
    EXPECT_EQ(rep->lost_rows, 11);
    EXPECT_EQ(rep->surviving_rows, b_total_rows - 11);
    EXPECT_GT(rep->coverage, 0.0);
    EXPECT_LT(rep->coverage, 1.0);
  }
}

}  // namespace
}  // namespace parsvd
