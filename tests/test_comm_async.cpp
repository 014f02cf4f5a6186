// Non-blocking messaging layer and collective sweep: Request lifecycle
// (isend/irecv/test/wait/wait_any), debug channel discipline, and every
// collective checked at awkward rank counts.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pmpi/comm.hpp"
#include "pmpi/request.hpp"
#include "pmpi/tags.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using pmpi::Op;
using pmpi::Request;
using testing::expect_matrix_near;

TEST(CommAsync, IsendIrecvRoundtrip) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data{1.0, 2.0, 3.0};
      Request s = comm.isend<double>(data, 1, 5);
      EXPECT_TRUE(s.done());
    } else {
      Request r = comm.irecv(0, 5);
      EXPECT_FALSE(r.done());
      r.wait();
      const std::vector<double> got = r.take<double>();
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[2], 3.0);
    }
  });
}

TEST(CommAsync, IsendMatrixRoundtrip) {
  pmpi::run(2, [](Communicator& comm) {
    const Matrix m = testing::random_matrix(6, 4, 11);
    if (comm.rank() == 0) {
      comm.isend_matrix(m, 1, 3);
    } else {
      Request r = comm.irecv(0, 3);
      r.wait();
      expect_matrix_near(r.take_matrix(), m, 0.0);
    }
  });
}

TEST(CommAsync, TestPollsUntilArrival) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      // Receiver signals readiness first so rank 0's send is guaranteed
      // to happen after at least one failed test() on the other side.
      comm.recv<int>(1, 1);
      comm.send<int>(std::vector<int>{42}, 1, 2);
    } else {
      Request r = comm.irecv(0, 2);
      EXPECT_FALSE(r.test());
      comm.send<int>(std::vector<int>{0}, 0, 1);
      while (!r.test()) {
        std::this_thread::yield();
      }
      EXPECT_EQ(r.take<int>().at(0), 42);
    }
  });
}

TEST(CommAsync, WaitAnyCompletesAllChannels) {
  constexpr int kPeers = 4;
  pmpi::run(kPeers + 1, [](Communicator& comm) {
    const int root = kPeers;  // last rank collects
    if (comm.rank() == root) {
      std::vector<Request> reqs;
      for (int src = 0; src < kPeers; ++src) {
        reqs.push_back(comm.irecv(src, 9));
      }
      std::vector<bool> seen(kPeers, false);
      for (int n = 0; n < kPeers; ++n) {
        const std::size_t which = pmpi::wait_any(reqs);
        ASSERT_LT(which, seen.size());
        EXPECT_FALSE(seen[which]);
        seen[which] = true;
        EXPECT_EQ(reqs[which].take<int>().at(0), static_cast<int>(which));
      }
    } else {
      comm.isend<int>(std::vector<int>{comm.rank()}, root, 9);
    }
  });
}

TEST(CommAsync, WaitAllDrainsRequests) {
  pmpi::run(3, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<Request> reqs;
      reqs.push_back(comm.irecv(1, 4));
      reqs.push_back(comm.irecv(2, 4));
      pmpi::wait_all(reqs);
      EXPECT_EQ(reqs[0].take<int>().at(0), 1);
      EXPECT_EQ(reqs[1].take<int>().at(0), 2);
    } else {
      comm.isend<int>(std::vector<int>{comm.rank()}, 0, 4);
    }
  });
}

TEST(CommAsync, TakeTwiceThrows) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.isend<int>(std::vector<int>{7}, 1, 0);
    } else {
      Request r = comm.irecv(0, 0);
      r.wait();
      (void)r.take_bytes();
      EXPECT_THROW((void)r.take_bytes(), Error);
    }
  });
}

TEST(CommAsync, TakeBeforeCompletionThrows) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      Request r = comm.irecv(0, 0);
      EXPECT_THROW((void)r.take_bytes(), Error);
      r.cancel();
      comm.recv<int>(0, 1);  // sync so the posted message isn't orphaned
      comm.recv<int>(0, 0);
    } else {
      comm.send<int>(std::vector<int>{1}, 1, 1);
      comm.send<int>(std::vector<int>{2}, 1, 0);
    }
  });
}

TEST(CommAsync, MovedFromRequestIsInvalid) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.isend<int>(std::vector<int>{5}, 1, 0);
    } else {
      Request a = comm.irecv(0, 0);
      Request b = std::move(a);
      EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
      b.wait();
      EXPECT_EQ(b.take<int>().at(0), 5);
    }
  });
}

TEST(CommAsync, EmptyRequestOpsThrow) {
  Request r;
  EXPECT_FALSE(r.valid());
  EXPECT_THROW(r.wait(), Error);
  EXPECT_THROW((void)r.test(), Error);
  EXPECT_THROW((void)r.take_bytes(), Error);
}

#ifndef NDEBUG
TEST(CommAsync, DuplicateIrecvChannelThrowsInDebug) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      Request a = comm.irecv(0, 6);
      EXPECT_THROW((void)comm.irecv(0, 6), CommError);
      a.cancel();
      comm.recv<int>(0, 6);
    } else {
      comm.send<int>(std::vector<int>{1}, 1, 6);
    }
  });
}

TEST(CommAsync, BlockingRecvOverlappingIrecvThrowsInDebug) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      Request a = comm.irecv(0, 6);
      EXPECT_THROW((void)comm.recv<int>(0, 6), CommError);
      a.wait();
      EXPECT_EQ(a.take<int>().at(0), 3);
    } else {
      comm.send<int>(std::vector<int>{3}, 1, 6);
    }
  });
}

TEST(CommAsync, CancelReleasesChannel) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      Request a = comm.irecv(0, 6);
      a.cancel();
      Request b = comm.irecv(0, 6);  // channel free again
      b.wait();
      EXPECT_EQ(b.take<int>().at(0), 8);
    } else {
      comm.send<int>(std::vector<int>{8}, 1, 6);
    }
  });
}
#endif  // !NDEBUG

// ---------------------------------------------------------------------
// Collective sweep: every collective × awkward rank counts (odd, prime,
// non-power-of-two).

class CollectiveSweep : public ::testing::TestWithParam<int> {
 protected:
  std::shared_ptr<pmpi::Context> make_ctx() const {
    return std::make_shared<pmpi::Context>(GetParam());
  }
};

TEST_P(CollectiveSweep, BcastVector) {
  pmpi::run_on(make_ctx(), [](Communicator& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<double> data;
      if (comm.rank() == root) data = {1.0, 2.0, 3.0, 4.0};
      comm.bcast(data, root);
      ASSERT_EQ(data.size(), 4u);
      EXPECT_DOUBLE_EQ(data[3], 4.0);
    }
  });
}

TEST_P(CollectiveSweep, BcastMatrix) {
  pmpi::run_on(make_ctx(), [](Communicator& comm) {
    const Matrix ref = testing::random_matrix(7, 3, 21);
    Matrix m;
    if (comm.is_root()) m = ref;
    comm.bcast_matrix(m, 0);
    expect_matrix_near(m, ref, 0.0);
  });
}

TEST_P(CollectiveSweep, GatherMatrices) {
  pmpi::run_on(make_ctx(), [](Communicator& comm) {
    const Matrix mine = testing::random_matrix(3 + comm.rank(), 2,
                                               100 + comm.rank());
    const std::vector<std::optional<Matrix>> all =
        comm.gather_matrices(mine, 0);
    if (comm.is_root()) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
      for (int src = 0; src < comm.size(); ++src) {
        expect_matrix_near(all[static_cast<std::size_t>(src)].value(),
                           testing::random_matrix(3 + src, 2, 100 + src), 0.0);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveSweep, GathervVariableLengths) {
  pmpi::run_on(make_ctx(), [](Communicator& comm) {
    // Rank r contributes r+1 values, all equal to r.
    std::vector<double> mine(static_cast<std::size_t>(comm.rank() + 1),
                             static_cast<double>(comm.rank()));
    std::vector<std::size_t> counts;
    const std::vector<double> all =
        comm.gatherv(std::span<const double>(mine), 0, &counts);
    if (comm.is_root()) {
      const int p = comm.size();
      ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
      std::size_t at = 0;
      for (int src = 0; src < p; ++src) {
        ASSERT_EQ(counts[static_cast<std::size_t>(src)],
                  static_cast<std::size_t>(src + 1));
        for (int k = 0; k <= src; ++k) {
          EXPECT_DOUBLE_EQ(all.at(at++), static_cast<double>(src));
        }
      }
      EXPECT_EQ(at, all.size());
    }
  });
}

TEST_P(CollectiveSweep, GathervEmptyContribution) {
  pmpi::run_on(make_ctx(), [](Communicator& comm) {
    // Odd ranks contribute nothing — exercises zero-length messages.
    std::vector<double> mine;
    if (comm.rank() % 2 == 0) mine.assign(2, static_cast<double>(comm.rank()));
    const std::vector<double> all =
        comm.gatherv(std::span<const double>(mine), 0);
    if (comm.is_root()) {
      std::size_t expected = 0;
      for (int src = 0; src < comm.size(); src += 2) expected += 2;
      EXPECT_EQ(all.size(), expected);
    }
  });
}

TEST_P(CollectiveSweep, ReduceSumExact) {
  pmpi::run_on(make_ctx(), [](Communicator& comm) {
    const int p = comm.size();
    std::vector<double> v{static_cast<double>(comm.rank() + 1), 1.0};
    comm.reduce(std::span<double>(v), Op::Sum, 0);
    if (comm.is_root()) {
      EXPECT_DOUBLE_EQ(v[0], static_cast<double>(p) * (p + 1) / 2.0);
      EXPECT_DOUBLE_EQ(v[1], static_cast<double>(p));
    }
  });
}

TEST_P(CollectiveSweep, AllreduceMaxMinSum) {
  pmpi::run_on(make_ctx(), [](Communicator& comm) {
    const int p = comm.size();
    const double r = static_cast<double>(comm.rank());
    std::vector<double> mx{r};
    comm.allreduce(std::span<double>(mx), Op::Max);
    EXPECT_DOUBLE_EQ(mx[0], static_cast<double>(p - 1));
    std::vector<double> mn{r};
    comm.allreduce(std::span<double>(mn), Op::Min);
    EXPECT_DOUBLE_EQ(mn[0], 0.0);
    std::vector<double> sm{r, 2.0};
    comm.allreduce(std::span<double>(sm), Op::Sum);
    EXPECT_DOUBLE_EQ(sm[0], static_cast<double>(p) * (p - 1) / 2.0);
    EXPECT_DOUBLE_EQ(sm[1], 2.0 * p);
  });
}

TEST_P(CollectiveSweep, AllgatherScalars) {
  pmpi::run_on(make_ctx(), [](Communicator& comm) {
    const std::vector<double> all =
        comm.allgather_double(static_cast<double>(comm.rank() * 10));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
    for (int src = 0; src < comm.size(); ++src) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(src)],
                       static_cast<double>(src * 10));
    }
  });
}

TEST_P(CollectiveSweep, ScatterRows) {
  pmpi::run_on(make_ctx(), [](Communicator& comm) {
    const int p = comm.size();
    std::vector<Index> per_rank;
    Index total = 0;
    for (int r = 0; r < p; ++r) {
      per_rank.push_back(2 + r % 3);
      total += per_rank.back();
    }
    Matrix full;
    if (comm.is_root()) full = testing::random_matrix(total, 3, 77);
    const Matrix mine =
        comm.scatter_rows(full, std::span<const Index>(per_rank), 0);
    Index offset = 0;
    for (int r = 0; r < comm.rank(); ++r) {
      offset += per_rank[static_cast<std::size_t>(r)];
    }
    const Matrix ref = testing::random_matrix(total, 3, 77)
                           .block(offset, 0,
                                  per_rank[static_cast<std::size_t>(comm.rank())],
                                  3);
    expect_matrix_near(mine, ref, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, CollectiveSweep, ::testing::Values(3, 5, 6, 7, 12),
    [](const ::testing::TestParamInfo<int>& param) {
      return std::string("p") + std::to_string(param.param);
    });

}  // namespace
}  // namespace parsvd
