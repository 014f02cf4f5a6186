// Randomized stress tests for the message-passing runtime: many ranks,
// random message sizes/tags/interleavings, mixed point-to-point and
// collective traffic — the failure modes (lost wakeups, tag cross-talk,
// FIFO violations) only show under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "pmpi/comm.hpp"
#include "support/rng.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using pmpi::Op;

TEST(PmpiStress, RandomizedAllToAllExchange) {
  // Every rank sends a random-length checksummed payload to every other
  // rank on a per-pair tag, receives from everyone, and verifies.
  const int p = 8;
  pmpi::run(p, [p](Communicator& comm) {
    Rng rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    // Send phase.
    for (int dst = 0; dst < p; ++dst) {
      if (dst == comm.rank()) continue;
      const std::size_t len = 1 + rng.uniform_index(4096);
      std::vector<double> payload(len);
      double sum = 0.0;
      for (std::size_t i = 0; i + 1 < len; ++i) {
        payload[i] = rng.uniform(-1.0, 1.0);
        sum += payload[i];
      }
      payload[len - 1] = sum;  // checksum in the last slot
      comm.send<double>(payload, dst, comm.rank() * p + dst);
    }
    // Receive phase (any order of sources).
    for (int src = 0; src < p; ++src) {
      if (src == comm.rank()) continue;
      const std::vector<double> got =
          comm.recv<double>(src, src * p + comm.rank());
      ASSERT_GE(got.size(), 1u);
      double sum = 0.0;
      for (std::size_t i = 0; i + 1 < got.size(); ++i) sum += got[i];
      EXPECT_NEAR(got.back(), sum, 1e-9) << "src " << src;
    }
  });
}

TEST(PmpiStress, ManyMessagesSameChannelKeepOrder) {
  // 2000 small messages on one (src, dst, tag) channel must arrive in
  // exactly the posted order.
  pmpi::run(2, [](Communicator& comm) {
    constexpr int kCount = 2000;
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i) {
        comm.send<int>(std::vector<int>{i}, 1, 5);
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        ASSERT_EQ(comm.recv<int>(0, 5).at(0), i);
      }
    }
  });
}

TEST(PmpiStress, InterleavedTagsNoCrossTalk) {
  // Two logical streams share a channel pair with different tags; the
  // receiver drains them in opposite orders.
  pmpi::run(2, [](Communicator& comm) {
    constexpr int kCount = 200;
    if (comm.rank() == 0) {
      Rng rng(7);
      int sent_a = 0, sent_b = 0;
      while (sent_a < kCount || sent_b < kCount) {
        const bool pick_a =
            sent_b >= kCount || (sent_a < kCount && rng.uniform() < 0.5);
        if (pick_a) {
          comm.send<int>(std::vector<int>{sent_a++}, 1, 1);
        } else {
          comm.send<int>(std::vector<int>{1000 + sent_b++}, 1, 2);
        }
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        ASSERT_EQ(comm.recv<int>(0, 2).at(0), 1000 + i);
      }
      for (int i = 0; i < kCount; ++i) {
        ASSERT_EQ(comm.recv<int>(0, 1).at(0), i);
      }
    }
  });
}

TEST(PmpiStress, RepeatedCollectivesConsistent) {
  // 100 rounds of mixed collectives; any ordering bug between rounds
  // shows up as a wrong reduction value.
  const int p = 6;
  pmpi::run(p, [p](Communicator& comm) {
    for (int round = 0; round < 100; ++round) {
      const double mine = static_cast<double>(comm.rank() + round);
      const double sum = comm.allreduce_scalar(mine, Op::Sum);
      const double expected =
          static_cast<double>(p * round + (p * (p - 1)) / 2);
      ASSERT_DOUBLE_EQ(sum, expected) << "round " << round;

      std::vector<double> data;
      if (comm.rank() == round % p) data = {static_cast<double>(round)};
      comm.bcast(data, round % p);
      ASSERT_EQ(data.size(), 1u);
      ASSERT_DOUBLE_EQ(data[0], static_cast<double>(round));
    }
  });
}

TEST(PmpiStress, LargePayloadsSurvive) {
  // 8 MB matrices through gather + bcast.
  pmpi::run(3, [](Communicator& comm) {
    const Matrix local = testing::random_matrix(
        1024, 256, 2000 + static_cast<std::uint64_t>(comm.rank()));
    const std::vector<std::optional<Matrix>> all =
        comm.gather_matrices(local, 0);
    Matrix back;
    if (comm.is_root()) {
      back = all[2].value();
    }
    comm.bcast_matrix(back, 0);
    const Matrix expected = testing::random_matrix(1024, 256, 2002);
    EXPECT_DOUBLE_EQ(max_abs_diff(back, expected), 0.0);
  });
}

TEST(PmpiStress, PayloadCapRejectsOversizedSend) {
  // A send above the per-message cap must fail with a typed CommError at
  // the sender — not corrupt the mailbox or stall the receiver — and the
  // channel must remain usable afterwards.
  auto ctx = std::make_shared<pmpi::Context>(2);
  ctx->set_max_payload_bytes(1024);
  pmpi::run_on(ctx, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> big(4096, 1.0);  // 32 KiB > 1 KiB cap
      bool threw = false;
      try {
        comm.send<double>(big, 1, 7);
      } catch (const CommError&) {
        threw = true;
      }
      EXPECT_TRUE(threw) << "oversized send<double> was accepted";

      threw = false;
      try {
        comm.send_matrix(Matrix(64, 64), 1, 8);
      } catch (const CommError&) {
        threw = true;
      }
      EXPECT_TRUE(threw) << "oversized send_matrix was accepted";

      // The failed sends must not have consumed sequence numbers or left
      // partial messages behind: a conforming send still goes through.
      comm.send<int>(std::vector<int>{42}, 1, 9);
    } else {
      EXPECT_EQ(comm.recv<int>(0, 9).at(0), 42);
    }
  });
}

TEST(PmpiStress, EmptyPayloadStillTravelsUnderTightCap) {
  // The cap bounds oversized messages only; zero-byte payloads (empty
  // matrices travel as shape-only headers plus no data) must still pass.
  auto ctx = std::make_shared<pmpi::Context>(2);
  ctx->set_max_payload_bytes(64);
  pmpi::run_on(ctx, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(std::vector<double>{}, 1, 3);
    } else {
      EXPECT_TRUE(comm.recv<double>(0, 3).empty());
    }
  });
}

TEST(PmpiStress, AbortDuringBarrierWakesEveryRankExactlyOnce) {
  // abort_job() fired while other ranks sit inside barrier() must wake
  // each of them with exactly one JobAbortedError — no hang, no double
  // delivery. Repeated across fresh contexts to catch lost-wakeup races.
  constexpr int kIters = 25;
  const int p = 4;
  for (int iter = 0; iter < kIters; ++iter) {
    std::atomic<int> aborted_throws{0};
    std::atomic<int> other_throws{0};
    auto ctx = std::make_shared<pmpi::Context>(p);
    try {
      pmpi::run_on(ctx, [&](Communicator& comm) {
        if (comm.rank() == 0) {
          // Give the other ranks time to block inside barrier().
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          comm.context().abort_job();
          return;
        }
        try {
          comm.barrier();
          ADD_FAILURE() << "barrier returned after abort, iter " << iter;
        } catch (const JobAbortedError&) {
          aborted_throws.fetch_add(1);
          throw;
        } catch (...) {
          other_throws.fetch_add(1);
          throw;
        }
      });
      ADD_FAILURE() << "run_on did not surface the abort, iter " << iter;
    } catch (const JobAbortedError&) {
      // Expected: every non-aborting rank saw the abort.
    }
    EXPECT_EQ(aborted_throws.load(), p - 1) << "iter " << iter;
    EXPECT_EQ(other_throws.load(), 0) << "iter " << iter;
  }
}

TEST(PmpiStress, ConcurrentJobsDoNotInterfere) {
  // Two communicator jobs running simultaneously in one process (the
  // bench harness does this when nested) must stay fully isolated.
  std::atomic<int> failures{0};
  std::thread t1([&] {
    try {
      pmpi::run(4, [](Communicator& comm) {
        for (int i = 0; i < 50; ++i) {
          const double s = comm.allreduce_scalar(1.0, Op::Sum);
          if (s != 4.0) throw ConfigError("bad sum in job 1");
        }
      });
    } catch (...) {
      failures.fetch_add(1);
    }
  });
  std::thread t2([&] {
    try {
      pmpi::run(3, [](Communicator& comm) {
        for (int i = 0; i < 50; ++i) {
          const double s = comm.allreduce_scalar(2.0, Op::Sum);
          if (s != 6.0) throw ConfigError("bad sum in job 2");
        }
      });
    } catch (...) {
      failures.fetch_add(1);
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace parsvd
