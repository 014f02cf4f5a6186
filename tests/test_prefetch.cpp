// PrefetchingBatchSource and the pipelined streaming executor: batch
// boundaries and results must be bit-identical with prefetch on or off,
// on both the Burgers and the ERA5-synthetic workloads, and the worker
// thread must propagate exceptions and shut down cleanly (these tests
// also run under TSan in CI).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/parallel_streaming.hpp"
#include "test_utils.hpp"
#include "workloads/burgers.hpp"
#include "workloads/era5_synthetic.hpp"
#include "workloads/prefetch_source.hpp"
#include "workloads/streaming_executor.hpp"

namespace parsvd {
namespace {

namespace wl = workloads;

TEST(PrefetchSource, YieldsSameBatchesAsInner) {
  const Matrix data = testing::random_matrix(12, 30, 5);
  wl::MatrixBatchSource plain(data);
  wl::PrefetchingBatchSource pre(std::make_unique<wl::MatrixBatchSource>(data),
                                 7);
  EXPECT_EQ(pre.rows(), plain.rows());
  EXPECT_EQ(pre.total_snapshots(), plain.total_snapshots());
  while (!plain.exhausted()) {
    ASSERT_FALSE(pre.exhausted());
    const Matrix a = plain.next_batch(7);
    const Matrix b = pre.next_batch(7);
    testing::expect_matrix_near(b, a, 0.0);
  }
  EXPECT_TRUE(pre.exhausted());
  EXPECT_EQ(pre.position(), data.cols());
}

TEST(PrefetchSource, DepthOneStillInOrder) {
  const Matrix data = testing::random_matrix(4, 9, 8);
  wl::PrefetchingBatchSource pre(std::make_unique<wl::MatrixBatchSource>(data),
                                 2, /*depth=*/1);
  Index seen = 0;
  while (!pre.exhausted()) {
    const Matrix b = pre.next_batch(2);
    testing::expect_matrix_near(b, data.block(0, seen, 4, b.cols()), 0.0);
    seen += b.cols();
  }
  EXPECT_EQ(seen, 9);
}

TEST(PrefetchSource, MismatchedWidthThrows) {
  const Matrix data = testing::random_matrix(3, 8, 1);
  wl::PrefetchingBatchSource pre(std::make_unique<wl::MatrixBatchSource>(data),
                                 4);
  EXPECT_THROW((void)pre.next_batch(5), Error);
  testing::expect_matrix_near(pre.next_batch(4), data.block(0, 0, 3, 4), 0.0);
}

TEST(PrefetchSource, DestructorJoinsWithoutConsuming) {
  // Construct, let the worker fill its queue, destroy — must not hang
  // or leak the thread (TSan/ASan would flag it).
  const Matrix data = testing::random_matrix(6, 40, 2);
  wl::PrefetchingBatchSource pre(std::make_unique<wl::MatrixBatchSource>(data),
                                 4);
  (void)pre.next_batch(4);
}

TEST(PrefetchSource, WorkerExceptionReachesConsumer) {
  auto gen = [](Index col0, Index) -> Matrix {
    if (col0 >= 4) throw std::runtime_error("ingest failed");
    return Matrix(3, 2);
  };
  wl::PrefetchingBatchSource pre(
      std::make_unique<wl::GeneratorBatchSource>(3, 10, gen), 2);
  (void)pre.next_batch(2);  // col0 = 0
  (void)pre.next_batch(2);  // col0 = 2
  EXPECT_THROW(
      {
        // The worker hit the throw somewhere ahead; draining must
        // surface it rather than hang or fabricate a batch.
        while (true) (void)pre.next_batch(2);
      },
      std::runtime_error);
}

TEST(PrefetchSource, RejectsConsumedInner) {
  const Matrix data = testing::random_matrix(3, 6, 4);
  auto inner = std::make_unique<wl::MatrixBatchSource>(data);
  (void)inner->next_batch(2);
  EXPECT_THROW(wl::PrefetchingBatchSource(std::move(inner), 2), Error);
}

// ---------------------------------------------------------------------
// End-to-end determinism: the distributed streaming SVD must produce
// bit-identical singular values and local modes with prefetch on/off.

struct StreamedResult {
  Vector svals;
  std::vector<Matrix> local_modes;
};

template <typename MakeSource>
StreamedResult stream_distributed(int p, Index batch, bool prefetch,
                                  const MakeSource& make_source) {
  StreamedResult out;
  out.local_modes.resize(static_cast<std::size_t>(p));
  StreamingOptions opts;
  opts.num_modes = 6;
  opts.forget_factor = 1.0;
  pmpi::run(p, [&](pmpi::Communicator& comm) {
    ParallelStreamingSVD svd(comm, opts);
    wl::StreamingExecutorOptions eopts;
    eopts.batch_cols = batch;
    eopts.prefetch = prefetch;
    wl::run_streaming(svd, make_source(comm), eopts);
    out.local_modes[static_cast<std::size_t>(comm.rank())] = svd.local_modes();
    if (comm.is_root()) out.svals = svd.singular_values();
  });
  return out;
}

void expect_bit_identical(const StreamedResult& a, const StreamedResult& b) {
  ASSERT_EQ(a.svals.size(), b.svals.size());
  for (Index i = 0; i < a.svals.size(); ++i) {
    EXPECT_EQ(a.svals[i], b.svals[i]) << "singular value " << i;
  }
  ASSERT_EQ(a.local_modes.size(), b.local_modes.size());
  for (std::size_t r = 0; r < a.local_modes.size(); ++r) {
    testing::expect_matrix_near(a.local_modes[r], b.local_modes[r], 0.0);
  }
}

TEST(PrefetchDeterminism, BurgersBitIdentical) {
  const int p = 4;
  const Index rows = 96, snaps = 40, batch = 8;
  wl::BurgersConfig cfg;
  cfg.grid_points = rows;
  cfg.snapshots = snaps;
  const auto burgers = std::make_shared<wl::Burgers>(cfg);
  const auto make_source = [&](pmpi::Communicator& comm) {
    const auto part = wl::partition_rows(rows, p, comm.rank());
    return std::make_unique<wl::GeneratorBatchSource>(
        part.count, snaps, [burgers, part](Index col0, Index ncols) {
          return burgers->snapshot_block(part.offset, part.count, col0, ncols);
        });
  };
  const StreamedResult off = stream_distributed(p, batch, false, make_source);
  const StreamedResult on = stream_distributed(p, batch, true, make_source);
  ASSERT_GT(off.svals.size(), 0);
  expect_bit_identical(off, on);
}

TEST(PrefetchDeterminism, Era5SyntheticBitIdentical) {
  const int p = 3;
  const Index batch = 6;
  wl::Era5Config cfg;
  cfg.n_lat = 12;
  cfg.n_lon = 16;
  cfg.snapshots = 24;
  const auto era5 = std::make_shared<wl::Era5Synthetic>(cfg);
  const Index rows = era5->grid_size();
  const Index snaps = cfg.snapshots;
  const auto make_source = [&](pmpi::Communicator& comm) {
    const auto part = wl::partition_rows(rows, p, comm.rank());
    return std::make_unique<wl::GeneratorBatchSource>(
        part.count, snaps, [era5, part](Index col0, Index ncols) {
          return era5->snapshot_block(part.offset, part.count, col0, ncols,
                                      /*subtract_mean=*/false);
        });
  };
  const StreamedResult off = stream_distributed(p, batch, false, make_source);
  const StreamedResult on = stream_distributed(p, batch, true, make_source);
  ASSERT_GT(off.svals.size(), 0);
  expect_bit_identical(off, on);
}

}  // namespace
}  // namespace parsvd
