// Sketch-operator tests: FWHT correctness, apply-vs-realize agreement for
// all three kinds, the per-global-row seeding contract (partition- and
// rank-count-invariant realization), the distributed sketch-apply against
// the serial Ωᵀ A, threaded-vs-serial applies, and the Auto policy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "pmpi/comm.hpp"
#include "sketch/distributed.hpp"
#include "sketch/sketch.hpp"
#include "support/thread_pool.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using sketch::SketchKind;
using testing::expect_matrix_near;

const SketchKind kAllKinds[] = {SketchKind::DenseGaussian,
                                SketchKind::SparseSign, SketchKind::Srht};

TEST(Fwht, MatchesPopcountDefinition) {
  // y[c] = Σ_r x[r]·(−1)^popcount(r & c) on a length-8 vector.
  const Index n = 8;
  std::vector<double> x{1.0, -2.0, 0.5, 3.0, -1.0, 0.25, 4.0, -0.75};
  std::vector<double> y = x;
  sketch::fwht(y.data(), n);
  for (Index c = 0; c < n; ++c) {
    double want = 0.0;
    for (Index r = 0; r < n; ++r) {
      const auto bits = static_cast<std::uint64_t>(r & c);
      const double h = (std::popcount(bits) & 1) != 0 ? -1.0 : 1.0;
      want += x[static_cast<std::size_t>(r)] * h;
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(c)], want, 1e-12) << "c=" << c;
  }
}

TEST(Fwht, SelfInverseUpToN) {
  const Index n = 16;
  Rng rng(21);
  std::vector<double> x(static_cast<std::size_t>(n));
  rng.fill_gaussian(x.data(), x.size());
  std::vector<double> y = x;
  sketch::fwht(y.data(), n);
  sketch::fwht(y.data(), n);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], static_cast<double>(n) * x[i], 1e-10);
  }
}

TEST(Sketch, NextPow2) {
  EXPECT_EQ(sketch::next_pow2(1), 1);
  EXPECT_EQ(sketch::next_pow2(2), 2);
  EXPECT_EQ(sketch::next_pow2(3), 4);
  EXPECT_EQ(sketch::next_pow2(1024), 1024);
  EXPECT_EQ(sketch::next_pow2(1025), 2048);
}

TEST(Sketch, KindStringsRoundTrip) {
  for (SketchKind kind : kAllKinds) {
    EXPECT_EQ(sketch::kind_from_string(sketch::to_string(kind)), kind);
  }
  EXPECT_EQ(sketch::kind_from_string("SRHT"), SketchKind::Srht);
  EXPECT_EQ(sketch::kind_from_string("dense"), SketchKind::DenseGaussian);
  EXPECT_EQ(sketch::kind_from_string("countsketch"), SketchKind::SparseSign);
  EXPECT_EQ(sketch::kind_from_string("auto"), SketchKind::Auto);
  EXPECT_THROW(sketch::kind_from_string("bogus"), ConfigError);
}

TEST(Sketch, MakeSketchRejectsAuto) {
  EXPECT_THROW(sketch::make_sketch(SketchKind::Auto, 8, 4, 1), ConfigError);
}

TEST(Sketch, OperatorSeedSeparatesKindsAndDraws) {
  const std::uint64_t base = 0xfeedULL;
  const std::uint64_t dense =
      sketch::derive_operator_seed(base, SketchKind::DenseGaussian, 0);
  const std::uint64_t sparse =
      sketch::derive_operator_seed(base, SketchKind::SparseSign, 0);
  const std::uint64_t srht =
      sketch::derive_operator_seed(base, SketchKind::Srht, 0);
  EXPECT_NE(dense, sparse);
  EXPECT_NE(dense, srht);
  EXPECT_NE(sparse, srht);
  EXPECT_NE(dense, sketch::derive_operator_seed(base, SketchKind::DenseGaussian, 1));
  // And the derivation is a pure function.
  EXPECT_EQ(dense, sketch::derive_operator_seed(base, SketchKind::DenseGaussian, 0));
}

TEST(Sketch, ApplyRightMatchesRealizedOperator) {
  // Y = A Ω through the fast path must equal the dense realization of Ω
  // pushed through a reference matmul.
  const Index m = 23;
  const Index d = 24;
  const Index s = 10;
  const Matrix a = testing::random_matrix(m, d, 31);
  for (SketchKind kind : kAllKinds) {
    const auto op = sketch::make_sketch(kind, d, s, 0xabcdULL);
    const Matrix omega = op->realize_rows(0, d);
    ASSERT_EQ(omega.rows(), d);
    ASSERT_EQ(omega.cols(), s);
    const Matrix want = testing::naive_matmul(a, omega);
    const Matrix got = op->apply_right(a);
    expect_matrix_near(got, want, 1e-12 * static_cast<double>(d),
                       sketch::to_string(kind));
  }
}

TEST(Sketch, RealizeRowsPartitionInvariant) {
  // The per-global-row derivation makes any blocking of the rows
  // bit-identical to the one-shot realization.
  const Index d = 37;
  const Index s = 9;
  for (SketchKind kind : kAllKinds) {
    const auto op = sketch::make_sketch(kind, d, s, 0x1234ULL);
    const Matrix whole = op->realize_rows(0, d);
    for (Index block : {1, 5, 16}) {
      for (Index r0 = 0; r0 < d; r0 += block) {
        const Index nr = std::min(block, d - r0);
        const Matrix part = op->realize_rows(r0, nr);
        for (Index r = 0; r < nr; ++r) {
          for (Index k = 0; k < s; ++k) {
            EXPECT_EQ(part(r, k), whole(r0 + r, k))
                << sketch::to_string(kind) << " row " << (r0 + r);
          }
        }
      }
    }
  }
}

TEST(Sketch, SparseSignRowStructure) {
  const Index d = 40;
  const Index s = 12;
  sketch::SparseSignSketch op(d, s, 0x77ULL, 4);
  EXPECT_EQ(op.nnz_per_row(), 4);
  const double mag = 1.0 / std::sqrt(4.0);
  const Matrix omega = op.realize_rows(0, d);
  for (Index r = 0; r < d; ++r) {
    Index nonzeros = 0;
    for (Index k = 0; k < s; ++k) {
      if (omega(r, k) != 0.0) {
        ++nonzeros;
        EXPECT_NEAR(std::fabs(omega(r, k)), mag, 1e-15);
      }
    }
    EXPECT_EQ(nonzeros, 4) << "row " << r;
  }
}

TEST(Sketch, SparseSignNnzCappedBySketchDim) {
  sketch::SparseSignSketch op(20, 3, 0x77ULL, 10);
  EXPECT_EQ(op.nnz_per_row(), 3);
}

TEST(Sketch, SrhtStructure) {
  const Index d = 37;  // pads to 64
  const Index s = 11;
  sketch::SrhtSketch op(d, s, 0x99ULL);
  EXPECT_EQ(op.padded_dim(), 64);
  ASSERT_EQ(op.selected().size(), static_cast<std::size_t>(s));
  for (std::size_t t = 0; t < op.selected().size(); ++t) {
    EXPECT_GE(op.selected()[t], 0);
    EXPECT_LT(op.selected()[t], 64);
    if (t > 0) {
      EXPECT_LT(op.selected()[t - 1], op.selected()[t]);
    }
  }
  // Every realized entry is ±1/√s.
  const double mag = 1.0 / std::sqrt(static_cast<double>(s));
  const Matrix omega = op.realize_rows(0, d);
  for (Index r = 0; r < d; ++r) {
    for (Index k = 0; k < s; ++k) {
      EXPECT_NEAR(std::fabs(omega(r, k)), mag, 1e-15);
    }
  }
}

TEST(Sketch, AccumulateLeftMatchesRealizedOperator) {
  // Splitting the rows over several accumulate_left calls must sum to
  // the serial Ωᵀ A — this is the distributed-apply building block.
  const Index d = 30;
  const Index n = 7;
  const Index s = 6;
  const Matrix a = testing::random_matrix(d, n, 41);
  for (SketchKind kind : kAllKinds) {
    const auto op = sketch::make_sketch(kind, d, s, 0x31415ULL);
    const Matrix omega = op->realize_rows(0, d);
    const Matrix want = testing::naive_matmul(omega.transposed(), a);
    Matrix b(s, n);
    const Index split[] = {0, 11, 17, 30};
    for (int i = 0; i + 1 < 4; ++i) {
      const Index r0 = split[i];
      const Index nr = split[i + 1] - r0;
      const Matrix block = a.block(r0, 0, nr, n);
      op->accumulate_left(block, r0, b);
    }
    expect_matrix_near(b, want, 1e-12 * static_cast<double>(d),
                       sketch::to_string(kind));
  }
}

TEST(Sketch, CountersRecordApplies) {
  const Matrix a = testing::random_matrix(8, 16, 51);
  const auto op = sketch::make_sketch(SketchKind::SparseSign, 16, 4, 0x5ULL);
  obs::Counter& applies =
      obs::Registry::global().counter("sketch.sparse_sign.applies");
  obs::Counter& flops =
      obs::Registry::global().counter("sketch.sparse_sign.flops");
  const std::uint64_t applies0 = applies.value();
  const std::uint64_t flops0 = flops.value();
  (void)op->apply_right(a);
  EXPECT_EQ(applies.value(), applies0 + 1);
  EXPECT_GT(flops.value(), flops0);
}

TEST(Sketch, ShapeValidation) {
  const auto op = sketch::make_sketch(SketchKind::DenseGaussian, 16, 4, 1);
  const Matrix wrong = testing::random_matrix(8, 15, 61);
  EXPECT_THROW(op->apply_right(wrong), Error);
  Matrix b(4, 3);
  const Matrix tall = testing::random_matrix(17, 3, 62);
  EXPECT_THROW(op->accumulate_left(tall, 0, b), Error);
  const Matrix ok = testing::random_matrix(8, 3, 63);
  EXPECT_THROW(op->accumulate_left(ok, 12, b), Error);  // 12 + 8 > 16
}

TEST(Sketch, ThreadedApplyMatchesSerial) {
  // Sizes above the fan-out threshold with a forced 4-worker pool; the
  // panel scatter must agree with the realized-operator reference.
  const Index m = 320;
  const Index d = 128;
  const Index s = 16;
  const Matrix a = testing::random_matrix(m, d, 71);
  ThreadPool::set_global_threads(4);
  for (SketchKind kind : {SketchKind::SparseSign, SketchKind::Srht}) {
    const auto op = sketch::make_sketch(kind, d, s, 0xbeefULL);
    const Matrix got = op->apply_right(a);
    const Matrix want = matmul(a, op->realize_rows(0, d));
    expect_matrix_near(got, want, 1e-11 * static_cast<double>(d),
                       sketch::to_string(kind));
  }
  ThreadPool::set_global_threads(0);
}

TEST(Sketch, AutoResolvesConcreteKindsUnchanged) {
  for (SketchKind kind : kAllKinds) {
    EXPECT_EQ(sketch::resolve_auto(kind, 1000, 1000, 20), kind);
  }
}

TEST(Sketch, AutoKeepsDenseForWideEmbeddings) {
  // sketch_dim within a factor 2 of dim: structured operators cannot win.
  EXPECT_EQ(sketch::resolve_auto(SketchKind::Auto, 100, 24, 16),
            SketchKind::DenseGaussian);
  EXPECT_EQ(sketch::resolve_auto(SketchKind::Auto, 100, 8, 8),
            SketchKind::DenseGaussian);
}

TEST(Sketch, AutoPicksStructuredKindsForLargeShapes) {
  // Power-of-two dim: the log-factor butterfly beats the ζ-sparse
  // scatter; a badly padded dim flips the choice to sparse-sign.
  EXPECT_EQ(sketch::resolve_auto(SketchKind::Auto, 4096, 2048, 64),
            SketchKind::Srht);
  EXPECT_EQ(sketch::resolve_auto(SketchKind::Auto, 4096, 1040, 64),
            SketchKind::SparseSign);
}

// ------------------------------------------------ distributed contract

TEST(SketchDistributed, RealizationPinnedAcrossRankCounts) {
  // The determinism pin: the BYTES of each rank's realized slice must
  // equal the serial operator's rows for P in {1, 2, 4} — exact double
  // equality, not a tolerance.
  const Index m_global = 48;
  const Index s = 8;
  for (SketchKind kind : kAllKinds) {
    const auto serial = sketch::make_sketch(kind, m_global, s, 0xc0ffeeULL);
    const Matrix whole = serial->realize_rows(0, m_global);
    for (int p : {1, 2, 4}) {
      pmpi::run(p, [&](pmpi::Communicator& comm) {
        const Index rows = m_global / comm.size();
        const Index off = rows * comm.rank();
        const auto local =
            sketch::make_sketch(kind, m_global, s, 0xc0ffeeULL);
        const Matrix slice = local->realize_rows(off, rows);
        for (Index r = 0; r < rows; ++r) {
          for (Index k = 0; k < s; ++k) {
            EXPECT_EQ(slice(r, k), whole(off + r, k))
                << sketch::to_string(kind) << " P=" << p << " rank "
                << comm.rank();
          }
        }
      });
    }
  }
}

TEST(SketchDistributed, ApplyMatchesSerialSketch) {
  // B = Ωᵀ A assembled from per-rank partial sketches + allreduce must
  // match the serial product for every kind and rank count.
  const Index m_global = 64;
  const Index n = 9;
  const Index s = 7;
  const Matrix a = testing::random_matrix(m_global, n, 81);
  for (SketchKind kind : kAllKinds) {
    const auto serial = sketch::make_sketch(kind, m_global, s, 0xabcULL);
    const Matrix want =
        testing::naive_matmul(serial->realize_rows(0, m_global).transposed(), a);
    for (int p : {1, 2, 4}) {
      pmpi::run(p, [&](pmpi::Communicator& comm) {
        const Index rows = m_global / comm.size();
        const Index off = rows * comm.rank();
        const auto local = sketch::make_sketch(kind, m_global, s, 0xabcULL);
        const Matrix a_local = a.block(off, 0, rows, n);
        const Matrix b =
            sketch::distributed_sketch_apply(comm, *local, a_local, off);
        ASSERT_EQ(b.rows(), s);
        ASSERT_EQ(b.cols(), n);
        // Reduce order differs across P: tolerance, not bit equality.
        expect_matrix_near(b, want, 1e-11 * static_cast<double>(m_global),
                           sketch::to_string(kind));
      });
    }
  }
}

}  // namespace
}  // namespace parsvd
