#include "sketch/sketch.hpp"

#include <string>
#include <vector>

#include "linalg/blas.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace parsvd::sketch {
namespace {

// SplitMix64 finalizer — the same mixer Rng seeds through, reused here so
// the documented seed-derivation chain is one primitive end to end.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

constexpr const char* kApplySpan = "sketch.apply.dense_gaussian";

}  // namespace

std::uint64_t derive_operator_seed(std::uint64_t base_seed,
                                   std::uint64_t draw_index) {
  // Part of the pinned seed chain (Sketch.RealizationPinnedAcrossCommits):
  // changing any constant here changes every Ω the library draws.
  const std::uint64_t h = mix64(base_seed + 0x9e3779b97f4a7c15ULL);
  return mix64(h ^ (0xda942042e4dd58b5ULL * (draw_index + 1)));
}

Rng row_rng(std::uint64_t operator_seed, Index global_row) {
  PARSVD_CHECK(global_row >= 0, "row_rng row index must be non-negative");
  return Rng(mix64(operator_seed ^
                   (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(global_row) + 1))));
}

GaussianSketch::GaussianSketch(Index dim, Index sketch_dim,
                               std::uint64_t operator_seed)
    : dim_(dim), sketch_dim_(sketch_dim), seed_(operator_seed) {
  PARSVD_REQUIRE(dim > 0, "sketch operator dim must be positive");
  PARSVD_REQUIRE(sketch_dim > 0, "sketch_dim must be positive");
  obs::Registry& reg = obs::Registry::global();
  applies_ = &reg.counter("sketch.dense_gaussian.applies");
  flops_ = &reg.counter("sketch.dense_gaussian.flops");
}

void GaussianSketch::apply_right(const Matrix& a, Matrix& y) const {
  PARSVD_REQUIRE(!a.empty(), "sketch apply of an empty matrix");
  PARSVD_REQUIRE(a.cols() == dim_,
                 "sketch apply: input has " + std::to_string(a.cols()) +
                     " cols, operator dim is " + std::to_string(dim_));
  PARSVD_REQUIRE(!a.aliases(y), "sketch apply: output aliases input");
  y.resize(a.rows(), sketch_dim_);
  obs::TraceScope span(kApplySpan);
  const Matrix omega = realize_rows(0, dim_);
  gemm(Trans::No, Trans::No, 1.0, a, omega, 0.0, y);
  applies_->add(1);
  flops_->add(static_cast<std::uint64_t>(apply_flops(a.rows())));
}

Matrix GaussianSketch::apply_right(const Matrix& a) const {
  Matrix y;
  apply_right(a, y);
  return y;
}

Matrix GaussianSketch::realize_rows(Index row0, Index nrows) const {
  PARSVD_REQUIRE(row0 >= 0 && nrows > 0 && row0 + nrows <= dim_,
                 "realize_rows: row block out of range");
  Matrix block(nrows, sketch_dim_);
  std::vector<double> row(static_cast<std::size_t>(sketch_dim_));
  for (Index r = 0; r < nrows; ++r) {
    Rng rng = row_rng(seed_, row0 + r);
    rng.fill_gaussian(row.data(), row.size());
    for (Index k = 0; k < sketch_dim_; ++k) {
      block(r, k) = row[static_cast<std::size_t>(k)];
    }
  }
  return block;
}

double GaussianSketch::apply_flops(Index m) const {
  // One m x dim x sketch_dim GEMM plus the Ω draw itself.
  const double d = static_cast<double>(dim_);
  const double s = static_cast<double>(sketch_dim_);
  return 2.0 * static_cast<double>(m) * d * s + d * s;
}

}  // namespace parsvd::sketch
