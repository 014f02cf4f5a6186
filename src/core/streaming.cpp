#include "core/streaming.hpp"

#include <algorithm>
#include <cmath>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"

namespace parsvd {

SvdBase::SvdBase(StreamingOptions opts) : opts_(opts) { opts_.validate(); }

Matrix SvdBase::apply_row_weights(const Matrix& batch) const {
  if (opts_.row_weights.empty()) return batch;
  Matrix scaled(batch.rows(), batch.cols());
  write_row_weighted(batch, scaled, 0);
  return scaled;
}

void SvdBase::write_row_weighted(const Matrix& batch, Matrix& out,
                                 Index col0) const {
  PARSVD_REQUIRE(out.rows() == batch.rows() && col0 + batch.cols() <= out.cols(),
                 "weighted batch does not fit its destination");
  const auto rows = static_cast<std::size_t>(batch.rows());
  if (opts_.row_weights.empty()) {
    std::copy(batch.data(), batch.data() + rows * static_cast<std::size_t>(batch.cols()),
              out.col_data(col0));
    return;
  }
  PARSVD_REQUIRE(opts_.row_weights.size() == batch.rows(),
                 "row_weights length must match the batch row count");
  for (Index j = 0; j < batch.cols(); ++j) {
    const double* src = batch.col_data(j);
    double* dst = out.col_data(col0 + j);
    for (Index i = 0; i < batch.rows(); ++i) {
      dst[i] = src[i] * std::sqrt(opts_.row_weights[i]);
    }
  }
}

Matrix SvdBase::remove_row_weights(const Matrix& modes) const {
  if (opts_.row_weights.empty()) return modes;
  PARSVD_REQUIRE(opts_.row_weights.size() == modes.rows(),
                 "row_weights length must match the mode row count");
  Matrix physical = modes;
  for (Index j = 0; j < physical.cols(); ++j) {
    double* col = physical.col_data(j);
    for (Index i = 0; i < physical.rows(); ++i) {
      col[i] /= std::sqrt(opts_.row_weights[i]);
    }
  }
  return physical;
}

Matrix SvdBase::physical_modes() { return remove_row_weights(modes_); }

Matrix SvdBase::project(const Matrix& batch) {
  require_initialized();
  // In √w space: C = modes_ᵀ (√w ∘ B) = Φᵀ W B, since Φ = W^{-1/2} modes_.
  return matmul(modes_, apply_row_weights(batch), Trans::Yes, Trans::No);
}

Matrix SvdBase::reconstruct(const Matrix& coefficients) const {
  PARSVD_REQUIRE(initialized_, "initialize() must be called first");
  PARSVD_REQUIRE(coefficients.rows() == modes_.cols(),
                 "coefficient rows must equal the retained mode count");
  return remove_row_weights(matmul(modes_, coefficients));
}

SerialStreamingSVD::SerialStreamingSVD(StreamingOptions opts)
    : SvdBase(std::move(opts)), rng_(opts_.randomized.seed) {}

SvdResult SerialStreamingSVD::inner_svd(const Matrix& a, Index rank) {
  if (opts_.low_rank) {
    RandomizedOptions ropts = opts_.randomized;
    ropts.rank = std::min(rank, std::min(a.rows(), a.cols()));
    return randomized_svd(a, ropts, rng_);
  }
  SvdOptions sopts;
  sopts.rank = std::min(rank, std::min(a.rows(), a.cols()));
  return svd(a, sopts);
}

void SerialStreamingSVD::initialize(const Matrix& batch) {
  PARSVD_REQUIRE(!initialized_, "initialize() called twice");
  PARSVD_REQUIRE(!batch.empty(), "empty initial batch");
  num_rows_ = batch.rows();

  // I1-I2 of Algorithm 1: QR of the first batch, SVD of the small R,
  // lift U through Q. Weighted problems run on the √w-scaled data.
  QrResult qr = qr_thin(apply_row_weights(batch));
  const Index keep = std::min(opts_.num_modes, std::min(batch.rows(), batch.cols()));
  SvdResult f = inner_svd(qr.r, keep);
  modes_ = matmul(qr.q, f.u.left_cols(keep));
  singular_values_ = f.s.head(keep);
  snapshots_seen_ = batch.cols();
  initialized_ = true;
}

void SerialStreamingSVD::incorporate_data(const Matrix& batch) {
  require_initialized();
  PARSVD_REQUIRE(batch.rows() == num_rows_,
                 "batch row count differs from the initialized problem");
  PARSVD_REQUIRE(batch.cols() > 0, "empty streaming batch");
  ++iteration_;
  snapshots_seen_ += batch.cols();

  // Step 1: concatenate the discounted running factorization with the
  // new snapshots and re-factor: [ff·U Σ | A_i] = U' D'.
  Matrix m_ap = modes_;
  for (Index j = 0; j < m_ap.cols(); ++j) {
    scal(opts_.forget_factor * singular_values_[j], m_ap.col_span(j));
  }
  const Matrix concat = hcat(m_ap, apply_row_weights(batch));
  QrResult qr = qr_thin(concat);

  // Steps 2-5: SVD of the small D', keep the leading K triplets, rotate
  // the Q basis onto them.
  const Index keep =
      std::min(opts_.num_modes, std::min(qr.r.rows(), qr.r.cols()));
  SvdResult f = inner_svd(qr.r, keep);
  modes_ = matmul(qr.q, f.u.left_cols(keep));
  singular_values_ = f.s.head(keep);
}

}  // namespace parsvd
