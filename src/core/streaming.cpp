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
  PARSVD_REQUIRE(opts_.row_weights.size() == batch.rows(),
                 "row_weights length must match the batch row count");
  Matrix scaled = batch;
  for (Index j = 0; j < scaled.cols(); ++j) {
    double* col = scaled.col_data(j);
    for (Index i = 0; i < scaled.rows(); ++i) {
      col[i] *= std::sqrt(opts_.row_weights[i]);
    }
  }
  return scaled;
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
