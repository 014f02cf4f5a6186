#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/rng.hpp"

namespace parsvd {

// ---------------------------------------------------------------- Vector

Vector::Vector(Index n, double value) {
  PARSVD_REQUIRE(n >= 0, "vector size must be non-negative");
  data_.assign(static_cast<std::size_t>(n), value);
}

Vector::Vector(std::initializer_list<double> values) : data_(values) {}

void Vector::resize(Index n, double value) {
  PARSVD_REQUIRE(n >= 0, "vector size must be non-negative");
  data_.resize(static_cast<std::size_t>(n), value);
}

void Vector::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

Vector Vector::head(Index n) const { return segment(0, n); }

Vector Vector::segment(Index lo, Index n) const {
  PARSVD_REQUIRE(lo >= 0 && n >= 0 && lo + n <= size(), "segment out of range");
  Vector out(n);
  std::copy_n(data_.begin() + lo, n, out.data_.begin());
  return out;
}

double Vector::norm2() const {
  // Scaled accumulation avoids overflow/underflow for extreme entries.
  double scale = 0.0, ssq = 1.0;
  for (double x : data_) {
    if (x == 0.0) continue;
    const double ax = std::fabs(x);
    if (scale < ax) {
      ssq = 1.0 + ssq * (scale / ax) * (scale / ax);
      scale = ax;
    } else {
      ssq += (ax / scale) * (ax / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

double Vector::norm_inf() const {
  double m = 0.0;
  for (double x : data_) {
    if (std::isnan(x)) return x;  // std::max would drop it
    m = std::max(m, std::fabs(x));
  }
  return m;
}

double Vector::sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

Vector& Vector::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Vector& Vector::operator+=(const Vector& other) {
  PARSVD_REQUIRE(size() == other.size(), "vector size mismatch in +=");
  for (Index i = 0; i < size(); ++i) (*this)[i] += other[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  PARSVD_REQUIRE(size() == other.size(), "vector size mismatch in -=");
  for (Index i = 0; i < size(); ++i) (*this)[i] -= other[i];
  return *this;
}

// ---------------------------------------------------------------- Matrix

Matrix::Matrix(Index rows, Index cols, double value) : rows_(rows), cols_(cols) {
  PARSVD_REQUIRE(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), value);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<Index>(rows.size());
  cols_ = rows_ > 0 ? static_cast<Index>(rows.begin()->size()) : 0;
  data_.assign(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_), 0.0);
  Index i = 0;
  for (const auto& r : rows) {
    PARSVD_REQUIRE(static_cast<Index>(r.size()) == cols_,
                   "ragged initializer list for Matrix");
    Index j = 0;
    for (double v : r) (*this)(i, j++) = v;
    ++i;
  }
}

Matrix Matrix::identity(Index n) {
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diag(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (Index i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::gaussian(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  rng.fill_gaussian(m.data(), static_cast<std::size_t>(m.size()));
  return m;
}

Vector Matrix::col(Index j) const {
  PARSVD_REQUIRE(j >= 0 && j < cols_, "column index out of range");
  Vector v(rows_);
  std::copy_n(col_data(j), rows_, v.data());
  return v;
}

Vector Matrix::row(Index i) const {
  PARSVD_REQUIRE(i >= 0 && i < rows_, "row index out of range");
  Vector v(cols_);
  for (Index j = 0; j < cols_; ++j) v[j] = (*this)(i, j);
  return v;
}

Matrix Matrix::block(Index row0, Index col0, Index nrows, Index ncols) const {
  PARSVD_REQUIRE(row0 >= 0 && col0 >= 0 && nrows >= 0 && ncols >= 0 &&
                     row0 + nrows <= rows_ && col0 + ncols <= cols_,
                 "block out of range");
  Matrix out(nrows, ncols);
  for (Index j = 0; j < ncols; ++j) {
    std::copy_n(col_data(col0 + j) + row0, nrows, out.col_data(j));
  }
  return out;
}

void Matrix::set_col(Index j, const Vector& v) {
  PARSVD_REQUIRE(j >= 0 && j < cols_, "column index out of range");
  PARSVD_REQUIRE(v.size() == rows_, "column length mismatch");
  std::copy_n(v.data(), rows_, col_data(j));
}

void Matrix::set_row(Index i, const Vector& v) {
  PARSVD_REQUIRE(i >= 0 && i < rows_, "row index out of range");
  PARSVD_REQUIRE(v.size() == cols_, "row length mismatch");
  for (Index j = 0; j < cols_; ++j) (*this)(i, j) = v[j];
}

void Matrix::set_block(Index row0, Index col0, const Matrix& m) {
  PARSVD_REQUIRE(row0 >= 0 && col0 >= 0 && row0 + m.rows() <= rows_ &&
                     col0 + m.cols() <= cols_,
                 "block target out of range");
  for (Index j = 0; j < m.cols(); ++j) {
    std::copy_n(m.col_data(j), m.rows(), col_data(col0 + j) + row0);
  }
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::resize(Index rows, Index cols, double value) {
  PARSVD_REQUIRE(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), value);
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  // Simple cache-blocked transpose.
  constexpr Index kBlock = 32;
  for (Index jb = 0; jb < cols_; jb += kBlock) {
    const Index jmax = std::min(cols_, jb + kBlock);
    for (Index ib = 0; ib < rows_; ib += kBlock) {
      const Index imax = std::min(rows_, ib + kBlock);
      for (Index j = jb; j < jmax; ++j) {
        for (Index i = ib; i < imax; ++i) {
          out(j, i) = (*this)(i, j);
        }
      }
    }
  }
  return out;
}

double Matrix::norm_fro() const { return frobenius_norm(data_); }

double frobenius_norm(std::span<const double> xs) {
  double scale = 0.0, ssq = 1.0;
  for (double x : xs) {
    if (x == 0.0) continue;
    const double ax = std::fabs(x);
    if (scale < ax) {
      ssq = 1.0 + ssq * (scale / ax) * (scale / ax);
      scale = ax;
    } else {
      ssq += (ax / scale) * (ax / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

double Matrix::norm_inf() const {
  double best = 0.0;
  for (Index i = 0; i < rows_; ++i) {
    double rowsum = 0.0;
    for (Index j = 0; j < cols_; ++j) rowsum += std::fabs((*this)(i, j));
    best = std::max(best, rowsum);
  }
  return best;
}

double Matrix::norm_max() const {
  // std::max(m, NaN) returns m, so a NaN is returned explicitly: the
  // solvers' scale and finiteness guards are built on this value.
  double m = 0.0;
  for (double x : data_) {
    if (std::isnan(x)) return x;
    m = std::max(m, std::fabs(x));
  }
  return m;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  PARSVD_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                 "shape mismatch in Matrix +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  PARSVD_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                 "shape mismatch in Matrix -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

std::string Matrix::to_string(Index max_dim) const {
  std::string out = "Matrix " + std::to_string(rows_) + "x" + std::to_string(cols_) + "\n";
  const Index show_r = std::min(rows_, max_dim);
  const Index show_c = std::min(cols_, max_dim);
  char buf[64];
  for (Index i = 0; i < show_r; ++i) {
    out += "  [";
    for (Index j = 0; j < show_c; ++j) {
      std::snprintf(buf, sizeof(buf), "%12.5g", (*this)(i, j));
      out += buf;
      if (j + 1 < show_c) out += ' ';
    }
    out += cols_ > show_c ? " ...]\n" : "]\n";
  }
  if (rows_ > show_r) out += "  ...\n";
  return out;
}

// ----------------------------------------------------------- free helpers

Matrix operator+(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out += b;
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out -= b;
  return out;
}

Matrix operator*(double s, const Matrix& a) {
  Matrix out = a;
  out *= s;
  return out;
}

Vector operator+(const Vector& a, const Vector& b) {
  Vector out = a;
  out += b;
  return out;
}

Vector operator-(const Vector& a, const Vector& b) {
  Vector out = a;
  out -= b;
  return out;
}

Vector operator*(double s, const Vector& a) {
  Vector out = a;
  out *= s;
  return out;
}

Matrix hcat(const Matrix& a, const Matrix& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  PARSVD_REQUIRE(a.rows() == b.rows(), "hcat row mismatch");
  Matrix out(a.rows(), a.cols() + b.cols());
  out.set_block(0, 0, a);
  out.set_block(0, a.cols(), b);
  return out;
}

Matrix vcat(const Matrix& a, const Matrix& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  PARSVD_REQUIRE(a.cols() == b.cols(), "vcat column mismatch");
  Matrix out(a.rows() + b.rows(), a.cols());
  out.set_block(0, 0, a);
  out.set_block(a.rows(), 0, b);
  return out;
}

Matrix hcat(const std::vector<Matrix>& blocks) {
  Matrix out;
  for (const auto& b : blocks) out = hcat(out, b);
  return out;
}

Matrix vcat(const std::vector<Matrix>& blocks) {
  Matrix out;
  for (const auto& b : blocks) out = vcat(out, b);
  return out;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  PARSVD_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                 "shape mismatch in max_abs_diff");
  double m = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (Index i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(pa[i] - pb[i]));
  return m;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  PARSVD_REQUIRE(a.size() == b.size(), "size mismatch in max_abs_diff");
  double m = 0.0;
  for (Index i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

int safe_scale_exponent(double amax) {
  if (!std::isfinite(amax) || amax == 0.0) return 0;
  if (amax >= 0x1p-200 && amax <= 0x1p200) return 0;
  int e = 0;
  std::frexp(amax, &e);  // amax = f·2^e with f in [0.5, 1)
  return e;
}

Matrix scale_by_pow2(const Matrix& a, int e) {
  Matrix out(a.rows(), a.cols());
  const double* src = a.data();
  double* dst = out.data();
  for (Index i = 0; i < a.size(); ++i) dst[i] = std::ldexp(src[i], e);
  return out;
}

}  // namespace parsvd
