// Dense column-major matrix and vector containers.
//
// This is the storage layer every factorization in linalg/ builds on.
// Conventions:
//   * column-major storage (like LAPACK) so matrix columns are contiguous —
//     the SVD library is dominated by tall-skinny matrices whose columns
//     are snapshots, and column access is the hot path;
//   * double precision is the library's only arithmetic (the paper's
//     workloads are real-valued and run in NumPy float64);
//   * element access is assert-checked in debug builds and unchecked in
//     release; all shape-changing entry points validate with exceptions.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace parsvd {

class Rng;

/// Index type used across linalg (signed arithmetic avoids size_t wrap bugs
/// in blocked loops, matching the C++ Core Guidelines' advice ES.107).
using Index = std::ptrdiff_t;

/// Dense vector of doubles with a small math-helper surface.
class Vector {
 public:
  Vector() = default;
  explicit Vector(Index n, double value = 0.0);
  Vector(std::initializer_list<double> values);

  static Vector zeros(Index n) { return Vector(n, 0.0); }
  static Vector ones(Index n) { return Vector(n, 1.0); }

  Index size() const { return static_cast<Index>(data_.size()); }
  bool empty() const { return data_.empty(); }

  double& operator[](Index i) {
    assert(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }
  double operator[](Index i) const {
    assert(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  std::span<double> span() { return {data_.data(), data_.size()}; }
  std::span<const double> span() const { return {data_.data(), data_.size()}; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  void resize(Index n, double value = 0.0);
  void fill(double value);

  /// First `n` entries as a copy.
  Vector head(Index n) const;

  /// Entries [lo, lo+n) as a copy.
  Vector segment(Index lo, Index n) const;

  double norm2() const;        ///< Euclidean norm.
  double norm_inf() const;     ///< max |x_i|; NaN if any x_i is NaN
  double sum() const;

  Vector& operator*=(double s);
  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);

 private:
  std::vector<double> data_;
};

/// Dense column-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(Index rows, Index cols, double value = 0.0);

  /// Row-major nested initializer (convenient in tests):
  /// Matrix m{{1,2},{3,4}} is [[1,2],[3,4]].
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix zeros(Index rows, Index cols) { return Matrix(rows, cols); }
  static Matrix identity(Index n);
  /// Diagonal matrix from a vector (square, n x n).
  static Matrix diag(const Vector& d);
  /// i.i.d. N(0,1) entries drawn from `rng`.
  static Matrix gaussian(Index rows, Index cols, Rng& rng);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(Index i, Index j) {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j * rows_ + i)];
  }
  double operator()(Index i, Index j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j * rows_ + i)];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// True when this matrix shares storage with `other` — the cheap O(1)
  /// overlap guard the level-3 kernels use to reject aliased outputs
  /// (an aliased C would be silently corrupted by packed accumulation).
  bool aliases(const Matrix& other) const {
    if (data_.empty() || other.data_.empty()) return false;
    const double* lo = data_.data();
    const double* hi = lo + data_.size();
    const double* olo = other.data_.data();
    const double* ohi = olo + other.data_.size();
    // std::less gives the total pointer order the raw < lacks for
    // pointers into distinct allocations.
    const std::less<const double*> lt;
    return lt(lo, ohi) && lt(olo, hi);
  }

  /// Contiguous view of column j.
  std::span<double> col_span(Index j) {
    assert(j >= 0 && j < cols_);
    return {data_.data() + static_cast<std::size_t>(j * rows_),
            static_cast<std::size_t>(rows_)};
  }
  std::span<const double> col_span(Index j) const {
    assert(j >= 0 && j < cols_);
    return {data_.data() + static_cast<std::size_t>(j * rows_),
            static_cast<std::size_t>(rows_)};
  }

  double* col_data(Index j) { return data_.data() + static_cast<std::size_t>(j * rows_); }
  const double* col_data(Index j) const {
    return data_.data() + static_cast<std::size_t>(j * rows_);
  }

  /// Copies of rows / columns / blocks (explicit copies by design: the
  /// factorizations in this library operate on owned buffers, and implicit
  /// aliasing views are the classic source of LAPACK-wrapper bugs).
  Vector col(Index j) const;
  Vector row(Index i) const;
  Matrix block(Index row0, Index col0, Index nrows, Index ncols) const;
  Matrix top_rows(Index n) const { return block(0, 0, n, cols_); }
  Matrix left_cols(Index n) const { return block(0, 0, rows_, n); }

  /// In-place writers for the same shapes.
  void set_col(Index j, const Vector& v);
  void set_row(Index i, const Vector& v);
  void set_block(Index row0, Index col0, const Matrix& m);

  void fill(double value);
  void resize(Index rows, Index cols, double value = 0.0);

  Matrix transposed() const;

  double norm_fro() const;     ///< Frobenius norm.
  double norm_inf() const;     ///< max row-sum norm.
  double norm_max() const;     ///< max |a_ij|; NaN if any a_ij is NaN

  Matrix& operator*=(double s);
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);

  /// Debug rendering (small matrices; rows truncated past `max_dim`).
  std::string to_string(Index max_dim = 8) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

/// Elementwise arithmetic (shape-checked).
Matrix operator+(const Matrix& a, const Matrix& b);
Matrix operator-(const Matrix& a, const Matrix& b);
Matrix operator*(double s, const Matrix& a);
Vector operator+(const Vector& a, const Vector& b);
Vector operator-(const Vector& a, const Vector& b);
Vector operator*(double s, const Vector& a);

/// Horizontal / vertical concatenation (the streaming update's core op).
Matrix hcat(const Matrix& a, const Matrix& b);
Matrix vcat(const Matrix& a, const Matrix& b);
Matrix hcat(const std::vector<Matrix>& blocks);
Matrix vcat(const std::vector<Matrix>& blocks);

/// Frobenius norm of the entries of `x` (scaled sum of squares, the
/// loop Matrix::norm_fro runs over its storage).
double frobenius_norm(std::span<const double> x);

/// Max elementwise |a - b|; requires equal shapes.
double max_abs_diff(const Matrix& a, const Matrix& b);
double max_abs_diff(const Vector& a, const Vector& b);

/// Scale guard of the dense SVD backends (LAPACK's dlascl idea). Their
/// squared and fourth-power intermediates (Golub–Kahan's Wilkinson shift,
/// the method-of-snapshots Gram) over- or underflow far from unit scale. Given amax = max |a_ij|,
/// returns the exponent e such that 2^-e·a has max |a_ij| in [0.5, 1)
/// when amax lies outside [2^-200, 2^200], and 0 otherwise (also for a
/// zero or non-finite amax), so inputs inside that range are untouched.
int safe_scale_exponent(double amax);

/// 2^e·a, entry by entry. Exact wherever the result stays normal, which
/// is what makes the scale guard above free of rounding.
Matrix scale_by_pow2(const Matrix& a, int e);

}  // namespace parsvd
