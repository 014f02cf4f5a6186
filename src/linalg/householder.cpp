#include "linalg/householder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "linalg/autotune.hpp"
#include "linalg/blas.hpp"
#include "linalg/gemm_engine.hpp"

namespace parsvd::detail {

Reflector make_reflector(double alpha, std::span<double> tail) {
  double xnorm = nrm2(tail);
  if (xnorm == 0.0) {
    // Nothing below the diagonal: identity reflector.
    return {0.0, alpha};
  }
  double beta = std::hypot(alpha, xnorm);
  if (alpha >= 0.0) beta = -beta;  // choose sign to avoid cancellation
  // LAPACK dlarfg's guard: once |beta| is tiny, 1/(alpha - beta) can
  // overflow (it does when alpha - beta is subnormal). Scale x by an exact
  // power of two into range, build the reflector there (tau and v are
  // scale-free), and scale only beta back.
  const int e = safe_scale_exponent(std::fabs(beta));
  if (e < 0) {
    alpha = std::ldexp(alpha, -e);
    for (double& x : tail) x = std::ldexp(x, -e);
    xnorm = nrm2(tail);
    beta = std::hypot(alpha, xnorm);
    if (alpha >= 0.0) beta = -beta;
  }
  const double tau = (beta - alpha) / beta;
  scal(1.0 / (alpha - beta), tail);
  return {tau, (e < 0) ? std::ldexp(beta, e) : beta};
}

void apply_reflector(double tau, const double* v_tail, double* c, Index j,
                     Index m) {
  const auto len = static_cast<std::size_t>(m - j - 1);
  const double w = tau * (c[j] + dot_kernel(v_tail, c + j + 1, len));
  c[j] -= w;
  axpy(-w, std::span<const double>(v_tail, len), std::span<double>(c + j + 1, len));
}

PanelV panel_v(const Matrix& v, Index j0, Index jb, Index end, Index shift) {
  const Index row0 = j0 + shift;
  Matrix top(jb, jb);
  for (Index jj = 0; jj < jb; ++jj) {
    top(jj, jj) = 1.0;
    const double* col = v.col_data(j0 + jj) + row0;
    for (Index r = jj + 1; r < jb; ++r) top(r, jj) = col[r];
  }
  return {std::move(top), v.col_data(j0) + row0 + jb, end - row0 - jb, v.rows()};
}

void triangular_left(const Matrix& t, bool transpose, Matrix& w) {
  const Index jb = t.rows();
  for (Index col = 0; col < w.cols(); ++col) {
    double* wc = w.col_data(col);
    if (transpose) {
      // (Tᵀ W)_i = Σ_{l<=i} T(l,i) W_l; descending i keeps inputs intact.
      for (Index i = jb - 1; i >= 0; --i) {
        double s = 0.0;
        for (Index l = 0; l <= i; ++l) s += t(l, i) * wc[l];
        wc[i] = s;
      }
    } else {
      // (T W)_i = Σ_{l>=i} T(i,l) W_l; ascending i keeps inputs intact.
      for (Index i = 0; i < jb; ++i) {
        double s = 0.0;
        for (Index l = i; l < jb; ++l) s += t(i, l) * wc[l];
        wc[i] = s;
      }
    }
  }
}

namespace {

// y += S x over the columns [c0, p) of the symmetric p x p block S whose
// lower triangle starts at s, one column per pass.
void symv_lower_columns(Index c0, Index p, const double* s, Index ld,
                        const double* x, double* y) {
  for (Index c = c0; c < p; ++c) {
    const double* sc = s + c * ld;
    double dot = sc[c] * x[c];
    for (Index r = c + 1; r < p; ++r) {
      dot += sc[r] * x[r];
      y[r] += sc[r] * x[c];
    }
    y[c] += dot;
  }
}

// The WY algebra's products with the reflectors V (tall, at most a panel
// wide) come in two shapes the packed engine serves poorly, because it
// packs a whole tall operand for a few outputs: Vᵀ·B with a small output
// (T's VᵀV, the recursion's V1ᵀV2, W = VᵀC for a narrow C) and C -= V·W
// of rank at most a panel. Both run here unpacked, with register tiles
// streaming straight down the columns. Products below the engine's own
// packing threshold keep its unpacked loop.
#ifdef PARSVD_GEMM_VECTOR_EXT
using detail::VecD8;

VecD8 load8(const double* p) {
  VecD8 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// C(TI x TJ tile) += A(:, 0:TI)ᵀ B(:, 0:TJ) over k rows: eight partial
// sums per entry, combined in a fixed order.
template <int TI, int TJ>
void tn_tile(Index k, const double* a, Index lda, const double* b, Index ldb,
             double* c, Index ldc) {
  VecD8 acc[TI][TJ] = {};
  Index p = 0;
  for (; p + 8 <= k; p += 8) {
    VecD8 av[TI], bv[TJ];
    for (int i = 0; i < TI; ++i) av[i] = load8(a + i * lda + p);
    for (int j = 0; j < TJ; ++j) bv[j] = load8(b + j * ldb + p);
    for (int i = 0; i < TI; ++i) {
      for (int j = 0; j < TJ; ++j) acc[i][j] += av[i] * bv[j];
    }
  }
  for (int i = 0; i < TI; ++i) {
    for (int j = 0; j < TJ; ++j) {
      double s = 0.0;
      for (int l = 0; l < 8; ++l) s += acc[i][j][l];
      for (Index q = p; q < k; ++q) s += a[i * lda + q] * b[j * ldb + q];
      c[i + j * ldc] += s;
    }
  }
}

template <int TI>
void tn_tiles(Index tj, Index k, const double* a, Index lda, const double* b,
              Index ldb, double* c, Index ldc) {
  switch (tj) {
    case 4: tn_tile<TI, 4>(k, a, lda, b, ldb, c, ldc); break;
    case 3: tn_tile<TI, 3>(k, a, lda, b, ldb, c, ldc); break;
    case 2: tn_tile<TI, 2>(k, a, lda, b, ldb, c, ldc); break;
    default: tn_tile<TI, 1>(k, a, lda, b, ldb, c, ldc); break;
  }
}

// C(:, 0:TJ) -= A B(:, 0:TJ) for A m x k: 16-row strips of C stay in
// registers while A streams past once per strip.
template <int TJ>
void nn_sub_cols(Index m, Index k, const double* a, Index lda, const double* b,
                 Index ldb, double* c, Index ldc) {
  Index i = 0;
  for (; i + 16 <= m; i += 16) {
    VecD8 lo[TJ], hi[TJ];
    for (int j = 0; j < TJ; ++j) {
      lo[j] = load8(c + i + j * ldc);
      hi[j] = load8(c + i + 8 + j * ldc);
    }
    for (Index l = 0; l < k; ++l) {
      const VecD8 a0 = load8(a + i + l * lda);
      const VecD8 a1 = load8(a + i + 8 + l * lda);
      for (int j = 0; j < TJ; ++j) {
        const double blj = b[l + j * ldb];
        lo[j] -= a0 * blj;
        hi[j] -= a1 * blj;
      }
    }
    for (int j = 0; j < TJ; ++j) {
      std::memcpy(c + i + j * ldc, &lo[j], sizeof lo[j]);
      std::memcpy(c + i + 8 + j * ldc, &hi[j], sizeof hi[j]);
    }
  }
  for (; i < m; ++i) {
    for (int j = 0; j < TJ; ++j) {
      double s = c[i + j * ldc];
      for (Index l = 0; l < k; ++l) s -= a[i + l * lda] * b[l + j * ldb];
      c[i + j * ldc] = s;
    }
  }
}
// y(p) += S x for the symmetric p x p block S whose lower triangle starts
// at s: four columns per pass, each feeding both its dot into y_c and its
// axpy into y below the 4 x 4 diagonal block, so x and y stream through
// registers once per four columns.
void symv_lower_tiles(Index p, const double* s, Index ld, const double* x,
                      double* y) {
  constexpr int kCols = 4;
  Index c = 0;
  for (; c + kCols <= p; c += kCols) {
    const double* sc[kCols];
    double xc[kCols];
    double diag[kCols] = {};
    for (int q = 0; q < kCols; ++q) {
      sc[q] = s + (c + q) * ld;
      xc[q] = x[c + q];
    }
    // The diagonal block's lower triangle, mirrored.
    for (int q = 0; q < kCols; ++q) {
      diag[q] += sc[q][c + q] * xc[q];
      for (int r = q + 1; r < kCols; ++r) {
        diag[q] += sc[q][c + r] * xc[r];
        diag[r] += sc[q][c + r] * xc[q];
      }
    }
    VecD8 acc[kCols] = {};
    Index r = c + kCols;
    for (; r + 8 <= p; r += 8) {
      const VecD8 xr = load8(x + r);
      VecD8 yr = load8(y + r);
      for (int q = 0; q < kCols; ++q) {
        const VecD8 u = load8(sc[q] + r);
        acc[q] += u * xr;
        yr += u * xc[q];
      }
      std::memcpy(y + r, &yr, sizeof yr);
    }
    double rest[kCols] = {};
    for (; r < p; ++r) {
      double yr = y[r];
      for (int q = 0; q < kCols; ++q) {
        rest[q] += sc[q][r] * x[r];
        yr += sc[q][r] * xc[q];
      }
      y[r] = yr;
    }
    for (int q = 0; q < kCols; ++q) {
      double dot = 0.0;
      for (int l = 0; l < 8; ++l) dot += acc[q][l];
      y[c + q] += diag[q] + (dot + rest[q]);
    }
  }
  symv_lower_columns(c, p, s, ld, x, y);
}
#endif  // PARSVD_GEMM_VECTOR_EXT

// Outputs up to this many entries take the unpacked Vᵀ·B kernel.
constexpr Index kTnMaxOutputs = 64 * 64;

// C(m x n, ldc) -= A B for A (m x k, lda), the reflectors, and B (k x n,
// ldb).
void sub_v_times(Index m, Index n, Index k, const double* a, Index lda,
                 const double* b, Index ldb, double* c, Index ldc) {
#ifdef PARSVD_GEMM_VECTOR_EXT
  if (m * n * k >= kGemmPackThreshold) {
    for (Index j = 0; j < n; j += 4) {
      const double* bj = b + j * ldb;
      double* cj = c + j * ldc;
      switch (std::min<Index>(4, n - j)) {
        case 4: nn_sub_cols<4>(m, k, a, lda, bj, ldb, cj, ldc); break;
        case 3: nn_sub_cols<3>(m, k, a, lda, bj, ldb, cj, ldc); break;
        case 2: nn_sub_cols<2>(m, k, a, lda, bj, ldb, cj, ldc); break;
        default: nn_sub_cols<1>(m, k, a, lda, bj, ldb, cj, ldc); break;
      }
    }
    return;
  }
#endif
  detail::gemm_accumulate(Trans::No, Trans::No, m, n, k, -1.0, a, lda, b, ldb,
                          c, ldc);
}

}  // namespace

void gemv_t(Index p, Index k, const double* a, Index lda, const double* x,
            double* y) {
#ifdef PARSVD_GEMM_VECTOR_EXT
  Index q = 0;
  for (; q + 4 <= k; q += 4) tn_tiles<4>(1, p, a + q * lda, lda, x, p, y + q, k);
  for (; q < k; ++q) tn_tiles<1>(1, p, a + q * lda, lda, x, p, y + q, k);
#else
  detail::gemm_accumulate(Trans::Yes, Trans::No, k, 1, p, 1.0, a, lda, x, p, y, k);
#endif
}

void gemv_sub(Index p, Index k, const double* a, Index lda, const double* t,
              double* y) {
#ifdef PARSVD_GEMM_VECTOR_EXT
  nn_sub_cols<1>(p, k, a, lda, t, k, y, p);
#else
  detail::gemm_accumulate(Trans::No, Trans::No, p, 1, k, -1.0, a, lda, t, k, y, p);
#endif
}

void symv_lower(Index p, const double* s, Index ld, const double* x, double* y) {
#ifdef PARSVD_GEMM_VECTOR_EXT
  symv_lower_tiles(p, s, ld, x, y);
#else
  symv_lower_columns(0, p, s, ld, x, y);
#endif
}

void vt_times(Index m, Index n, Index k, const double* a, Index lda,
              const double* b, Index ldb, double* c, Index ldc) {
#ifdef PARSVD_GEMM_VECTOR_EXT
  if (m * n <= kTnMaxOutputs && m * n * k >= kGemmPackThreshold) {
    for (Index j = 0; j < n; j += 4) {
      const Index tj = std::min<Index>(4, n - j);
      Index i = 0;
      for (; i + 4 <= m; i += 4) {
        tn_tiles<4>(tj, k, a + i * lda, lda, b + j * ldb, ldb, c + i + j * ldc, ldc);
      }
      for (; i < m; ++i) {
        tn_tiles<1>(tj, k, a + i * lda, lda, b + j * ldb, ldb, c + i + j * ldc, ldc);
      }
    }
    return;
  }
#endif
  detail::gemm_accumulate(Trans::Yes, Trans::No, m, n, k, 1.0, a, lda, b, ldb,
                          c, ldc);
}

void vt_times_upper(Index n, Index k, const double* a, Index lda,
                    const double* b, Index ldb, double* c, Index ldc) {
#ifdef PARSVD_GEMM_VECTOR_EXT
  if (n * n <= kTnMaxOutputs && n * n * k >= kGemmPackThreshold) {
    for (Index j = 0; j < n; j += 4) {
      const Index tj = std::min<Index>(4, n - j);
      const Index rows = j + tj - 1;  // rows with an entry above the diagonal
      Index i = 0;
      for (; i + 4 <= n && i < rows; i += 4) {
        tn_tiles<4>(tj, k, a + i * lda, lda, b + j * ldb, ldb, c + i + j * ldc, ldc);
      }
      for (; i < rows; ++i) {
        tn_tiles<1>(tj, k, a + i * lda, lda, b + j * ldb, ldb, c + i + j * ldc, ldc);
      }
    }
    return;
  }
#endif
  if (n * n * k >= kGemmPackThreshold) {  // the packed engine's, whole
    vt_times(n, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // The engine's unpacked loop (gemm_small_serial) over rows i < j only.
  for (Index j = 1; j < n; ++j) {
    double* cj = c + j * ldc;
    for (Index p = 0; p < k; ++p) {
      const double bpj = b[p + j * ldb];
      if (bpj == 0.0) continue;
      for (Index i = 0; i < j; ++i) cj[i] += bpj * a[p + i * lda];
    }
  }
}


void apply_wy(const PanelV& v, const Matrix& t, bool transpose, double* c,
              Index ldc, Index nc) {
  const Index jb = v.top.rows();
  if (nc == 0) return;

  // W = Vᵀ C = V1ᵀ C1 + V2ᵀ C2  (jb x nc), with C1 the top jb rows of C.
  Matrix w(jb, nc);
  vt_times(jb, nc, jb, v.top.data(), jb, c, ldc, w.data(), jb);
  vt_times(jb, nc, v.dense_rows, v.dense, v.ld, c + jb, ldc, w.data(), jb);
  triangular_left(t, transpose, w);
  // C -= V W, i.e. C1 -= V1 W and C2 -= V2 W.
  sub_v_times(jb, nc, jb, v.top.data(), jb, w.data(), jb, c, ldc);
  sub_v_times(v.dense_rows, nc, jb, v.dense, v.ld, w.data(), jb, c + jb, ldc);
}

Matrix build_t(const PanelV& v, std::span<const double> tau) {
  // Growing T so that H_0 ... H_{i} = I - V(:,0:i+1) T(0:i+1,0:i+1)
  // V(:,0:i+1)ᵀ with T(0:i, i) = -tau_i T(0:i,0:i) (V(:,0:i)ᵀ v_i),
  // T(i,i) = tau_i. Every V(:,0:i)ᵀ v_i is a column of VᵀV's strict upper
  // triangle, so all of them come from one VᵀV = V1ᵀV1 + V2ᵀV2, formed
  // only as far as that triangle reaches.
  const Index jb = v.top.rows();
  Matrix vtv(jb, jb);
  vt_times_upper(jb, jb, v.top.data(), jb, v.top.data(), jb, vtv.data(), jb);
  vt_times_upper(jb, v.dense_rows, v.dense, v.ld, v.dense, v.ld, vtv.data(), jb);
  Matrix t(jb, jb);
  for (Index i = 0; i < jb; ++i) {
    const double taui = tau[static_cast<std::size_t>(i)];
    if (taui == 0.0) continue;  // identity reflector: column stays zero
    t(i, i) = taui;
    for (Index l = 0; l < i; ++l) {
      double s = 0.0;
      for (Index p = l; p < i; ++p) s += t(l, p) * vtv(p, i);
      t(l, i) = -taui * s;
    }
  }
  return t;
}

void apply_reflectors_backward(const Matrix& v, std::span<const double> tau,
                               Index shift, Matrix& c, Index block) {
  // Only reflectors whose unit row lies inside C; the ones past it carry
  // tau = 0 by contract.
  const Index m = c.rows();
  const Index k = std::min(static_cast<Index>(tau.size()), m - shift);
  if (block <= 1 || k < autotune::kReductionCrossover || c.cols() < block) {
    for (Index j = k - 1; j >= 0; --j) {
      const double t = tau[static_cast<std::size_t>(j)];
      if (t == 0.0) continue;
      const double* tail = v.col_data(j) + j + shift + 1;
      for (Index q = 0; q < c.cols(); ++q) {
        apply_reflector(t, tail, c.col_data(q), j + shift, m);
      }
    }
    return;
  }
  // Q C = Q_0 (Q_1 (⋯ (Q_last C))): panels last to first, each one
  // I - V T Vᵀ acting on C's rows from its first unit row down.
  for (Index j0 = ((k - 1) / block) * block; j0 >= 0; j0 -= block) {
    const Index jb = std::min(block, k - j0);
    const PanelV pv = panel_v(v, j0, jb, m, shift);
    const Matrix t = build_t(pv, tau.subspan(static_cast<std::size_t>(j0),
                                             static_cast<std::size_t>(jb)));
    apply_wy(pv, t, /*transpose=*/false, c.data() + j0 + shift, m, c.cols());
  }
}

Givens make_givens(double a, double b) {
  if (b == 0.0) return {1.0, 0.0, a};
  if (a == 0.0) return {0.0, 1.0, b};
  const double big = std::max(std::fabs(a), std::fabs(b));
  const double r = (big > 0x1p-480 && big < 0x1p480) ? std::sqrt(a * a + b * b)
                                                     : std::hypot(a, b);
  return {a / r, b / r, r};
}

void RotationLog::unwind(Matrix& y) {
  const Index rows = y.rows();
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    // Gᵀ on columns (j, k): the rotation with (c, -s).
    double* pj = y.col_data(it->j);
    double* pk = y.col_data(it->k);
    const double c = it->c, s = it->s;
    for (Index i = 0; i < rows; ++i) {
      const double xj = pj[i], xk = pk[i];
      pj[i] = c * xj - s * xk;
      pk[i] = s * xj + c * xk;
    }
  }
  entries_ = {};
}

}  // namespace parsvd::detail
