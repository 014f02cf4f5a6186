// Packed GEMM engine.
//
// BLIS-style packing/blocking machinery, templated on the element type
// (only fp64 is instantiated): op(A) macro-panels (MC x KC) and op(B)
// macro-panels (KC x NC) are packed into contiguous, transpose-resolved,
// zero-padded buffers, and an MR x NR register-tiled micro-kernel
// accumulates C tiles over the full KC depth before touching memory.
//
// The micro tile (MR, NR) is a compile-time template parameter so the
// accumulators live in registers; the cache blocks (MC, KC, NC) are
// passed in. blas.cpp instantiates the one 8x6 kernel with the constant
// blocking of linalg/autotune.hpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/autotune.hpp"
#include "linalg/matrix.hpp"

namespace parsvd::detail {

/// Element (r, c) of op(M) lives at data[r * stride_row + c * stride_col].
template <typename T>
struct OpViewT {
  const T* data;
  Index stride_row;
  Index stride_col;

  T at(Index r, Index c) const { return data[r * stride_row + c * stride_col]; }
  OpViewT shifted_cols(Index c0) const {
    return {data + c0 * stride_col, stride_row, stride_col};
  }
};

template <typename T>
OpViewT<T> make_op_view(const T* data, Index ld, bool transposed) {
  if (!transposed) return {data, 1, ld};
  return {data, ld, 1};
}

inline Index engine_round_up(Index v, Index to) { return (v + to - 1) / to * to; }

// Pack op(A)(i0:i0+mc, p0:p0+kc) into MR-wide micro-panels with alpha
// folded in; short edge panels are zero-padded so the micro-kernel never
// needs a bounds check on its accumulate loop.
template <typename T, int MR>
void pack_a_panel(const OpViewT<T>& a, Index i0, Index mc, Index p0, Index kc,
                  T alpha, T* buf) {
  for (Index i = 0; i < mc; i += MR) {
    const Index mr = std::min<Index>(MR, mc - i);
    if (a.stride_row == 1 && mr == MR && alpha == T(1)) {
      // op(A) columns are contiguous: straight MR-element copies.
      const T* src = a.data + (i0 + i) + p0 * a.stride_col;
      for (Index p = 0; p < kc; ++p) {
        T* dst = buf + p * MR;
        const T* col = src + p * a.stride_col;
        for (Index r = 0; r < MR; ++r) dst[r] = col[r];
      }
    } else {
      for (Index p = 0; p < kc; ++p) {
        T* dst = buf + p * MR;
        for (Index r = 0; r < mr; ++r) dst[r] = alpha * a.at(i0 + i + r, p0 + p);
        for (Index r = mr; r < MR; ++r) dst[r] = T(0);
      }
    }
    buf += kc * MR;
  }
}

// Pack op(B)(p0:p0+kc, j0:j0+nc) into NR-wide micro-panels (zero-padded
// on the column edge).
template <typename T, int NR>
void pack_b_panel(const OpViewT<T>& b, Index p0, Index kc, Index j0, Index nc,
                  T* buf) {
  for (Index j = 0; j < nc; j += NR) {
    const Index nr = std::min<Index>(NR, nc - j);
    for (Index p = 0; p < kc; ++p) {
      T* dst = buf + p * NR;
      for (Index c = 0; c < nr; ++c) dst[c] = b.at(p0 + p, j0 + j + c);
      for (Index c = nr; c < NR; ++c) dst[c] = T(0);
    }
    buf += kc * NR;
  }
}

// C(mr x nr tile at `c`, leading dim ldc) += A-panel * B-panel over depth
// kc. The accumulate loop always runs the full tile (padding makes the
// extra lanes harmless); only the store is edge-bounded.
#if defined(__GNUC__) || defined(__clang__)
#define PARSVD_GEMM_VECTOR_EXT 1

// One packed-A micro-row as a GCC/Clang generic vector. The byte width is
// a template-independent literal per specialization because gcc rejects
// dependent expressions in vector_size; alignment matches the scalar so
// loads stay unaligned-safe. The compiler lowers each row to the widest
// SIMD the target arch offers.
template <typename T, int MR>
struct MicroRowOf;  // only the specialized (T, MR) pairs have kernels

typedef double VecD8 __attribute__((vector_size(64), aligned(8)));

template <> struct MicroRowOf<double, 8> { using type = VecD8; };

// Accumulators are eight explicitly named locals (NR <= 8) rather than an
// array: gcc 12 will not promote an indexed accumulator array out of
// memory, and the register-resident formulation is worth ~15x over the
// portable loop below. `if constexpr` dead-strips the unused tail.
template <typename T, int MR, int NR>
void micro_kernel(Index kc, const T* a_panel, const T* b_panel, T* c,
                  Index ldc, Index mr, Index nr) {
  static_assert(NR >= 1 && NR <= 8, "micro kernel is hand-unrolled to 8");
  using MicroRow = typename MicroRowOf<T, MR>::type;
  MicroRow acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
  MicroRow acc4 = {}, acc5 = {}, acc6 = {}, acc7 = {};
  for (Index p = 0; p < kc; ++p) {
    const MicroRow a = *reinterpret_cast<const MicroRow*>(a_panel + p * MR);
    const T* b = b_panel + p * NR;
    acc0 += a * b[0];
    if constexpr (NR > 1) acc1 += a * b[1];
    if constexpr (NR > 2) acc2 += a * b[2];
    if constexpr (NR > 3) acc3 += a * b[3];
    if constexpr (NR > 4) acc4 += a * b[4];
    if constexpr (NR > 5) acc5 += a * b[5];
    if constexpr (NR > 6) acc6 += a * b[6];
    if constexpr (NR > 7) acc7 += a * b[7];
  }
  const MicroRow acc[8] = {acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7};
  if (mr == MR && nr == NR) {
    for (Index j = 0; j < NR; ++j) {
      T* cj = c + j * ldc;
      for (Index i = 0; i < MR; ++i) cj[i] += acc[j][i];
    }
  } else {
    for (Index j = 0; j < nr; ++j) {
      T* cj = c + j * ldc;
      for (Index i = 0; i < mr; ++i) cj[i] += acc[j][i];
    }
  }
}
#else
template <typename T, int MR, int NR>
void micro_kernel(Index kc, const T* a_panel, const T* b_panel, T* c,
                  Index ldc, Index mr, Index nr) {
  T acc[NR][MR] = {};
  for (Index p = 0; p < kc; ++p) {
    const T* a = a_panel + p * MR;
    const T* b = b_panel + p * NR;
    for (Index j = 0; j < NR; ++j) {
      const T bj = b[j];
      for (Index i = 0; i < MR; ++i) acc[j][i] += a[i] * bj;
    }
  }
  if (mr == MR && nr == NR) {
    for (Index j = 0; j < NR; ++j) {
      T* cj = c + j * ldc;
      for (Index i = 0; i < MR; ++i) cj[i] += acc[j][i];
    }
  } else {
    for (Index j = 0; j < nr; ++j) {
      T* cj = c + j * ldc;
      for (Index i = 0; i < mr; ++i) cj[i] += acc[j][i];
    }
  }
}
#endif  // PARSVD_GEMM_VECTOR_EXT

// Serial packed driver over one contiguous column range of C:
// C(m x n, ldc) += alpha * va(m x k) * vb(k x n).
template <typename T, int MR, int NR>
void gemm_packed_serial(const OpViewT<T>& va, const OpViewT<T>& vb, Index m,
                        Index n, Index k, T alpha, T* c, Index ldc,
                        const autotune::Blocking& blk) {
  const Index mc_max = std::min(engine_round_up(m, MR), blk.mc);
  const Index nc_max = std::min(engine_round_up(n, NR), blk.nc);
  const Index kc_max = std::min(k, blk.kc);
  std::vector<T> apack(static_cast<std::size_t>(mc_max * kc_max));
  std::vector<T> bpack(static_cast<std::size_t>(nc_max * kc_max));

  for (Index jc = 0; jc < n; jc += blk.nc) {
    const Index nc = std::min(blk.nc, n - jc);
    for (Index pc = 0; pc < k; pc += blk.kc) {
      const Index kc = std::min(blk.kc, k - pc);
      pack_b_panel<T, NR>(vb, pc, kc, jc, nc, bpack.data());
      for (Index ic = 0; ic < m; ic += blk.mc) {
        const Index mc = std::min(blk.mc, m - ic);
        pack_a_panel<T, MR>(va, ic, mc, pc, kc, alpha, apack.data());
        for (Index jr = 0; jr < nc; jr += NR) {
          const Index nr = std::min<Index>(NR, nc - jr);
          const T* bp = bpack.data() + (jr / NR) * kc * NR;
          for (Index ir = 0; ir < mc; ir += MR) {
            const Index mr = std::min<Index>(MR, mc - ir);
            const T* ap = apack.data() + (ir / MR) * kc * MR;
            micro_kernel<T, MR, NR>(kc, ap, bp,
                                    c + (ic + ir) + (jc + jr) * ldc, ldc, mr,
                                    nr);
          }
        }
      }
    }
  }
}

// Unpacked fallback for tiny products where packing/allocation overhead
// would dominate (streaming updates issue many single-digit-size GEMMs).
template <typename T>
void gemm_small_serial(const OpViewT<T>& va, const OpViewT<T>& vb, Index m,
                       Index n, Index k, T alpha, T* c, Index ldc) {
  for (Index j = 0; j < n; ++j) {
    T* cj = c + j * ldc;
    for (Index p = 0; p < k; ++p) {
      const T bpj = alpha * vb.at(p, j);
      if (bpj == T(0)) continue;
      const T* arow = va.data + p * va.stride_col;
      if (va.stride_row == 1) {
        for (Index i = 0; i < m; ++i) cj[i] += bpj * arow[i];
      } else {
        for (Index i = 0; i < m; ++i) cj[i] += bpj * arow[i * va.stride_row];
      }
    }
  }
}

}  // namespace parsvd::detail
