#include "linalg/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/kernel_table.h"

namespace fasea {

namespace {

// Each width-sensitive kernel below is one template over the lane count W
// (doubles per register). A tier instantiates it inside a wrapper whose
// target attribute names its instruction set; the bodies are always
// inlined, so they compile for that wrapper's registers and nothing of
// them is shared between tiers.
#define FASEA_KERNEL_INLINE [[gnu::always_inline]] inline

// W doubles as a GCC/Clang generic vector (W = 1: a plain double).
// Explicit vectors keep the -O3 loop vectorizer off the tile's k-loop
// (it adds lane shuffles).
template <std::size_t W>
struct LaneOf {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};
template <>
struct LaneOf<1> {
  using type = double;
};
template <std::size_t W>
using Lane = typename LaneOf<W>::type;

// One R-row register tile of c += a · b (a has row stride kdim, b and c
// row stride n) covering P·W columns. It is loaded once, adds its k-terms
// in sequential k-order — each b vector feeds all R rows — and is stored
// once, so every lane rounds exactly like the scalar triple loop.
template <std::size_t W, std::size_t R, std::size_t P>
FASEA_KERNEL_INLINE void Tile(const double* FASEA_RESTRICT a,
                              const double* FASEA_RESTRICT b,
                              std::size_t kdim, std::size_t n,
                              double* FASEA_RESTRICT c) {
  using V = Lane<W>;
  constexpr std::size_t T = R * P;
  V acc[T];
#pragma GCC unroll 16
  for (std::size_t t = 0; t < T; ++t) {
    std::memcpy(&acc[t], c + t / P * n + t % P * W, sizeof(V));
  }
  for (std::size_t k = 0; k < kdim; ++k) {
    const double* ak = a + k;
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      V bk;
      std::memcpy(&bk, b + k * n + p * W, sizeof(V));
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) acc[r * P + p] += ak[r * kdim] * bk;
    }
  }
#pragma GCC unroll 16
  for (std::size_t t = 0; t < T; ++t) {
    std::memcpy(c + t / P * n + t % P * W, &acc[t], sizeof(V));
  }
}

// The last `left` < 2·Width columns of R rows: one tile of each power of
// two from Width down that fits, W lanes wide or (below W) one register
// of that many lanes.
template <std::size_t W, std::size_t R, std::size_t Width>
FASEA_KERNEL_INLINE void TailTiles(const double* a, const double* b,
                                   std::size_t kdim, std::size_t n,
                                   double* c, std::size_t left) {
  if (left >= Width) {
    if constexpr (Width >= W) {
      Tile<W, R, Width / W>(a, b, kdim, n, c);
    } else {
      Tile<Width, R, 1>(a, b, kdim, n, c);
    }
    b += Width;
    c += Width;
    left -= Width;
  }
  if constexpr (Width > 1) TailTiles<W, R, Width / 2>(a, b, kdim, n, c, left);
}

// R rows of c += a · b: tiles of P·W columns, then the tail.
template <std::size_t W, std::size_t P, std::size_t R>
FASEA_KERNEL_INLINE void GemmRows(const double* a, const double* b,
                                  std::size_t kdim, std::size_t n,
                                  double* c) {
  std::size_t j = 0;
  for (; j + P * W <= n; j += P * W) Tile<W, R, P>(a, b + j, kdim, n, c + j);
  TailTiles<W, R, P * W / 2>(a, b + j, kdim, n, c + j, n - j);
}

// c (m × n) += a (m × kdim) · b (kdim × n), all dense row-major: blocks
// of R rows share every b load, then 2- and 1-row blocks take the rest.
template <std::size_t W, std::size_t P, std::size_t R>
FASEA_KERNEL_INLINE void GemmBlock(const double* a, std::size_t m,
                                   const double* b, std::size_t kdim,
                                   std::size_t n, double* c) {
  std::size_t i = 0;
  for (; i + R <= m; i += R) {
    GemmRows<W, P, R>(a + i * kdim, b, kdim, n, c + i * n);
  }
  if constexpr (R > 2) {
    if (m - i >= 2) {
      GemmRows<W, P, 2>(a + i * kdim, b, kdim, n, c + i * n);
      i += 2;
    }
  }
  if (i < m) GemmRows<W, P, 1>(a + i * kdim, b, kdim, n, c + i * n);
}

// out[v] = x_vᵀ A x_v for R rows at a time, given at = Aᵀ.
//
// G(v, i) must accumulate A(i, 0)·x₀ + A(i, 1)·x₁ + … in that order to
// match QuadraticForm's row traversal; with B = Aᵀ the GEMM produces
// exactly G(v, i) = Σ_k x(v, k)·B(k, i) = Σ_k x(v, k)·A(i, k) in
// sequential k-order. (A is symmetric up to ulps here — Y⁻¹ from
// Sherman–Morrison — but bit-compatibility cannot ride on that, hence the
// explicit transpose.) The G rows live in a buffer owned by the call
// (batches score concurrently against one shared snapshot, with no lock
// held).
template <std::size_t W, std::size_t P, std::size_t R>
FASEA_KERNEL_INLINE void QuadForms(const double* x, std::size_t n,
                                   const double* at, std::size_t d,
                                   double* out) {
  constexpr std::size_t kStackRow = 128;
  double stack_rows[R * kStackRow];
  std::vector<double> heap_rows(d > kStackRow ? R * d : 0);
  double* FASEA_RESTRICT g = d > kStackRow ? heap_rows.data() : stack_rows;
  for (std::size_t v0 = 0; v0 < n; v0 += R) {
    const std::size_t rows = std::min(R, n - v0);
    const double* FASEA_RESTRICT xb = x + v0 * d;
    std::fill(g, g + rows * d, 0.0);
    GemmBlock<W, P, R>(xb, rows, at, d, d, g);
    // O(d) epilogue: w_v = Σ_i x(v, i)·G(v, i), scalar i-order — the
    // same products QuadraticForm's outer loop adds, in that order. A
    // full block interleaves its R independent sums.
    if (rows == R) {
      double total[R] = {};
      for (std::size_t i = 0; i < d; ++i) {
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r) {
          total[r] += xb[r * d + i] * g[r * d + i];
        }
      }
      for (std::size_t r = 0; r < R; ++r) out[v0 + r] = total[r];
    } else {
      for (std::size_t r = 0; r < rows; ++r) {
        double total = 0.0;
        for (std::size_t i = 0; i < d; ++i) {
          total += xb[r * d + i] * g[r * d + i];
        }
        out[v0 + r] = total;
      }
    }
  }
}

// y[j] += a · x[j] for j < left, one register of Width lanes at a time,
// then narrower registers for the tail.
template <std::size_t Width>
FASEA_KERNEL_INLINE void AxpyLanes(double a, const double* FASEA_RESTRICT x,
                                   std::size_t left,
                                   double* FASEA_RESTRICT y) {
  using V = Lane<Width>;
#pragma GCC unroll 4
  for (; left >= Width; left -= Width, x += Width, y += Width) {
    V xv, yv;
    std::memcpy(&xv, x, sizeof(V));
    std::memcpy(&yv, y, sizeof(V));
    yv += a * xv;
    std::memcpy(y, &yv, sizeof(V));
  }
  if constexpr (Width > 1) AxpyLanes<Width / 2>(a, x, left, y);
}

// y (n × n) += (alpha · x_i) · x_j: each row an axpy over W lanes, with
// the scalar loop's two roundings per element.
template <std::size_t W>
FASEA_KERNEL_INLINE void AddOuterRows(double alpha,
                                      const double* FASEA_RESTRICT x,
                                      std::size_t n,
                                      double* FASEA_RESTRICT y) {
  for (std::size_t i = 0; i < n; ++i) {
    AxpyLanes<W>(alpha * x[i], x, n, y + i * n);
  }
}

// The tiers. A tile's R·P accumulators plus its b and broadcast
// registers fit the register file: SSE2 runs 2×4 tiles of 2 lanes in its
// 16 xmm registers (today's 2×8-column tile), AVX2 4×2 tiles of 4 lanes
// in 16 ymm, AVX-512F 4×2 tiles of 8 lanes in 32 zmm.
void GemmSse2(const double* a, std::size_t m, const double* b,
              std::size_t kdim, std::size_t n, double* c) {
  GemmBlock<2, 4, 2>(a, m, b, kdim, n, c);
}
void QuadFormsSse2(const double* x, std::size_t n, const double* at,
                   std::size_t d, double* out) {
  QuadForms<2, 4, 2>(x, n, at, d, out);
}
void AddOuterSse2(double alpha, const double* x, std::size_t n, double* y) {
  AddOuterRows<2>(alpha, x, n, y);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void GemmAvx2(const double* a, std::size_t m,
                                      const double* b, std::size_t kdim,
                                      std::size_t n, double* c) {
  GemmBlock<4, 2, 4>(a, m, b, kdim, n, c);
}
[[gnu::target("avx2")]] void QuadFormsAvx2(const double* x, std::size_t n,
                                           const double* at, std::size_t d,
                                           double* out) {
  QuadForms<4, 2, 4>(x, n, at, d, out);
}
[[gnu::target("avx2")]] void AddOuterAvx2(double alpha, const double* x,
                                          std::size_t n, double* y) {
  AddOuterRows<4>(alpha, x, n, y);
}

[[gnu::target("avx512f")]] void GemmAvx512f(const double* a, std::size_t m,
                                            const double* b,
                                            std::size_t kdim, std::size_t n,
                                            double* c) {
  GemmBlock<8, 2, 4>(a, m, b, kdim, n, c);
}
[[gnu::target("avx512f")]] void QuadFormsAvx512f(const double* x,
                                                 std::size_t n,
                                                 const double* at,
                                                 std::size_t d,
                                                 double* out) {
  QuadForms<8, 2, 4>(x, n, at, d, out);
}
[[gnu::target("avx512f")]] void AddOuterAvx512f(double alpha,
                                                const double* x,
                                                std::size_t n, double* y) {
  AddOuterRows<8>(alpha, x, n, y);
}
#endif

constexpr KernelTable kTables[] = {
    {SimdTier::kSse2, GemmSse2, QuadFormsSse2, AddOuterSse2},
#if defined(__x86_64__)
    {SimdTier::kAvx2, GemmAvx2, QuadFormsAvx2, AddOuterAvx2},
    {SimdTier::kAvx512f, GemmAvx512f, QuadFormsAvx512f, AddOuterAvx512f},
#endif
};

}  // namespace

const KernelTable* KernelTableFor(SimdTier tier) {
  if (!HostSupports(tier)) return nullptr;
  for (const KernelTable& table : kTables) {
    if (table.tier == tier) return &table;
  }
  return nullptr;
}

const KernelTable& ActiveKernels() {
  static const KernelTable& active = *KernelTableFor(HostSimdTier());
  return active;
}

void GemvRows(const Matrix& a, std::span<const double> x,
              std::span<double> y) {
  const std::size_t rows = a.rows(), cols = a.cols();
  FASEA_CHECK(x.size() == cols && y.size() == rows);
  const double* FASEA_RESTRICT xp = x.data();
  // Four independent accumulators (one per row) break the add-latency
  // chain of a single dot product; each row's own sum still accumulates
  // in sequential j-order, so results match per-row Dot() bit-for-bit.
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* FASEA_RESTRICT r0 = a.data() + (i + 0) * cols;
    const double* FASEA_RESTRICT r1 = a.data() + (i + 1) * cols;
    const double* FASEA_RESTRICT r2 = a.data() + (i + 2) * cols;
    const double* FASEA_RESTRICT r3 = a.data() + (i + 3) * cols;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      const double xj = xp[j];
      s0 += r0[j] * xj;
      s1 += r1[j] * xj;
      s2 += r2[j] * xj;
      s3 += r3[j] * xj;
    }
    y[i + 0] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < rows; ++i) {
    const double* FASEA_RESTRICT row = a.data() + i * cols;
    double sum = 0.0;
    for (std::size_t j = 0; j < cols; ++j) sum += row[j] * xp[j];
    y[i] = sum;
  }
}

void TransposeInto(const Matrix& a, Matrix* out) {
  if (out->rows() != a.cols() || out->cols() != a.rows()) {
    *out = Matrix(a.cols(), a.rows());
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* FASEA_RESTRICT row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) {
      (*out)(j, i) = row[j];
    }
  }
}

void GemmAccumulate(const Matrix& a, const Matrix& b, Matrix* c) {
  FASEA_CHECK(a.cols() == b.rows() && c->rows() == a.rows() &&
              c->cols() == b.cols());
  ActiveKernels().gemm_accumulate(a.data(), a.rows(), b.data(), a.cols(),
                                  b.cols(), c->data());
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* c) {
  if (c->rows() != a.rows() || c->cols() != b.cols()) {
    *c = Matrix(a.rows(), b.cols());
  }
  c->Fill(0.0);
  GemmAccumulate(a, b, c);
}

void BatchedQuadFormPre(const Matrix& x, const Matrix& at,
                        std::span<double> out) {
  const std::size_t n = x.rows(), d = x.cols();
  FASEA_CHECK(at.rows() == d && at.cols() == d && out.size() == n);
  ActiveKernels().batched_quad_form_pre(x.data(), n, at.data(), d,
                                        out.data());
}

bool CholUpdate(Matrix* l, std::span<const double> x,
                std::span<double> work) {
  const std::size_t n = l->rows();
  FASEA_CHECK(l->cols() == n && x.size() == n && work.size() == n);
  double* FASEA_RESTRICT w = work.data();
  for (std::size_t i = 0; i < n; ++i) w[i] = x[i];
  // Column k of the Givens sweep: rotate (L_kk, w_k) onto the diagonal,
  // then apply the same rotation to the remaining column below it.
  for (std::size_t k = 0; k < n; ++k) {
    double* FASEA_RESTRICT colk = l->data() + k * n;  // Row-major: L(k, :).
    const double lkk = colk[k];
    if (!(lkk > 0.0)) return false;  // Catches corrupt and NaN pivots.
    const double r = std::sqrt(lkk * lkk + w[k] * w[k]);
    if (!(r > 0.0) || !std::isfinite(r)) return false;
    const double c = r / lkk;
    const double s = w[k] / lkk;
    colk[k] = r;
    if (!std::isfinite(c) || !std::isfinite(s)) return false;
    const double inv_c = 1.0 / c;
#pragma omp simd
    for (std::size_t i = k + 1; i < n; ++i) {
      // L(i, k) lives at column k of row i.
      double* lik = l->data() + i * n + k;
      const double updated = (*lik + s * w[i]) * inv_c;
      w[i] = c * w[i] - s * updated;
      *lik = updated;
    }
  }
  return true;
}

}  // namespace fasea
