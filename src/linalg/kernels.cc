#include "linalg/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace fasea {

namespace {

// SSE2's two doubles as a GCC/Clang generic vector. Explicit vectors keep
// the -O3 loop vectorizer off the tile's k-loop (it adds lane shuffles).
typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));

// One R-row register tile of c += a · b (a has row stride kdim, b and c
// row stride n) covering P·w columns, w = Lane's width; returns P·w. It
// is loaded once, adds its k-terms in sequential k-order — each b vector
// feeds all R rows — and is stored once, so every lane rounds exactly
// like the scalar triple loop.
template <typename Lane, std::size_t R, std::size_t P>
std::size_t Tile(const double* FASEA_RESTRICT a,
                 const double* FASEA_RESTRICT b, std::size_t kdim,
                 std::size_t n, double* FASEA_RESTRICT c) {
  constexpr std::size_t w = sizeof(Lane) / sizeof(double), T = R * P;
  const auto ct = [&](std::size_t t) { return c + t / P * n + t % P * w; };
  Lane acc[T];
#pragma GCC unroll 8
  for (std::size_t t = 0; t < T; ++t) std::memcpy(&acc[t], ct(t), sizeof(Lane));
  for (std::size_t k = 0; k < kdim; ++k) {
    const double* ak = a + k;
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      Lane bk;
      std::memcpy(&bk, b + k * n + p * w, sizeof(Lane));
#pragma GCC unroll 2
      for (std::size_t r = 0; r < R; ++r) acc[r * P + p] += ak[r * kdim] * bk;
    }
  }
#pragma GCC unroll 8
  for (std::size_t t = 0; t < T; ++t) std::memcpy(ct(t), &acc[t], sizeof(Lane));
  return P * w;
}

// R rows of c += a · b: 8-column tiles, then 4-, 2- and 1-column ones.
template <std::size_t R>
void GemmRows(const double* a, const double* b, std::size_t kdim,
              std::size_t n, double* c) {
  std::size_t j = 0;
  while (j + 8 <= n) j += Tile<Lanes2, R, 4>(a, b + j, kdim, n, c + j);
  if (n - j >= 4) j += Tile<Lanes2, R, 2>(a, b + j, kdim, n, c + j);
  if (n - j >= 2) j += Tile<Lanes2, R, 1>(a, b + j, kdim, n, c + j);
  if (n - j == 1) Tile<double, R, 1>(a, b + j, kdim, n, c + j);
}

// c (m × n) += a (m × kdim) · b (kdim × n), all dense row-major: row
// pairs share every b load (a 2×8 tile fills the SSE2 registers).
void GemmBlock(const double* a, std::size_t m, const double* b,
               std::size_t kdim, std::size_t n, double* c) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) GemmRows<2>(a + i * kdim, b, kdim, n, c + i * n);
  if (i < m) GemmRows<1>(a + i * kdim, b, kdim, n, c + i * n);
}

}  // namespace

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
  GemmBlock(a.data(), a.rows(), b.data(), a.cols(), b.cols(), c->data());
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
  // G(v, i) must accumulate A(i, 0)·x₀ + A(i, 1)·x₁ + … in that order to
  // match QuadraticForm's row traversal; with B = Aᵀ the GEMM produces
  // exactly G(v, i) = Σ_k x(v, k)·B(k, i) = Σ_k x(v, k)·A(i, k) in
  // sequential k-order. (A is symmetric up to ulps here — Y⁻¹ from
  // Sherman–Morrison — but bit-compatibility cannot ride on that, hence
  // the explicit transpose.)
  // G rows two at a time, in a buffer owned by the call (batches score
  // concurrently against one shared snapshot, with no lock held).
  constexpr std::size_t kBlock = 2, kStackRow = 128;
  double stack_rows[kBlock * kStackRow];
  std::vector<double> heap_rows(d > kStackRow ? kBlock * d : 0);
  double* FASEA_RESTRICT g = d > kStackRow ? heap_rows.data() : stack_rows;
  for (std::size_t v0 = 0; v0 < n; v0 += kBlock) {
    const std::size_t rows = std::min(kBlock, n - v0);
    std::fill(g, g + rows * d, 0.0);
    GemmBlock(x.data() + v0 * d, rows, at.data(), d, d, g);
    // Cheap O(d) epilogue: w_v = Σ_i x(v, i)·G(v, i), scalar i-order —
    // the same products QuadraticForm's outer loop adds, in that order.
    for (std::size_t r = 0; r < rows; ++r) {
      const double* FASEA_RESTRICT xrow = x.data() + (v0 + r) * d;
      const double* FASEA_RESTRICT grow = g + r * d;
      double total = 0.0;
      for (std::size_t i = 0; i < d; ++i) total += xrow[i] * grow[i];
      out[v0 + r] = total;
    }
  }
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
