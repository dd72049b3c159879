// Batched, blocked, SIMD kernels for the bandit scoring hot path.
//
// The paper's per-round cost is O(d³ + |V|·d²): every policy scores |V|
// events, UCB pays a d×d quadratic form per event, and TS re-factorizes
// Y per round. These kernels restructure that work so it vectorizes
// WITHOUT changing a single result bit relative to the per-event scalar
// loops they replace:
//
//  * Reductions stay scalar; only independent outputs share a vector.
//    Reassociating a dot product (Σ_j a_j·x_j) would change its rounding
//    and break the batched-vs-scalar bit-compatibility the simulator
//    tests assert. GEMM outputs c(i, j) are independent, so register
//    tiles hold them in vector lanes for a whole k-loop — loaded once,
//    stored once — each adding its k-terms in exactly the scalar order.
//  * BatchedQuadFormPre computes each context row's G row x·Aᵀ with that
//    kernel (the explicit transpose makes each output's accumulation
//    order Matrix::QuadraticForm's row-major one), then the O(d)
//    row-dots in scalar order, one independent sum per row of a block.
//  * GemvRows keeps each row's reduction sequential but interleaves four
//    independent rows, breaking the add-latency dependency chain that
//    makes one long dot product latency-bound.
//  * CholUpdate maintains L(Y + xxᵀ) from L(Y) in O(d²) via Givens-style
//    rotations, replacing the O(d³) per-round re-factorization in TS.
//
// The width-sensitive kernels (GemmAccumulate, Gemm, BatchedQuadFormPre
// and Matrix::AddOuter) have one body per vector width — SSE2, AVX2 and
// AVX-512F on x86-64 — and run the widest one the host supports, picked
// once per process (kernel_table.h). One build therefore computes the
// same bytes on any x86-64 host, at that host's width. Every product
// must round alike in each tier and in the scalar references, so the
// library compiles with -ffp-contract=off (src/CMakeLists.txt).
//
// All pointer kernels require non-aliasing arguments (FASEA_RESTRICT).
#ifndef FASEA_LINALG_KERNELS_H_
#define FASEA_LINALG_KERNELS_H_

#include <cstddef>
#include <span>

#include "linalg/matrix.h"
#include "linalg/vector.h"

// GCC/Clang spelling; kernels are compiled with -fopenmp-simd so the
// `#pragma omp simd` hints apply without an OpenMP runtime dependency.
#define FASEA_RESTRICT __restrict__

namespace fasea {

/// y[i] = Row(a, i) · x for every row of `a` (rows × cols, row-major).
/// Per-row accumulation order is the sequential j-order of Dot(); rows
/// are processed four at a time for instruction-level parallelism.
/// Bit-identical to calling Dot(a.Row(i), x) per row.
void GemvRows(const Matrix& a, std::span<const double> x,
              std::span<double> y);

/// out = aᵀ (resized/reshaped as needed).
void TransposeInto(const Matrix& a, Matrix* out);

/// c += a · b (c must be pre-shaped a.rows() × b.cols() — zero it first
/// for a plain product), in register tiles of the active tier (2 rows × 8
/// columns on SSE2, 4 × 8 on AVX2, 4 × 16 on AVX-512F); each c(i,j) adds
/// its k-terms in sequential k-order onto its prior value, exactly as the
/// scalar triple loop does.
void GemmAccumulate(const Matrix& a, const Matrix& b, Matrix* c);

/// c = a · b — the plain GEMM entry (reshapes and zeroes `c`, then runs
/// GemmAccumulate).
void Gemm(const Matrix& a, const Matrix& b, Matrix* c);

/// out[v] = Row(x, v)ᵀ · A · Row(x, v) for every row of x (n × d), given
/// `at` = Aᵀ (d × d, from TransposeInto). Bit-identical to calling
/// A.QuadraticForm(x.Row(v)) per row, but the O(n·d²) bulk runs through
/// the register-tiled GEMM against Aᵀ; the G rows live in a buffer owned
/// by the call. Taking the transpose as an operand lets callers keep it
/// once per matrix version (RidgeState caches (Y⁻¹)ᵀ per learner change,
/// snapshots once per feedback commit) instead of paying O(d²) per call.
/// A row's result does not depend on the other rows of the call.
void BatchedQuadFormPre(const Matrix& x, const Matrix& at,
                        std::span<double> out);

/// Rank-1 Cholesky update: given lower-triangular `l` with L·Lᵀ = Y,
/// rewrites it in place so L·Lᵀ = Y + x·xᵀ, in O(d²) (vs O(d³) for a
/// fresh factorization). `work` is caller scratch of size d. Returns
/// false (leaving `l` in an unspecified state the caller must discard or
/// re-factorize) if a pivot turns non-finite or non-positive — possible
/// only when `l` or `x` is already corrupt, since a genuine rank-1
/// *update* of an SPD matrix stays SPD.
[[nodiscard]] bool CholUpdate(Matrix* l, std::span<const double> x,
                              std::span<double> work);

}  // namespace fasea

#endif  // FASEA_LINALG_KERNELS_H_
