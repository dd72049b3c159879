// The per-tier bodies of the width-sensitive kernels (library-internal).
//
// kernels.cc instantiates each kernel's template once per SimdTier (2, 4
// and 8 doubles per register) and collects the bodies into one table per
// tier. The public entry points — GemmAccumulate, Gemm,
// BatchedQuadFormPre and Matrix::AddOuter — check shapes and then run
// ActiveKernels(), the table of the widest tier the host supports
// (HostSimdTier(), probed once per process). Tests and benchmarks reach
// every other tier through KernelTableFor; nothing can change the active
// one.
//
// Every tier adds the same rounded products in the same order as the
// scalar reference loops, so all tiers compute the same bits.
#ifndef FASEA_LINALG_KERNEL_TABLE_H_
#define FASEA_LINALG_KERNEL_TABLE_H_

#include <cstddef>

#include "common/cpu_features.h"

namespace fasea {

/// Raw dense row-major kernels; no argument may alias another.
struct KernelTable {
  SimdTier tier;
  /// c (m × n) += a (m × kdim) · b (kdim × n); each c(i, j) adds its
  /// k-terms in sequential k-order.
  void (*gemm_accumulate)(const double* a, std::size_t m, const double* b,
                          std::size_t kdim, std::size_t n, double* c);
  /// out[v] = x_vᵀ A x_v for the n rows x_v of x (n × d), given at = Aᵀ.
  void (*batched_quad_form_pre)(const double* x, std::size_t n,
                                const double* at, std::size_t d,
                                double* out);
  /// y (n × n) += (alpha · x_i) · x_j.
  void (*add_outer)(double alpha, const double* x, std::size_t n,
                    double* y);
};

/// `tier`'s kernels, or null when this build has no body for the tier or
/// this host cannot run it.
const KernelTable* KernelTableFor(SimdTier tier);

/// The table the public kernels run: HostSimdTier()'s.
const KernelTable& ActiveKernels();

}  // namespace fasea

#endif  // FASEA_LINALG_KERNEL_TABLE_H_
