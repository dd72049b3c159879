// Run-time probe of the host's vector extensions.
//
// The library is built for the x86-64 baseline (SSE2) and carries wider
// bodies of its hot kernels compiled through function target attributes
// (linalg/kernels.cc, io/crc32c.cc). Which body runs is decided here, once
// per process, from what the CPU and the OS both support:
// __builtin_cpu_supports reads CPUID and, for AVX and AVX-512, the
// XCR0 register bits that say the OS saves the wide register state. No
// option, flag or environment variable overrides the choice; every tier
// computes the same bits, so it changes speed only.
//
// On targets other than x86-64 there is one tier, the generic body.
#ifndef FASEA_COMMON_CPU_FEATURES_H_
#define FASEA_COMMON_CPU_FEATURES_H_

#include <string_view>

namespace fasea {

/// Vector-width tiers of the linear-algebra kernels, narrowest first:
/// 2, 4 and 8 doubles per register.
enum class SimdTier { kSse2, kAvx2, kAvx512f };

inline constexpr SimdTier kAllSimdTiers[] = {SimdTier::kSse2, SimdTier::kAvx2,
                                             SimdTier::kAvx512f};

/// "sse2", "avx2" or "avx512f" ("generic" for kSse2 off x86-64).
std::string_view SimdTierName(SimdTier tier);

/// True iff this host can run code built for `tier`.
bool HostSupports(SimdTier tier);

/// The widest tier HostSupports, probed once per process.
SimdTier HostSimdTier();

/// True iff this host has the SSE4.2 CRC32 instruction.
bool HostHasSse42();

}  // namespace fasea

#endif  // FASEA_COMMON_CPU_FEATURES_H_
