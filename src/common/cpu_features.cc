#include "common/cpu_features.h"

namespace fasea {

namespace {

struct HostFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool sse42 = false;
};

HostFeatures Probe() {
  HostFeatures f;
#if defined(__x86_64__)
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2");
  f.avx512f = __builtin_cpu_supports("avx512f");
  f.sse42 = __builtin_cpu_supports("sse4.2");
#endif
  return f;
}

const HostFeatures& Host() {
  static const HostFeatures features = Probe();
  return features;
}

}  // namespace

std::string_view SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kSse2:
#if defined(__x86_64__)
      return "sse2";
#else
      return "generic";
#endif
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512f:
      return "avx512f";
  }
  return "unknown";
}

bool HostSupports(SimdTier tier) {
  switch (tier) {
    case SimdTier::kSse2:
      return true;
    case SimdTier::kAvx2:
      return Host().avx2;
    case SimdTier::kAvx512f:
      return Host().avx512f;
  }
  return false;
}

SimdTier HostSimdTier() {
  static const SimdTier tier = HostSupports(SimdTier::kAvx512f)
                                   ? SimdTier::kAvx512f
                               : HostSupports(SimdTier::kAvx2)
                                   ? SimdTier::kAvx2
                                   : SimdTier::kSse2;
  return tier;
}

bool HostHasSse42() { return Host().sse42; }

}  // namespace fasea
