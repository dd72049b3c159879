// PCG64 (pcg_xsl_rr_128_64): O'Neill's permuted congruential generator
// with 128-bit state and 64-bit output. Implemented from scratch; this is
// the main engine behind every stochastic component in FASEA.
//
// Properties we rely on:
//  - deterministic given (seed, stream): experiments reproduce bit-for-bit;
//  - independent streams: distinct odd increments give uncorrelated
//    sequences, so each component owns a private stream.
#ifndef FASEA_RNG_PCG64_H_
#define FASEA_RNG_PCG64_H_

#include <cstdint>

namespace fasea {

class Pcg64 {
 public:
  using result_type = std::uint64_t;

  /// Seeds from a 64-bit seed and a stream id. Internally expands both via
  /// SplitMix64 so that low-entropy seeds (0, 1, 2, ...) still start from
  /// well-mixed 128-bit states.
  explicit Pcg64(std::uint64_t seed = 0x853C49E6748FEA9BULL,
                 std::uint64_t stream = 0);

  /// Advances the state and returns the next 64-bit output.
  std::uint64_t Next();

  /// Next double uniform in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Unbiased uniform integer in [0, bound) via Lemire's method.
  std::uint64_t NextBounded(std::uint64_t bound);

  // UniformRandomBitGenerator interface (for std::shuffle etc.).
  std::uint64_t operator()() { return Next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

 private:
  using u128 = unsigned __int128;

  u128 state_;
  u128 inc_;  // Odd; selects the stream.
};

}  // namespace fasea

#endif  // FASEA_RNG_PCG64_H_
