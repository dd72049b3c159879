// Deterministic derivation of per-component seeds from one experiment seed.
//
// Every experiment takes a single user-facing 64-bit seed. Components
// (policy exploration noise, feedback sampling, data generation, conflict
// graph, ...) each get an independent stream derived from that seed plus a
// stable component tag, so adding a component never perturbs the draws of
// existing ones.
#ifndef FASEA_RNG_SEED_H_
#define FASEA_RNG_SEED_H_

#include <cstdint>
#include <string_view>

#include "rng/pcg64.h"
#include "rng/splitmix64.h"

namespace fasea {

/// FNV-1a hash of a string tag, used to name sub-streams.
constexpr std::uint64_t HashTag(std::string_view tag) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Derives a child seed from (root seed, tag).
inline std::uint64_t DeriveSeed(std::uint64_t root, std::string_view tag) {
  SplitMix64 mixer(root ^ HashTag(tag));
  return mixer.Next();
}

/// Derives a child seed from (root seed, tag, index) for indexed families
/// of streams (e.g. one stream per user).
inline std::uint64_t DeriveSeed(std::uint64_t root, std::string_view tag,
                                std::uint64_t index) {
  SplitMix64 mixer(root ^ HashTag(tag));
  const std::uint64_t base = mixer.Next();
  SplitMix64 indexed(base ^ (index * 0x9E3779B97F4A7C15ULL + 0x1234567));
  return indexed.Next();
}

/// Convenience: engine on the stream named by `tag`.
inline Pcg64 MakeEngine(std::uint64_t root, std::string_view tag) {
  return Pcg64(DeriveSeed(root, tag), HashTag(tag));
}

/// The one rule for a stochastic policy's draws: the engine of `purpose`
/// (e.g. "theta", "coin") at serve-time round `round` under the policy's
/// `salt` — as VW's MwtExplorer seeds each decision from (salt, key).
inline Pcg64 KeyedEngine(std::uint64_t salt, std::string_view purpose,
                         std::int64_t round) {
  return Pcg64(DeriveSeed(salt, purpose, static_cast<std::uint64_t>(round)));
}

}  // namespace fasea

#endif  // FASEA_RNG_SEED_H_
