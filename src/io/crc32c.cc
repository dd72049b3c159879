#include "io/crc32c.h"

#include <array>
#include <cstring>

#include "common/cpu_features.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace fasea {

namespace {

constexpr std::uint32_t kPolynomial = 0x82F63B78u;  // Reflected Castagnoli.

struct Tables {
  // tables[k][b]: CRC contribution of byte b seen k positions back.
  std::array<std::array<std::uint32_t, 256>, 4> t;

  constexpr Tables() : t{} {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
      }
      t[0][b] = crc;
    }
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[1][b] = (t[0][b] >> 8) ^ t[0][t[0][b] & 0xFF];
      t[2][b] = (t[1][b] >> 8) ^ t[0][t[1][b] & 0xFF];
      t[3][b] = (t[2][b] >> 8) ^ t[0][t[2][b] & 0xFF];
    }
  }
};

constexpr Tables kTables;

}  // namespace

std::uint32_t Crc32cTable(std::string_view data, std::uint32_t init) {
  std::uint32_t crc = ~init;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFF] ^ kTables.t[2][(crc >> 8) & 0xFF] ^
          kTables.t[1][(crc >> 16) & 0xFF] ^ kTables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

#if defined(__x86_64__)
// The CRC32 instruction is the table's byte step (reflected Castagnoli,
// no inversion), eight bytes at a time; words load little-endian.
[[gnu::target("sse4.2")]] std::uint32_t Crc32cSse42(std::string_view data,
                                                   std::uint32_t init) {
  std::uint64_t crc = ~init;
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p));
  }
  return ~crc32;
}
#else
std::uint32_t Crc32cSse42(std::string_view data, std::uint32_t init) {
  return Crc32cTable(data, init);
}
#endif

std::uint32_t Crc32c(std::string_view data, std::uint32_t init) {
  static const bool sse42 = HostHasSse42();
  return sse42 ? Crc32cSse42(data, init) : Crc32cTable(data, init);
}

std::uint32_t MaskCrc32c(std::uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8u;
}

std::uint32_t UnmaskCrc32c(std::uint32_t masked) {
  const std::uint32_t rot = masked - 0xA282EAD8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace fasea
