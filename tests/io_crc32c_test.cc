#include "io/crc32c.h"

#include <gtest/gtest.h>

#include <string>

#include "common/cpu_features.h"

namespace fasea {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // The canonical check value for CRC32C.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  // RFC 3720 (iSCSI) appendix test patterns.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, SensitiveToEveryByte) {
  const std::string base = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t crc = Crc32c(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    EXPECT_NE(Crc32c(mutated), crc) << "flip at offset " << i;
  }
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "write-ahead logs need checksums";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t first = Crc32c(data.substr(0, split));
    EXPECT_EQ(Crc32c(data.substr(split), first), Crc32c(data))
        << "split at " << split;
  }
}

TEST(Crc32cTest, BothBodiesAgreeOnEveryLengthAndAlignment) {
  // Lengths 0-300 cover every word count and byte tail of the SSE4.2
  // body; offsets 0-8 start the words at every alignment; a non-zero
  // init checks the pre- and post-inversion.
  std::string buffer(320, '\0');
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>((i * 131 + 7) ^ (i >> 3));
  }
  EXPECT_EQ(Crc32cTable("123456789", 0), 0xE3069283u);
  if (!HostHasSse42()) GTEST_SKIP() << "no SSE4.2 CRC32 on this host";
  EXPECT_EQ(Crc32cSse42("123456789", 0), 0xE3069283u);
  for (std::size_t offset = 0; offset <= 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      for (std::uint32_t init : {0u, 0x9E3779B9u}) {
        ASSERT_EQ(Crc32cSse42(data, init), Crc32cTable(data, init))
            << "offset " << offset << " length " << length << " init "
            << init;
      }
    }
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  for (std::uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0xA282EAD8u}) {
    EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
    EXPECT_NE(MaskCrc32c(crc), crc);
  }
}

}  // namespace
}  // namespace fasea
