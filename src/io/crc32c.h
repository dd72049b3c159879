// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding every WAL frame.
//
// Runs the SSE4.2 CRC32 instruction over 8-byte words where the host has
// it (probed once per process, common/cpu_features.h) and a software
// slicing-by-4 table otherwise; both compute the same value, so the same
// bytes verify on any host. WAL frames store a *masked* CRC (a
// rotate-and-offset of the raw value, the scheme leveldb popularized) so
// that a frame whose payload happens to embed its own CRC — or a run of
// zeros — does not accidentally verify.
#ifndef FASEA_IO_CRC32C_H_
#define FASEA_IO_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace fasea {

/// CRC32C of `data`, starting from `init` (pass a previous result to
/// checksum a logical stream in pieces).
std::uint32_t Crc32c(std::string_view data, std::uint32_t init = 0);

/// The two bodies Crc32c picks between, exposed for tests and benchmarks.
/// Crc32cSse42 may run only where HostHasSse42().
std::uint32_t Crc32cTable(std::string_view data, std::uint32_t init);
std::uint32_t Crc32cSse42(std::string_view data, std::uint32_t init);

/// Bijective masking applied to CRCs before storing them on disk.
std::uint32_t MaskCrc32c(std::uint32_t crc);
std::uint32_t UnmaskCrc32c(std::uint32_t masked);

}  // namespace fasea

#endif  // FASEA_IO_CRC32C_H_
