#include "common/bytes.h"

#include <bit>
#include <cstring>

namespace fasea {
namespace {

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

/// Appends the sizeof(T) little-endian bytes of `v`.
template <typename T>
void AppendFixed(std::string* out, T v) {
  if constexpr (kLittleEndianHost) {
    const std::size_t at = out->size();
    out->resize(at + sizeof(T));
    std::memcpy(out->data() + at, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
}

/// Decodes sizeof(T) little-endian bytes at `data`.
template <typename T>
T DecodeFixed(const char* data) {
  T v = 0;
  if constexpr (kLittleEndianHost) {
    std::memcpy(&v, data, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(data[i])) << (8 * i);
    }
  }
  return v;
}

}  // namespace

void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, std::uint32_t v) { AppendFixed(out, v); }

void AppendU64(std::string* out, std::uint64_t v) { AppendFixed(out, v); }

void AppendI64(std::string* out, std::int64_t v) {
  AppendU64(out, static_cast<std::uint64_t>(v));
}

void AppendDouble(std::string* out, double v) {
  AppendFixed(out, std::bit_cast<std::uint64_t>(v));
}

void AppendDoubles(std::string* out, std::span<const double> values) {
  if (values.empty()) return;
  if constexpr (kLittleEndianHost) {
    const std::size_t at = out->size();
    out->resize(at + values.size_bytes());
    std::memcpy(out->data() + at, values.data(), values.size_bytes());
  } else {
    for (double v : values) AppendDouble(out, v);
  }
}

void EncodeU32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

std::uint32_t DecodeU32(const char* data) {
  return DecodeFixed<std::uint32_t>(data);
}

StatusOr<std::uint8_t> ByteReader::ReadU8() {
  if (pos_ + 1 > data_.size()) return TruncatedError();
  return static_cast<std::uint8_t>(data_[pos_++]);
}

StatusOr<std::uint32_t> ByteReader::ReadU32() {
  if (pos_ + 4 > data_.size()) return TruncatedError();
  const std::uint32_t v = DecodeU32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

StatusOr<std::uint64_t> ByteReader::ReadU64() {
  if (pos_ + 8 > data_.size()) return TruncatedError();
  const std::uint64_t v = DecodeFixed<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

StatusOr<std::int64_t> ByteReader::ReadI64() {
  auto v = ReadU64();
  if (!v.ok()) return v.status();
  return static_cast<std::int64_t>(*v);
}

StatusOr<double> ByteReader::ReadDouble() {
  auto bits = ReadU64();
  if (!bits.ok()) return bits.status();
  return std::bit_cast<double>(*bits);
}

Status ByteReader::ReadDoubles(std::span<double> out) {
  if (out.size() > remaining() / sizeof(double)) return TruncatedError();
  if (out.empty()) return Status::Ok();
  const char* src = data_.data() + pos_;
  if constexpr (kLittleEndianHost) {
    std::memcpy(out.data(), src, out.size_bytes());
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::bit_cast<double>(
          DecodeFixed<std::uint64_t>(src + sizeof(double) * i));
    }
  }
  pos_ += out.size_bytes();
  return Status::Ok();
}

}  // namespace fasea
