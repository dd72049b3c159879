// Little-endian binary encoding helpers shared by every on-disk and wire
// format (policy checkpoints, WAL frames, interaction records, transport
// envelopes).
//
// Byte order belongs to the format: every integer and double is
// serialized little-endian regardless of host order, so blobs are
// portable across platforms. On a little-endian host the host bytes ARE
// the format's bytes, so the fixed-width helpers copy them with one
// memcpy; a big-endian host takes the byte-at-a-time loops, which write
// and read the same bytes. The memcpy is only a shortcut and never
// defines the format.
//
// AppendDoubles / ReadDoubles are the bulk forms for contiguous rows of
// doubles (context matrices, learner rows): the same bytes as a loop of
// AppendDouble / ReadDouble, written or read in one step.
//
// ByteReader is a bounds-checked cursor: every read reports truncation
// through Status instead of touching out-of-range memory.
#ifndef FASEA_COMMON_BYTES_H_
#define FASEA_COMMON_BYTES_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace fasea {

void AppendU8(std::string* out, std::uint8_t v);
void AppendU32(std::string* out, std::uint32_t v);
void AppendU64(std::string* out, std::uint64_t v);
void AppendI64(std::string* out, std::int64_t v);
void AppendDouble(std::string* out, double v);

/// Appends every value of `values` in order: byte-identical to calling
/// AppendDouble on each (one resize and one memcpy on little-endian
/// hosts).
void AppendDoubles(std::string* out, std::span<const double> values);

/// Encodes `v` little-endian into `out[0..3]` (caller provides 4 bytes).
void EncodeU32(char* out, std::uint32_t v);

/// Decodes 4 little-endian bytes at `data`.
std::uint32_t DecodeU32(const char* data);

/// Bounds-checked sequential reader over a byte buffer. Reads past the
/// end fail with `truncated_error` (so each format can report its own
/// context, e.g. "checkpoint: truncated data").
class ByteReader {
 public:
  explicit ByteReader(std::string_view data, std::string truncated_message =
                                                 "truncated data")
      : data_(data), truncated_message_(std::move(truncated_message)) {}

  StatusOr<std::uint8_t> ReadU8();
  StatusOr<std::uint32_t> ReadU32();
  StatusOr<std::uint64_t> ReadU64();
  StatusOr<std::int64_t> ReadI64();
  StatusOr<double> ReadDouble();

  /// Fills `out` with the next out.size() doubles. Checks the bounds
  /// once; on a short read it fails without moving the cursor.
  Status ReadDoubles(std::span<double> out);

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status TruncatedError() const {
    return Status(StatusCode::kInvalidArgument, truncated_message_);
  }

  std::string_view data_;
  std::string truncated_message_;
  std::size_t pos_ = 0;
};

}  // namespace fasea

#endif  // FASEA_COMMON_BYTES_H_
