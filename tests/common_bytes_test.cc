// Byte formats: the exact little-endian bytes of every fixed-width
// helper, the bulk double codec against its one-value form, ByteReader's
// truncation handling, and golden encodings of the record, WAL-frame and
// envelope formats built on them.
#include "common/bytes.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ebsn/interaction_log.h"
#include "ebsn/shard_wal.h"
#include "net/envelope.h"

namespace fasea {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

template <typename Append, typename T>
std::string Encoded(Append append, T v) {
  std::string out;
  append(&out, v);
  return out;
}

TEST(BytesTest, FixedWidthHelpersWriteLittleEndian) {
  EXPECT_EQ(Hex(Encoded(AppendU8, std::uint8_t{0xab})), "ab");
  EXPECT_EQ(Hex(Encoded(AppendU32, std::uint32_t{0x01020304})), "04030201");
  EXPECT_EQ(Hex(Encoded(AppendU64, std::uint64_t{0x0102030405060708})),
            "0807060504030201");
  EXPECT_EQ(Hex(Encoded(AppendI64, std::int64_t{-2})), "feffffffffffffff");
  EXPECT_EQ(Hex(Encoded(AppendDouble, 1.0)), "000000000000f03f");
  EXPECT_EQ(Hex(Encoded(AppendDouble, -0.0)), "0000000000000080");

  char buf[4];
  EncodeU32(buf, 0xdeadbeef);
  EXPECT_EQ(Hex(std::string_view(buf, 4)), "efbeadde");
  EXPECT_EQ(DecodeU32(buf), 0xdeadbeefu);

  // Appends go after what the buffer already holds.
  std::string out = "x";
  AppendU32(&out, 7);
  EXPECT_EQ(Hex(out), "7807000000");
}

std::vector<double> OddDoubles(std::size_t n) {
  const std::vector<double> specials = {
      -0.0,
      0.0,
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000001}),  // qNaN
      std::bit_cast<double>(std::uint64_t{0xfff4000000000abc}),  // sNaN
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -3.0e-310,  // Denormal.
      std::numeric_limits<double>::max(),
      1.0 / 3.0,
  };
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(i < specials.size() ? specials[i]
                                         : -1.5 * static_cast<double>(i));
  }
  return values;
}

TEST(BytesTest, AppendDoublesMatchesAppendDoubleLoop) {
  for (std::size_t n : {0, 1, 17}) {
    const std::vector<double> values = OddDoubles(n);
    std::string bulk = "hdr";
    AppendDoubles(&bulk, values);
    std::string loop = "hdr";
    for (double v : values) AppendDouble(&loop, v);
    EXPECT_EQ(Hex(bulk), Hex(loop)) << n << " values";
    EXPECT_EQ(bulk.size(), 3 + 8 * n);
  }
}

TEST(BytesTest, ReadDoublesRoundTripsEveryBit) {
  const std::vector<double> values = OddDoubles(17);
  std::string bytes;
  AppendDoubles(&bytes, values);
  ByteReader reader(bytes);
  std::vector<double> back(values.size());
  ASSERT_TRUE(reader.ReadDoubles(back).ok());
  EXPECT_TRUE(reader.AtEnd());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << i;
  }
  // The one-value reader decodes the same bits.
  ByteReader single(bytes);
  for (std::size_t i = 0; i < values.size(); ++i) {
    auto v = single.ReadDouble();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*v),
              std::bit_cast<std::uint64_t>(values[i]));
  }
}

TEST(BytesTest, ReadDoublesFailsWithoutMovingTheCursor) {
  std::string bytes;
  AppendU8(&bytes, 9);
  AppendDoubles(&bytes, OddDoubles(3));
  bytes.push_back('\x01');  // 7 bytes short of a fourth double.
  ByteReader reader(bytes, "short");
  ASSERT_TRUE(reader.ReadU8().ok());

  std::vector<double> four(4, 42.0);
  Status st = reader.ReadDoubles(four);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "short");
  EXPECT_EQ(reader.position(), 1u);
  EXPECT_EQ(four, std::vector<double>(4, 42.0));  // Nothing written.

  std::vector<double> three(3);
  ASSERT_TRUE(reader.ReadDoubles(three).ok());
  EXPECT_EQ(reader.position(), 25u);
  EXPECT_TRUE(reader.ReadDoubles({}).ok());
  EXPECT_EQ(reader.remaining(), 1u);
}

TEST(BytesTest, ReaderFailsAtEveryTruncationPoint) {
  std::string bytes;
  AppendU8(&bytes, 0x11);
  AppendU32(&bytes, 0x22334455);
  AppendU64(&bytes, 0x66778899aabbccddULL);
  AppendI64(&bytes, -5);
  AppendDouble(&bytes, 2.5);
  AppendDoubles(&bytes, OddDoubles(2));
  // Field ends: 1, 5, 13, 21, 29, 45.
  const std::vector<std::size_t> ends = {1, 5, 13, 21, 29, 45};
  ASSERT_EQ(bytes.size(), ends.back());

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    ByteReader reader(std::string_view(bytes).substr(0, cut));
    std::vector<double> pair(2);
    const std::vector<bool> ok = {
        reader.ReadU8().ok(),       reader.ReadU32().ok(),
        reader.ReadU64().ok(),      reader.ReadI64().ok(),
        reader.ReadDouble().ok(),   reader.ReadDoubles(pair).ok(),
    };
    std::size_t expected_pos = 0;
    for (std::size_t f = 0; f < ends.size(); ++f) {
      EXPECT_EQ(ok[f], ends[f] <= cut) << "cut " << cut << " field " << f;
      if (ends[f] <= cut) expected_pos = ends[f];
    }
    // A failed read leaves the cursor after the last whole field.
    EXPECT_EQ(reader.position(), expected_pos) << "cut " << cut;
  }
}

TEST(BytesTest, ReadsDecodeWhatAppendsWrote) {
  std::string bytes;
  AppendU8(&bytes, 0xfe);
  AppendU32(&bytes, 0x89abcdef);
  AppendU64(&bytes, 0xfedcba9876543210ULL);
  AppendI64(&bytes, std::numeric_limits<std::int64_t>::min());
  AppendDouble(&bytes, -0.0);
  ByteReader reader(bytes);
  EXPECT_EQ(*reader.ReadU8(), 0xfe);
  EXPECT_EQ(*reader.ReadU32(), 0x89abcdefu);
  EXPECT_EQ(*reader.ReadU64(), 0xfedcba9876543210ULL);
  EXPECT_EQ(*reader.ReadI64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*reader.ReadDouble()),
            std::uint64_t{0x8000000000000000});
  EXPECT_TRUE(reader.AtEnd());
}

// Golden encodings: the formats the WAL, decision log and transport
// write must not change under a codec rewrite.
InteractionRecord GoldenRecord() {
  InteractionRecord record;
  record.t = 7;
  record.user_id = 3;
  record.user_capacity = 2;
  record.arrangement = {5, 1};
  record.feedback = {1, 0};
  record.contexts = {{0.5, -0.0, 1.0}, {-2.25, 3.0e-310, 1e100}};
  return record;
}

constexpr char kGoldenRecordHex[] =
    "0700000000000000"                  // t
    "0300000000000000"                  // user_id
    "0200000000000000"                  // user_capacity
    "02000000" "03000000"               // n, dim
    "05000000" "01"                     // event 5, accepted
    "000000000000e03f" "0000000000000080" "000000000000f03f"
    "01000000" "00"                     // event 1, rejected
    "00000000000002c0" "81b252a239370000" "7dc39425ad49b254";

TEST(BytesTest, InteractionRecordEncodingIsPinned) {
  const std::string encoded = EncodeInteractionRecord(GoldenRecord());
  EXPECT_EQ(Hex(encoded), kGoldenRecordHex);
  auto decoded = DecodeInteractionRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Hex(EncodeInteractionRecord(*decoded)), kGoldenRecordHex);
}

TEST(BytesTest, DecisionFrameEncodingIsPinned) {
  const std::string encoded =
      EncodeDecisionFrame(0x1122334455667788ULL, 0x99, 2, GoldenRecord());
  EXPECT_EQ(Hex(encoded), std::string("01"                  // kind
                                      "8877665544332211"    // txn
                                      "9900000000000000"    // trace id
                                      "02000000") +         // epoch
                              kGoldenRecordHex);
}

TEST(BytesTest, EnvelopeEncodingIsPinned) {
  Envelope envelope;
  envelope.request_id = 0x0123456789abcdefULL;
  envelope.kind = MessageKind::kServe;
  envelope.response = true;
  envelope.src = -1;
  envelope.dst = 3;
  envelope.txn = 42;
  envelope.trace_id = 0xdeadbeefULL;
  envelope.status_code = StatusCode::kOk;
  envelope.body = "abc";
  const std::string encoded = EncodeEnvelope(envelope);
  EXPECT_EQ(Hex(encoded),
            "e7"                // magic
            "efcdab8967452301"  // request id
            "01" "01"           // kind serve, response flag
            "ffffffff"          // src -1
            "03000000"          // dst
            "2a00000000000000"  // txn
            "efbeadde00000000"  // trace id
            "00"                // status OK
            "03000000"          // body size
            "616263");          // "abc"
  auto decoded = DecodeEnvelope(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->body, "abc");
  EXPECT_EQ(Hex(EncodeEnvelope(*decoded)), Hex(encoded));
}

}  // namespace
}  // namespace fasea
