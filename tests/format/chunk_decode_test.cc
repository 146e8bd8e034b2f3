// Property tests for the chunk decoder: for every supported (encoding,
// type) pair and null pattern, DecodeColumn equals the value-at-a-time
// reference decoder and every truncated chunk fails with Corruption.
// DecodeColumn is the only chunk reader; exec/decoded_filter_test.cc runs
// the Filter over its output for the same cases.
#include <gtest/gtest.h>

#include "format/encoding.h"
#include "testing/chunk_cases.h"
#include "testing/reference_decode.h"

namespace pixels {
namespace {

class FusedDecodeTest : public ::testing::TestWithParam<ChunkCase> {};

// The bulk decoder writes exactly what the value-at-a-time reference
// appends: same validity, null count, and payload (null rows zeroed).
TEST_P(FusedDecodeTest, DecodeMatchesReferenceDecoder) {
  const ChunkCase& c = GetParam();
  constexpr int kRows = 321;
  const ColumnVector col = MakeChunkColumn(
      c.type, c.nulls,
      static_cast<uint64_t>(c.type) * 59 + static_cast<uint64_t>(c.encoding),
      kRows);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, c.encoding, &w).ok());
  ByteReader r(w.data());
  auto got = DecodeColumn(col.type(), c.encoding, &r, col.size());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(r.position(), w.size()) << "decode leaves the reader at chunk end";
  ByteReader ref_r(w.data());
  auto ref = ReferenceDecodeColumn(col.type(), c.encoding, &ref_r, col.size());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const ColumnVector& a = **got;
  const ColumnVector& b = **ref;
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.NullCount(), b.NullCount());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.IsNull(i), b.IsNull(i)) << "row " << i;
    switch (PayloadClassOf(a.type())) {
      case PayloadClass::kInt:
        EXPECT_EQ(a.GetInt(i), b.GetInt(i)) << "row " << i;
        break;
      case PayloadClass::kDouble:
        EXPECT_EQ(a.GetDouble(i), b.GetDouble(i)) << "row " << i;
        break;
      case PayloadClass::kString:
        EXPECT_EQ(a.GetString(i), b.GetString(i)) << "row " << i;
        break;
    }
  }
}

// Every strict prefix of a chunk fails with Corruption. Each prefix is
// copied into its own allocation so that a sanitizer build catches any
// read past it.
TEST_P(FusedDecodeTest, TruncatedChunkFailsOrMatchesWholeChunk) {
  const ChunkCase& c = GetParam();
  constexpr int kRows = 321;
  const ColumnVector col = MakeChunkColumn(
      c.type, c.nulls,
      static_cast<uint64_t>(c.type) * 71 + static_cast<uint64_t>(c.encoding),
      kRows);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, c.encoding, &w).ok());
  const std::vector<uint8_t>& bytes = w.data();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    ByteReader r(prefix);
    auto whole = DecodeColumn(col.type(), c.encoding, &r, col.size());
    ASSERT_FALSE(whole.ok()) << "prefix " << len;
    ASSERT_TRUE(whole.status().IsCorruption()) << whole.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllSupported, FusedDecodeTest,
                         ::testing::ValuesIn(AllSupportedChunkCases()),
                         ChunkCaseName);

TEST(FusedDecodeEdgeTest, UnsupportedEncodingRejected) {
  const std::vector<uint8_t> empty;
  ByteReader r(empty);
  EXPECT_TRUE(DecodeColumn(TypeId::kString, Encoding::kDelta, &r, 0)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeColumn(TypeId::kDouble, Encoding::kDictionary, &r, 0)
                  .status()
                  .IsCorruption());
}

TEST(FusedDecodeEdgeTest, EmptyChunk) {
  ColumnVector col(TypeId::kInt64);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &w).ok());
  ByteReader r(w.data());
  auto got = DecodeColumn(TypeId::kInt64, Encoding::kPlain, &r, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ((*got)->size(), 0u);
  EXPECT_EQ((*got)->type(), TypeId::kInt64);
  EXPECT_EQ(r.position(), w.size());
}

}  // namespace
}  // namespace pixels
