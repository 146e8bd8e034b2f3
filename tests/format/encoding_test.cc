#include "format/encoding.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace pixels {
namespace {

ColumnVectorPtr RoundTrip(const ColumnVector& col, Encoding enc) {
  ByteWriter w;
  Status st = EncodeColumn(col, enc, &w);
  EXPECT_TRUE(st.ok()) << st.ToString();
  ByteReader r(w.data());
  auto decoded = DecodeColumn(col.type(), enc, &r, col.size());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? *decoded : nullptr;
}

void ExpectEqualVectors(const ColumnVector& a, const ColumnVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.IsNull(i), b.IsNull(i)) << "row " << i;
    if (!a.IsNull(i)) {
      EXPECT_EQ(a.GetValue(i).Compare(b.GetValue(i)), 0) << "row " << i;
    }
  }
}

// ---- parameterized round-trip across (type, encoding, null pattern) ----

struct EncodingCase {
  TypeId type;
  Encoding encoding;
  double null_fraction;
};

// gtest_discover_tests names each case after its printed parameter. Without
// this, gtest prints the struct's raw bytes, padding included, and the
// padding holds stack garbage that can change from build to build.
void PrintTo(const EncodingCase& c, std::ostream* os) {
  *os << TypeName(c.type) << "_" << EncodingName(c.encoding) << "_nulls"
      << c.null_fraction;
}

class EncodingRoundTripTest : public ::testing::TestWithParam<EncodingCase> {};

TEST_P(EncodingRoundTripTest, RandomDataRoundTrips) {
  const EncodingCase& c = GetParam();
  Random rng(static_cast<uint64_t>(c.type) * 100 +
             static_cast<uint64_t>(c.encoding) * 10 + 1);
  ColumnVector col(c.type);
  for (int i = 0; i < 777; ++i) {
    if (rng.Bernoulli(c.null_fraction)) {
      col.AppendNull();
      continue;
    }
    switch (c.type) {
      case TypeId::kBool:
        col.AppendBool(rng.Bernoulli(0.5));
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        col.AppendInt(rng.Uniform(-100000, 100000));
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        col.AppendInt(rng.Uniform(-5000000000LL, 5000000000LL));
        break;
      case TypeId::kDouble:
        col.AppendDouble(rng.UniformDouble(-1e6, 1e6));
        break;
      case TypeId::kString:
        col.AppendString(rng.NextString(rng.Uniform(0, 20)));
        break;
    }
  }
  auto decoded = RoundTrip(col, c.encoding);
  ASSERT_NE(decoded, nullptr);
  ExpectEqualVectors(col, *decoded);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, EncodingRoundTripTest,
    ::testing::Values(
        EncodingCase{TypeId::kBool, Encoding::kPlain, 0.0},
        EncodingCase{TypeId::kBool, Encoding::kPlain, 0.2},
        EncodingCase{TypeId::kBool, Encoding::kBitPacked, 0.0},
        EncodingCase{TypeId::kBool, Encoding::kBitPacked, 0.3},
        EncodingCase{TypeId::kBool, Encoding::kRunLength, 0.1},
        EncodingCase{TypeId::kInt32, Encoding::kPlain, 0.0},
        EncodingCase{TypeId::kInt32, Encoding::kPlain, 0.15},
        EncodingCase{TypeId::kInt32, Encoding::kRunLength, 0.1},
        EncodingCase{TypeId::kInt32, Encoding::kDelta, 0.1},
        EncodingCase{TypeId::kInt64, Encoding::kPlain, 0.0},
        EncodingCase{TypeId::kInt64, Encoding::kRunLength, 0.0},
        EncodingCase{TypeId::kInt64, Encoding::kDelta, 0.25},
        EncodingCase{TypeId::kDate, Encoding::kDelta, 0.0},
        EncodingCase{TypeId::kTimestamp, Encoding::kDelta, 0.05},
        EncodingCase{TypeId::kDouble, Encoding::kPlain, 0.0},
        EncodingCase{TypeId::kDouble, Encoding::kPlain, 0.5},
        EncodingCase{TypeId::kString, Encoding::kPlain, 0.1},
        EncodingCase{TypeId::kString, Encoding::kDictionary, 0.0},
        EncodingCase{TypeId::kString, Encoding::kDictionary, 0.3}));

TEST(EncodingTest, EmptyColumnRoundTrips) {
  for (Encoding e : {Encoding::kPlain, Encoding::kRunLength, Encoding::kDelta}) {
    ColumnVector col(TypeId::kInt64);
    auto decoded = RoundTrip(col, e);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->size(), 0u);
  }
}

TEST(EncodingTest, AllNullColumnRoundTrips) {
  ColumnVector col(TypeId::kString);
  for (int i = 0; i < 10; ++i) col.AppendNull();
  auto decoded = RoundTrip(col, Encoding::kDictionary);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->NullCount(), 10u);
}

TEST(EncodingTest, RleCompressesRuns) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 1000; ++i) col.AppendInt(i / 250);
  ByteWriter rle, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kRunLength, &rle).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  EXPECT_LT(rle.size() * 10, plain.size());
}

TEST(EncodingTest, DeltaCompressesSortedData) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 1000; ++i) col.AppendInt(1000000000LL + i * 3);
  ByteWriter delta, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kDelta, &delta).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  EXPECT_LT(delta.size() * 3, plain.size());
}

TEST(EncodingTest, DictionaryCompressesLowCardinality) {
  ColumnVector col(TypeId::kString);
  const char* values[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 900; ++i) col.AppendString(values[i % 3]);
  ByteWriter dict, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kDictionary, &dict).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  EXPECT_LT(dict.size() * 3, plain.size());
}

TEST(EncodingTest, BitPackedIsOneBitPerValue) {
  ColumnVector col(TypeId::kBool);
  for (int i = 0; i < 800; ++i) col.AppendBool(i % 2 == 0);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kBitPacked, &w).ok());
  // validity bitmap (100 bytes) + payload (100 bytes)
  EXPECT_EQ(w.size(), 200u);
}

TEST(EncodingTest, UnsupportedCombinationsRejected) {
  ColumnVector s(TypeId::kString);
  s.AppendString("x");
  ByteWriter w;
  EXPECT_TRUE(EncodeColumn(s, Encoding::kDelta, &w).IsInvalidArgument());
  EXPECT_TRUE(EncodeColumn(s, Encoding::kRunLength, &w).IsInvalidArgument());
  EXPECT_TRUE(EncodeColumn(s, Encoding::kBitPacked, &w).IsInvalidArgument());
  ColumnVector d(TypeId::kDouble);
  d.AppendDouble(1);
  EXPECT_TRUE(EncodeColumn(d, Encoding::kDictionary, &w).IsInvalidArgument());
}

TEST(EncodingTest, DecodeRejectsTruncatedInput) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 100; ++i) col.AppendInt(i);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &w).ok());
  auto truncated = w.data();
  truncated.resize(truncated.size() / 2);
  ByteReader r(truncated);
  EXPECT_FALSE(DecodeColumn(TypeId::kInt64, Encoding::kPlain, &r, 100).ok());
}

TEST(EncodingTest, DecodeRejectsCorruptDictionaryCode) {
  ColumnVector col(TypeId::kString);
  col.AppendString("only");
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kDictionary, &w).ok());
  auto bytes = w.data();
  bytes.back() = 0x7f;  // out-of-range code
  ByteReader r(bytes);
  EXPECT_FALSE(DecodeColumn(TypeId::kString, Encoding::kDictionary, &r, 1).ok());
}

TEST(ChooseEncodingTest, PicksBitPackedForBools) {
  ColumnVector col(TypeId::kBool);
  col.AppendBool(true);
  EXPECT_EQ(ChooseEncoding(col), Encoding::kBitPacked);
}

TEST(ChooseEncodingTest, PicksRleForRuns) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 500; ++i) col.AppendInt(i / 100);
  EXPECT_EQ(ChooseEncoding(col), Encoding::kRunLength);
}

TEST(ChooseEncodingTest, PicksDeltaForSorted) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 500; ++i) col.AppendInt(i * 7);
  EXPECT_EQ(ChooseEncoding(col), Encoding::kDelta);
}

TEST(ChooseEncodingTest, PicksDictionaryForRepetitiveStrings) {
  ColumnVector col(TypeId::kString);
  for (int i = 0; i < 100; ++i) col.AppendString(i % 4 == 0 ? "a" : "b");
  EXPECT_EQ(ChooseEncoding(col), Encoding::kDictionary);
}

TEST(ChooseEncodingTest, PicksPlainForUniqueStrings) {
  Random rng(5);
  ColumnVector col(TypeId::kString);
  for (int i = 0; i < 100; ++i) col.AppendString(rng.NextString(12));
  EXPECT_EQ(ChooseEncoding(col), Encoding::kPlain);
}

TEST(ChooseEncodingTest, PicksPlainForRandomInts) {
  Random rng(6);
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 500; ++i) col.AppendInt(rng.Uniform(-1000000, 1000000));
  EXPECT_EQ(ChooseEncoding(col), Encoding::kPlain);
}

}  // namespace
}  // namespace pixels
