// Property tests for the fused decode+filter path: for every supported
// (encoding, type) pair, null pattern, and predicate shape,
// FilterEncodedChunk selects exactly the rows a full DecodeColumn plus
// per-row predicate evaluation would, DecodeColumnSelected over any
// selection equals a gather of the full decode, DecodeColumn equals the
// value-at-a-time reference decoder, and every truncated chunk fails.
#include <gtest/gtest.h>

#include "common/random.h"
#include "format/compare.h"
#include "format/encoding.h"
#include "testing/reference_decode.h"

namespace pixels {
namespace {

enum class NullPattern { kNone, kSparse, kAlternating, kAll };

const char* NullPatternName(NullPattern p) {
  switch (p) {
    case NullPattern::kNone: return "none";
    case NullPattern::kSparse: return "sparse";
    case NullPattern::kAlternating: return "alternating";
    case NullPattern::kAll: return "all";
  }
  return "?";
}

bool IsNullAt(NullPattern p, Random* rng, int i) {
  switch (p) {
    case NullPattern::kNone: return false;
    case NullPattern::kSparse: return rng->Bernoulli(0.25);
    case NullPattern::kAlternating: return i % 2 == 0;
    case NullPattern::kAll: return true;
  }
  return false;
}

// Values drawn from a small domain so RLE has runs, dictionary has
// repeats, and predicates actually split the data.
ColumnVector MakeColumn(TypeId type, NullPattern nulls, uint64_t seed,
                        int rows) {
  Random rng(seed);
  ColumnVector col(type);
  for (int i = 0; i < rows; ++i) {
    if (IsNullAt(nulls, &rng, i)) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case TypeId::kBool:
        col.AppendBool(rng.Bernoulli(0.5));
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        // Sorted-ish with runs: friendly to RLE and delta alike.
        col.AppendInt(i / 7 + rng.Uniform(0, 3));
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        col.AppendInt(1000 + i / 5 + rng.Uniform(0, 2));
        break;
      case TypeId::kDouble:
        col.AppendDouble(rng.UniformDouble(-10.0, 10.0));
        break;
      case TypeId::kString: {
        const char* words[] = {"ant", "bee", "cat", "dog", "eel"};
        col.AppendString(words[rng.Uniform(0, 4)]);
        break;
      }
    }
  }
  return col;
}

// The scalar reference the fused path must agree with: decode everything,
// test every non-null row (nulls never match).
std::vector<uint32_t> ReferenceSelect(const ColumnVector& col,
                                      const std::vector<TypedPredicate>& preds) {
  std::vector<uint32_t> sel;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    const Value v = col.GetValue(i);
    bool all = true;
    for (const auto& p : preds) {
      if (!p.MatchValue(v)) {
        all = false;
        break;
      }
    }
    if (all) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
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

// Mid-domain literal per type, so comparisons split the rows.
Value MidLiteral(TypeId type, int rows) {
  switch (type) {
    case TypeId::kBool: return Value::Bool(true);
    case TypeId::kInt32:
    case TypeId::kDate: return Value::Int(rows / 14);
    case TypeId::kInt64:
    case TypeId::kTimestamp: return Value::Int(1000 + rows / 10);
    case TypeId::kDouble: return Value::Double(0.0);
    case TypeId::kString: return Value::String("cat");
  }
  return Value::Null();
}

struct FusedCase {
  FusedCase(TypeId t, Encoding e, NullPattern n)
      : type(t), encoding(e), nulls(n) {}
  TypeId type;
  Encoding encoding;
  // Explicit zeros where the compiler would pad: ctest names each case
  // after the struct's raw bytes, and padding would leak stack garbage.
  uint8_t zero[2] = {};
  NullPattern nulls;
};
static_assert(sizeof(FusedCase) == 8, "no implicit padding");

std::vector<FusedCase> AllSupportedCases() {
  std::vector<FusedCase> cases;
  const TypeId types[] = {TypeId::kBool,      TypeId::kInt32,
                          TypeId::kInt64,     TypeId::kDouble,
                          TypeId::kString,    TypeId::kDate,
                          TypeId::kTimestamp};
  const Encoding encodings[] = {Encoding::kPlain, Encoding::kRunLength,
                                Encoding::kDelta, Encoding::kDictionary,
                                Encoding::kBitPacked};
  const NullPattern patterns[] = {NullPattern::kNone, NullPattern::kSparse,
                                  NullPattern::kAlternating, NullPattern::kAll};
  for (TypeId t : types) {
    for (Encoding e : encodings) {
      if (!EncodingSupports(e, t)) continue;
      for (NullPattern p : patterns) cases.push_back({t, e, p});
    }
  }
  return cases;
}

class FusedDecodeTest : public ::testing::TestWithParam<FusedCase> {};

// Every CmpOp, single predicate.
TEST_P(FusedDecodeTest, FilterMatchesDecodeThenFilterAllOps) {
  const FusedCase& c = GetParam();
  constexpr int kRows = 321;
  const ColumnVector col = MakeColumn(
      c.type, c.nulls,
      static_cast<uint64_t>(c.type) * 131 + static_cast<uint64_t>(c.encoding),
      kRows);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, c.encoding, &w).ok());

  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  for (CmpOp op : ops) {
    const std::vector<TypedPredicate> preds = {
        TypedPredicate::Make(col.type(), op, MidLiteral(c.type, kRows))};
    ByteReader r(w.data());
    auto got = FilterEncodedChunk(col.type(), c.encoding, &r, col.size(), preds);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, ReferenceSelect(col, preds))
        << "op=" << static_cast<int>(op)
        << " nulls=" << NullPatternName(c.nulls);
  }
}

// Predicate shapes beyond a single comparison: conjunctions (range),
// null literals (match nothing), and kind mismatches (constant-folded).
TEST_P(FusedDecodeTest, FilterMatchesOnPredicateShapes) {
  const FusedCase& c = GetParam();
  constexpr int kRows = 257;
  const ColumnVector col = MakeColumn(
      c.type, c.nulls,
      static_cast<uint64_t>(c.type) * 977 + static_cast<uint64_t>(c.encoding),
      kRows);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, c.encoding, &w).ok());

  const Value mid = MidLiteral(c.type, kRows);
  const Value mismatch =
      c.type == TypeId::kString ? Value::Int(42) : Value::String("zzz");
  const std::vector<std::vector<TypedPredicate>> shapes = {
      // Conjunction: a >= mid AND a <= mid (point range).
      {TypedPredicate::Make(col.type(), CmpOp::kGe, mid),
       TypedPredicate::Make(col.type(), CmpOp::kLe, mid)},
      // Null literal: SQL three-valued logic, nothing matches.
      {TypedPredicate::Make(col.type(), CmpOp::kEq, Value::Null())},
      // Kind mismatch folds to a constant by Value::Compare's ordering.
      {TypedPredicate::Make(col.type(), CmpOp::kLt, mismatch)},
      {TypedPredicate::Make(col.type(), CmpOp::kGt, mismatch)},
      // Empty conjunction: every non-null row passes.
      {},
  };
  for (size_t s = 0; s < shapes.size(); ++s) {
    ByteReader r(w.data());
    auto got =
        FilterEncodedChunk(col.type(), c.encoding, &r, col.size(), shapes[s]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, ReferenceSelect(col, shapes[s])) << "shape " << s;
  }
}

// DecodeColumnSelected over the fused selection == gather of full decode;
// also over selections the predicate did not produce (other columns pick
// the rows, including null rows of this column).
TEST_P(FusedDecodeTest, SelectedDecodeEqualsGatherOfFullDecode) {
  const FusedCase& c = GetParam();
  constexpr int kRows = 200;
  const ColumnVector col = MakeColumn(
      c.type, c.nulls,
      static_cast<uint64_t>(c.type) * 313 + static_cast<uint64_t>(c.encoding),
      kRows);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, c.encoding, &w).ok());

  ByteReader full_r(w.data());
  auto full = DecodeColumn(col.type(), c.encoding, &full_r, col.size());
  ASSERT_TRUE(full.ok());

  std::vector<std::vector<uint32_t>> selections;
  selections.push_back({});  // empty
  {
    std::vector<uint32_t> all(col.size());
    for (size_t i = 0; i < col.size(); ++i) all[i] = i;
    selections.push_back(std::move(all));  // full
  }
  {
    std::vector<uint32_t> every3;  // arbitrary rows, nulls included
    for (size_t i = 0; i < col.size(); i += 3) every3.push_back(i);
    selections.push_back(std::move(every3));
  }
  {
    // The selection the predicate itself produces.
    const std::vector<TypedPredicate> preds = {TypedPredicate::Make(
        col.type(), CmpOp::kGe, MidLiteral(c.type, kRows))};
    selections.push_back(ReferenceSelect(col, preds));
  }

  for (size_t s = 0; s < selections.size(); ++s) {
    ByteReader r(w.data());
    auto got = DecodeColumnSelected(col.type(), c.encoding, &r, col.size(),
                                    selections[s]);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " selection " << s;
    auto expect = (*full)->Gather(selections[s]);
    ASSERT_NE(*got, nullptr);
    ExpectEqualVectors(*expect, **got);
  }
}

// The bulk decoder writes exactly what the value-at-a-time reference
// appends: same validity, null count, and payload (null rows zeroed).
TEST_P(FusedDecodeTest, DecodeMatchesReferenceDecoder) {
  const FusedCase& c = GetParam();
  constexpr int kRows = 321;
  const ColumnVector col = MakeColumn(
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

// Every strict prefix of a chunk: the whole-chunk decode fails with
// Corruption; the selected decode and the fused filter either fail with
// Corruption or return exactly their whole-chunk result. Each prefix is
// copied into its own allocation so that a sanitizer build catches any
// read past it.
TEST_P(FusedDecodeTest, TruncatedChunkFailsOrMatchesWholeChunk) {
  const FusedCase& c = GetParam();
  constexpr int kRows = 321;
  const ColumnVector col = MakeColumn(
      c.type, c.nulls,
      static_cast<uint64_t>(c.type) * 71 + static_cast<uint64_t>(c.encoding),
      kRows);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, c.encoding, &w).ok());
  const std::vector<uint8_t>& bytes = w.data();

  std::vector<uint32_t> sel;
  for (uint32_t i = 1; i < kRows; i += 3) sel.push_back(i);
  const std::vector<TypedPredicate> preds = {TypedPredicate::Make(
      col.type(), CmpOp::kGe, MidLiteral(c.type, kRows))};
  ByteReader full_r(bytes);
  auto full = DecodeColumn(col.type(), c.encoding, &full_r, col.size());
  ASSERT_TRUE(full.ok());
  const ColumnVectorPtr full_sel = (*full)->Gather(sel);
  const std::vector<uint32_t> full_filter = ReferenceSelect(col, preds);

  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    ByteReader r1(prefix);
    auto whole = DecodeColumn(col.type(), c.encoding, &r1, col.size());
    ASSERT_FALSE(whole.ok()) << "prefix " << len;
    ASSERT_TRUE(whole.status().IsCorruption()) << whole.status().ToString();

    ByteReader r2(prefix);
    auto picked =
        DecodeColumnSelected(col.type(), c.encoding, &r2, col.size(), sel);
    if (picked.ok()) {
      ExpectEqualVectors(*full_sel, **picked);
    } else {
      ASSERT_TRUE(picked.status().IsCorruption()) << picked.status().ToString();
    }

    ByteReader r3(prefix);
    auto filtered =
        FilterEncodedChunk(col.type(), c.encoding, &r3, col.size(), preds);
    if (filtered.ok()) {
      ASSERT_EQ(*filtered, full_filter) << "prefix " << len;
    } else {
      ASSERT_TRUE(filtered.status().IsCorruption())
          << filtered.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSupported, FusedDecodeTest, ::testing::ValuesIn(AllSupportedCases()),
    [](const ::testing::TestParamInfo<FusedCase>& info) {
      std::string name = TypeName(info.param.type);
      name += "_";
      name += EncodingName(info.param.encoding);
      name += "_";
      name += NullPatternName(info.param.nulls);
      return name;
    });

TEST(FusedDecodeEdgeTest, UnsupportedEncodingRejected) {
  const std::vector<uint8_t> empty;
  ByteReader r(empty);
  EXPECT_FALSE(FilterEncodedChunk(TypeId::kString, Encoding::kDelta, &r, 0, {})
                   .ok());
  EXPECT_FALSE(
      DecodeColumnSelected(TypeId::kDouble, Encoding::kDictionary, &r, 0, {})
          .ok());
}

TEST(FusedDecodeEdgeTest, OutOfRangeSelectionRejected) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 10; ++i) col.AppendInt(i);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &w).ok());
  ByteReader r(w.data());
  EXPECT_FALSE(
      DecodeColumnSelected(TypeId::kInt64, Encoding::kPlain, &r, 10, {3, 99})
          .ok());
}

// Every encoding takes one selection contract: ascending, unique row
// indexes below num_rows. Anything else is Corruption, never rows.
TEST(FusedDecodeEdgeTest, UnsortedOrDuplicateSelectionRejected) {
  ColumnVector ints(TypeId::kInt64);
  ColumnVector strings(TypeId::kString);
  ColumnVector bools(TypeId::kBool);
  for (int i = 0; i < 10; ++i) {
    ints.AppendInt(i / 4);
    strings.AppendString(i % 2 == 0 ? "even" : "odd");
    bools.AppendBool(i % 3 == 0);
  }
  const std::pair<const ColumnVector*, Encoding> chunks[] = {
      {&ints, Encoding::kPlain},          {&ints, Encoding::kRunLength},
      {&ints, Encoding::kDelta},          {&strings, Encoding::kDictionary},
      {&bools, Encoding::kBitPacked},
  };
  const std::vector<std::vector<uint32_t>> bad = {{5, 3}, {3, 3}, {2, 10}};
  for (const auto& [col, encoding] : chunks) {
    ByteWriter w;
    ASSERT_TRUE(EncodeColumn(*col, encoding, &w).ok());
    for (const auto& sel : bad) {
      ByteReader r(w.data());
      auto got = DecodeColumnSelected(col->type(), encoding, &r, col->size(), sel);
      EXPECT_TRUE(got.status().IsCorruption())
          << EncodingName(encoding) << " accepted {" << sel[0] << ","
          << sel[1] << "}";
    }
  }
}

TEST(FusedDecodeEdgeTest, EmptyChunk) {
  ColumnVector col(TypeId::kInt64);
  ByteWriter w;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &w).ok());
  const std::vector<TypedPredicate> preds = {
      TypedPredicate::Make(TypeId::kInt64, CmpOp::kEq, Value::Int(1))};
  ByteReader r(w.data());
  auto sel = FilterEncodedChunk(TypeId::kInt64, Encoding::kPlain, &r, 0, preds);
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel->empty());
}

}  // namespace
}  // namespace pixels
