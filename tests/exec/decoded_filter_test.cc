// The Filter over decoded chunks: for every supported (encoding, type)
// pair, null pattern and predicate shape, a FilterOperator over the
// DecodeColumn output of an encoded chunk keeps exactly the rows that
// per-row Value::Compare keeps on the original column (nulls never
// match). Pushed predicates only prune row groups, so this Filter is the
// one evaluator that decides which scanned rows survive.
#include <gtest/gtest.h>

#include <utility>

#include "exec/operators.h"
#include "format/compare.h"
#include "testing/chunk_cases.h"
#include "testing/reference_eval.h"

namespace pixels {
namespace {

struct Comparison {
  CmpOp op;
  Value literal;
};

const char* CmpOpText(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

// `a op1 lit1 AND a op2 lit2 ...` over column "a"; with no comparison,
// `a IS NOT NULL`.
ExprPtr Conjunction(const std::vector<Comparison>& cmps) {
  if (cmps.empty()) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kIsNull;
    e->negated = true;
    e->args.push_back(MakeColumnRef("", "a"));
    return e;
  }
  ExprPtr out;
  for (const Comparison& c : cmps) {
    ExprPtr cmp = MakeBinary(CmpOpText(c.op), MakeColumnRef("", "a"),
                             MakeLiteral(c.literal));
    out = out == nullptr ? std::move(cmp)
                         : MakeBinary("AND", std::move(out), std::move(cmp));
  }
  return out;
}

// `c` (Value::Compare's -1/0/+1) under `op`, spelled out here rather
// than through ApplyCmp, which the evaluator's kernels use.
bool Holds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

// The reference: every non-null row whose value satisfies every
// comparison by Value::Compare; a null literal matches nothing.
SelectionVector ReferenceSelect(const ColumnVector& col,
                                const std::vector<Comparison>& cmps) {
  SelectionVector sel;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    const Value v = col.GetValue(i);
    bool all = true;
    for (const Comparison& c : cmps) {
      if (c.literal.is_null() || !Holds(c.op, v.Compare(c.literal))) {
        all = false;
        break;
      }
    }
    if (all) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

// Emits one batch, then end of stream.
class OneBatch : public Operator {
 public:
  explicit OneBatch(RowBatchPtr batch) : batch_(std::move(batch)) {}
  Status Open() override { return Status::OK(); }
  Result<SelBatch> Next() override {
    return SelBatch{std::exchange(batch_, nullptr)};
  }

 private:
  RowBatchPtr batch_;
};

// The row indexes a FilterOperator over `batch` keeps for `cmps`.
Result<SelectionVector> FilterSelect(const RowBatchPtr& batch,
                                     const std::vector<Comparison>& cmps) {
  ExprPtr pred = Conjunction(cmps);
  PIXELS_RETURN_NOT_OK(BindTypes(pred.get(), SchemaOf(*batch)));
  FilterOperator filter(std::make_unique<OneBatch>(batch), *pred);
  PIXELS_RETURN_NOT_OK(filter.Open());
  SelectionVector kept;
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch out, filter.Next());
    if (out.batch == nullptr) break;
    if (out.sel == nullptr) {
      for (uint32_t i = 0; i < out.batch->num_rows(); ++i) kept.push_back(i);
    } else {
      kept.insert(kept.end(), out.sel->begin(), out.sel->end());
    }
  }
  filter.Close();
  return kept;
}

// Encodes `col` with `encoding` and decodes it back as the batch column "a".
RowBatchPtr DecodedBatch(const ColumnVector& col, Encoding encoding) {
  ByteWriter w;
  EXPECT_TRUE(EncodeColumn(col, encoding, &w).ok());
  ByteReader r(w.data());
  auto decoded = DecodeColumn(col.type(), encoding, &r, col.size());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return nullptr;
  auto batch = std::make_shared<RowBatch>();
  batch->AddColumn("a", std::move(*decoded));
  return batch;
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

class FusedDecodeTest : public ::testing::TestWithParam<ChunkCase> {};

// Every CmpOp, single comparison.
TEST_P(FusedDecodeTest, FilterMatchesDecodeThenFilterAllOps) {
  const ChunkCase& c = GetParam();
  constexpr int kRows = 321;
  const ColumnVector col = MakeChunkColumn(
      c.type, c.nulls,
      static_cast<uint64_t>(c.type) * 131 + static_cast<uint64_t>(c.encoding),
      kRows);
  const RowBatchPtr batch = DecodedBatch(col, c.encoding);
  ASSERT_NE(batch, nullptr);

  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  for (CmpOp op : ops) {
    const std::vector<Comparison> cmps = {{op, MidLiteral(c.type, kRows)}};
    auto got = FilterSelect(batch, cmps);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, ReferenceSelect(col, cmps))
        << "op=" << CmpOpText(op) << " nulls=" << NullPatternName(c.nulls);
  }
}

// Predicate shapes beyond a single comparison: conjunctions (range),
// null literals (match nothing), kind mismatches (ordered by
// Value::Compare), and no comparison at all (every non-null row).
TEST_P(FusedDecodeTest, FilterMatchesOnPredicateShapes) {
  const ChunkCase& c = GetParam();
  constexpr int kRows = 257;
  const ColumnVector col = MakeChunkColumn(
      c.type, c.nulls,
      static_cast<uint64_t>(c.type) * 977 + static_cast<uint64_t>(c.encoding),
      kRows);
  const RowBatchPtr batch = DecodedBatch(col, c.encoding);
  ASSERT_NE(batch, nullptr);

  const Value mid = MidLiteral(c.type, kRows);
  const Value mismatch =
      c.type == TypeId::kString ? Value::Int(42) : Value::String("zzz");
  const std::vector<std::vector<Comparison>> shapes = {
      {{CmpOp::kGe, mid}, {CmpOp::kLe, mid}},
      {{CmpOp::kEq, Value::Null()}},
      {{CmpOp::kLt, mismatch}},
      {{CmpOp::kGt, mismatch}},
      {},
  };
  for (size_t s = 0; s < shapes.size(); ++s) {
    auto got = FilterSelect(batch, shapes[s]);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " shape " << s;
    EXPECT_EQ(*got, ReferenceSelect(col, shapes[s])) << "shape " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSupported, FusedDecodeTest,
                         ::testing::ValuesIn(AllSupportedChunkCases()),
                         ChunkCaseName);

}  // namespace
}  // namespace pixels
