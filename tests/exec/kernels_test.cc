// Kernel-vs-reference equivalence: FilterOperator's selection and the
// column-kernel EvaluateExpr must agree with the row-at-a-time oracle
// (testing/reference_eval.h) on randomized, empty and all-null batches
// for every shape the binder accepts; the shapes it rejects are bind
// errors, never evaluated.
#include "exec/kernels.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "common/random.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "sql/parser.h"
#include "testing/reference_eval.h"

namespace pixels {
namespace {

// A batch with qualified names, mixed types, and nulls everywhere.
RowBatchPtr RandomBatch(uint64_t seed, int rows) {
  Random rng(seed);
  auto batch = std::make_shared<RowBatch>();
  auto a = MakeVector(TypeId::kInt64);
  auto b = MakeVector(TypeId::kDouble);
  auto s = MakeVector(TypeId::kString);
  auto f = MakeVector(TypeId::kBool);
  const char* words[] = {"apple", "banana", "cherry", "date"};
  for (int i = 0; i < rows; ++i) {
    rng.Bernoulli(0.1) ? a->AppendNull() : a->AppendInt(rng.Uniform(-20, 20));
    rng.Bernoulli(0.1) ? b->AppendNull()
                       : b->AppendDouble(rng.UniformDouble(-5.0, 5.0));
    rng.Bernoulli(0.1) ? s->AppendNull()
                       : s->AppendString(words[rng.Uniform(0, 3)]);
    rng.Bernoulli(0.1) ? f->AppendNull() : f->AppendBool(rng.Bernoulli(0.5));
  }
  batch->AddColumn("t.a", a);
  batch->AddColumn("t.b", b);
  batch->AddColumn("t.s", s);
  batch->AddColumn("t.flag", f);
  return batch;
}

// RandomBatch's columns with every row null.
RowBatchPtr NullBatch(int rows) {
  auto batch = std::make_shared<RowBatch>();
  const std::pair<const char*, TypeId> cols[] = {{"t.a", TypeId::kInt64},
                                                 {"t.b", TypeId::kDouble},
                                                 {"t.s", TypeId::kString},
                                                 {"t.flag", TypeId::kBool}};
  for (const auto& [name, type] : cols) {
    auto v = MakeVector(type);
    for (int i = 0; i < rows; ++i) v->AppendNull();
    batch->AddColumn(name, v);
  }
  return batch;
}

// The filter reference: a row passes when the predicate evaluates to
// non-null true.
SelectionVector ScalarSelect(const Expr& pred, const RowBatch& batch) {
  auto col = ReferenceEvaluate(pred, batch);
  EXPECT_TRUE(col.ok()) << col.status().ToString();
  SelectionVector sel;
  for (size_t i = 0; i < (*col)->size(); ++i) {
    if (!(*col)->IsNull(i) && (*col)->GetValue(i).i != 0) {
      sel.push_back(static_cast<uint32_t>(i));
    }
  }
  return sel;
}

// Parses `text` and binds it against RandomBatch's columns (every batch
// here has them).
Result<ExprPtr> Bind(const std::string& text) {
  return BindExpr(text, *RandomBatch(0, 0));
}

ExprPtr Parse(const std::string& text) {
  auto e = Bind(text);
  EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
  return e.ok() ? std::move(*e) : nullptr;
}

// Emits one batch, then end of stream.
class OneBatch : public Operator {
 public:
  explicit OneBatch(SelBatch batch) : batch_(std::move(batch)) {}
  Status Open() override { return Status::OK(); }
  Result<SelBatch> Next() override { return std::exchange(batch_, {}); }

 private:
  SelBatch batch_;
};

std::vector<std::string> RowsOf(const RowBatch& batch,
                                const SelectionVector& sel) {
  std::vector<std::string> rows;
  for (uint32_t i : sel) rows.push_back(batch.RowToString(i));
  return rows;
}

// The rows a FilterOperator over `batch` (restricted to `in` when set)
// emits, rendered one string per row.
Result<std::vector<std::string>> FilterRows(const Expr& pred,
                                            const RowBatchPtr& batch,
                                            const SelectionVector* in) {
  SelBatch input{batch};
  if (in != nullptr) input.sel = std::make_shared<SelectionVector>(*in);
  FilterOperator filter(std::make_unique<OneBatch>(std::move(input)), pred);
  PIXELS_RETURN_NOT_OK(filter.Open());
  std::vector<std::string> rows;
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch out, filter.Next());
    if (out.batch == nullptr) break;
    RowBatchPtr kept = out.Materialize();
    for (size_t i = 0; i < kept->num_rows(); ++i) {
      rows.push_back(kept->RowToString(i));
    }
  }
  return rows;
}

const char* const kPredicateShapes[] = {
    // Single comparisons, ranges, lists and null tests.
    "a > 3", "a >= 3", "a < 3", "a <= 3", "a = 3", "a <> 3",
    "b > 0.5", "b <= -1.0", "s = 'banana'", "s <> 'apple'",
    "s < 'cherry'", "t.a > 0", "3 < a",
    "a BETWEEN -5 AND 5", "a NOT BETWEEN -5 AND 5",
    "s IN ('apple', 'cherry')", "s NOT IN ('apple', 'cherry')",
    "a IS NULL", "a IS NOT NULL", "flag", "NOT flag",
    // Conjunctions.
    "a > 0 AND b < 1.0", "a > -10 AND a < 10 AND s <> 'date'",
    "flag AND a IS NOT NULL AND b > 0.0",
    // Type widening and cross-kind comparisons.
    "a > 1.5", "b = 2", "s > 5", "a = 'x'",
    // Constant-folding shapes.
    "a = NULL", "a BETWEEN 1 AND NULL",
    // Arithmetic, disjunction and negation over comparisons.
    "a + b > 0", "a * 2 < b", "a > 0 OR b > 0",
    "a > 0 AND a + b > 0", "NOT (a > 0)"};

class FilterPredicateTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FilterPredicateTest, SelectMatchesScalarEvaluator) {
  const std::string text = GetParam();
  auto pred = Parse(text);
  ASSERT_NE(pred, nullptr);
  for (uint64_t seed : {1u, 7u, 42u}) {
    auto batch = RandomBatch(seed, 503);
    auto got = FilterRows(*pred, batch, nullptr);
    ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
    EXPECT_EQ(*got, RowsOf(*batch, ScalarSelect(*pred, *batch)))
        << text << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FilterPredicateTest,
                         ::testing::ValuesIn(kPredicateShapes));

TEST(FilterPredicateTest, IncomingSelectionMatchesGatheredReference) {
  auto batch = RandomBatch(5, 503);
  // Every other row is evaluated in place; every tenth row is gathered
  // first (SelBatch::Evaluate's sparse rule).
  for (uint32_t step : {2u, 10u}) {
    SelectionVector in;
    for (uint32_t i = 1; i < batch->num_rows(); i += step) in.push_back(i);
    const RowBatchPtr gathered = batch->Gather(in);
    for (const char* text : kPredicateShapes) {
      auto pred = Parse(text);
      ASSERT_NE(pred, nullptr);
      auto got = FilterRows(*pred, batch, &in);
      ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
      EXPECT_EQ(*got, RowsOf(*gathered, ScalarSelect(*pred, *gathered)))
          << text << " step=" << step;
    }
  }
}

TEST(FilterPredicateTest, AndShortCircuitsPerRowError) {
  // length() over an integer used to fail per row, and only on rows the
  // row evaluator's AND short-circuit reached. The binder rejects it, so
  // no predicate fails on a row, selected or not.
  auto bound = Bind("a > 100 AND length(a) > 0");
  EXPECT_EQ(bound.status().code(), StatusCode::kTypeError);
  EXPECT_EQ(bound.status().message(),
            "length needs a string argument: length(a)");
}

TEST(FilterPredicateTest, UnknownColumnFailsLikeScalar) {
  // The binder reports the unknown column, with the code evaluation
  // returned for it.
  EXPECT_EQ(Bind("zz > 3").status().code(), StatusCode::kInvalidArgument);
}

// ---- column-kernel expression evaluation ----

class VectorizedExprTest : public ::testing::TestWithParam<const char*> {};

// Shapes the binder rejects, with the code evaluation returned for them
// when the rows decided the output type or raised a per-row error.
const std::map<std::string, StatusCode> kBindErrors = {
    {"CASE WHEN flag THEN s ELSE 1 END", StatusCode::kTypeError},
    {"CASE WHEN a > 100 THEN 'x' ELSE 1 END", StatusCode::kTypeError},
    {"CASE WHEN a > 100 THEN zz ELSE 1 END", StatusCode::kInvalidArgument},
    {"zz + 1", StatusCode::kInvalidArgument},
    {"a LIKE 'x%'", StatusCode::kTypeError},
    {"CASE WHEN a > 0 THEN length(a) ELSE 0 END", StatusCode::kTypeError},
    {"CASE WHEN a > 100 THEN length(a) ELSE 0 END", StatusCode::kTypeError},
    {"a > 100 AND a LIKE 'x%'", StatusCode::kTypeError},
    {"-s", StatusCode::kTypeError}};

TEST_P(VectorizedExprTest, MatchesScalarEvaluator) {
  const std::string text = GetParam();
  auto bound = Bind(text);
  if (kBindErrors.count(text) > 0) {
    EXPECT_EQ(bound.status().code(), kBindErrors.at(text)) << text;
    return;
  }
  ASSERT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
  const ExprPtr expr = std::move(*bound);
  // Random batches, small ones, an empty one and an all-null one: the
  // output type is the bound type on every one.
  const RowBatchPtr batches[] = {RandomBatch(2, 389), RandomBatch(11, 389),
                                 RandomBatch(3, 4),   RandomBatch(8, 2),
                                 RandomBatch(5, 0),   NullBatch(17)};
  for (const auto& batch : batches) {
    const size_t rows = batch->num_rows();
    auto ref = ReferenceEvaluate(*expr, *batch);
    auto got = EvaluateExpr(*expr, *batch);
    ASSERT_EQ(ref.ok(), got.ok())
        << text << " rows=" << rows << ": reference "
        << ref.status().ToString() << ", got " << got.status().ToString();
    if (!ref.ok()) {
      EXPECT_EQ(ref.status().ToString(), got.status().ToString()) << text;
      continue;
    }
    ASSERT_EQ((*ref)->size(), (*got)->size()) << text;
    EXPECT_EQ((*ref)->type(), (*got)->type()) << text << " rows=" << rows;
    EXPECT_EQ((*got)->type(), *expr->type) << text << " rows=" << rows;
    EXPECT_EQ((*ref)->NullCount(), (*got)->NullCount()) << text;
    for (size_t i = 0; i < (*ref)->size(); ++i) {
      ASSERT_EQ((*ref)->IsNull(i), (*got)->IsNull(i)) << text << " row " << i;
      if (!(*ref)->IsNull(i)) {
        const Value want = (*ref)->GetValue(i), have = (*got)->GetValue(i);
        EXPECT_EQ(want.Compare(have), 0)
            << text << " row " << i << ": " << want.ToString() << " vs "
            << have.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, VectorizedExprTest,
    ::testing::Values(
        "a", "t.b", "7", "'lit'", "a + 1", "a - b", "a * 2", "b / 2.0", "-a",
        "-b", "a + b * 2 - 1", "a > b", "a = 3", "b <> 0.5", "s = 'apple'",
        "a % 3",
        // Literal operands on either side; / and % by zero are NULL.
        "10 - a", "0 / a", "2.5 * a", "1 - b", "b * (1 - b)", "-(a + 1)",
        "a / 0", "b / 0", "a % 0", "a % b", "b % 2", "a / b",
        // Comparisons across kinds and with NULL.
        "1 < a", "'banana' <= s", "s > 5", "a = 'x'", "a = NULL",
        "NULL + a", "a <> b", "flag + 1", "flag = 1",
        // Kleene logic over nulls.
        "a > 0 AND b > 0", "a > 0 OR b > 0", "NOT (a > 0)", "NOT flag",
        "flag AND a IS NULL", "flag OR NULL", "flag AND NULL", "NOT s",
        "a AND b", "s OR flag",
        // BETWEEN / IN / IS NULL, including column bounds and items.
        "a BETWEEN -5 AND 5", "a NOT BETWEEN b AND 5", "b BETWEEN a AND NULL",
        "s BETWEEN 'b' AND 'd'", "a IN (1, 2, 3)", "a NOT IN (1, NULL, 3)",
        "s IN ('apple', 5)", "b IN (0.5, a)", "a IS NULL", "s IS NOT NULL",
        "a + b IS NULL",
        // CASE with and without ELSE; int and double branches unify to
        // double whichever branches the rows take.
        "CASE WHEN a > 0 THEN 1 ELSE 0 END", "CASE WHEN a > 0 THEN b END",
        "CASE WHEN a > 100 THEN b ELSE 0 END",
        "CASE WHEN a > 18 THEN b ELSE 0 END",
        "CASE WHEN a > 0 THEN b ELSE a END",
        "(CASE WHEN a > 0 THEN b ELSE a END) / 2",
        "CASE WHEN s = 'apple' THEN 'x' WHEN s = 'banana' THEN s END",
        "CASE WHEN flag THEN s ELSE 1 END",
        "CASE WHEN a > 100 THEN 'x' ELSE 1 END",
        "CASE WHEN a > 0 THEN CASE WHEN b > 0 THEN 1.5 END ELSE 2 END",
        "CASE WHEN a IS NULL THEN -1 WHEN a > 0 THEN a * 2 ELSE a END",
        "CASE WHEN NULL THEN 1 ELSE a END", "CASE WHEN a > 0 THEN NULL END",
        "CASE WHEN 1 = 1 THEN b END",
        "CASE WHEN a > 0 OR s = 'date' THEN 1 ELSE 0 END",
        // LIKE with % and _ patterns.
        "s LIKE 'a%'", "s LIKE '%e'", "s LIKE '%an%'", "s LIKE 'apple'",
        "s LIKE '_a%'", "s LIKE '%'", "s LIKE '%%'", "s NOT LIKE 'b%'",
        "s LIKE NULL", "CASE WHEN s LIKE 'b%' THEN b ELSE 0 END",
        // Bind errors (kBindErrors), and functions over columns.
        "a LIKE 'x%'", "CASE WHEN a > 0 THEN length(a) ELSE 0 END",
        "CASE WHEN a > 100 THEN length(a) ELSE 0 END",
        "a > 100 AND a LIKE 'x%'", "CASE WHEN a > 100 THEN zz ELSE 1 END",
        "zz + 1", "abs(a) + 1", "length(s) * 2", "s || 'x'", "-s",
        // Constants.
        "1 + 2", "NULL", "'x' || 'y'", "TRUE",
        // Every scalar function and ||, over columns and literals.
        "abs(a)", "abs(b)", "abs(-7)", "abs(flag)", "round(b)", "round(a)",
        "round(b, 1)", "round(a, -1)", "round(2.345, a)", "floor(b)",
        "floor(a)", "ceil(b)", "ceiling(a)", "floor(-2.5)", "sqrt(b)",
        "sqrt(a)", "sqrt(2)", "length(s)", "length('abc')", "length(NULL)",
        "lower(s)", "upper(s)", "upper('MiXed')", "lower(NULL)",
        "substr(s, 2)", "substr(s, a)", "substr(s, 2, 3)",
        "substring(s, b, a)", "substr('hello', a, 2)", "substr(s, -1, 2)",
        "substr(s, 10)", "concat(s, a)", "concat(s, '-', b, flag)",
        "concat()", "concat(a > 0, flag)", "concat('x', NULL)",
        "concat(TRUE)", "s || a", "a || b", "flag || s", "'x' || (a = 3)",
        "s || NULL", "year(a)", "month(a * 1000)", "day(b * 100000)",
        "year(a * 100000000)", "month(20000)", "CAST(a AS double)",
        "CAST(b AS bigint)", "CAST(s AS int)", "CAST(s AS double)",
        "CAST(flag AS varchar)", "CAST(b AS varchar)", "CAST(a AS varchar)",
        "CAST('12abc' AS integer)", "CAST(' 3.5' AS double)",
        "CAST(NULL AS varchar)", "coalesce(a, b)", "coalesce(s, 'none')",
        "coalesce(NULL, a, 7)", "coalesce(NULL)", "coalesce(flag, a)",
        "coalesce(CASE WHEN a > 0 THEN NULL END, s)",
        // LIKE with a column pattern or a constant left side.
        "s LIKE s", "'apple' LIKE s",
        "s LIKE CASE WHEN flag THEN 'a%' ELSE '%e' END",
        "s LIKE concat(substr(s, 1, 1), '%')", "'abc' LIKE 'a_c'",
        "lower(NULL) LIKE s"));

// CASE with 300 branches and coalesce with 300 arguments: more branch ids
// than a byte holds.
TEST(WideBranchTest, ManyBranchesMatchReference) {
  std::string case_text = "CASE", coalesce_text = "coalesce(";
  for (int k = 0; k < 300; ++k) {
    case_text += " WHEN a = " + std::to_string(k % 41 - 20) + " AND b > " +
                 std::to_string(k % 7 - 3) + " THEN " + std::to_string(k);
    coalesce_text += std::string(k == 0 ? "" : ", ") +
                     (k % 3 == 0 ? "NULL" : "CASE WHEN a > " +
                                                std::to_string(k % 41 - 20) +
                                                " THEN b END");
  }
  case_text += " ELSE -1 END";
  coalesce_text += ")";
  for (const std::string& text : {case_text, coalesce_text}) {
    auto expr = Parse(text);
    ASSERT_NE(expr, nullptr);
    for (uint64_t seed : {4u, 9u}) {
      auto batch = RandomBatch(seed, 389);
      auto ref = ReferenceEvaluate(*expr, *batch);
      auto got = EvaluateExpr(*expr, *batch);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ((*got)->type(), *expr->type);
      for (size_t i = 0; i < (*ref)->size(); ++i) {
        ASSERT_EQ((*ref)->IsNull(i), (*got)->IsNull(i)) << "row " << i;
        EXPECT_EQ((*ref)->GetValue(i).Compare((*got)->GetValue(i)), 0)
            << "row " << i;
      }
    }
  }
}

// ---- bloom selection kernels ----

TEST(BloomSelectTest, NoFalseNegativesAndNullsNeverPass) {
  Random rng(5);
  BloomFilter bloom(64, 10);
  std::vector<int64_t> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(rng.Uniform(-1000000, 1000000));
    bloom.Add(RfHashInt(keys.back()));
  }
  auto col = MakeVector(TypeId::kInt64);
  for (int i = 0; i < 200; ++i) {
    if (i % 10 == 0) {
      col->AppendNull();
    } else if (i % 2 == 0) {
      col->AppendInt(keys[i % keys.size()]);  // definitely present
    } else {
      col->AppendInt(5000000 + i);  // definitely absent
    }
  }
  auto sel = BloomFilterSelect(*col, bloom, nullptr);
  // Every inserted key's row survives; no null row survives.
  std::vector<bool> selected(col->size(), false);
  for (uint32_t i : sel) selected[i] = true;
  for (size_t i = 0; i < col->size(); ++i) {
    if (col->IsNull(i)) {
      EXPECT_FALSE(selected[i]) << "null row " << i << " passed the bloom";
    } else if (i % 10 != 0 && i % 2 == 0) {
      EXPECT_TRUE(selected[i]) << "inserted key dropped at row " << i;
    }
  }
}

TEST(BloomSelectTest, RespectsInputSelection) {
  BloomFilter bloom(4, 10);
  bloom.Add(RfHashInt(1));
  auto col = MakeVector(TypeId::kInt64);
  for (int i = 0; i < 8; ++i) col->AppendInt(1);  // all keys present
  SelectionVector in = {2, 5, 7};
  auto sel = BloomFilterSelect(*col, bloom, &in);
  EXPECT_EQ(sel, in);
}

TEST(RfHashColumnTest, MatchesPerValueHash) {
  auto check = [](const ColumnVectorPtr& col) {
    auto hashes = RfHashColumn(*col);
    ASSERT_EQ(hashes.size(), col->size());
    for (size_t i = 0; i < col->size(); ++i) {
      if (col->IsNull(i)) continue;
      EXPECT_EQ(hashes[i], RfHashValue(col->GetValue(i))) << "row " << i;
    }
  };
  Random rng(9);
  auto ints = MakeVector(TypeId::kInt64);
  auto dbls = MakeVector(TypeId::kDouble);
  auto strs = MakeVector(TypeId::kString);
  auto bools = MakeVector(TypeId::kBool);
  for (int i = 0; i < 100; ++i) {
    ints->AppendInt(rng.Uniform(-50, 50));
    dbls->AppendDouble(rng.UniformDouble(-2, 2));
    strs->AppendString(rng.NextString(rng.Uniform(0, 8)));
    bools->AppendBool(rng.Bernoulli(0.5));
  }
  ints->AppendNull();
  check(ints);
  check(dbls);
  check(strs);
  check(bools);
}

}  // namespace
}  // namespace pixels
