#include "exec/expression.h"

#include <gtest/gtest.h>

#include "testing/reference_eval.h"

namespace pixels {
namespace {

RowBatchPtr MakeBatch() {
  auto batch = std::make_shared<RowBatch>();
  auto a = MakeVector(TypeId::kInt64);
  auto b = MakeVector(TypeId::kDouble);
  auto s = MakeVector(TypeId::kString);
  a->AppendInt(1);
  a->AppendInt(2);
  a->AppendNull();
  b->AppendDouble(0.5);
  b->AppendDouble(-1.5);
  b->AppendDouble(2.0);
  s->AppendString("apple");
  s->AppendString("banana");
  s->AppendString("cherry");
  batch->AddColumn("t.a", a);
  batch->AddColumn("t.b", b);
  batch->AddColumn("t.s", s);
  return batch;
}

// Binds `expr` against the batch's columns, then evaluates it.
Result<ColumnVectorPtr> Eval(const std::string& expr, const RowBatch& batch) {
  PIXELS_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(expr, batch));
  return EvaluateExpr(*e, batch);
}

TEST(ExpressionTest, ColumnRefFastPath) {
  auto batch = MakeBatch();
  auto r = Eval("a", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetInt(0), 1);
  EXPECT_TRUE((*r)->IsNull(2));
}

TEST(ExpressionTest, QualifiedColumnRef) {
  auto batch = MakeBatch();
  auto r = Eval("t.a", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->size(), 3u);
}

TEST(ExpressionTest, UnknownColumnFails) {
  auto batch = MakeBatch();
  EXPECT_FALSE(Eval("zz", *batch).ok());
}

TEST(ExpressionTest, ArithmeticWithNullPropagation) {
  auto batch = MakeBatch();
  auto r = Eval("a + 10", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetInt(0), 11);
  EXPECT_EQ((*r)->GetInt(1), 12);
  EXPECT_TRUE((*r)->IsNull(2));
}

TEST(ExpressionTest, MixedIntDoubleWidens) {
  auto batch = MakeBatch();
  auto r = Eval("a * b", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ((*r)->GetDouble(0), 0.5);
  EXPECT_DOUBLE_EQ((*r)->GetDouble(1), -3.0);
}

TEST(ExpressionTest, IntegerDivisionAndModulo) {
  auto batch = MakeBatch();
  auto r = Eval("7 / a", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetInt(0), 7);
  EXPECT_EQ((*r)->GetInt(1), 3);
  auto m = Eval("7 % 3", *batch);
  EXPECT_EQ((*m)->GetInt(0), 1);
}

TEST(ExpressionTest, DivisionByZeroYieldsNull) {
  auto batch = MakeBatch();
  auto r = Eval("a / 0", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->IsNull(0));
}

TEST(ExpressionTest, Comparisons) {
  auto batch = MakeBatch();
  auto r = Eval("a >= 2", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE((*r)->GetBool(0));
  EXPECT_TRUE((*r)->GetBool(1));
  EXPECT_TRUE((*r)->IsNull(2));
}

TEST(ExpressionTest, LogicShortCircuitsWithNulls) {
  auto batch = MakeBatch();
  // a IS NULL on row 2; false AND null = false.
  auto r = Eval("a < 0 AND b > 0", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE((*r)->GetBool(0));
  // null AND true = null.
  auto r2 = Eval("a > 0 AND b > 0", *batch);
  EXPECT_TRUE((*r2)->IsNull(2));
  // null OR true = true.
  auto r3 = Eval("a > 0 OR b > 0", *batch);
  EXPECT_TRUE((*r3)->GetBool(2));
}

TEST(ExpressionTest, NotOperator) {
  auto batch = MakeBatch();
  auto r = Eval("NOT (a = 1)", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE((*r)->GetBool(0));
  EXPECT_TRUE((*r)->GetBool(1));
  EXPECT_TRUE((*r)->IsNull(2));
}

TEST(ExpressionTest, LikePatterns) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%llo"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("hello", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_FALSE(LikeMatch("hello", "h_llx"));
  EXPECT_FALSE(LikeMatch("hello", "ello"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
  EXPECT_TRUE(LikeMatch("a", "%%a%%"));
}

TEST(ExpressionTest, LikeOnColumn) {
  auto batch = MakeBatch();
  auto r = Eval("s LIKE '%an%'", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE((*r)->GetBool(0));
  EXPECT_TRUE((*r)->GetBool(1));
  EXPECT_FALSE((*r)->GetBool(2));
}

TEST(ExpressionTest, BetweenAndIn) {
  auto batch = MakeBatch();
  auto r = Eval("a BETWEEN 1 AND 1", *batch);
  EXPECT_TRUE((*r)->GetBool(0));
  EXPECT_FALSE((*r)->GetBool(1));
  auto r2 = Eval("s IN ('apple', 'cherry')", *batch);
  EXPECT_TRUE((*r2)->GetBool(0));
  EXPECT_FALSE((*r2)->GetBool(1));
  EXPECT_TRUE((*r2)->GetBool(2));
  auto r3 = Eval("a NOT IN (1)", *batch);
  EXPECT_FALSE((*r3)->GetBool(0));
  EXPECT_TRUE((*r3)->GetBool(1));
}

TEST(ExpressionTest, IsNull) {
  auto batch = MakeBatch();
  auto r = Eval("a IS NULL", *batch);
  EXPECT_FALSE((*r)->GetBool(0));
  EXPECT_TRUE((*r)->GetBool(2));
  auto r2 = Eval("a IS NOT NULL", *batch);
  EXPECT_TRUE((*r2)->GetBool(0));
  EXPECT_FALSE((*r2)->GetBool(2));
}

TEST(ExpressionTest, CaseExpression) {
  auto batch = MakeBatch();
  auto r = Eval("CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'other' END",
                *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetString(0), "one");
  EXPECT_EQ((*r)->GetString(1), "two");
  EXPECT_EQ((*r)->GetString(2), "other");
}

TEST(ExpressionTest, CaseWithoutElseYieldsNull) {
  auto batch = MakeBatch();
  auto r = Eval("CASE WHEN a = 1 THEN 5 END", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetInt(0), 5);
  EXPECT_TRUE((*r)->IsNull(1));
}

TEST(ExpressionTest, StringFunctions) {
  auto batch = MakeBatch();
  EXPECT_EQ((*Eval("upper(s)", *batch))->GetString(0), "APPLE");
  EXPECT_EQ((*Eval("lower('ABC')", *batch))->GetString(0), "abc");
  EXPECT_EQ((*Eval("length(s)", *batch))->GetInt(1), 6);
  EXPECT_EQ((*Eval("substr(s, 2, 3)", *batch))->GetString(0), "ppl");
  EXPECT_EQ((*Eval("substr(s, 2)", *batch))->GetString(0), "pple");
  EXPECT_EQ((*Eval("concat(s, '!')", *batch))->GetString(0), "apple!");
  EXPECT_EQ((*Eval("s || '-x'", *batch))->GetString(0), "apple-x");
}

TEST(ExpressionTest, MathFunctions) {
  auto batch = MakeBatch();
  EXPECT_DOUBLE_EQ((*Eval("abs(b)", *batch))->GetDouble(1), 1.5);
  EXPECT_EQ((*Eval("abs(a - 5)", *batch))->GetInt(0), 4);
  EXPECT_DOUBLE_EQ((*Eval("round(b)", *batch))->GetDouble(0), 1.0);
  EXPECT_DOUBLE_EQ((*Eval("round(3.14159, 2)", *batch))->GetDouble(0), 3.14);
  EXPECT_DOUBLE_EQ((*Eval("floor(b)", *batch))->GetDouble(0), 0.0);
  EXPECT_DOUBLE_EQ((*Eval("ceil(b)", *batch))->GetDouble(0), 1.0);
  EXPECT_DOUBLE_EQ((*Eval("sqrt(4)", *batch))->GetDouble(0), 2.0);
}

TEST(ExpressionTest, Coalesce) {
  auto batch = MakeBatch();
  auto r = Eval("coalesce(a, 0)", *batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetInt(2), 0);
  EXPECT_EQ((*r)->GetInt(0), 1);
}

TEST(ExpressionTest, DateFunctions) {
  auto batch = std::make_shared<RowBatch>();
  auto d = MakeVector(TypeId::kDate);
  d->AppendInt(*ParseDate("2021-07-15"));
  batch->AddColumn("d", d);
  EXPECT_EQ((*Eval("year(d)", *batch))->GetInt(0), 2021);
  EXPECT_EQ((*Eval("month(d)", *batch))->GetInt(0), 7);
  EXPECT_EQ((*Eval("day(d)", *batch))->GetInt(0), 15);
}

TEST(ExpressionTest, Casts) {
  auto batch = MakeBatch();
  EXPECT_EQ((*Eval("CAST(b AS int)", *batch))->GetInt(2), 2);
  EXPECT_DOUBLE_EQ((*Eval("CAST(a AS double)", *batch))->GetDouble(0), 1.0);
  EXPECT_EQ((*Eval("CAST('42' AS bigint)", *batch))->GetInt(0), 42);
  EXPECT_EQ((*Eval("CAST(a AS varchar)", *batch))->GetString(0), "1");
  EXPECT_TRUE((*Eval("CAST('abc' AS int)", *batch))->IsNull(0));
}

TEST(ExpressionTest, UnknownFunctionFails) {
  auto batch = MakeBatch();
  EXPECT_FALSE(Eval("frobnicate(a)", *batch).ok());
}

TEST(ExpressionTest, WrongArgCountFails) {
  // A bind error, before any row is read.
  auto batch = MakeBatch();
  for (const auto& [text, fn] :
       {std::pair<const char*, const char*>{"abs(a, b)", "abs"},
        {"length()", "length"},
        {"substr(s)", "substr"},
        {"round(b, 1, 2)", "round"}}) {
    auto bound = BindExpr(text, *batch);
    EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(bound.status().message(),
              std::string("function ") + fn + ": wrong argument count");
  }
}

TEST(ExpressionTest, MixedStringNumericOutputFails) {
  // The binder rejects the mix: no batch decides it.
  auto batch = MakeBatch();
  auto r = Eval("CASE WHEN a = 1 THEN 's' ELSE 2 END", *batch);
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(ExpressionTest, OutputHasTheBoundTypeOnEveryBatch) {
  auto batch = MakeBatch();
  auto empty = batch->Gather({});
  auto all_null = batch->Gather({2, 2});  // a is NULL on row 2
  for (const RowBatchPtr& b : {batch, empty, all_null}) {
    EXPECT_EQ((*Eval("a + 1", *b))->type(), TypeId::kInt64);
    EXPECT_EQ((*Eval("a * b", *b))->type(), TypeId::kDouble);
    EXPECT_EQ((*Eval("CASE WHEN a > 1 THEN b ELSE 0 END", *b))->type(),
              TypeId::kDouble);
    EXPECT_EQ((*Eval("CASE WHEN a > 1 THEN s END", *b))->type(), TypeId::kString);
  }
}

TEST(ExpressionTest, UnboundExpressionIsInternalError) {
  auto batch = MakeBatch();
  auto e = ParseExpression("a + 1");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(EvaluateExpr(**e, *batch).status().code(), StatusCode::kInternal);
  // A bare column reference needs no type: it is the column itself.
  auto ref = ParseExpression("a");
  EXPECT_TRUE(EvaluateExpr(**ref, *batch).ok());
}

TEST(BuildVectorTest, BuildsTheBoundType) {
  auto ints = BuildVectorFromValues({Value::Int(1), Value::Null()}, TypeId::kInt64);
  ASSERT_TRUE(ints.ok());
  EXPECT_EQ((*ints)->type(), TypeId::kInt64);
  auto dbls = BuildVectorFromValues({Value::Int(1), Value::Double(2.5)},
                                    TypeId::kDouble);
  EXPECT_EQ((*dbls)->type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ((*dbls)->GetDouble(0), 1.0);
  auto strs = BuildVectorFromValues({Value::String("x")}, TypeId::kString);
  EXPECT_EQ((*strs)->type(), TypeId::kString);
  auto empty = BuildVectorFromValues({}, TypeId::kDouble);
  EXPECT_EQ((*empty)->type(), TypeId::kDouble);
  EXPECT_EQ(BuildVectorFromValues({Value::String("x")}, TypeId::kInt64)
                .status()
                .code(),
            StatusCode::kTypeError);
}

}  // namespace
}  // namespace pixels
