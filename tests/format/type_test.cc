#include "format/type.h"

#include <gtest/gtest.h>

#include <limits>

namespace pixels {
namespace {

TEST(TypeTest, NamesRoundTrip) {
  for (TypeId t : {TypeId::kBool, TypeId::kInt32, TypeId::kInt64,
                   TypeId::kDouble, TypeId::kString, TypeId::kDate,
                   TypeId::kTimestamp}) {
    auto r = TypeFromName(TypeName(t));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, t);
  }
}

TEST(TypeTest, NameAliases) {
  EXPECT_EQ(*TypeFromName("integer"), TypeId::kInt32);
  EXPECT_EQ(*TypeFromName("long"), TypeId::kInt64);
  EXPECT_EQ(*TypeFromName("string"), TypeId::kString);
  EXPECT_EQ(*TypeFromName("text"), TypeId::kString);
  EXPECT_EQ(*TypeFromName("float"), TypeId::kDouble);
  EXPECT_EQ(*TypeFromName("bool"), TypeId::kBool);
  EXPECT_TRUE(TypeFromName("blob").status().IsInvalidArgument());
}

TEST(TypeTest, IntegerLikeClassification) {
  EXPECT_TRUE(IsIntegerLike(TypeId::kBool));
  EXPECT_TRUE(IsIntegerLike(TypeId::kInt32));
  EXPECT_TRUE(IsIntegerLike(TypeId::kInt64));
  EXPECT_TRUE(IsIntegerLike(TypeId::kDate));
  EXPECT_TRUE(IsIntegerLike(TypeId::kTimestamp));
  EXPECT_FALSE(IsIntegerLike(TypeId::kDouble));
  EXPECT_FALSE(IsIntegerLike(TypeId::kString));
}

TEST(TypeTest, FixedWidths) {
  EXPECT_EQ(FixedWidth(TypeId::kBool), 1u);
  EXPECT_EQ(FixedWidth(TypeId::kInt32), 4u);
  EXPECT_EQ(FixedWidth(TypeId::kDate), 4u);
  EXPECT_EQ(FixedWidth(TypeId::kInt64), 8u);
  EXPECT_EQ(FixedWidth(TypeId::kDouble), 8u);
  EXPECT_EQ(FixedWidth(TypeId::kString), 0u);
}

TEST(ValueTest, NullOrdering) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_GT(Value::Int(0).Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericComparisonsCrossKind) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(10.1).Compare(Value::Int(10)), 0);
  EXPECT_EQ(Value::Bool(true).Compare(Value::Int(1)), 0);
}

TEST(ValueTest, ExactInt64Comparison) {
  // Values that would collide in double precision.
  int64_t big = (1LL << 62) + 1;
  EXPECT_GT(Value::Int(big).Compare(Value::Int(big - 1)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("apple").Compare(Value::String("banana")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
  // Strings order after numerics (kind-based).
  EXPECT_GT(Value::String("1").Compare(Value::Int(999)), 0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-5).ToString(), "-5");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
}

TEST(ValueTest, Accessors) {
  EXPECT_DOUBLE_EQ(Value::Int(7).AsDouble(), 7.0);
  EXPECT_EQ(Value::Double(7.9).AsInt(), 7);
  EXPECT_TRUE(Value::Int(1).AsBool());
  EXPECT_FALSE(Value::Int(0).AsBool());
  EXPECT_TRUE(Value::Double(0.5).AsBool());
}

TEST(DateTest, FormatKnownDates) {
  EXPECT_EQ(FormatDate(0), "1970-01-01");
  EXPECT_EQ(FormatDate(1), "1970-01-02");
  EXPECT_EQ(FormatDate(365), "1971-01-01");
  EXPECT_EQ(FormatDate(8035), "1992-01-01");
  EXPECT_EQ(FormatDate(10957), "2000-01-01");
}

TEST(DateTest, ParseKnownDates) {
  EXPECT_EQ(*ParseDate("1970-01-01"), 0);
  EXPECT_EQ(*ParseDate("1992-01-01"), 8035);
  EXPECT_EQ(*ParseDate("2000-02-29"), 10957 + 31 + 28);  // leap year
}

TEST(DateTest, RoundTripSweep) {
  for (int32_t d = -400; d <= 20000; d += 37) {
    auto parsed = ParseDate(FormatDate(d));
    ASSERT_TRUE(parsed.ok()) << d;
    EXPECT_EQ(*parsed, d);
  }
}

TEST(DateTest, RejectsInvalid) {
  EXPECT_FALSE(ParseDate("not a date").ok());
  EXPECT_FALSE(ParseDate("2021-13-01").ok());
  EXPECT_FALSE(ParseDate("2021-02-30").ok());
  EXPECT_FALSE(ParseDate("2021-00-10").ok());
  EXPECT_TRUE(ParseDate("2020-02-29").ok());   // leap
  EXPECT_FALSE(ParseDate("2021-02-29").ok());  // non-leap
}

TEST(DateTest, PreEpochDates) {
  EXPECT_EQ(FormatDate(-1), "1969-12-31");
  EXPECT_EQ(*ParseDate("1969-12-31"), -1);
}

// Outside years 0-9999 too, and at both ends of int32 (values from an
// independent 400-year-cycle count of the proleptic Gregorian calendar).
TEST(DateTest, CivilFromDaysOverTheWholeInt32Range) {
  struct Case {
    int32_t days;
    int32_t year, month, day;
  };
  const Case cases[] = {
      {-1000000, -768, 2, 4},
      {-1, 1969, 12, 31},
      {0, 1970, 1, 1},
      {3000000, 10183, 9, 21},
      {std::numeric_limits<int32_t>::min(), -5877641, 6, 23},
      {std::numeric_limits<int32_t>::max(), 5881580, 7, 11},
  };
  for (const Case& c : cases) {
    const CivilDate d = CivilFromDays(c.days);
    EXPECT_EQ(d.year, c.year) << c.days;
    EXPECT_EQ(d.month, c.month) << c.days;
    EXPECT_EQ(d.day, c.day) << c.days;
  }
  EXPECT_EQ(FormatDate(3000000), "10183-09-21");
  EXPECT_EQ(FormatDate(-1000000), "-768-02-04");
}

}  // namespace
}  // namespace pixels
