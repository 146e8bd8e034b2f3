#include "plan/fingerprint.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "plan/subplan.h"
#include "testing/test_db.h"

namespace pixels {
namespace {

Result<PlanFingerprint> FingerprintSql(const std::string& sql,
                                       const Catalog& catalog) {
  PIXELS_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(sql, catalog, "db"));
  PIXELS_ASSIGN_OR_RETURN(plan, Optimize(std::move(plan), catalog));
  return FingerprintPlan(*plan);
}

std::string MustHex(const std::string& sql, const Catalog& catalog) {
  auto fp = FingerprintSql(sql, catalog);
  EXPECT_TRUE(fp.ok()) << sql << ": " << fp.status().ToString();
  return fp.ok() ? fp->ToHex() : "";
}

void Shuffle(std::vector<std::string>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

TEST(FingerprintTest, IdenticalSqlSameFingerprint) {
  auto catalog = testing::BuildTestCatalog();
  const char* sql = "SELECT name, salary FROM emp WHERE dept = 'eng'";
  EXPECT_EQ(MustHex(sql, *catalog), MustHex(sql, *catalog));
}

TEST(FingerprintTest, HexIs32Chars) {
  auto catalog = testing::BuildTestCatalog();
  EXPECT_EQ(MustHex("SELECT id FROM emp", *catalog).size(), 32u);
}

// The canonicalization soundness property: reordering AND-conjuncts and
// SELECT-list items never changes the fingerprint (results are addressed
// by column name, conjunction is commutative).
TEST(FingerprintPropertyTest, ConjunctAndProjectionOrderIrrelevant) {
  auto catalog = testing::BuildTestCatalog();
  std::vector<std::string> conjuncts = {"salary > 75", "dept <> 'legal'",
                                        "id < 8", "name <> 'zed'"};
  std::vector<std::string> cols = {"id", "name", "dept", "salary"};
  Random rng(20260805);
  std::set<std::string> hexes;
  for (int trial = 0; trial < 32; ++trial) {
    Shuffle(&conjuncts, &rng);
    Shuffle(&cols, &rng);
    const std::string sql = "SELECT " + Join(cols, ", ") +
                            " FROM emp WHERE " + Join(conjuncts, " AND ");
    hexes.insert(MustHex(sql, *catalog));
  }
  EXPECT_EQ(hexes.size(), 1u);
}

// Any semantic change — a literal, a column, a table, an operator, the
// aggregate shape — must produce a distinct fingerprint.
TEST(FingerprintPropertyTest, SemanticChangesNeverCollide) {
  auto catalog = testing::BuildTestCatalog();
  const std::vector<std::string> queries = {
      "SELECT name FROM emp WHERE salary > 80",
      "SELECT name FROM emp WHERE salary > 81",
      "SELECT name FROM emp WHERE salary >= 80",
      "SELECT name FROM emp WHERE salary < 80",
      "SELECT id FROM emp WHERE salary > 80",
      "SELECT name FROM dept",
      "SELECT name FROM emp",
      "SELECT name FROM emp WHERE dept = 'eng'",
      "SELECT name FROM emp WHERE dept = 'hr'",
      "SELECT name FROM emp WHERE dept IN ('eng', 'hr')",
      "SELECT name FROM emp WHERE dept NOT IN ('eng', 'hr')",
      "SELECT count(*) AS c FROM emp",
      "SELECT count(*) AS c FROM emp GROUP BY dept",
      "SELECT dept, count(*) AS c FROM emp GROUP BY dept",
      "SELECT name FROM emp ORDER BY salary",
      "SELECT name FROM emp ORDER BY salary DESC",
      "SELECT name FROM emp ORDER BY salary LIMIT 3",
      "SELECT name FROM emp ORDER BY salary LIMIT 4",
      "SELECT DISTINCT dept FROM emp",
  };
  std::set<std::string> hexes;
  for (const auto& q : queries) hexes.insert(MustHex(q, *catalog));
  EXPECT_EQ(hexes.size(), queries.size());
}

TEST(FingerprintPropertyTest, InListOrderIrrelevant) {
  auto catalog = testing::BuildTestCatalog();
  EXPECT_EQ(
      MustHex("SELECT name FROM emp WHERE dept IN ('eng','hr','sales')",
              *catalog),
      MustHex("SELECT name FROM emp WHERE dept IN ('sales','eng','hr')",
              *catalog));
}

TEST(FingerprintPropertyTest, FlippedComparisonsEqual) {
  auto catalog = testing::BuildTestCatalog();
  // a > b and b < a are the same predicate after normalization.
  EXPECT_EQ(MustHex("SELECT name FROM emp WHERE salary > 80", *catalog),
            MustHex("SELECT name FROM emp WHERE 80 < salary", *catalog));
}

TEST(FingerprintPropertyTest, CommutativeOperandOrderIrrelevant) {
  auto catalog = testing::BuildTestCatalog();
  EXPECT_EQ(
      MustHex("SELECT name FROM emp WHERE salary + id > 100", *catalog),
      MustHex("SELECT name FROM emp WHERE id + salary > 100", *catalog));
  // Subtraction is NOT commutative.
  EXPECT_NE(
      MustHex("SELECT name FROM emp WHERE salary - id > 100", *catalog),
      MustHex("SELECT name FROM emp WHERE id - salary > 100", *catalog));
}

TEST(FingerprintTest, JoinSubplansReadingDifferentColumnsDiffer) {
  // Both queries scan the same columns and push the same join to the CF
  // seam, but the first reads only e.name above it and the second also
  // e.dept: the pruned joins return different columns, so a sub-plan MV
  // of the first must never answer the second.
  auto catalog = testing::BuildTestCatalog();
  auto subplan = [&](const std::string& sql) -> PlanPtr {
    auto plan = PlanQuery(sql, *catalog, "db");
    EXPECT_TRUE(plan.ok()) << sql;
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
    EXPECT_TRUE(optimized.ok()) << sql;
    auto split = SplitForCf(*optimized);
    EXPECT_TRUE(split.ok()) << sql;
    EXPECT_NE(split->subplan, nullptr) << sql;
    EXPECT_EQ(split->subplan->kind, LogicalPlan::Kind::kJoin) << sql;
    return split->subplan;
  };
  const std::string join = " FROM emp e JOIN dept d ON e.dept = d.name";
  PlanPtr narrow = subplan("SELECT e.name" + join);
  PlanPtr wide = subplan("SELECT e.name, e.dept" + join);
  auto narrow_fp = FingerprintPlan(*narrow);
  auto wide_fp = FingerprintPlan(*wide);
  ASSERT_TRUE(narrow_fp.ok());
  ASSERT_TRUE(wide_fp.ok());
  EXPECT_NE(narrow_fp->ToHex(), wide_fp->ToHex());
  // The kept columns are the only difference between the two subtrees.
  PlanPtr narrow_all = narrow->Clone();
  PlanPtr wide_all = wide->Clone();
  narrow_all->columns.clear();
  wide_all->columns.clear();
  EXPECT_EQ(CanonicalPlanText(*narrow_all).ValueOrDie(),
            CanonicalPlanText(*wide_all).ValueOrDie());
}

TEST(FingerprintTest, MaterializedViewPlansNotFingerprintable) {
  auto table = std::make_shared<Table>();
  PlanPtr mv = MakeMaterializedView(table);
  EXPECT_FALSE(FingerprintPlan(*mv).ok());
  // Nested anywhere in the tree, the failure propagates.
  PlanPtr lim = MakeLimit(mv, 10);
  EXPECT_FALSE(FingerprintPlan(*lim).ok());
}

std::string BinaryText(const char* op, const char* lhs, const char* rhs) {
  return CanonicalExprText(
      *MakeBinary(op, MakeColumnRef("", lhs), MakeColumnRef("", rhs)));
}

TEST(CanonicalExprTest, CommutativeOperandsSorted) {
  EXPECT_EQ(BinaryText("+", "a", "b"), BinaryText("+", "b", "a"));
  EXPECT_EQ(BinaryText("=", "a", "b"), BinaryText("=", "b", "a"));
  EXPECT_NE(BinaryText("-", "a", "b"), BinaryText("-", "b", "a"));
}

TEST(CanonicalExprTest, GreaterThanNormalizedToLessThan) {
  EXPECT_EQ(BinaryText("<", "a", "b"), BinaryText(">", "b", "a"));
  EXPECT_EQ(BinaryText("<=", "a", "b"), BinaryText(">=", "b", "a"));
}

TEST(CanonicalExprTest, ShortLiteralsEmbedVerbatim) {
  // Short constants enter the text exactly (length-prefixed), so two
  // distinct constants can never collide via a hash — the bytes differ.
  const std::string eng = CanonicalExprText(*MakeLiteral(Value::String("eng")));
  EXPECT_NE(eng.find("eng"), std::string::npos);
  EXPECT_NE(eng, CanonicalExprText(*MakeLiteral(Value::String("hr"))));
  // The kind tag keeps 1 and '1' distinct.
  EXPECT_NE(CanonicalExprText(*MakeLiteral(Value::Int(1))),
            CanonicalExprText(*MakeLiteral(Value::String("1"))));
  // The length prefix keeps crafted strings from impersonating grammar:
  // a literal containing the rendering of another literal stays distinct.
  EXPECT_NE(CanonicalExprText(*MakeLiteral(Value::String("4:s1}"))),
            CanonicalExprText(*MakeLiteral(Value::String("1"))));
}

TEST(CanonicalExprTest, LongLiteralsDualHashedAndBounded) {
  auto huge = MakeLiteral(Value::String(std::string(100000, 'x')));
  const std::string text = CanonicalExprText(*huge);
  EXPECT_LT(text.size(), 64u);  // hashed, not inlined
  EXPECT_NE(text, CanonicalExprText(*MakeLiteral(Value::String("x"))));
  // Both FNV streams enter the text: 4-char tag + 2 x 16 hex chars. A
  // single 64-bit collision therefore cannot merge two keys.
  EXPECT_EQ(text.size(), 4u + 32u);
  auto huge2 = MakeLiteral(Value::String(std::string(100000, 'y')));
  EXPECT_NE(text, CanonicalExprText(*huge2));
}

TEST(PinCollectionTest, PinsSortedDedupedAndVersioned) {
  auto catalog = testing::BuildTestCatalog();
  auto plan = PlanQuery(
      "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name", *catalog,
      "db");
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(*plan), *catalog);
  ASSERT_TRUE(optimized.ok());
  auto pins = CollectTableVersionPins(**optimized, *catalog);
  ASSERT_TRUE(pins.ok());
  ASSERT_EQ(pins->size(), 2u);
  EXPECT_EQ((*pins)[0].table, "dept");
  EXPECT_EQ((*pins)[1].table, "emp");
  for (const auto& pin : *pins) {
    auto v = catalog->GetTableVersion(pin.db, pin.table);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(pin.version, *v);
  }
}

TEST(PinCollectionTest, VersionBumpChangesPinNotFingerprint) {
  auto catalog = testing::BuildTestCatalog();
  const char* sql = "SELECT name FROM emp";
  const std::string before = MustHex(sql, *catalog);
  auto plan = Optimize(*PlanQuery(sql, *catalog, "db"), *catalog);
  ASSERT_TRUE(plan.ok());
  auto pins_before = CollectTableVersionPins(**plan, *catalog);
  ASSERT_TRUE(pins_before.ok());

  // A write bumps the version epoch...
  ASSERT_TRUE(catalog->AddTableFile("db", "emp", "db/emp/part0.pxl").ok());

  auto pins_after = CollectTableVersionPins(**plan, *catalog);
  ASSERT_TRUE(pins_after.ok());
  EXPECT_GT((*pins_after)[0].version, (*pins_before)[0].version);
  // ...but never the fingerprint: versions live in pins, not keys.
  EXPECT_EQ(MustHex(sql, *catalog), before);
}

}  // namespace
}  // namespace pixels
