// Zone maps prune row groups only: a pushed predicate must never drop a
// row group holding a row the retained Filter would keep. Every
// comparison over small row groups of doubles (NaN first and last, only
// NaN, +-0.0, +-inf, NULL), integers and strings returns the count the
// per-row Value::Compare rule gives.
#include <gtest/gtest.h>

#include <limits>

#include "exec/executor.h"
#include "format/compare.h"
#include "format/writer.h"
#include "storage/memory_store.h"

namespace pixels {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Two rows per row group, so each pair below is one zone map.
std::vector<std::vector<Value>> ZoneMapRows() {
  const Value null = Value::Null();
  return {
      // NaN first: min and max must not both stay NaN.
      {Value::Double(kNaN), Value::Int(1), Value::String("a")},
      {Value::Double(5.0), Value::Int(2), Value::String("b")},
      // NaN last: it must not be invisible to the range.
      {Value::Double(1.0), Value::Int(3), Value::String("c")},
      {Value::Double(kNaN), Value::Int(4), Value::String("d")},
      {Value::Double(-0.0), Value::Int(5), Value::String("e")},
      {Value::Double(0.0), Value::Int(6), Value::String("f")},
      {Value::Double(-kInf), Value::Int(7), Value::String("g")},
      {Value::Double(kInf), Value::Int(8), Value::String("h")},
      {null, null, null},
      {Value::Double(7.0), Value::Int(9), Value::String("i")},
      {null, null, null},
      {null, null, null},
      {Value::Double(kNaN), Value::Int(10), Value::String("j")},
      {Value::Double(kNaN), Value::Int(11), Value::String("k")},
      {Value::Double(2.5), Value::Int(-3), Value::String("zz")},
      {Value::Double(3.0), Value::Int(0), Value::String("")},
  };
}

struct Literal {
  std::string sql;
  Value value;
};

TEST(ZoneMapPruningTest, PrunedScanCountsEqualPerRowCompare) {
  auto storage = std::make_shared<MemoryStore>();
  Catalog catalog(storage);
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());
  const FileSchema schema = {{"d", TypeId::kDouble},
                             {"i", TypeId::kInt64},
                             {"s", TypeId::kString}};
  ASSERT_TRUE(catalog.CreateTable("db", "nz", schema).ok());
  WriterOptions options;
  options.row_group_size = 2;
  PixelsWriter writer(schema, options);
  const auto rows = ZoneMapRows();
  for (const auto& row : rows) ASSERT_TRUE(writer.AppendRow(row).ok());
  ASSERT_TRUE(writer.Finish(storage.get(), "db/nz/part0.pxl").ok());
  ASSERT_TRUE(catalog.AddTableFile("db", "nz", "db/nz/part0.pxl").ok());

  const std::vector<Literal> numbers = {
      {"-1", Value::Int(-1)},        {"0", Value::Int(0)},
      {"3", Value::Int(3)},          {"4.5", Value::Double(4.5)},
      {"7", Value::Int(7)},          {"7.0", Value::Double(7.0)},
      {"1e300", Value::Double(1e300)}, {"-1e300", Value::Double(-1e300)},
  };
  const std::vector<Literal> strings = {
      {"''", Value::String("")},  {"'a'", Value::String("a")},
      {"'d'", Value::String("d")}, {"'zz'", Value::String("zz")},
  };
  const std::pair<std::string, const std::vector<Literal>*> columns[] = {
      {"d", &numbers}, {"i", &numbers}, {"s", &strings}};
  const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};

  uint64_t rows_scanned = 0;
  size_t queries = 0;
  for (size_t c = 0; c < 3; ++c) {
    const auto& [column, literals] = columns[c];
    for (const Literal& lit : *literals) {
      for (const char* op : ops) {
        const std::string sql = "SELECT count(*) AS n FROM nz WHERE " + column +
                                " " + op + " " + lit.sql;
        int64_t expected = 0;
        for (const auto& row : rows) {
          const Value& v = row[c];
          if (!v.is_null() &&
              ApplyCmp(*ParseCmpOp(op), v.Compare(lit.value))) {
            ++expected;
          }
        }
        ExecContext ctx;
        ctx.catalog = &catalog;
        auto result = ExecuteQuery(sql, "db", &ctx);
        ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
        const auto counts = (*result)->CollectColumn("n");
        ASSERT_EQ(counts.size(), 1u) << sql;
        EXPECT_EQ(counts[0].i, expected) << sql;
        rows_scanned += ctx.rows_scanned.load();
        ++queries;
      }
    }
  }
  // The predicates were pushed: zone maps skipped some row groups.
  EXPECT_LT(rows_scanned, queries * rows.size());
}

}  // namespace
}  // namespace pixels
