#include "format/batch.h"

#include <gtest/gtest.h>

namespace pixels {
namespace {

RowBatchPtr MakeTestBatch() {
  auto batch = std::make_shared<RowBatch>();
  auto id = MakeVector(TypeId::kInt64);
  auto name = MakeVector(TypeId::kString);
  for (int i = 0; i < 3; ++i) {
    id->AppendInt(i);
    name->AppendString("n" + std::to_string(i));
  }
  batch->AddColumn("t.id", id);
  batch->AddColumn("t.name", name);
  return batch;
}

TEST(RowBatchTest, BasicShape) {
  auto batch = MakeTestBatch();
  EXPECT_EQ(batch->num_columns(), 2u);
  EXPECT_EQ(batch->num_rows(), 3u);
  EXPECT_EQ(batch->name(0), "t.id");
}

TEST(RowBatchTest, FindColumnExact) {
  auto batch = MakeTestBatch();
  EXPECT_EQ(batch->FindColumn("t.id"), 0);
  EXPECT_EQ(batch->FindColumn("t.name"), 1);
}

TEST(RowBatchTest, FindColumnByBaseName) {
  auto batch = MakeTestBatch();
  EXPECT_EQ(batch->FindColumn("id"), 0);
  EXPECT_EQ(batch->FindColumn("name"), 1);
  EXPECT_EQ(batch->FindColumn("missing"), -1);
}

TEST(RowBatchTest, FindColumnAmbiguousBaseNameFails) {
  auto batch = std::make_shared<RowBatch>();
  batch->AddColumn("a.key", MakeVector(TypeId::kInt64));
  batch->AddColumn("b.key", MakeVector(TypeId::kInt64));
  EXPECT_EQ(batch->FindColumn("key"), -1);
  EXPECT_EQ(batch->FindColumn("a.key"), 0);
}

// The basename fallback bridges a bare name and a qualified one in either
// direction, but never two different qualifiers.
TEST(RowBatchTest, FindColumnFallbackNeverCrossesQualifiers) {
  auto batch = std::make_shared<RowBatch>();
  batch->AddColumn("b.id", MakeVector(TypeId::kInt64));
  batch->AddColumn("total", MakeVector(TypeId::kInt64));
  EXPECT_EQ(batch->FindColumn("id"), 0);        // bare -> qualified
  EXPECT_EQ(batch->FindColumn("o.total"), 1);   // qualified -> bare
  EXPECT_EQ(batch->FindColumn("a.id"), -1);     // a.id must not read b.id
  EXPECT_EQ(batch->FindColumn("b.id"), 0);
}

TEST(RowBatchTest, QualifiedLookupAgainstBareColumns) {
  auto batch = std::make_shared<RowBatch>();
  batch->AddColumn("id", MakeVector(TypeId::kInt64));
  EXPECT_EQ(batch->FindColumn("t.id"), 0);
}

TEST(RowBatchTest, GatherKeepsAllColumns) {
  auto batch = MakeTestBatch();
  auto g = batch->Gather({2, 0});
  EXPECT_EQ(g->num_rows(), 2u);
  EXPECT_EQ(g->column(0)->GetInt(0), 2);
  EXPECT_EQ(g->column(1)->GetString(1), "n0");
}

TEST(RowBatchTest, RowToStringTabSeparated) {
  auto batch = MakeTestBatch();
  EXPECT_EQ(batch->RowToString(1), "1\tn1");
}

TEST(TableTest, NumRowsAcrossBatches) {
  Table table;
  table.AddBatch(MakeTestBatch());
  table.AddBatch(MakeTestBatch());
  EXPECT_EQ(table.num_rows(), 6u);
  EXPECT_EQ(table.ColumnNames(),
            (std::vector<std::string>{"t.id", "t.name"}));
}

TEST(TableTest, ToStringLimitsRows) {
  Table table;
  table.AddBatch(MakeTestBatch());
  std::string s = table.ToString(2);
  EXPECT_NE(s.find("t.id\tt.name"), std::string::npos);
  EXPECT_NE(s.find("1 more rows"), std::string::npos);
}

TEST(TableTest, CollectColumn) {
  Table table;
  table.AddBatch(MakeTestBatch());
  auto vals = table.CollectColumn("id");
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_EQ(vals[2].i, 2);
}

TEST(TableTest, EmptyTable) {
  Table table;
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_TRUE(table.ColumnNames().empty());
  EXPECT_TRUE(table.CollectColumn("x").empty());
}

TEST(RowBatchTest, ApproxBytesNonZero) {
  auto batch = MakeTestBatch();
  EXPECT_GT(batch->ApproxBytes(), 0u);
}

}  // namespace
}  // namespace pixels
