// Unit tests for the typed open-addressing hash tables behind vectorized
// hash join and aggregation (exec/hash_table.h): ValuesKey-equivalent key
// semantics (kind-distinct, bitwise doubles, null==null), insertion-order
// entry ids, growth that preserves entries, Reserve preventing rehashes,
// and deterministic duplicate-key chains in the join table.
#include "exec/hash_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "exec/kernels.h"

namespace pixels {
namespace {

ColumnVectorPtr Ints(const std::vector<int64_t>& vals) {
  auto c = MakeVector(TypeId::kInt64);
  for (int64_t v : vals) c->AppendInt(v);
  return c;
}

ColumnVectorPtr Doubles(const std::vector<double>& vals) {
  auto c = MakeVector(TypeId::kDouble);
  for (double v : vals) c->AppendDouble(v);
  return c;
}

ColumnVectorPtr Strings(const std::vector<std::string>& vals) {
  auto c = MakeVector(TypeId::kString);
  for (const auto& v : vals) c->AppendString(v);
  return c;
}

ColumnVectorPtr Bools(const std::vector<bool>& vals) {
  auto c = MakeVector(TypeId::kBool);
  for (bool v : vals) c->AppendBool(v);
  return c;
}

/// Nullable int column: entries with `has[i] == false` are null.
ColumnVectorPtr IntsWithNulls(const std::vector<int64_t>& vals,
                              const std::vector<bool>& has) {
  auto c = MakeVector(TypeId::kInt64);
  for (size_t i = 0; i < vals.size(); ++i) {
    if (has[i]) {
      c->AppendInt(vals[i]);
    } else {
      c->AppendNull();
    }
  }
  return c;
}

std::vector<uint64_t> Hashes(const std::vector<ColumnVectorPtr>& cols) {
  return HashKeyColumns(cols, cols.empty() ? 0 : cols[0]->size(), nullptr);
}

TEST(GroupTableTest, KindsAreDistinctEvenWhenPayloadsAgree) {
  // Int(1), Double(1.0), Bool(true), String("1") are four different keys,
  // exactly as ValuesKey serialization distinguishes them.
  GroupTable table(1, 0.7);
  std::vector<ColumnVectorPtr> as_int = {Ints({1})};
  std::vector<ColumnVectorPtr> as_dbl = {Doubles({1.0})};
  std::vector<ColumnVectorPtr> as_bool = {Bools({true})};
  std::vector<ColumnVectorPtr> as_str = {Strings({"1"})};
  EXPECT_EQ(table.FindOrInsert(Hashes(as_int)[0], as_int, 0), 0u);
  EXPECT_EQ(table.FindOrInsert(Hashes(as_dbl)[0], as_dbl, 0), 1u);
  EXPECT_EQ(table.FindOrInsert(Hashes(as_bool)[0], as_bool, 0), 2u);
  EXPECT_EQ(table.FindOrInsert(Hashes(as_str)[0], as_str, 0), 3u);
  EXPECT_EQ(table.num_entries(), 4u);
  // Re-probing each representation still lands on its own entry.
  EXPECT_EQ(table.FindOrInsert(Hashes(as_int)[0], as_int, 0), 0u);
  EXPECT_EQ(table.FindOrInsert(Hashes(as_str)[0], as_str, 0), 3u);
  EXPECT_EQ(table.num_entries(), 4u);
  // Emit path reboxes the original kinds.
  EXPECT_EQ(table.keys().GetValue(0, 0).kind, Value::Kind::kInt);
  EXPECT_EQ(table.keys().GetValue(1, 0).kind, Value::Kind::kDouble);
  EXPECT_EQ(table.keys().GetValue(3, 0).kind, Value::Kind::kString);
}

TEST(GroupTableTest, NullKeysGroupTogetherButNotWithZero) {
  GroupTable table(1, 0.7);
  std::vector<ColumnVectorPtr> col = {
      IntsWithNulls({0, 0, 0, 7}, {false, true, false, true})};
  const auto hashes = Hashes(col);
  const uint32_t null_a = table.FindOrInsert(hashes[0], col, 0);
  const uint32_t zero = table.FindOrInsert(hashes[1], col, 1);
  const uint32_t null_b = table.FindOrInsert(hashes[2], col, 2);
  const uint32_t seven = table.FindOrInsert(hashes[3], col, 3);
  EXPECT_EQ(null_a, null_b);
  EXPECT_NE(null_a, zero);
  EXPECT_NE(zero, seven);
  EXPECT_EQ(table.num_entries(), 3u);
  EXPECT_TRUE(table.keys().GetValue(null_a, 0).is_null());
}

TEST(GroupTableTest, DoublesCompareBitwise) {
  // -0.0 and +0.0 differ bitwise, so they are distinct groups (matching
  // the serialized-key scalar path); identical NaN bit patterns group.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  GroupTable table(1, 0.7);
  std::vector<ColumnVectorPtr> col = {Doubles({0.0, -0.0, nan, nan})};
  const auto hashes = Hashes(col);
  const uint32_t pos = table.FindOrInsert(hashes[0], col, 0);
  const uint32_t neg = table.FindOrInsert(hashes[1], col, 1);
  const uint32_t nan_a = table.FindOrInsert(hashes[2], col, 2);
  const uint32_t nan_b = table.FindOrInsert(hashes[3], col, 3);
  EXPECT_NE(pos, neg);
  EXPECT_EQ(nan_a, nan_b);
  EXPECT_EQ(table.num_entries(), 3u);
}

TEST(GroupTableTest, EntryIdsFollowFirstInsertionOrder) {
  GroupTable table(1, 0.7);
  std::vector<ColumnVectorPtr> col = {Ints({10, 20, 10, 30, 20, 10})};
  const auto hashes = Hashes(col);
  std::vector<uint32_t> ids;
  for (uint32_t r = 0; r < 6; ++r) {
    ids.push_back(table.FindOrInsert(hashes[r], col, r));
  }
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0, 2, 1, 0}));
  // Find never inserts.
  std::vector<ColumnVectorPtr> missing = {Ints({40})};
  EXPECT_EQ(table.Find(Hashes(missing)[0], missing, 0), GroupTable::kNotFound);
  EXPECT_EQ(table.num_entries(), 3u);
  EXPECT_EQ(table.Find(hashes[3], col, 3), 2u);
}

TEST(GroupTableTest, GrowthPreservesEveryEntry) {
  GroupTable table(2, 0.7);
  std::vector<int64_t> a, b;
  for (int64_t i = 0; i < 5000; ++i) {
    a.push_back(i % 997);
    b.push_back(i / 997);
  }
  std::vector<ColumnVectorPtr> cols = {Ints(a), Ints(b)};
  const auto hashes = Hashes(cols);
  std::vector<uint32_t> ids(5000);
  for (uint32_t r = 0; r < 5000; ++r) {
    ids[r] = table.FindOrInsert(hashes[r], cols, r);
  }
  EXPECT_EQ(table.num_entries(), 5000u);  // all pairs distinct
  EXPECT_GT(table.rehashes(), 0u);        // started tiny, had to grow
  for (uint32_t r = 0; r < 5000; ++r) {
    EXPECT_EQ(table.Find(hashes[r], cols, r), ids[r]);
  }
}

TEST(GroupTableTest, ReservePreventsMidBuildRehashes) {
  GroupTable table(1, 0.7);
  table.Reserve(5000);
  std::vector<int64_t> vals;
  for (int64_t i = 0; i < 5000; ++i) vals.push_back(i);
  std::vector<ColumnVectorPtr> cols = {Ints(vals)};
  const auto hashes = Hashes(cols);
  for (uint32_t r = 0; r < 5000; ++r) table.FindOrInsert(hashes[r], cols, r);
  EXPECT_EQ(table.num_entries(), 5000u);
  EXPECT_EQ(table.rehashes(), 0u);
}

TEST(GroupTableTest, LoadFactorIsClampedToSaneRange) {
  // Degenerate knob values must not hang or overflow; the table clamps to
  // [0.1, 0.95] and keeps working.
  for (double lf : {0.0001, 0.5, 99.0}) {
    GroupTable table(1, lf);
    std::vector<int64_t> vals;
    for (int64_t i = 0; i < 300; ++i) vals.push_back(i);
    std::vector<ColumnVectorPtr> cols = {Ints(vals)};
    const auto hashes = Hashes(cols);
    for (uint32_t r = 0; r < 300; ++r) table.FindOrInsert(hashes[r], cols, r);
    EXPECT_EQ(table.num_entries(), 300u) << "load_factor=" << lf;
    for (uint32_t r = 0; r < 300; ++r) {
      EXPECT_EQ(table.Find(hashes[r], cols, r), r) << "load_factor=" << lf;
    }
  }
}

/// The build rows JoinTable::ProbeBatch matches to probe row `row` of
/// `probe`, probing that one row through a one-row selection.
std::vector<uint32_t> MatchesOf(const std::vector<JoinTable>& parts,
                                const std::vector<ColumnVectorPtr>& probe,
                                uint32_t row) {
  std::vector<uint8_t> any_null;
  const auto hashes = HashKeyColumns(probe, probe[0]->size(), &any_null);
  const SelectionVector sel = {row};
  JoinMatches out;
  JoinTable::ProbeBatch(parts, hashes, any_null, probe, &sel,
                        probe[0]->size(), JoinTable::kNoPad, &out);
  EXPECT_EQ(out.probe, std::vector<uint32_t>(out.size(), row));
  return out.build;
}

TEST(JoinTableTest, DuplicateKeyChainsKeepInsertionOrder) {
  std::vector<JoinTable> parts;
  parts.emplace_back(1, 0.7);
  JoinTable& table = parts[0];
  std::vector<ColumnVectorPtr> build = {Ints({5, 7, 5, 5, 7})};
  const auto hashes = Hashes(build);
  for (uint32_t r = 0; r < 5; ++r) {
    table.Insert(hashes[r], build, r, /*build_row=*/100 + r);
  }
  EXPECT_EQ(table.num_rows(), 5u);
  EXPECT_EQ(table.num_keys(), 2u);

  std::vector<ColumnVectorPtr> probe = {Ints({5, 7, 9})};
  EXPECT_EQ(MatchesOf(parts, probe, 0),
            (std::vector<uint32_t>{100, 102, 103}));
  EXPECT_EQ(MatchesOf(parts, probe, 1), (std::vector<uint32_t>{101, 104}));
  EXPECT_TRUE(MatchesOf(parts, probe, 2).empty());
}

TEST(JoinTableTest, ReserveFromBuildRowCountPreventsRehashes) {
  std::vector<JoinTable> parts;
  parts.emplace_back(1, 0.7);
  JoinTable& table = parts[0];
  table.Reserve(4000);
  std::vector<int64_t> vals;
  for (int64_t i = 0; i < 4000; ++i) vals.push_back(i % 1000);  // 4x dups
  std::vector<ColumnVectorPtr> build = {Ints(vals)};
  const auto hashes = Hashes(build);
  for (uint32_t r = 0; r < 4000; ++r) table.Insert(hashes[r], build, r, r);
  EXPECT_EQ(table.num_rows(), 4000u);
  EXPECT_EQ(table.num_keys(), 1000u);
  EXPECT_EQ(table.rehashes(), 0u);
  EXPECT_EQ(MatchesOf(parts, build, 0),
            (std::vector<uint32_t>{0, 1000, 2000, 3000}));
}

TEST(JoinTableTest, MultiKeyProbeMatchesExactTuples) {
  std::vector<JoinTable> parts;
  parts.emplace_back(2, 0.7);
  JoinTable& table = parts[0];
  std::vector<ColumnVectorPtr> build = {Ints({1, 1, 2}),
                                        Strings({"a", "b", "a"})};
  const auto hashes = Hashes(build);
  for (uint32_t r = 0; r < 3; ++r) table.Insert(hashes[r], build, r, r);
  std::vector<ColumnVectorPtr> probe = {Ints({1, 2, 2}),
                                        Strings({"b", "a", "b"})};
  EXPECT_EQ(MatchesOf(parts, probe, 0), (std::vector<uint32_t>{1}));
  EXPECT_EQ(MatchesOf(parts, probe, 1), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(MatchesOf(parts, probe, 2).empty());
}

TEST(JoinTableTest, BatchProbeOverPartitionsPadsAndSkipsNullKeys) {
  // Two partitions (hash % 2), a selection that skips row 1, a null probe
  // key, and LEFT JOIN padding: pairs come out in selection order, then
  // chain order, with unmatched and null-key rows padded.
  std::vector<JoinTable> parts;
  parts.emplace_back(1, 0.7);
  parts.emplace_back(1, 0.7);
  std::vector<ColumnVectorPtr> build = {Ints({1, 2, 3, 1, 2, 3, 1})};
  const auto hashes = Hashes(build);
  for (uint32_t r = 0; r < 7; ++r) {
    parts[hashes[r] % 2].Insert(hashes[r], build, r, r);
  }
  auto probe_col = MakeVector(TypeId::kInt64);
  for (int64_t v : {3, 2, 1, 9}) probe_col->AppendInt(v);
  probe_col->AppendNull();
  std::vector<ColumnVectorPtr> probe = {probe_col};
  std::vector<uint8_t> any_null;
  const auto probe_hashes = HashKeyColumns(probe, 5, &any_null);
  const SelectionVector sel = {0, 2, 3, 4};
  JoinMatches out;
  JoinTable::ProbeBatch(parts, probe_hashes, any_null, probe, &sel, 5,
                        /*pad_row=*/7, &out);
  EXPECT_EQ(out.probe, (std::vector<uint32_t>{0, 0, 2, 2, 2, 3, 4}));
  EXPECT_EQ(out.build, (std::vector<uint32_t>{2, 5, 0, 3, 6, 7, 7}));
  out.Clear();
  JoinTable::ProbeBatch(parts, probe_hashes, any_null, probe, nullptr, 5,
                        JoinTable::kNoPad, &out);
  EXPECT_EQ(out.probe, (std::vector<uint32_t>{0, 0, 1, 1, 2, 2, 2}));
  EXPECT_EQ(out.build, (std::vector<uint32_t>{2, 5, 1, 4, 0, 3, 6}));
}

TEST(HashKeyColumnsTest, FlagsNullRowsAndTagsEmptyKeys) {
  std::vector<ColumnVectorPtr> cols = {
      IntsWithNulls({1, 2, 3}, {true, false, true}), Ints({9, 9, 9})};
  std::vector<uint8_t> any_null;
  const auto hashes = HashKeyColumns(cols, 3, &any_null);
  ASSERT_EQ(hashes.size(), 3u);
  EXPECT_EQ(any_null, (std::vector<uint8_t>{0, 1, 0}));
  EXPECT_NE(hashes[0], hashes[2]);  // different keys, different hashes
  // Zero key columns (global aggregation): every row hashes alike.
  std::vector<uint8_t> no_null;
  const auto empty = HashKeyColumns({}, 2, &no_null);
  ASSERT_EQ(empty.size(), 2u);
  EXPECT_EQ(empty[0], empty[1]);
  EXPECT_EQ(no_null, (std::vector<uint8_t>{0, 0}));
}

}  // namespace
}  // namespace pixels
