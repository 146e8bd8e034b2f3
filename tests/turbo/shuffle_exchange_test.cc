// Exchange property tests: partition → Pixels-file write → per-partition
// row-group read round-trips every type × null pattern × forced encoding,
// including the empty-output, empty-partition and single-row-partition
// edges; plus the one-GET-per-partition guarantee, the prefix sweep and
// the first-writer-wins commit race (a TSan subject).
#include "turbo/shuffle/exchange.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/thread_pool.h"
#include "storage/memory_store.h"
#include "format/reader.h"
#include "storage/object_store.h"
#include "turbo/shuffle/stage_scheduler.h"

namespace pixels {
namespace {

enum class NullPattern { kNone, kAll, kAlternating, kFirstOnly, kLastOnly };

struct ExchangeCase {
  ExchangeCase(TypeId t, NullPattern n, int e)
      : type(t), nulls(n), forced_encoding(e) {}
  TypeId type;
  // Explicit zeros where the compiler would pad: ctest names each case
  // after the struct's raw bytes, and padding would leak stack garbage.
  uint8_t zero[3] = {};
  NullPattern nulls;
  int forced_encoding;  // -1 = heuristic
};
static_assert(sizeof(ExchangeCase) == 12, "no implicit padding");

void AppendTyped(ColumnVector* col, TypeId type, Random* rng) {
  switch (type) {
    case TypeId::kBool:
      col->AppendBool(rng->Bernoulli(0.5));
      break;
    case TypeId::kInt32:
    case TypeId::kDate:
      col->AppendInt(rng->Uniform(-1000, 1000));
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      col->AppendInt(rng->Uniform(-5000000000LL, 5000000000LL));
      break;
    case TypeId::kDouble:
      col->AppendDouble(rng->UniformDouble(-1e6, 1e6));
      break;
    case TypeId::kString:
      col->AppendString(rng->NextString(rng->Uniform(0, 12)));
      break;
  }
}

bool IsNullAt(NullPattern p, int i, int n) {
  switch (p) {
    case NullPattern::kNone: return false;
    case NullPattern::kAll: return true;
    case NullPattern::kAlternating: return i % 2 == 0;
    case NullPattern::kFirstOnly: return i == 0;
    case NullPattern::kLastOnly: return i == n - 1;
  }
  return false;
}

/// A row rendered as a comparable string (null-aware).
std::string RowKey(const RowBatch& b, size_t r) {
  std::string key;
  for (size_t c = 0; c < b.num_columns(); ++c) {
    key += b.column(c)->IsNull(r) ? "<null>" : b.column(c)->GetValue(r).ToString();
    key += "|";
  }
  return key;
}

/// The partitions a producer writes for `table` under `schema`.
std::vector<RowBatchPtr> Partition(const Table& table, const FileSchema& schema,
                                   int P) {
  ExprPtr key = MakeColumnRef("t", "k");
  auto parts = HashPartitionTable(table, schema, {key.get()}, P);
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
  return parts.ok() ? *parts : std::vector<RowBatchPtr>{};
}

/// Opens an exchange object the way the scheduler does.
std::unique_ptr<PixelsReader> OpenExchange(Storage* storage,
                                           const std::string& path) {
  auto reader = PixelsReader::Open(storage, path, IntermediateIo());
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return reader.ok() ? std::move(*reader) : nullptr;
}

class ExchangeRoundTripTest : public ::testing::TestWithParam<ExchangeCase> {};

TEST_P(ExchangeRoundTripTest, PartitionWriteCombinedReadRoundTrips) {
  const ExchangeCase& c = GetParam();
  Random rng(static_cast<uint64_t>(c.type) * 1000 +
             static_cast<uint64_t>(c.nulls) * 10 +
             static_cast<uint64_t>(c.forced_encoding + 1));
  const int kRows = 301;
  // Two input batches, so each partition gathers across batches.
  Table table;
  for (int lo : {0, 151}) {
    const int hi = lo == 0 ? 151 : kRows;
    auto key_col = std::make_shared<ColumnVector>(TypeId::kInt64);
    auto payload = std::make_shared<ColumnVector>(c.type);
    for (int i = lo; i < hi; ++i) {
      // Skewed keys so some partitions are heavy and (with small key
      // space) some are empty.
      key_col->AppendInt(rng.Uniform(0, 6));
      if (IsNullAt(c.nulls, i, kRows)) {
        payload->AppendNull();
      } else {
        AppendTyped(payload.get(), c.type, &rng);
      }
    }
    auto batch = std::make_shared<RowBatch>();
    batch->AddColumn("t.k", key_col);
    batch->AddColumn("t.v", payload);
    table.AddBatch(batch);
  }
  const FileSchema schema = {{"t.k", TypeId::kInt64}, {"t.v", c.type}};

  const int P = 4;
  const std::vector<RowBatchPtr> parts = Partition(table, schema, P);
  ASSERT_EQ(parts.size(), static_cast<size_t>(P));

  // Same key always routes to the same partition.
  std::map<int64_t, size_t> key_home;
  size_t total = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    ASSERT_EQ(parts[p]->num_columns(), 2u);
    EXPECT_EQ(parts[p]->column(1)->type(), c.type);
    for (size_t r = 0; r < parts[p]->num_rows(); ++r) {
      const int64_t k = parts[p]->column(0)->GetValue(r).AsInt();
      auto it = key_home.find(k);
      if (it == key_home.end()) {
        key_home[k] = p;
      } else {
        EXPECT_EQ(it->second, p) << "key " << k << " split across partitions";
      }
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kRows));

  auto storage = std::make_shared<MemoryStore>();
  WriterOptions options;
  if (c.forced_encoding >= 0) {
    options.forced_encoding = static_cast<Encoding>(c.forced_encoding);
  }
  auto bytes = WriteExchangeObject(storage.get(), "x/t0.a1", schema, parts,
                                   options);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, *storage->Size("x/t0.a1"));

  auto reader = OpenExchange(storage.get(), "x/t0.a1");
  ASSERT_NE(reader, nullptr);
  ASSERT_EQ(reader->NumRowGroups(), static_cast<size_t>(P));
  ASSERT_EQ(reader->schema().size(), 2u);
  EXPECT_EQ(reader->schema()[0].name, "t.k");
  EXPECT_EQ(reader->schema()[1].type, c.type);

  // Every row comes back, partition by partition, values and nulls intact.
  std::multiset<std::string> want, got;
  for (const auto& b : table.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r) want.insert(RowKey(*b, r));
  }
  ScanStats stats;
  for (int p = 0; p < P; ++p) {
    ASSERT_EQ(reader->RowGroupRows(p), parts[p]->num_rows());
    if (parts[p]->num_rows() == 0) continue;
    auto read = reader->ReadRowGroup(p, {}, &stats);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ((*read)->num_rows(), parts[p]->num_rows());
    EXPECT_EQ((*read)->column(1)->type(), c.type);
    // The read batch matches the partition we wrote, row for row.
    for (size_t r = 0; r < (*read)->num_rows(); ++r) {
      EXPECT_EQ(RowKey(**read, r), RowKey(*parts[p], r));
      got.insert(RowKey(**read, r));
    }
  }
  EXPECT_EQ(want, got);
  EXPECT_GT(stats.bytes_scanned, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypesNullsEncodings, ExchangeRoundTripTest,
    ::testing::Values(
        // Heuristic encoding, every type × null pattern.
        ExchangeCase{TypeId::kBool, NullPattern::kNone, -1},
        ExchangeCase{TypeId::kBool, NullPattern::kAlternating, -1},
        ExchangeCase{TypeId::kInt32, NullPattern::kNone, -1},
        ExchangeCase{TypeId::kInt32, NullPattern::kAll, -1},
        ExchangeCase{TypeId::kInt64, NullPattern::kAlternating, -1},
        ExchangeCase{TypeId::kInt64, NullPattern::kFirstOnly, -1},
        ExchangeCase{TypeId::kDouble, NullPattern::kNone, -1},
        ExchangeCase{TypeId::kDouble, NullPattern::kLastOnly, -1},
        ExchangeCase{TypeId::kString, NullPattern::kNone, -1},
        ExchangeCase{TypeId::kString, NullPattern::kAll, -1},
        ExchangeCase{TypeId::kDate, NullPattern::kAlternating, -1},
        ExchangeCase{TypeId::kTimestamp, NullPattern::kNone, -1},
        // Forced encodings (fall back to plain when unsupported).
        ExchangeCase{TypeId::kInt64, NullPattern::kNone,
                     static_cast<int>(Encoding::kPlain)},
        ExchangeCase{TypeId::kInt64, NullPattern::kAlternating,
                     static_cast<int>(Encoding::kRunLength)},
        ExchangeCase{TypeId::kInt64, NullPattern::kNone,
                     static_cast<int>(Encoding::kDelta)},
        ExchangeCase{TypeId::kInt32, NullPattern::kFirstOnly,
                     static_cast<int>(Encoding::kDelta)},
        ExchangeCase{TypeId::kString, NullPattern::kAlternating,
                     static_cast<int>(Encoding::kDictionary)},
        ExchangeCase{TypeId::kBool, NullPattern::kNone,
                     static_cast<int>(Encoding::kBitPacked)},
        ExchangeCase{TypeId::kDouble, NullPattern::kAlternating,
                     static_cast<int>(Encoding::kDictionary)}));

TEST(ExchangeFormatTest, EmptyTableWritesTypedObject) {
  // An empty producer output is still a typed file: every partition is a
  // zero-row row group of the producer plan's schema.
  const FileSchema schema = {{"t.k", TypeId::kInt64}, {"t.v", TypeId::kDate}};
  const std::vector<RowBatchPtr> parts = Partition(Table{}, schema, 3);
  ASSERT_EQ(parts.size(), 3u);
  auto storage = std::make_shared<MemoryStore>();
  auto bytes = WriteExchangeObject(storage.get(), "x/empty", schema, parts);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto reader = OpenExchange(storage.get(), "x/empty");
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->schema(), schema);
  ASSERT_EQ(reader->NumRowGroups(), 3u);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(reader->RowGroupRows(p), 0u);
    ScanStats stats;
    auto read = reader->ReadRowGroup(p, {}, &stats);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ((*read)->num_rows(), 0u);
    ASSERT_EQ((*read)->num_columns(), 2u);
    EXPECT_EQ((*read)->column(1)->type(), TypeId::kDate);
  }
}

TEST(ExchangeFormatTest, SingleRowLeavesOtherPartitionsEmpty) {
  auto key_col = std::make_shared<ColumnVector>(TypeId::kInt64);
  auto val_col = std::make_shared<ColumnVector>(TypeId::kString);
  key_col->AppendInt(42);
  val_col->AppendString("lonely");
  auto batch = std::make_shared<RowBatch>();
  batch->AddColumn("t.k", key_col);
  batch->AddColumn("t.v", val_col);
  Table table;
  table.AddBatch(batch);
  const FileSchema schema = {{"t.k", TypeId::kInt64},
                             {"t.v", TypeId::kString}};
  const int P = 8;
  const std::vector<RowBatchPtr> parts = Partition(table, schema, P);
  ASSERT_EQ(parts.size(), static_cast<size_t>(P));
  auto store = std::make_shared<ObjectStore>(std::make_shared<MemoryStore>());
  ASSERT_TRUE(WriteExchangeObject(store.get(), "x/one", schema, parts).ok());
  auto reader = OpenExchange(store.get(), "x/one");
  ASSERT_NE(reader, nullptr);
  size_t nonempty = 0, total = 0;
  for (int p = 0; p < P; ++p) {
    if (reader->RowGroupRows(p) == 0) {
      // The scheduler skips an empty partition without a GET; its row
      // group has no bytes to fetch.
      EXPECT_EQ(*reader->RowGroupProjectedBytes(p, {}), 0u);
      continue;
    }
    const uint64_t before = store->stats().get_requests;
    ScanStats stats;
    auto read = reader->ReadRowGroup(p, {}, &stats);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(store->stats().get_requests - before, 1u) << "partition " << p;
    total += (*read)->num_rows();
    ++nonempty;
    EXPECT_EQ((*read)->column(0)->GetValue(0).AsInt(), 42);
    EXPECT_EQ((*read)->column(1)->GetValue(0).s, "lonely");
  }
  EXPECT_EQ(nonempty, 1u);
  EXPECT_EQ(total, 1u);
}

TEST(ExchangeFormatTest, CombinedReadIssuesOneGetPerPartition) {
  Random rng(7);
  auto key_col = std::make_shared<ColumnVector>(TypeId::kInt64);
  auto a_col = std::make_shared<ColumnVector>(TypeId::kDouble);
  auto b_col = std::make_shared<ColumnVector>(TypeId::kString);
  for (int i = 0; i < 500; ++i) {
    key_col->AppendInt(rng.Uniform(0, 100));
    a_col->AppendDouble(rng.UniformDouble(0, 1));
    b_col->AppendString(rng.NextString(8));
  }
  auto batch = std::make_shared<RowBatch>();
  batch->AddColumn("t.k", key_col);
  batch->AddColumn("t.a", a_col);
  batch->AddColumn("t.b", b_col);
  Table table;
  table.AddBatch(batch);
  const FileSchema schema = {{"t.k", TypeId::kInt64},
                             {"t.a", TypeId::kDouble},
                             {"t.b", TypeId::kString}};
  const std::vector<RowBatchPtr> parts = Partition(table, schema, 4);

  auto store = std::make_shared<ObjectStore>(std::make_shared<MemoryStore>());
  ASSERT_TRUE(WriteExchangeObject(store.get(), "x/g", schema, parts).ok());
  auto reader = OpenExchange(store.get(), "x/g");
  ASSERT_NE(reader, nullptr);
  for (int p = 0; p < 4; ++p) {
    ASSERT_GT(reader->RowGroupRows(p), 0u);
    const uint64_t before = store->stats().get_requests;
    ScanStats stats;
    auto read = reader->ReadRowGroup(p, {}, &stats);
    ASSERT_TRUE(read.ok());
    // A row group's chunks are contiguous, so they coalesce into exactly
    // one underlying GET — the combined-read guarantee.
    EXPECT_EQ(store->stats().get_requests - before, 1u) << "partition " << p;
    EXPECT_EQ(stats.bytes_scanned, *reader->RowGroupProjectedBytes(p, {}));
  }
}

TEST(ExchangeFormatTest, MismatchedProducerTypeIsAnError) {
  auto key_col = std::make_shared<ColumnVector>(TypeId::kInt64);
  key_col->AppendInt(1);
  auto batch = std::make_shared<RowBatch>();
  batch->AddColumn("t.k", key_col);
  Table table;
  table.AddBatch(batch);
  ExprPtr key = MakeColumnRef("t", "k");
  // The object's schema comes from the plan; a batch that disagrees with
  // it would write chunks the footer mislabels.
  EXPECT_FALSE(
      HashPartitionTable(table, {{"t.k", TypeId::kInt32}}, {key.get()}, 2).ok());
  PixelsWriter writer({{"t.k", TypeId::kInt32}});
  EXPECT_TRUE(writer.AppendRowGroup(*batch).IsTypeError());
}

TEST(ExchangeFormatTest, SweepRemovesEverythingUnderPrefix) {
  auto storage = std::make_shared<MemoryStore>();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(storage
                    ->Write("intermediate/q1/shuffle/s0/t" +
                                std::to_string(i) + ".a1",
                            {1, 2, 3})
                    .ok());
  }
  ASSERT_TRUE(storage->Write("intermediate/q1/s0/t0.a1", {4}).ok());
  ASSERT_TRUE(storage->Write("intermediate/q10/s0/t0.a1", {9}).ok());
  ASSERT_TRUE(storage->Write("intermediate/q10/shuffle/s0/t0.a1", {9}).ok());
  EXPECT_EQ(SweepExchangePrefix(storage.get(), "intermediate/q1/"), 6u);
  auto left = storage->List("intermediate/q1/");
  ASSERT_TRUE(left.ok());
  EXPECT_TRUE(left->empty());
  // Other queries' intermediates are untouched, q10 included.
  EXPECT_TRUE(storage->Exists("intermediate/q10/s0/t0.a1"));
  EXPECT_TRUE(storage->Exists("intermediate/q10/shuffle/s0/t0.a1"));
}

// First-writer-wins commit: the winner is the claim with the earliest
// SIMULATED completion (ties to the primary), regardless of which thread
// offers first. Racy by construction — the TSan CI step runs this.
TEST(ExchangeCommitTableTest, FirstWriterWinsIsDeterministicUnderRaces) {
  for (int round = 0; round < 50; ++round) {
    ExchangeCommitTable table;
    // 8 tasks × 4 claims each, offered from racing threads.
    const int kTasks = 8, kClaims = 4;
    Status st = ThreadPool::Shared()->ParallelFor(
        0, kTasks * kClaims, 1,
        [&](size_t i) {
          const int task = static_cast<int>(i) / kClaims;
          const int rank = static_cast<int>(i) % kClaims;
          // Completion times shaped so rank 1 has the minimum for even
          // tasks and there is a tie (rank 0 wins it) for odd tasks.
          double completion;
          if (task % 2 == 0) {
            completion = rank == 1 ? 10.0 : 20.0 + rank;
          } else {
            completion = rank <= 1 ? 10.0 : 20.0 + rank;
          }
          table.Offer(0, task, {rank, completion, "p" + std::to_string(rank)});
          return Status::OK();
        },
        /*max_parallelism=*/8);
    ASSERT_TRUE(st.ok());
    for (int task = 0; task < kTasks; ++task) {
      const auto held = table.Get(0, task);
      if (task % 2 == 0) {
        EXPECT_EQ(held.attempt_rank, 1) << "task " << task;
        EXPECT_EQ(held.completion_ms, 10.0);
      } else {
        // Tie at 10.0 between ranks 0 and 1 → the lower rank holds.
        EXPECT_EQ(held.attempt_rank, 0) << "task " << task;
        EXPECT_EQ(held.completion_ms, 10.0);
      }
    }
  }
}

TEST(ExchangeCommitTableTest, LoserIsReportedToTheCaller) {
  ExchangeCommitTable table;
  EXPECT_TRUE(table.Offer(0, 0, {0, 50.0, "slow"}));
  ExchangeCommitTable::Claim loser;
  EXPECT_TRUE(table.Offer(0, 0, {1, 10.0, "fast"}, &loser));
  EXPECT_EQ(loser.path, "slow");
  // A worse claim loses and comes back as its own loser.
  EXPECT_FALSE(table.Offer(0, 0, {1, 99.0, "late"}, &loser));
  EXPECT_EQ(loser.path, "late");
  EXPECT_EQ(table.Get(0, 0).path, "fast");
}

}  // namespace
}  // namespace pixels
