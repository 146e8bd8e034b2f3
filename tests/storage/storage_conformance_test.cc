// Conformance suite run against every Storage backend: ReadRanges must
// return exactly the requested bytes per range regardless of how the
// backend coalesces, and out-of-bounds requests must fail cleanly.
#include <gtest/gtest.h>

#include <numeric>

#include "storage/local_fs.h"
#include "storage/memory_store.h"
#include "storage/object_store.h"

namespace pixels {
namespace {

struct BackendFactory {
  std::string name;
  std::function<std::shared_ptr<Storage>()> make;
};

// gtest prints the parameter into each ctest name; without this it would
// dump the struct's raw bytes, heap addresses included.
void PrintTo(const BackendFactory& b, std::ostream* os) { *os << b.name; }

class StorageConformanceTest
    : public ::testing::TestWithParam<BackendFactory> {
 protected:
  void SetUp() override { storage_ = GetParam().make(); }

  std::shared_ptr<Storage> storage_;
};

std::vector<uint8_t> Pattern(size_t n) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint8_t>(i % 251);
  return data;
}

TEST_P(StorageConformanceTest, ReadRangesSlicesExactly) {
  const auto data = Pattern(10'000);
  ASSERT_TRUE(storage_->Write("obj", data).ok());
  // Unsorted, overlapping, adjacent, and distant ranges in one call.
  std::vector<ByteRange> ranges = {
      {9'000, 500}, {0, 100}, {100, 100}, {50, 200}, {4'000, 1}};
  auto result = storage_->ReadRanges("obj", ranges);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    const auto expect = std::vector<uint8_t>(
        data.begin() + static_cast<ptrdiff_t>(ranges[i].offset),
        data.begin() +
            static_cast<ptrdiff_t>(ranges[i].offset + ranges[i].length));
    EXPECT_EQ((*result)[i], expect) << "range " << i;
  }
}

TEST_P(StorageConformanceTest, ReadRangesMatchesIndividualReadRange) {
  const auto data = Pattern(5'000);
  ASSERT_TRUE(storage_->Write("obj", data).ok());
  std::vector<ByteRange> ranges = {{0, 512}, {600, 512}, {4'000, 1'000}};
  // Sweep gap tolerances: slicing must be invariant to the fetch plan.
  for (uint64_t gap : {uint64_t{0}, uint64_t{100}, uint64_t{1'000'000}}) {
    auto multi = storage_->ReadRanges("obj", ranges, gap);
    ASSERT_TRUE(multi.ok());
    for (size_t i = 0; i < ranges.size(); ++i) {
      auto single =
          storage_->ReadRange("obj", ranges[i].offset, ranges[i].length);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ((*multi)[i], *single) << "gap " << gap << " range " << i;
    }
  }
}

TEST_P(StorageConformanceTest, ReadRangesEmptyInputAndEmptyRanges) {
  ASSERT_TRUE(storage_->Write("obj", Pattern(100)).ok());
  auto none = storage_->ReadRanges("obj", {});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  auto zero = storage_->ReadRanges("obj", {{10, 0}, {20, 5}});
  ASSERT_TRUE(zero.ok());
  ASSERT_EQ(zero->size(), 2u);
  EXPECT_TRUE((*zero)[0].empty());
  EXPECT_EQ((*zero)[1].size(), 5u);
}

TEST_P(StorageConformanceTest, ReadRangesOutOfBoundsFails) {
  ASSERT_TRUE(storage_->Write("obj", Pattern(100)).ok());
  EXPECT_FALSE(storage_->ReadRanges("obj", {{90, 20}}).ok());
  EXPECT_FALSE(storage_->ReadRanges("obj", {{0, 10}, {200, 1}}).ok());
  EXPECT_FALSE(storage_->ReadRanges("missing", {{0, 1}}).ok());
}

TEST_P(StorageConformanceTest, CoalescedFetchNeverChangesContent) {
  const auto data = Pattern(8'192);
  ASSERT_TRUE(storage_->Write("obj", data).ok());
  // Many small ranges with sub-tolerance gaps: one backend GET, N slices.
  std::vector<ByteRange> ranges;
  for (uint64_t off = 0; off + 64 <= data.size(); off += 256) {
    ranges.push_back({off, 64});
  }
  auto result = storage_->ReadRanges("obj", ranges, /*coalesce_gap_bytes=*/512);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < ranges.size(); ++i) {
    ASSERT_EQ((*result)[i].size(), 64u);
    EXPECT_EQ((*result)[i][0],
              static_cast<uint8_t>(ranges[i].offset % 251));
  }
}

std::vector<BackendFactory> Backends() {
  return {
      {"MemoryStore",
       [] { return std::make_shared<MemoryStore>(); }},
      {"ObjectStore",
       [] {
         return std::make_shared<ObjectStore>(std::make_shared<MemoryStore>());
       }},
      {"LocalFs",
       []() -> std::shared_ptr<Storage> {
         static int dir_seq = 0;
         auto root = std::filesystem::temp_directory_path() /
                     ("pixels_conformance_" + std::to_string(::getpid()) +
                      "_" + std::to_string(dir_seq++));
         auto fs = LocalFs::Open(root.string());
         return std::shared_ptr<Storage>(std::move(*fs));
       }},
  };
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageConformanceTest,
                         ::testing::ValuesIn(Backends()),
                         [](const ::testing::TestParamInfo<BackendFactory>& i) {
                           return i.param.name;
                         });

}  // namespace
}  // namespace pixels
