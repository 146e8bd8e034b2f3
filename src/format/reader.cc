#include "format/reader.h"

#include <algorithm>
#include <cstring>

#include "format/encoding.h"
#include "format/footer_cache.h"

namespace pixels {

namespace {
/// Speculative tail-read size for Open: one read covers trailer + footer
/// for all but very wide / very fragmented files.
constexpr uint64_t kFooterTailReadBytes = 8 * 1024;
}  // namespace

PixelsReader::PixelsReader(Storage* storage, std::string path,
                           std::shared_ptr<const FileFooter> footer,
                           uint64_t file_size, const IoOptions& io)
    : storage_(storage),
      path_(std::move(path)),
      footer_(std::move(footer)),
      file_size_(file_size),
      io_(io) {
  column_index_.reserve(footer_->schema.size());
  for (size_t i = 0; i < footer_->schema.size(); ++i) {
    column_index_.emplace(footer_->schema[i].name, static_cast<int>(i));
  }
}

Result<std::unique_ptr<PixelsReader>> PixelsReader::Open(
    Storage* storage, const std::string& path) {
  return Open(storage, path, IoOptions{});
}

Result<std::unique_ptr<PixelsReader>> PixelsReader::Open(
    Storage* storage, const std::string& path, const IoOptions& io) {
  PIXELS_ASSIGN_OR_RETURN(uint64_t size, storage->Size(path));
  const uint64_t trailer_len = sizeof(uint64_t) + sizeof(kPixelsMagic);
  if (size < sizeof(kPixelsMagic) + trailer_len) {
    return Status::Corruption("file too small: " + path);
  }

  std::shared_ptr<const FileFooter> footer;
  if (io.use_footer_cache) {
    footer = FooterCache::Shared()->Get(storage, path, size);
  }
  if (footer == nullptr) {
    // Speculative tail read: trailer + footer in one request for all but
    // oversized footers.
    const uint64_t tail_len = std::min(size, kFooterTailReadBytes);
    const uint64_t tail_start = size - tail_len;
    PIXELS_ASSIGN_OR_RETURN(std::vector<uint8_t> tail,
                            storage->ReadRange(path, tail_start, tail_len));
    if (std::memcmp(tail.data() + tail_len - sizeof(kPixelsMagic),
                    kPixelsMagic, sizeof(kPixelsMagic)) != 0) {
      return Status::Corruption("bad trailing magic: " + path);
    }
    uint64_t footer_offset;
    std::memcpy(&footer_offset, tail.data() + tail_len - trailer_len,
                sizeof(uint64_t));
    if (footer_offset < sizeof(kPixelsMagic) ||
        footer_offset >= size - trailer_len) {
      return Status::Corruption("bad footer offset: " + path);
    }
    const uint64_t footer_len = size - trailer_len - footer_offset;
    FileFooter parsed;
    if (footer_offset >= tail_start) {
      // Footer fully inside the tail read (the common case).
      ByteReader reader(tail.data() + (footer_offset - tail_start),
                        footer_len);
      PIXELS_ASSIGN_OR_RETURN(parsed, FileFooter::Deserialize(&reader));
    } else {
      // Oversized footer: fetch the part before the tail and stitch.
      PIXELS_ASSIGN_OR_RETURN(
          std::vector<uint8_t> head,
          storage->ReadRange(path, footer_offset, tail_start - footer_offset));
      head.insert(head.end(), tail.begin(), tail.end() - trailer_len);
      ByteReader reader(head);
      PIXELS_ASSIGN_OR_RETURN(parsed, FileFooter::Deserialize(&reader));
    }
    footer = std::make_shared<const FileFooter>(std::move(parsed));
    if (io.use_footer_cache) {
      FooterCache::Shared()->Put(storage, path, size, footer);
    }
  }
  return std::unique_ptr<PixelsReader>(
      new PixelsReader(storage, path, std::move(footer), size, io));
}

Result<int> PixelsReader::ColumnIndex(const std::string& name) const {
  auto it = column_index_.find(name);
  if (it == column_index_.end()) {
    return Status::NotFound("no column '" + name + "' in " + path_);
  }
  return it->second;
}

Result<std::vector<int>> PixelsReader::ResolveColumns(
    const std::vector<std::string>& columns) const {
  std::vector<int> col_indexes;
  if (columns.empty()) {
    col_indexes.reserve(footer_->schema.size());
    for (size_t i = 0; i < footer_->schema.size(); ++i) {
      col_indexes.push_back(static_cast<int>(i));
    }
  } else {
    col_indexes.reserve(columns.size());
    for (const auto& name : columns) {
      PIXELS_ASSIGN_OR_RETURN(int idx, ColumnIndex(name));
      col_indexes.push_back(idx);
    }
  }
  return col_indexes;
}

Result<ColumnStats> PixelsReader::FileStats(const std::string& column) const {
  PIXELS_ASSIGN_OR_RETURN(int idx, ColumnIndex(column));
  ColumnStats merged;
  for (const auto& rg : footer_->row_groups) {
    merged.Merge(rg.chunks[static_cast<size_t>(idx)].stats);
  }
  return merged;
}

Result<std::vector<BufferCache::Buffer>> PixelsReader::FetchChunks(
    const RowGroupMeta& rg, const std::vector<int>& col_indexes,
    ScanStats* stats) const {
  std::vector<BufferCache::Buffer> buffers(col_indexes.size());
  std::vector<ByteRange> missing;
  std::vector<size_t> missing_slot;
  for (size_t i = 0; i < col_indexes.size(); ++i) {
    const ChunkMeta& chunk = rg.chunks[static_cast<size_t>(col_indexes[i])];
    if (io_.chunk_cache != nullptr) {
      buffers[i] =
          io_.chunk_cache->Get(storage_, path_, chunk.offset, chunk.length);
    }
    if (buffers[i] == nullptr) {
      missing.push_back(ByteRange{chunk.offset, chunk.length});
      missing_slot.push_back(i);
    } else if (stats != nullptr) {
      ++stats->cache_hits;
    }
  }
  if (!missing.empty()) {
    // One gap-coalesced multi-range read for every chunk the cache could
    // not serve.
    PIXELS_ASSIGN_OR_RETURN(
        std::vector<std::vector<uint8_t>> fetched,
        storage_->ReadRanges(path_, missing, io_.coalesce_gap_bytes));
    for (size_t j = 0; j < missing.size(); ++j) {
      auto buf = std::make_shared<const std::vector<uint8_t>>(
          std::move(fetched[j]));
      if (io_.chunk_cache != nullptr) {
        io_.chunk_cache->Put(storage_, path_, missing[j].offset,
                             missing[j].length, buf);
      }
      buffers[missing_slot[j]] = std::move(buf);
    }
    if (stats != nullptr) stats->cache_misses += missing.size();
  }
  return buffers;
}

Result<RowBatchPtr> PixelsReader::ReadRowGroup(
    size_t index, const std::vector<std::string>& columns) {
  return ReadRowGroup(index, columns, &scan_stats_);
}

Result<RowBatchPtr> PixelsReader::ReadRowGroup(
    size_t index, const std::vector<std::string>& columns,
    ScanStats* stats) const {
  if (index >= footer_->row_groups.size()) {
    return Status::InvalidArgument("row group index out of range");
  }
  const RowGroupMeta& rg = footer_->row_groups[index];
  PIXELS_ASSIGN_OR_RETURN(std::vector<int> col_indexes,
                          ResolveColumns(columns));
  PIXELS_ASSIGN_OR_RETURN(std::vector<BufferCache::Buffer> buffers,
                          FetchChunks(rg, col_indexes, stats));
  // Every projected chunk is charged before any decode, and a cache hit
  // bills like a fetch: the query consumed the chunk either way.
  for (const auto& buffer : buffers) stats->bytes_scanned += buffer->size();
  auto batch = std::make_shared<RowBatch>();
  for (size_t i = 0; i < col_indexes.size(); ++i) {
    const size_t idx = static_cast<size_t>(col_indexes[i]);
    ByteReader reader(*buffers[i]);
    PIXELS_ASSIGN_OR_RETURN(
        ColumnVectorPtr col,
        DecodeColumn(footer_->schema[idx].type, rg.chunks[idx].encoding,
                     &reader, rg.num_rows));
    batch->AddColumn(footer_->schema[idx].name, std::move(col));
  }
  return batch;
}

Status PixelsReader::PrefetchRowGroup(
    size_t index, const std::vector<std::string>& columns) const {
  if (io_.chunk_cache == nullptr) return Status::OK();
  if (index >= footer_->row_groups.size()) {
    return Status::InvalidArgument("row group index out of range");
  }
  PIXELS_ASSIGN_OR_RETURN(std::vector<int> col_indexes,
                          ResolveColumns(columns));
  return FetchChunks(footer_->row_groups[index], col_indexes, nullptr)
      .status();
}

std::vector<size_t> PixelsReader::PruneRowGroups(
    const std::vector<ScanPredicate>& predicates) const {
  std::vector<size_t> survivors;
  for (size_t g = 0; g < footer_->row_groups.size(); ++g) {
    if (RowGroupMayMatch(footer_->row_groups[g], predicates)) {
      survivors.push_back(g);
    }
  }
  return survivors;
}

bool PixelsReader::RowGroupMayMatch(
    size_t index, const std::vector<ScanPredicate>& predicates) const {
  if (index >= footer_->row_groups.size()) return false;
  return RowGroupMayMatch(footer_->row_groups[index], predicates);
}

Result<uint64_t> PixelsReader::RowGroupProjectedBytes(
    size_t index, const std::vector<std::string>& columns) const {
  if (index >= footer_->row_groups.size()) {
    return Status::InvalidArgument("row group index out of range");
  }
  PIXELS_ASSIGN_OR_RETURN(std::vector<int> col_indexes,
                          ResolveColumns(columns));
  const RowGroupMeta& rg = footer_->row_groups[index];
  uint64_t total = 0;
  for (int ci : col_indexes) {
    total += rg.chunks[static_cast<size_t>(ci)].length;
  }
  return total;
}

uint64_t PixelsReader::RowGroupRows(size_t index) const {
  if (index >= footer_->row_groups.size()) return 0;
  return footer_->row_groups[index].num_rows;
}

bool PixelsReader::RowGroupMayMatch(
    const RowGroupMeta& rg, const std::vector<ScanPredicate>& predicates) const {
  for (const auto& pred : predicates) {
    auto idx = ColumnIndex(pred.column);
    if (!idx.ok()) continue;  // unknown column: cannot prune
    const ColumnStats& stats = rg.chunks[static_cast<size_t>(*idx)].stats;
    if (!stats.MayMatch(pred.op, pred.literal)) return false;
  }
  return true;
}

Result<std::vector<RowBatchPtr>> PixelsReader::Scan(const ScanOptions& options) {
  scan_stats_ = ScanStats{};
  scan_stats_.row_groups_total = footer_->row_groups.size();
  std::vector<RowBatchPtr> out;
  for (size_t g = 0; g < footer_->row_groups.size(); ++g) {
    if (!RowGroupMayMatch(footer_->row_groups[g], options.predicates)) continue;
    PIXELS_ASSIGN_OR_RETURN(RowBatchPtr batch, ReadRowGroup(g, options.columns));
    ++scan_stats_.row_groups_read;
    scan_stats_.rows_read += batch->num_rows();
    out.push_back(std::move(batch));
  }
  return out;
}

Result<std::vector<RowBatchPtr>> PixelsReader::Scan(const ScanOptions& options,
                                                    ThreadPool* pool,
                                                    int parallelism) {
  if (parallelism <= 0) parallelism = DefaultParallelism();
  if (pool == nullptr || parallelism <= 1) return Scan(options);

  const std::vector<size_t> survivors = PruneRowGroups(options.predicates);
  std::vector<RowBatchPtr> out(survivors.size());
  std::vector<ScanStats> morsel_stats(survivors.size());
  PIXELS_RETURN_NOT_OK(pool->ParallelFor(
      0, survivors.size(), /*grain=*/1,
      [&](size_t i) -> Status {
        PIXELS_ASSIGN_OR_RETURN(
            out[i],
            ReadRowGroup(survivors[i], options.columns, &morsel_stats[i]));
        morsel_stats[i].row_groups_read = 1;
        morsel_stats[i].rows_read = out[i]->num_rows();
        return Status::OK();
      },
      parallelism));
  // Merge in morsel order: totals match the serial scan exactly.
  scan_stats_ = ScanStats{};
  scan_stats_.row_groups_total = footer_->row_groups.size();
  for (const auto& s : morsel_stats) {
    scan_stats_.Merge(s);
  }
  return out;
}

}  // namespace pixels
