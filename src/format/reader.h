// PixelsReader: opens a .pxl object, exposes schema and stats, and scans
// projected columns with zone-map-based row-group skipping.
#pragma once

#include <memory>
#include <unordered_map>

#include "common/thread_pool.h"
#include "format/batch.h"
#include "format/file_format.h"
#include "storage/buffer_cache.h"
#include "storage/storage.h"

namespace pixels {

/// A simple comparison predicate pushed into the scan for row-group
/// pruning. Conjunction semantics across a vector of these.
struct ScanPredicate {
  std::string column;
  std::string op;  // "=", "<", "<=", ">", ">=", "<>"
  Value literal;
};

/// Scan configuration: which columns to materialize (empty = all) and
/// which predicates to use for pruning.
struct ScanOptions {
  std::vector<std::string> columns;
  std::vector<ScanPredicate> predicates;
};

/// Counters describing one scan, fed into billing ($/TB-scan) and the
/// storage benches.
struct ScanStats {
  uint64_t row_groups_total = 0;
  uint64_t row_groups_read = 0;
  uint64_t rows_read = 0;
  /// Encoded chunk bytes the scan consumed — the $/TB-scan billing unit.
  /// A chunk served from the buffer cache bills exactly like one fetched
  /// from storage, so cold and warm runs produce identical bills.
  uint64_t bytes_scanned = 0;
  /// Chunk reads served from / missed in the buffer cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  void Merge(const ScanStats& other) {
    row_groups_total += other.row_groups_total;
    row_groups_read += other.row_groups_read;
    rows_read += other.rows_read;
    bytes_scanned += other.bytes_scanned;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
  }
};

/// Random-access reader over one Pixels file.
class PixelsReader {
 public:
  /// Opens a file with default I/O options: consults the process-wide
  /// footer cache, and on a miss fetches trailer + footer in a single
  /// speculative tail read (a second read only for oversized footers).
  static Result<std::unique_ptr<PixelsReader>> Open(Storage* storage,
                                                    const std::string& path);

  /// Opens with explicit I/O policy (coalescing gap, chunk cache, footer
  /// cache opt-out).
  static Result<std::unique_ptr<PixelsReader>> Open(Storage* storage,
                                                    const std::string& path,
                                                    const IoOptions& io);

  const FileSchema& schema() const { return footer_->schema; }
  uint64_t NumRows() const { return footer_->NumRows(); }
  size_t NumRowGroups() const { return footer_->row_groups.size(); }

  /// File-level stats of one column (merged across row groups).
  Result<ColumnStats> FileStats(const std::string& column) const;

  /// Reads one row group with projection; `options.predicates` are NOT
  /// applied row-wise here — only used by `Scan` for pruning. Accumulates
  /// fetched chunk bytes into `scan_stats()`.
  Result<RowBatchPtr> ReadRowGroup(size_t index,
                                   const std::vector<std::string>& columns);

  /// Thread-safe variant and the morsel entry point of the scan (serial
  /// and parallel): accumulates into the caller-supplied `stats` instead
  /// of the reader's internal counters. Concurrent calls with distinct
  /// `stats` objects are safe. Projected chunks missing from the chunk
  /// cache are fetched in one gap-coalesced `ReadRanges` call; every
  /// projected chunk is billed and decoded whole.
  Result<RowBatchPtr> ReadRowGroup(size_t index,
                                   const std::vector<std::string>& columns,
                                   ScanStats* stats) const;

  /// Fetches the projected chunks of one row group into the chunk cache
  /// (one coalesced read for the misses) without decoding and without
  /// billing `bytes_scanned` — billing accrues when a consumer decodes
  /// the chunk. No-op unless the reader was opened with a chunk cache.
  /// Thread-safe; the streaming scan issues this window-ahead on the
  /// shared pool.
  Status PrefetchRowGroup(size_t index,
                          const std::vector<std::string>& columns) const;

  /// Indices of row groups whose zone maps may match `predicates`, in
  /// file order. Pure metadata; thread-safe.
  std::vector<size_t> PruneRowGroups(
      const std::vector<ScanPredicate>& predicates) const;

  /// Zone-map check for a single row group (false for an out-of-range
  /// index). Pure metadata; thread-safe. Used by runtime-filter morsel
  /// pruning, where the min/max of a published join-key filter becomes a
  /// pair of range predicates.
  bool RowGroupMayMatch(size_t index,
                        const std::vector<ScanPredicate>& predicates) const;

  /// Encoded bytes ReadRowGroup would bill for this row group under the
  /// given projection (sum of projected chunk lengths). Pure metadata;
  /// thread-safe. Lets callers that skip a row group account for the
  /// billed bytes they avoided.
  Result<uint64_t> RowGroupProjectedBytes(
      size_t index, const std::vector<std::string>& columns) const;

  /// Rows in one row group (0 for an out-of-range index).
  uint64_t RowGroupRows(size_t index) const;

  /// Scans the whole file: prunes row groups whose zone maps cannot match
  /// the predicates, reads remaining ones with projection. Returns the
  /// surviving batches; exact filtering is the executor's job.
  Result<std::vector<RowBatchPtr>> Scan(const ScanOptions& options);

  /// Parallel scan: surviving row groups are decoded concurrently on
  /// `pool` (one morsel per row group), up to `parallelism` at a time
  /// (<= 1 degenerates to the serial scan). Batch order and scan_stats()
  /// totals are identical to the serial scan.
  Result<std::vector<RowBatchPtr>> Scan(const ScanOptions& options,
                                        ThreadPool* pool, int parallelism);

  /// Stats of the most recent Scan.
  const ScanStats& scan_stats() const { return scan_stats_; }

 private:
  PixelsReader(Storage* storage, std::string path,
               std::shared_ptr<const FileFooter> footer, uint64_t file_size,
               const IoOptions& io);

  Result<int> ColumnIndex(const std::string& name) const;
  Result<std::vector<int>> ResolveColumns(
      const std::vector<std::string>& columns) const;
  /// Chunk buffers of one row group's projected columns, cache-aware and
  /// gap-coalesced; `stats` (optional) gets hit/miss counts.
  Result<std::vector<BufferCache::Buffer>> FetchChunks(
      const RowGroupMeta& rg, const std::vector<int>& col_indexes,
      ScanStats* stats) const;
  bool RowGroupMayMatch(const RowGroupMeta& rg,
                        const std::vector<ScanPredicate>& predicates) const;

  Storage* storage_;
  std::string path_;
  std::shared_ptr<const FileFooter> footer_;
  uint64_t file_size_;
  IoOptions io_;
  /// Column name -> schema position, built once at Open so per-chunk
  /// lookups are O(1) even under the paper's thousand-column tables.
  std::unordered_map<std::string, int> column_index_;
  ScanStats scan_stats_;  // not touched by the const/thread-safe paths
};

}  // namespace pixels
