// Storage-mediated exchange for the multi-stage CF shuffle (Starling arXiv
// 1911.11727 / Lambada arXiv 1912.00937). Each producer task
// hash-partitions its output and writes ONE object per (stage, task)
// holding every partition, so the object count scales with tasks, not
// tasks × partitions.
//
// The object is an ordinary Pixels file (format/file_format.h) whose row
// group p is partition p: the footer carries the schema, per-partition row
// counts, chunk offsets and zone maps. A consumer opens each producer
// object once with PixelsReader and reads its partition with
// ReadRowGroup(p), one gap-coalesced ranged GET, because a row group's
// chunks are contiguous. An empty partition is a zero-row row group and
// costs no GET. CF worker views are Pixels files too, so every CF
// intermediate has one format and one sweep (SweepExchangePrefix).
#pragma once

#include "format/batch.h"
#include "format/file_format.h"
#include "format/writer.h"
#include "sql/ast.h"
#include "storage/storage.h"

namespace pixels {

/// Hash-partitions `table`, whose batches have `schema`'s columns in order
/// and of exactly its types, into `num_partitions` batches of that schema
/// by the kind-tagged hash of `key_exprs` (HashKeyColumns — consistent
/// with join equality, so partitioning both join sides by their respective
/// keys routes every matching pair to the same partition). Rows whose key
/// is null route to partition (hash % P) of the fixed null tag —
/// deterministic, and harmless for inner joins since nulls never match.
/// Each partition keeps the input's row order, so partitioning is
/// deterministic regardless of upstream thread interleaving. Empty
/// partitions are empty batches of the schema.
Result<std::vector<RowBatchPtr>> HashPartitionTable(
    const Table& table, const FileSchema& schema,
    const std::vector<const Expr*>& key_exprs, int num_partitions);

/// Writes `partitions` (all of `schema`) as one Pixels file at `path`, row
/// group p = partition p. Returns the object's size in bytes.
Result<uint64_t> WriteExchangeObject(Storage* storage, const std::string& path,
                                     const FileSchema& schema,
                                     const std::vector<RowBatchPtr>& partitions,
                                     const WriterOptions& options = {});

/// Best-effort GC sweep of every object under `prefix` (List + Delete,
/// with a small bounded retry per object so a transient injected fault
/// cannot leak an intermediate object). Returns the number of objects
/// removed. Mirrors the MvStore spill-prefix sweep; ExecuteWithCfPushdown
/// runs it over the query's prefix on success and failure alike.
size_t SweepExchangePrefix(Storage* storage, const std::string& prefix);

}  // namespace pixels
