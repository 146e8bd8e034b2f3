// Typed open-addressing hash tables for vectorized hash join and hash
// aggregation. The scalar seed paths serialize every group/join key into
// a std::string per row and look it up in a std::map /
// unordered_multimap; these tables instead key on batch-precomputed
// 64-bit hashes (exec/kernels.h HashKeyColumns) with columnar key
// storage and typed equality, so the hot loop never boxes a Value and
// never allocates per row.
//
// Key semantics replicate ValuesKey equality exactly: a key component is
// the (Value::Kind, payload) pair of ColumnVector::GetValue, so
// Int(1) != Double(1.0) != Bool(true) != String("1"), doubles compare
// bitwise (-0.0 != +0.0, NaN == NaN of the same bit pattern), and nulls
// equal each other (aggregation groups nulls; join builds must skip
// null keys before insertion, since nulls never join).
//
// Layout: slots_ is a power-of-two linear-probing index of entry ids;
// per-entry hashes and key payloads live in dense side arrays (KeyStore:
// one kind byte + one 64-bit word per key column per entry, strings in a
// per-column pool). Growth doubles the slot array and reindexes from the
// stored hashes — keys are never rehashed or compared on growth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "format/batch.h"

namespace pixels {

/// Columnar storage for the distinct keys inserted into a table.
/// Each column stores a Value kind byte and a 64-bit payload word per
/// entry: integer kinds keep the value, doubles keep the bit pattern,
/// strings keep an index into a per-column string pool.
class KeyStore {
 public:
  explicit KeyStore(size_t num_cols) : cols_(num_cols) {}

  size_t num_rows() const { return rows_; }
  size_t num_cols() const { return cols_.size(); }

  void Reserve(size_t rows) {
    for (auto& c : cols_) {
      c.kind.reserve(rows);
      c.word.reserve(rows);
    }
  }

  /// Appends row `row` of the probe-side key columns as a new entry.
  void AppendRow(const std::vector<ColumnVectorPtr>& cols, uint32_t row);

  /// Typed equality of stored entry `entry` against row `row` of the
  /// probe-side key columns (ValuesKey semantics; null == null).
  bool RowEquals(size_t entry, const std::vector<ColumnVectorPtr>& cols,
                 uint32_t row) const;

  /// Reboxes one component of a stored key (emit path only).
  Value GetValue(size_t entry, size_t col) const;

  /// Prefetch hint for the key words of `entry` (batch probes).
  void Prefetch(size_t entry) const {
    for (const Col& c : cols_) __builtin_prefetch(c.word.data() + entry);
  }

 private:
  struct Col {
    std::vector<uint8_t> kind;   // Value::Kind per entry
    std::vector<uint64_t> word;  // payload bits / string pool index
    std::vector<std::string> strings;  // pool; only string entries push
  };
  std::vector<Col> cols_;
  size_t rows_ = 0;
};

/// Maximum occupancy the join/agg operators build their tables with
/// before the slot array doubles.
inline constexpr double kHashTableLoadFactor = 0.7;

/// Linear-probing table mapping hashed keys to dense entry ids
/// [0, num_entries) in first-insertion order. Backs both aggregation
/// groups and the distinct-key index of the join table.
class GroupTable {
 public:
  /// `load_factor` is clamped to [0.1, 0.95]; the slot array doubles
  /// whenever entries exceed capacity * load_factor.
  GroupTable(size_t num_key_cols, double load_factor);

  /// Pre-sizes the slot array for `expected` distinct keys so inserts up
  /// to that count never rehash (the pre-size satellite: join builds know
  /// their exact row count, parallel agg knows its input row count).
  void Reserve(size_t expected);

  /// Returns the entry id for the key at `cols[...][row]`, inserting a
  /// new entry when absent. `hash` must come from HashKeyColumns (or any
  /// function where equal keys hash equal).
  uint32_t FindOrInsert(uint64_t hash,
                        const std::vector<ColumnVectorPtr>& cols,
                        uint32_t row);

  /// Lookup without insertion; returns kNotFound when absent.
  uint32_t Find(uint64_t hash, const std::vector<ColumnVectorPtr>& cols,
                uint32_t row) const;

  static constexpr uint32_t kNotFound = 0xffffffffu;

  /// Prefetch hints for batch probes: the slot `hash` starts at, and the
  /// entry (stored hash and key words) that slot holds. The entry hint
  /// reads the slot, so call it a few rows after the slot hint.
  void PrefetchSlot(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(slots_.data() + (hash & mask_));
  }
  void PrefetchEntry(uint64_t hash) const {
    if (slots_.empty()) return;
    const uint32_t e = slots_[hash & mask_];
    if (e == kNotFound) return;
    __builtin_prefetch(entry_hash_.data() + e);
    keys_.Prefetch(e);
  }

  size_t num_entries() const { return keys_.num_rows(); }
  const KeyStore& keys() const { return keys_; }
  /// Slot-array rebuilds since construction (tests assert Reserve
  /// prevents rehash storms).
  size_t rehashes() const { return rehashes_; }

 private:
  void Grow(size_t min_capacity);

  KeyStore keys_;
  std::vector<uint64_t> entry_hash_;  // per entry, for reindex on growth
  std::vector<uint32_t> slots_;       // entry id or kNotFound (empty)
  size_t mask_ = 0;                   // slots_.size() - 1 (power of two)
  size_t max_entries_ = 0;            // grow threshold
  double load_factor_;
  size_t rehashes_ = 0;
};

/// The match phase's output for one probe batch: probe row `probe[i]`
/// joins build row `build[i]`.
struct JoinMatches {
  std::vector<uint32_t> probe;
  std::vector<uint32_t> build;

  size_t size() const { return probe.size(); }
  void Clear() {
    probe.clear();
    build.clear();
  }
  void Add(uint32_t probe_row, uint32_t build_row) {
    probe.push_back(probe_row);
    build.push_back(build_row);
  }
};

/// Multimap flavor for the join build side: distinct keys in a
/// GroupTable, build row ids chained per key in insertion order (build
/// row order when driven that way, so contents are deterministic under
/// the partition-parallel build).
class JoinTable {
 public:
  JoinTable(size_t num_key_cols, double load_factor)
      : index_(num_key_cols, load_factor) {}

  /// Pre-size for `expected_rows` build rows (distinct keys <= rows).
  void Reserve(size_t expected_rows) {
    index_.Reserve(expected_rows);
    build_rows_.reserve(expected_rows);
    next_.reserve(expected_rows);
  }

  /// Inserts build row `build_row` under the key at `cols[...][row]`.
  /// Callers skip null keys (nulls never join).
  void Insert(uint64_t hash, const std::vector<ColumnVectorPtr>& cols,
              uint32_t row, uint32_t build_row);

  /// Means "emit nothing for an unmatched probe row" (inner joins).
  static constexpr uint32_t kNoPad = GroupTable::kNotFound;

  /// Batch probe over a table partitioned by hash % parts.size() (one
  /// part when unpartitioned). For each probe row of `sel` in order
  /// (rows [0, num_rows) when null), appends one (probe row, build row)
  /// pair to `out` per build row whose key equals the row's key columns,
  /// in insertion order. Rows flagged in `any_null` match nothing. A row
  /// without a match appends (row, pad_row) unless pad_row is kNoPad
  /// (LEFT JOIN padding). Prefetches the slot 16 rows ahead and the
  /// entry 8 rows ahead, so the loop overlaps its cache misses.
  static void ProbeBatch(const std::vector<JoinTable>& parts,
                         const std::vector<uint64_t>& hashes,
                         const std::vector<uint8_t>& any_null,
                         const std::vector<ColumnVectorPtr>& key_cols,
                         const SelectionVector* sel, size_t num_rows,
                         uint32_t pad_row, JoinMatches* out);

  size_t num_rows() const { return build_rows_.size(); }
  size_t num_keys() const { return index_.num_entries(); }
  size_t rehashes() const { return index_.rehashes(); }

 private:
  GroupTable index_;
  std::vector<uint32_t> head_;  // per distinct key: first chain entry
  std::vector<uint32_t> tail_;  // per distinct key: last chain entry
  std::vector<uint32_t> next_;  // per chain entry: chain link
  std::vector<uint32_t> build_rows_;  // per chain entry: build row id
};

}  // namespace pixels
