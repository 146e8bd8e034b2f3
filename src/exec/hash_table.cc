#include "exec/hash_table.h"

#include <algorithm>

namespace pixels {

namespace {

/// The (kind, payload-word) pair of one key component, mirroring
/// ColumnVector::GetValue's kind mapping without building a Value.
/// `word` is unset for strings (compared through the pool).
struct KeyComponent {
  uint8_t kind;
  uint64_t word;
};

inline uint64_t DoubleBits(double v) {
  uint64_t bits;
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline KeyComponent ComponentAt(const ColumnVector& col, uint32_t row) {
  if (col.IsNull(row)) {
    return {static_cast<uint8_t>(Value::Kind::kNull), 0};
  }
  switch (col.type()) {
    case TypeId::kBool:
      return {static_cast<uint8_t>(Value::Kind::kBool),
              col.GetBool(row) ? 1ull : 0ull};
    case TypeId::kDouble:
      return {static_cast<uint8_t>(Value::Kind::kDouble),
              DoubleBits(col.GetDouble(row))};
    case TypeId::kString:
      return {static_cast<uint8_t>(Value::Kind::kString), 0};
    default:  // kInt32 / kInt64 / kDate / kTimestamp
      return {static_cast<uint8_t>(Value::Kind::kInt),
              static_cast<uint64_t>(col.GetInt(row))};
  }
}

size_t NextPow2(size_t v) {
  size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

void KeyStore::AppendRow(const std::vector<ColumnVectorPtr>& cols,
                         uint32_t row) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    Col& dst = cols_[c];
    const ColumnVector& src = *cols[c];
    KeyComponent kc = ComponentAt(src, row);
    if (kc.kind == static_cast<uint8_t>(Value::Kind::kString)) {
      kc.word = dst.strings.size();
      dst.strings.push_back(src.GetString(row));
    }
    dst.kind.push_back(kc.kind);
    dst.word.push_back(kc.word);
  }
  ++rows_;
}

bool KeyStore::RowEquals(size_t entry,
                         const std::vector<ColumnVectorPtr>& cols,
                         uint32_t row) const {
  for (size_t c = 0; c < cols_.size(); ++c) {
    const Col& stored = cols_[c];
    const ColumnVector& src = *cols[c];
    const KeyComponent kc = ComponentAt(src, row);
    if (stored.kind[entry] != kc.kind) return false;
    if (kc.kind == static_cast<uint8_t>(Value::Kind::kNull)) continue;
    if (kc.kind == static_cast<uint8_t>(Value::Kind::kString)) {
      if (stored.strings[stored.word[entry]] != src.GetString(row)) {
        return false;
      }
    } else if (stored.word[entry] != kc.word) {
      return false;
    }
  }
  return true;
}

Value KeyStore::GetValue(size_t entry, size_t col) const {
  const Col& c = cols_[col];
  switch (static_cast<Value::Kind>(c.kind[entry])) {
    case Value::Kind::kNull:
      return Value::Null();
    case Value::Kind::kBool:
      return Value::Bool(c.word[entry] != 0);
    case Value::Kind::kDouble: {
      double d;
      uint64_t bits = c.word[entry];
      __builtin_memcpy(&d, &bits, sizeof(d));
      return Value::Double(d);
    }
    case Value::Kind::kString:
      return Value::String(c.strings[c.word[entry]]);
    case Value::Kind::kInt:
      return Value::Int(static_cast<int64_t>(c.word[entry]));
  }
  return Value::Null();
}

GroupTable::GroupTable(size_t num_key_cols, double load_factor)
    : keys_(num_key_cols),
      load_factor_(std::min(0.95, std::max(0.1, load_factor))) {}

void GroupTable::Reserve(size_t expected) {
  if (expected <= max_entries_) return;
  Grow(expected);
  keys_.Reserve(expected);
  entry_hash_.reserve(expected);
}

void GroupTable::Grow(size_t min_capacity) {
  const size_t cap = NextPow2(static_cast<size_t>(
      static_cast<double>(std::max<size_t>(min_capacity, 1)) / load_factor_));
  slots_.assign(cap, kNotFound);
  mask_ = cap - 1;
  max_entries_ = static_cast<size_t>(static_cast<double>(cap) * load_factor_);
  // Reindex existing entries from their stored hashes: no key compares
  // are needed because every entry is already distinct.
  for (uint32_t e = 0; e < entry_hash_.size(); ++e) {
    size_t i = entry_hash_[e] & mask_;
    while (slots_[i] != kNotFound) i = (i + 1) & mask_;
    slots_[i] = e;
  }
  if (!entry_hash_.empty()) ++rehashes_;
}

uint32_t GroupTable::FindOrInsert(uint64_t hash,
                                  const std::vector<ColumnVectorPtr>& cols,
                                  uint32_t row) {
  if (keys_.num_rows() >= max_entries_) Grow(keys_.num_rows() + 1);
  size_t i = hash & mask_;
  while (true) {
    const uint32_t e = slots_[i];
    if (e == kNotFound) {
      const uint32_t id = static_cast<uint32_t>(keys_.num_rows());
      slots_[i] = id;
      keys_.AppendRow(cols, row);
      entry_hash_.push_back(hash);
      return id;
    }
    if (entry_hash_[e] == hash && keys_.RowEquals(e, cols, row)) return e;
    i = (i + 1) & mask_;
  }
}

uint32_t GroupTable::Find(uint64_t hash,
                          const std::vector<ColumnVectorPtr>& cols,
                          uint32_t row) const {
  if (slots_.empty()) return kNotFound;
  size_t i = hash & mask_;
  while (true) {
    const uint32_t e = slots_[i];
    if (e == kNotFound) return kNotFound;
    if (entry_hash_[e] == hash && keys_.RowEquals(e, cols, row)) return e;
    i = (i + 1) & mask_;
  }
}

void JoinTable::Insert(uint64_t hash, const std::vector<ColumnVectorPtr>& cols,
                       uint32_t row, uint32_t build_row) {
  const uint32_t before = static_cast<uint32_t>(index_.num_entries());
  const uint32_t k = index_.FindOrInsert(hash, cols, row);
  const uint32_t entry = static_cast<uint32_t>(build_rows_.size());
  build_rows_.push_back(build_row);
  next_.push_back(GroupTable::kNotFound);
  if (k == before) {  // first row of a new distinct key
    head_.push_back(entry);
    tail_.push_back(entry);
  } else {
    next_[tail_[k]] = entry;
    tail_[k] = entry;
  }
}

void JoinTable::ProbeBatch(const std::vector<JoinTable>& parts,
                           const std::vector<uint64_t>& hashes,
                           const std::vector<uint8_t>& any_null,
                           const std::vector<ColumnVectorPtr>& key_cols,
                           const SelectionVector* sel, size_t num_rows,
                           uint32_t pad_row, JoinMatches* out) {
  constexpr size_t kSlotAhead = 16;
  constexpr size_t kEntryAhead = 8;
  const size_t n = sel != nullptr ? sel->size() : num_rows;
  const size_t num_parts = parts.size();
  auto row_at = [&](size_t i) -> uint32_t {
    return sel != nullptr ? (*sel)[i] : static_cast<uint32_t>(i);
  };
  auto part_of = [&](uint64_t h) -> const JoinTable& {
    return parts[num_parts == 1 ? 0 : h % num_parts];
  };
  out->probe.reserve(out->size() + n);
  out->build.reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    if (i + kSlotAhead < n) {
      const uint64_t h = hashes[row_at(i + kSlotAhead)];
      part_of(h).index_.PrefetchSlot(h);
    }
    if (i + kEntryAhead < n) {
      const uint64_t h = hashes[row_at(i + kEntryAhead)];
      part_of(h).index_.PrefetchEntry(h);
    }
    const uint32_t r = row_at(i);
    const size_t before = out->size();
    if (!any_null[r]) {
      const uint64_t h = hashes[r];
      const JoinTable& t = part_of(h);
      const uint32_t k = t.index_.Find(h, key_cols, r);
      if (k != GroupTable::kNotFound) {
        for (uint32_t e = t.head_[k]; e != GroupTable::kNotFound;
             e = t.next_[e]) {
          out->Add(r, t.build_rows_[e]);
        }
      }
    }
    if (out->size() == before && pad_row != kNoPad) out->Add(r, pad_row);
  }
}

}  // namespace pixels
