#include "exec/kernels.h"

namespace pixels {

std::vector<uint64_t> RfHashColumn(const ColumnVector& col) {
  const size_t n = col.size();
  std::vector<uint64_t> out(n, 0);
  switch (PayloadClassOf(col.type())) {
    case PayloadClass::kInt: {
      const int64_t* v = col.ints_data();
      if (col.type() == TypeId::kBool) {
        // Bool columns produce Bool-kind key values, hashed with the
        // bool tag so build and probe sides agree.
        for (size_t i = 0; i < n; ++i) out[i] = RfHashBool(v[i] != 0);
      } else {
        for (size_t i = 0; i < n; ++i) out[i] = RfHashInt(v[i]);
      }
      break;
    }
    case PayloadClass::kDouble: {
      const double* v = col.doubles_data();
      for (size_t i = 0; i < n; ++i) out[i] = RfHashDouble(v[i]);
      break;
    }
    case PayloadClass::kString: {
      const std::string* v = col.strings_data();
      for (size_t i = 0; i < n; ++i) out[i] = RfHashString(v[i]);
      break;
    }
  }
  return out;
}

namespace {

/// Fixed kind tag for a null key component: distinct from every
/// RfHash* output class in practice and identical on both sides of a
/// join/agg, so null == null for grouping.
constexpr uint64_t kNullKeyHash = 0x9ae16a3b2f90404fULL;
/// Hash of the empty key (global aggregation: zero key columns).
constexpr uint64_t kEmptyKeyHash = 0x8445d61a4e774912ULL;

/// Order-sensitive combine of per-column key hashes (boost-style mix
/// re-finalized so probe distribution stays uniform for linear probing).
inline uint64_t HashCombine(uint64_t h, uint64_t next) {
  return RfMix64(h ^ (next + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

}  // namespace

std::vector<uint64_t> HashKeyColumns(const std::vector<ColumnVectorPtr>& cols,
                                     size_t num_rows,
                                     std::vector<uint8_t>* any_null) {
  if (any_null != nullptr) any_null->assign(num_rows, 0);
  if (cols.empty()) return std::vector<uint64_t>(num_rows, kEmptyKeyHash);
  std::vector<uint64_t> out;
  for (size_t c = 0; c < cols.size(); ++c) {
    std::vector<uint64_t> hc = RfHashColumn(*cols[c]);
    if (cols[c]->NullCount() != 0) {
      const uint8_t* ok = cols[c]->valid_data();
      for (size_t i = 0; i < num_rows; ++i) {
        if (!ok[i]) {
          hc[i] = kNullKeyHash;
          if (any_null != nullptr) (*any_null)[i] = 1;
        }
      }
    }
    if (c == 0) {
      out = std::move(hc);
    } else {
      for (size_t i = 0; i < num_rows; ++i) {
        out[i] = HashCombine(out[i], hc[i]);
      }
    }
  }
  return out;
}

namespace {

/// The rows of `sel` (all `n` rows when null) for which `keep` holds, in
/// one branch-free pass.
template <typename Keep>
SelectionVector SelectRows(size_t n, const SelectionVector* sel, Keep&& keep) {
  SelectionVector out(sel != nullptr ? sel->size() : n);
  size_t k = 0;
  if (sel == nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      out[k] = i;
      k += keep(i);
    }
  } else {
    for (uint32_t i : *sel) {
      out[k] = i;
      k += keep(i);
    }
  }
  out.resize(k);
  return out;
}

}  // namespace

SelectionVector BloomFilterSelect(const ColumnVector& col,
                                  const BloomFilter& bloom,
                                  const SelectionVector* sel) {
  const std::vector<uint64_t> hashes = RfHashColumn(col);
  const uint8_t* ok = col.valid_data();
  return SelectRows(col.size(), sel, [&](uint32_t i) {
    return ok[i] && bloom.MayContain(hashes[i]);
  });
}

SelectionVector TruthSelect(const ColumnVector& col,
                            const SelectionVector* sel) {
  const uint8_t* ok = col.valid_data();
  switch (PayloadClassOf(col.type())) {
    case PayloadClass::kInt: {
      const int64_t* v = col.ints_data();
      return SelectRows(col.size(), sel,
                        [&](uint32_t i) { return ok[i] & (v[i] != 0); });
    }
    case PayloadClass::kDouble: {
      const double* v = col.doubles_data();
      return SelectRows(col.size(), sel,
                        [&](uint32_t i) { return ok[i] & (v[i] != 0); });
    }
    case PayloadClass::kString:
      break;  // Value::AsBool reads a string's zero int payload
  }
  return {};
}

}  // namespace pixels
