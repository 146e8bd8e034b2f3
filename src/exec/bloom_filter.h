// Runtime filters (paper §3.1 economics: bytes are the product): after a
// hash-join build completes it publishes a bloom filter + key range on
// the build keys; probe-side scans consult the hub and prune row groups
// (fewer billed bytes) and rows (smaller batches and partials) that
// cannot possibly join. Filters are conservative supersets — they may
// pass a non-matching key, never drop a matching one — so query results
// are byte-identical with filters on or off.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "format/type.h"

namespace pixels {

/// 64-bit mix (splitmix64 finalizer): turns key payloads into well-spread
/// hashes for the bloom probes.
inline uint64_t RfMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Kind-tagged hashes. Join-key equality is byte equality of the
/// serialized (kind, payload) pair, so hashing the same pair on both
/// sides guarantees no false negatives: equal keys always hash equal.
inline uint64_t RfHashInt(int64_t v) {
  return RfMix64(static_cast<uint64_t>(v) ^ 0x01ULL << 56);
}
inline uint64_t RfHashDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return RfMix64(bits ^ 0x02ULL << 56);
}
inline uint64_t RfHashString(std::string_view s) {
  uint64_t h = 0x03ULL << 56;  // FNV-1a body, mixed at the end
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return RfMix64(h);
}
inline uint64_t RfHashBool(bool v) {
  return RfMix64((v ? 1ULL : 0ULL) ^ 0x04ULL << 56);
}

/// Hashes a non-null scalar by kind (dispatch once per value; the typed
/// kernels hash whole payload arrays without building Values).
inline uint64_t RfHashValue(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kDouble: return RfHashDouble(v.d);
    case Value::Kind::kString: return RfHashString(v.s);
    case Value::Kind::kBool: return RfHashBool(v.i != 0);
    default: return RfHashInt(v.i);
  }
}

/// Split-block-free classic bloom filter, double hashing with k probes.
/// Built single-threaded by the join build; safe for concurrent probes
/// once published (readers see it only through the hub's mutex, which
/// orders the build's writes before any probe).
class BloomFilter {
 public:
  BloomFilter(size_t expected_keys, int bits_per_key);

  void Add(uint64_t hash);
  bool MayContain(uint64_t hash) const;

  size_t num_bits() const { return words_.size() * 64; }

 private:
  int num_probes_;
  std::vector<uint64_t> words_;
};

/// Bloom sizing of published runtime filters (bits per build key).
inline constexpr int kRfBloomBitsPerKey = 8;

/// What a completed join build publishes for one annotated join.
struct RuntimeFilter {
  explicit RuntimeFilter(size_t expected_keys, int bits_per_key)
      : bloom(expected_keys, bits_per_key) {}

  BloomFilter bloom;
  /// Distinct-insensitive count of non-null build keys. 0 means the build
  /// side was empty: an inner-join probe can skip every row group.
  uint64_t key_count = 0;
  /// Min/max build key for zone-map row-group pruning (numeric or string;
  /// unset when the build had no non-null keys).
  bool has_range = false;
  Value min_key;
  Value max_key;
};

using RuntimeFilterPtr = std::shared_ptr<const RuntimeFilter>;

/// Per-query registry keyed by the optimizer-assigned filter id. Joins
/// publish, scans poll. A scan that finds no filter (not yet published,
/// or the join skipped publishing) simply reads everything — filters are
/// a pure optimization, never a correctness dependency.
class RuntimeFilterHub {
 public:
  void Publish(int id, RuntimeFilterPtr filter) {
    std::lock_guard<std::mutex> lock(mutex_);
    filters_[id] = std::move(filter);
  }

  RuntimeFilterPtr Get(int id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = filters_.find(id);
    return it == filters_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<int, RuntimeFilterPtr> filters_;
};

}  // namespace pixels
