// The (type, encoding, null pattern) cases the chunk tests sweep: every
// supported encoding of every type, each with four null patterns, and a
// column generator whose values fall in a small domain so RLE has runs,
// dictionary has repeats, and comparisons split the rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "format/encoding.h"

namespace pixels {

enum class NullPattern { kNone, kSparse, kAlternating, kAll };

inline const char* NullPatternName(NullPattern p) {
  switch (p) {
    case NullPattern::kNone: return "none";
    case NullPattern::kSparse: return "sparse";
    case NullPattern::kAlternating: return "alternating";
    case NullPattern::kAll: return "all";
  }
  return "?";
}

inline bool IsNullAt(NullPattern p, Random* rng, int i) {
  switch (p) {
    case NullPattern::kNone: return false;
    case NullPattern::kSparse: return rng->Bernoulli(0.25);
    case NullPattern::kAlternating: return i % 2 == 0;
    case NullPattern::kAll: return true;
  }
  return false;
}

inline ColumnVector MakeChunkColumn(TypeId type, NullPattern nulls,
                                    uint64_t seed, int rows) {
  Random rng(seed);
  ColumnVector col(type);
  for (int i = 0; i < rows; ++i) {
    if (IsNullAt(nulls, &rng, i)) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case TypeId::kBool:
        col.AppendBool(rng.Bernoulli(0.5));
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        // Sorted-ish with runs: friendly to RLE and delta alike.
        col.AppendInt(i / 7 + rng.Uniform(0, 3));
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        col.AppendInt(1000 + i / 5 + rng.Uniform(0, 2));
        break;
      case TypeId::kDouble:
        col.AppendDouble(rng.UniformDouble(-10.0, 10.0));
        break;
      case TypeId::kString: {
        const char* words[] = {"ant", "bee", "cat", "dog", "eel"};
        col.AppendString(words[rng.Uniform(0, 4)]);
        break;
      }
    }
  }
  return col;
}

struct ChunkCase {
  ChunkCase(TypeId t, Encoding e, NullPattern n)
      : type(t), encoding(e), nulls(n) {}
  TypeId type;
  Encoding encoding;
  // Explicit zeros where the compiler would pad: ctest names each case
  // after the struct's raw bytes, and padding would leak stack garbage.
  uint8_t zero[2] = {};
  NullPattern nulls;
};
static_assert(sizeof(ChunkCase) == 8, "no implicit padding");

inline std::vector<ChunkCase> AllSupportedChunkCases() {
  std::vector<ChunkCase> cases;
  const TypeId types[] = {TypeId::kBool,      TypeId::kInt32,
                          TypeId::kInt64,     TypeId::kDouble,
                          TypeId::kString,    TypeId::kDate,
                          TypeId::kTimestamp};
  const Encoding encodings[] = {Encoding::kPlain, Encoding::kRunLength,
                                Encoding::kDelta, Encoding::kDictionary,
                                Encoding::kBitPacked};
  const NullPattern patterns[] = {NullPattern::kNone, NullPattern::kSparse,
                                  NullPattern::kAlternating, NullPattern::kAll};
  for (TypeId t : types) {
    for (Encoding e : encodings) {
      if (!EncodingSupports(e, t)) continue;
      for (NullPattern p : patterns) cases.push_back({t, e, p});
    }
  }
  return cases;
}

/// Names a case "<type>_<encoding>_<nulls>", e.g. "bigint_delta_sparse".
inline std::string ChunkCaseName(
    const ::testing::TestParamInfo<ChunkCase>& info) {
  std::string name = TypeName(info.param.type);
  name += "_";
  name += EncodingName(info.param.encoding);
  name += "_";
  name += NullPatternName(info.param.nulls);
  return name;
}

}  // namespace pixels
