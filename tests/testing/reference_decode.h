// Value-at-a-time reference for DecodeColumn: every value read through a
// bounds-checked ByteReader getter and appended to the output one row at a
// time. The bulk decoders in format/encoding.cc must produce the same
// vectors (values, nulls, zeroed null payloads) on every valid chunk.
#pragma once

#include <string>
#include <vector>

#include "format/encoding.h"

namespace pixels {
namespace reference {

inline Result<std::vector<uint8_t>> ReadValidity(ByteReader* in,
                                                 size_t num_rows) {
  std::vector<uint8_t> valid(num_rows, 0);
  const size_t num_bytes = (num_rows + 7) / 8;
  for (size_t b = 0; b < num_bytes; ++b) {
    PIXELS_ASSIGN_OR_RETURN(uint8_t byte, in->GetU8());
    for (int bit = 0; bit < 8; ++bit) {
      size_t i = b * 8 + static_cast<size_t>(bit);
      if (i >= num_rows) break;
      valid[i] = (byte >> bit) & 1;
    }
  }
  return valid;
}

inline Result<ColumnVectorPtr> DecodePlain(TypeId type, ByteReader* in,
                                           size_t num_rows) {
  PIXELS_ASSIGN_OR_RETURN(std::vector<uint8_t> valid,
                          ReadValidity(in, num_rows));
  auto col = MakeVector(type);
  col->Reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    if (!valid[i]) {
      col->AppendNull();
      continue;
    }
    switch (type) {
      case TypeId::kBool: {
        PIXELS_ASSIGN_OR_RETURN(uint8_t v, in->GetU8());
        col->AppendBool(v != 0);
        break;
      }
      case TypeId::kInt32:
      case TypeId::kDate: {
        PIXELS_ASSIGN_OR_RETURN(int32_t v, in->GetI32());
        col->AppendInt(v);
        break;
      }
      case TypeId::kInt64:
      case TypeId::kTimestamp: {
        PIXELS_ASSIGN_OR_RETURN(int64_t v, in->GetI64());
        col->AppendInt(v);
        break;
      }
      case TypeId::kDouble: {
        PIXELS_ASSIGN_OR_RETURN(double v, in->GetF64());
        col->AppendDouble(v);
        break;
      }
      case TypeId::kString: {
        PIXELS_ASSIGN_OR_RETURN(std::string v, in->GetString());
        col->AppendString(std::move(v));
        break;
      }
    }
  }
  return col;
}

inline Result<ColumnVectorPtr> DecodeRunLength(TypeId type, ByteReader* in,
                                               size_t num_rows) {
  PIXELS_ASSIGN_OR_RETURN(std::vector<uint8_t> valid,
                          ReadValidity(in, num_rows));
  PIXELS_ASSIGN_OR_RETURN(uint64_t num_vals, in->GetVarint());
  std::vector<int64_t> vals;
  vals.reserve(num_vals);
  while (vals.size() < num_vals) {
    PIXELS_ASSIGN_OR_RETURN(int64_t v, in->GetSignedVarint());
    PIXELS_ASSIGN_OR_RETURN(uint64_t run, in->GetVarint());
    if (run == 0 || vals.size() + run > num_vals) {
      return Status::Corruption("rle: bad run length");
    }
    vals.insert(vals.end(), run, v);
  }
  auto col = MakeVector(type);
  col->Reserve(num_rows);
  size_t next = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    if (!valid[i]) {
      col->AppendNull();
    } else {
      if (next >= vals.size()) return Status::Corruption("rle: value underflow");
      if (type == TypeId::kBool) {
        col->AppendBool(vals[next++] != 0);
      } else {
        col->AppendInt(vals[next++]);
      }
    }
  }
  return col;
}

inline Result<ColumnVectorPtr> DecodeDelta(TypeId type, ByteReader* in,
                                           size_t num_rows) {
  PIXELS_ASSIGN_OR_RETURN(std::vector<uint8_t> valid,
                          ReadValidity(in, num_rows));
  PIXELS_ASSIGN_OR_RETURN(uint64_t num_vals, in->GetVarint());
  auto col = MakeVector(type);
  col->Reserve(num_rows);
  uint64_t prev = 0;
  uint64_t consumed = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    if (!valid[i]) {
      col->AppendNull();
      continue;
    }
    if (consumed >= num_vals) return Status::Corruption("delta: value underflow");
    PIXELS_ASSIGN_OR_RETURN(int64_t d, in->GetSignedVarint());
    // Wrapping prefix sum: the first value is stored as a delta from 0.
    prev += static_cast<uint64_t>(d);
    const int64_t v = static_cast<int64_t>(prev);
    ++consumed;
    if (type == TypeId::kBool) {
      col->AppendBool(v != 0);
    } else {
      col->AppendInt(v);
    }
  }
  return col;
}

inline Result<ColumnVectorPtr> DecodeDictionary(TypeId type, ByteReader* in,
                                                size_t num_rows) {
  PIXELS_ASSIGN_OR_RETURN(std::vector<uint8_t> valid,
                          ReadValidity(in, num_rows));
  PIXELS_ASSIGN_OR_RETURN(uint64_t dict_size, in->GetVarint());
  if (dict_size > in->remaining()) {
    return Status::Corruption("dict: truncated dictionary");
  }
  std::vector<std::string> dict;
  dict.reserve(dict_size);
  for (uint64_t i = 0; i < dict_size; ++i) {
    PIXELS_ASSIGN_OR_RETURN(std::string s, in->GetString());
    dict.push_back(std::move(s));
  }
  PIXELS_ASSIGN_OR_RETURN(uint64_t num_codes, in->GetVarint());
  auto col = MakeVector(type);
  col->Reserve(num_rows);
  uint64_t consumed = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    if (!valid[i]) {
      col->AppendNull();
      continue;
    }
    if (consumed >= num_codes) return Status::Corruption("dict: code underflow");
    PIXELS_ASSIGN_OR_RETURN(uint64_t code, in->GetVarint());
    ++consumed;
    if (code >= dict.size()) return Status::Corruption("dict: code out of range");
    col->AppendString(dict[code]);
  }
  return col;
}

inline Result<ColumnVectorPtr> DecodeBitPacked(TypeId type, ByteReader* in,
                                               size_t num_rows) {
  PIXELS_ASSIGN_OR_RETURN(std::vector<uint8_t> valid,
                          ReadValidity(in, num_rows));
  const size_t num_bytes = (num_rows + 7) / 8;
  std::vector<uint8_t> bits(num_rows, 0);
  for (size_t b = 0; b < num_bytes; ++b) {
    PIXELS_ASSIGN_OR_RETURN(uint8_t byte, in->GetU8());
    for (int bit = 0; bit < 8; ++bit) {
      size_t i = b * 8 + static_cast<size_t>(bit);
      if (i >= num_rows) break;
      bits[i] = (byte >> bit) & 1;
    }
  }
  auto col = MakeVector(type);
  col->Reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    if (!valid[i]) {
      col->AppendNull();
    } else {
      col->AppendBool(bits[i] != 0);
    }
  }
  return col;
}

}  // namespace reference

/// Decodes `num_rows` values one at a time; same contract as DecodeColumn.
inline Result<ColumnVectorPtr> ReferenceDecodeColumn(TypeId type,
                                                     Encoding encoding,
                                                     ByteReader* in,
                                                     size_t num_rows) {
  if (!EncodingSupports(encoding, type)) {
    return Status::Corruption(std::string("encoding ") +
                              EncodingName(encoding) + " invalid for type " +
                              TypeName(type));
  }
  switch (encoding) {
    case Encoding::kPlain:
      return reference::DecodePlain(type, in, num_rows);
    case Encoding::kRunLength:
      return reference::DecodeRunLength(type, in, num_rows);
    case Encoding::kDelta:
      return reference::DecodeDelta(type, in, num_rows);
    case Encoding::kDictionary:
      return reference::DecodeDictionary(type, in, num_rows);
    case Encoding::kBitPacked:
      return reference::DecodeBitPacked(type, in, num_rows);
  }
  return Status::Corruption("unknown encoding tag");
}

}  // namespace pixels
