// Lightweight column-chunk encodings: plain, run-length, delta,
// dictionary, and bit-packing. The writer chooses an encoding per chunk
// (heuristically or forced); the chunk header records the choice.
//
// All encodings serialize the validity mask first (bit-packed), then the
// non-null payload, so nulls cost one bit regardless of encoding.
#pragma once

#include "common/bytes.h"
#include "format/vector.h"

namespace pixels {

/// Encoding identifiers stored in chunk headers.
enum class Encoding : uint8_t {
  kPlain = 0,      // fixed-width values / length-prefixed strings
  kRunLength = 1,  // (value, run) pairs; integer-like only
  kDelta = 2,      // first value + zigzag deltas; integer-like only
  kDictionary = 3, // distinct values + indexes; strings only
  kBitPacked = 4,  // 1 bit per value; bools only
};

/// Human-readable encoding name.
const char* EncodingName(Encoding e);

/// True when `e` can encode columns of type `t`.
bool EncodingSupports(Encoding e, TypeId t);

/// Encodes `col` with the given encoding. Returns InvalidArgument when the
/// encoding does not support the column type.
Status EncodeColumn(const ColumnVector& col, Encoding encoding,
                    ByteWriter* out);

/// Decodes `num_rows` values of type `type` written with `encoding`.
/// Malformed input (truncation, a bad run length, a value underflow, a
/// dictionary code out of range) is Corruption. Null rows have a zeroed
/// payload.
Result<ColumnVectorPtr> DecodeColumn(TypeId type, Encoding encoding,
                                     ByteReader* in, size_t num_rows);

/// Picks a cheap encoding for the column: bools bit-pack, strings
/// dictionary-encode when repetitive, integers run-length-encode when
/// runs dominate, sorted-ish integers delta-encode, else plain.
Encoding ChooseEncoding(const ColumnVector& col);

}  // namespace pixels
