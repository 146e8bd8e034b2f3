#include "format/encoding.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <string_view>

namespace pixels {

namespace {

void WriteValidity(const ColumnVector& col, ByteWriter* out) {
  const size_t n = col.size();
  uint8_t byte = 0;
  int bit = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!col.IsNull(i)) byte |= static_cast<uint8_t>(1u << bit);
    if (++bit == 8) {
      out->PutU8(byte);
      byte = 0;
      bit = 0;
    }
  }
  if (bit != 0) out->PutU8(byte);
}

// --- plain ---

Status EncodePlain(const ColumnVector& col, ByteWriter* out) {
  WriteValidity(col, out);
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    switch (col.type()) {
      case TypeId::kBool:
        out->PutU8(col.GetBool(i) ? 1 : 0);
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        out->PutI32(static_cast<int32_t>(col.GetInt(i)));
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        out->PutI64(col.GetInt(i));
        break;
      case TypeId::kDouble:
        out->PutF64(col.GetDouble(i));
        break;
      case TypeId::kString:
        out->PutString(col.GetString(i));
        break;
    }
  }
  return Status::OK();
}

// --- run length (integer-like) ---

Status EncodeRunLength(const ColumnVector& col, ByteWriter* out) {
  WriteValidity(col, out);
  // Collect non-null values, then emit (value, run) pairs.
  std::vector<int64_t> vals;
  vals.reserve(col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) vals.push_back(col.GetInt(i));
  }
  out->PutVarint(vals.size());
  size_t i = 0;
  while (i < vals.size()) {
    size_t j = i + 1;
    while (j < vals.size() && vals[j] == vals[i]) ++j;
    out->PutSignedVarint(vals[i]);
    out->PutVarint(j - i);
    i = j;
  }
  return Status::OK();
}

// --- delta (integer-like) ---

Status EncodeDelta(const ColumnVector& col, ByteWriter* out) {
  WriteValidity(col, out);
  int64_t prev = 0;
  bool first = true;
  uint64_t count = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) ++count;
  }
  out->PutVarint(count);
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    int64_t v = col.GetInt(i);
    if (first) {
      out->PutSignedVarint(v);
      first = false;
    } else {
      out->PutSignedVarint(v - prev);
    }
    prev = v;
  }
  return Status::OK();
}

// --- dictionary (strings) ---

Status EncodeDictionary(const ColumnVector& col, ByteWriter* out) {
  WriteValidity(col, out);
  std::map<std::string, uint32_t> dict;
  std::vector<const std::string*> order;
  std::vector<uint32_t> codes;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    const std::string& s = col.GetString(i);
    auto [it, inserted] = dict.emplace(s, static_cast<uint32_t>(dict.size()));
    if (inserted) order.push_back(&it->first);
    codes.push_back(it->second);
  }
  out->PutVarint(order.size());
  for (const auto* s : order) out->PutString(*s);
  out->PutVarint(codes.size());
  for (uint32_t c : codes) out->PutVarint(c);
  return Status::OK();
}

// --- bit-packed (bools) ---

Status EncodeBitPacked(const ColumnVector& col, ByteWriter* out) {
  WriteValidity(col, out);
  uint8_t byte = 0;
  int bit = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    bool v = !col.IsNull(i) && col.GetBool(i);
    if (v) byte |= static_cast<uint8_t>(1u << bit);
    if (++bit == 8) {
      out->PutU8(byte);
      byte = 0;
      bit = 0;
    }
  }
  if (bit != 0) out->PutU8(byte);
  return Status::OK();
}

}  // namespace

const char* EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kPlain:
      return "plain";
    case Encoding::kRunLength:
      return "rle";
    case Encoding::kDelta:
      return "delta";
    case Encoding::kDictionary:
      return "dictionary";
    case Encoding::kBitPacked:
      return "bitpacked";
  }
  return "unknown";
}

bool EncodingSupports(Encoding e, TypeId t) {
  switch (e) {
    case Encoding::kPlain:
      return true;
    case Encoding::kRunLength:
    case Encoding::kDelta:
      return IsIntegerLike(t);
    case Encoding::kDictionary:
      return t == TypeId::kString;
    case Encoding::kBitPacked:
      return t == TypeId::kBool;
  }
  return false;
}

Status EncodeColumn(const ColumnVector& col, Encoding encoding,
                    ByteWriter* out) {
  if (!EncodingSupports(encoding, col.type())) {
    return Status::InvalidArgument(std::string("encoding ") +
                                   EncodingName(encoding) +
                                   " does not support type " +
                                   TypeName(col.type()));
  }
  switch (encoding) {
    case Encoding::kPlain:
      return EncodePlain(col, out);
    case Encoding::kRunLength:
      return EncodeRunLength(col, out);
    case Encoding::kDelta:
      return EncodeDelta(col, out);
    case Encoding::kDictionary:
      return EncodeDictionary(col, out);
    case Encoding::kBitPacked:
      return EncodeBitPacked(col, out);
  }
  return Status::InvalidArgument("unknown encoding");
}

Encoding ChooseEncoding(const ColumnVector& col) {
  if (col.type() == TypeId::kBool) return Encoding::kBitPacked;
  if (col.type() == TypeId::kString) {
    // Dictionary-encode when the column repeats values.
    std::map<std::string, int> seen;
    size_t sampled = 0;
    for (size_t i = 0; i < col.size() && sampled < 512; ++i) {
      if (col.IsNull(i)) continue;
      ++sampled;
      seen[col.GetString(i)]++;
    }
    if (sampled >= 16 && seen.size() * 2 <= sampled) return Encoding::kDictionary;
    return Encoding::kPlain;
  }
  if (col.type() == TypeId::kDouble) return Encoding::kPlain;
  // Integer-like: measure run-length and sortedness on a prefix.
  size_t runs = 0, ascending = 0, total = 0;
  int64_t prev = 0;
  bool have_prev = false;
  for (size_t i = 0; i < col.size() && total < 1024; ++i) {
    if (col.IsNull(i)) continue;
    int64_t v = col.GetInt(i);
    if (have_prev) {
      ++total;
      if (v == prev) ++runs;
      if (v >= prev) ++ascending;
    }
    prev = v;
    have_prev = true;
  }
  if (total >= 8) {
    if (runs * 2 >= total) return Encoding::kRunLength;
    if (ascending * 10 >= total * 9) return Encoding::kDelta;
  }
  // Small-magnitude integers still benefit from delta+varint; default plain.
  return Encoding::kPlain;
}

// --- decode ---
//
// Every decoder reads a chunk through one Cursor: a raw pointer pair with
// inline varints. Each read is bounds-checked, but none builds a Result.
// The decoder unpacks the validity mask, decodes the chunk's non-null
// values in row order into the front of a row array ("dense values"),
// and spreads them onto their rows in place. The output is sized once and
// written directly through the mutable_* pointers.

namespace {

Status Truncated() { return Status::Corruption("decode: truncated chunk"); }

Status CheckSupported(Encoding encoding, TypeId type) {
  if (EncodingSupports(encoding, type)) return Status::OK();
  return Status::Corruption(std::string("encoding ") + EncodingName(encoding) +
                            " invalid for type " + TypeName(type));
}

/// Bounds-checked read cursor over the rest of a ByteReader's bytes. On
/// destruction the reader moves just past the bytes the cursor consumed.
class Cursor {
 public:
  explicit Cursor(ByteReader* in) : in_(in), start_(in->position()) {
    const std::string_view rest = *in->GetView(in->remaining());
    begin_ = p_ = reinterpret_cast<const uint8_t*>(rest.data());
    end_ = begin_ + rest.size();
  }
  ~Cursor() { (void)in_->Seek(start_ + static_cast<size_t>(p_ - begin_)); }
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  size_t left() const { return static_cast<size_t>(end_ - p_); }

  /// Takes `n` raw bytes; false when fewer remain.
  bool Take(uint64_t n, const uint8_t** out) {
    if (left() < n) return false;
    *out = p_;
    p_ += n;
    return true;
  }

  /// LEB128 varint; false when truncated or longer than 64 bits.
  bool Varint(uint64_t* v) {
    if (p_ != end_ && *p_ < 0x80) {
      *v = *p_++;
      return true;
    }
    uint64_t r = 0;
    for (int shift = 0; shift < 64 && p_ != end_; shift += 7) {
      const uint8_t b = *p_++;
      r |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (b < 0x80) {
        *v = r;
        return true;
      }
    }
    return false;
  }

  /// Zigzag-encoded signed varint.
  bool SignedVarint(int64_t* v) {
    uint64_t z;
    if (!Varint(&z)) return false;
    *v = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
    return true;
  }

  /// Varint length plus that many bytes, as a view into the chunk.
  bool String(std::string_view* s) {
    uint64_t len;
    const uint8_t* p;
    if (!Varint(&len) || !Take(len, &p)) return false;
    *s = std::string_view(reinterpret_cast<const char*>(p), len);
    return true;
  }

 private:
  ByteReader* in_;
  size_t start_;
  const uint8_t* begin_;
  const uint8_t* p_;
  const uint8_t* end_;
};

/// A chunk's validity, one byte per row, and its non-null row count.
struct Rows {
  const uint8_t* valid;
  size_t num_rows;
  size_t num_valid;
};

/// Bytes of a one-bit-per-row bitmap.
size_t BitmapBytes(size_t num_rows) {
  return num_rows / 8 + (num_rows % 8 != 0 ? 1 : 0);
}

/// Unpacks a validity bitmap into `valid`, one byte per row, and returns
/// the number of non-null rows. Bits past `num_rows` are ignored.
size_t UnpackValidity(const uint8_t* bits, size_t num_rows, uint8_t* valid) {
  size_t num_valid = 0;
  size_t i = 0;
  for (; i + 8 <= num_rows; i += 8) {
    // Spread bit k of the byte into byte k of a word: 8 rows per store,
    // so a 0xFF byte sets 8 non-null rows at once.
    const uint64_t byte = bits[i / 8];
    const uint64_t lanes = (byte * 0x0101010101010101ULL) & 0x8040201008040201ULL;
    const uint64_t word =
        ((lanes + 0x7F7F7F7F7F7F7F7FULL) >> 7) & 0x0101010101010101ULL;
    std::memcpy(valid + i, &word, 8);
    num_valid += static_cast<size_t>(std::popcount(byte));
  }
  for (; i < num_rows; ++i) {
    valid[i] = (bits[i / 8] >> (i % 8)) & 1;
    num_valid += valid[i];
  }
  return num_valid;
}

/// Decodes the `rows.num_valid` non-null values of a numeric chunk, in row
/// order, into dst[0, num_valid); dst has room for every row. Bool values
/// are normalised to 0/1.
template <typename T>
Status DenseNumbers(TypeId type, Encoding encoding, Cursor* in,
                    const Rows& rows, T* dst) {
  const size_t n = rows.num_valid;
  switch (encoding) {
    case Encoding::kPlain: {
      // One length check, then a straight copy (or widening) loop.
      const size_t width = FixedWidth(type);
      const uint8_t* p;
      if (!in->Take(n * width, &p)) return Truncated();
      if (width == sizeof(T)) {
        if (n != 0) std::memcpy(dst, p, n * width);
      } else if (width == 4) {
        for (size_t j = 0; j < n; ++j) {
          int32_t v;
          std::memcpy(&v, p + 4 * j, 4);
          dst[j] = static_cast<T>(v);
        }
      } else {
        for (size_t j = 0; j < n; ++j) dst[j] = p[j] != 0;
      }
      return Status::OK();
    }
    case Encoding::kRunLength: {
      uint64_t num_vals;
      if (!in->Varint(&num_vals)) return Truncated();
      if (num_vals < n) return Status::Corruption("rle: value underflow");
      size_t filled = 0;
      for (uint64_t consumed = 0; consumed < num_vals;) {
        int64_t v;
        uint64_t run;
        if (!in->SignedVarint(&v) || !in->Varint(&run)) return Truncated();
        if (run == 0 || run > num_vals - consumed) {
          return Status::Corruption("rle: bad run length");
        }
        consumed += run;
        const size_t take = static_cast<size_t>(std::min<uint64_t>(run, n - filled));
        std::fill_n(dst + filled, take, static_cast<T>(v));
        filled += take;
      }
      break;
    }
    case Encoding::kDelta: {
      uint64_t num_vals;
      if (!in->Varint(&num_vals)) return Truncated();
      if (num_vals < n) return Status::Corruption("delta: value underflow");
      uint64_t prev = 0;  // wrapping prefix sum; the first delta is from 0
      for (size_t j = 0; j < n; ++j) {
        int64_t d;
        if (!in->SignedVarint(&d)) return Truncated();
        prev += static_cast<uint64_t>(d);
        dst[j] = static_cast<T>(static_cast<int64_t>(prev));
      }
      break;
    }
    case Encoding::kBitPacked: {
      // One bit per row, nulls included. Branch-free: a null row's bit is
      // overwritten by the next value (j stays at or below i).
      const uint8_t* bits;
      if (!in->Take(BitmapBytes(rows.num_rows), &bits)) return Truncated();
      for (size_t i = 0, j = 0; i < rows.num_rows; ++i) {
        dst[j] = (bits[i / 8] >> (i % 8)) & 1;
        j += rows.valid[i];
      }
      return Status::OK();
    }
    case Encoding::kDictionary:
      return Status::Corruption("dictionary encodes strings only");
  }
  if (type == TypeId::kBool) {
    for (size_t j = 0; j < n; ++j) dst[j] = dst[j] != 0;
  }
  return Status::OK();
}

/// Spreads the `rows.num_valid` dense values at the front of
/// out[0, num_rows) onto their rows, back to front, zeroing null rows.
template <typename T>
void Expand(const Rows& rows, T* out) {
  size_t j = rows.num_valid;
  for (size_t i = rows.num_rows; i > j;) {
    --i;
    // Branch-free: a non-null row takes the last unplaced value; src stays
    // at or below i, so it is in bounds either way.
    const size_t src = j - rows.valid[i];
    const T v = out[src];
    out[i] = rows.valid[i] ? v : T();
    j = src;
  }
}

/// Decodes a numeric chunk into out[0, num_rows), one value per row.
template <typename T>
Status RowNumbers(TypeId type, Encoding encoding, Cursor* in,
                  const Rows& rows, T* out) {
  PIXELS_RETURN_NOT_OK(DenseNumbers(type, encoding, in, rows, out));
  Expand(rows, out);
  return Status::OK();
}

/// Decodes a string chunk as entries plus one code per row (null rows get
/// code 0). A dictionary chunk has its distinct entries; a plain chunk has
/// one entry per value. Entries view the chunk.
Status RowStrings(Encoding encoding, Cursor* in, const Rows& rows,
                  std::vector<std::string_view>* entries,
                  std::vector<uint32_t>* codes) {
  const size_t n = rows.num_valid;
  codes->resize(rows.num_rows);
  if (encoding == Encoding::kPlain) {
    entries->resize(n);
    for (size_t j = 0; j < n; ++j) {
      if (!in->String(&(*entries)[j])) return Truncated();
      (*codes)[j] = static_cast<uint32_t>(j);
    }
    Expand(rows, codes->data());
    return Status::OK();
  }
  uint64_t dict_size;
  // Every entry takes at least its length byte, which bounds the size.
  if (!in->Varint(&dict_size) || dict_size > in->left()) return Truncated();
  entries->resize(dict_size);
  for (auto& e : *entries) {
    if (!in->String(&e)) return Truncated();
  }
  uint64_t num_codes;
  if (!in->Varint(&num_codes)) return Truncated();
  if (num_codes < n) return Status::Corruption("dict: code underflow");
  for (size_t j = 0; j < n; ++j) {
    uint64_t code;
    if (!in->Varint(&code)) return Truncated();
    if (code >= dict_size) return Status::Corruption("dict: code out of range");
    (*codes)[j] = static_cast<uint32_t>(code);
  }
  Expand(rows, codes->data());
  return Status::OK();
}

}  // namespace

Result<ColumnVectorPtr> DecodeColumn(TypeId type, Encoding encoding,
                                     ByteReader* reader, size_t num_rows) {
  PIXELS_RETURN_NOT_OK(CheckSupported(encoding, type));
  Cursor in(reader);
  // The bitmap is checked before anything is sized by num_rows.
  const uint8_t* bits;
  if (!in.Take(BitmapBytes(num_rows), &bits)) return Truncated();
  auto col = MakeVector(type);
  if (num_rows == 0) return col;
  col->Resize(num_rows);
  // Validity unpacks straight into the output.
  uint8_t* valid = col->mutable_valid_data();
  const Rows rows{valid, num_rows, UnpackValidity(bits, num_rows, valid)};
  switch (PayloadClassOf(type)) {
    case PayloadClass::kInt:
      PIXELS_RETURN_NOT_OK(
          RowNumbers(type, encoding, &in, rows, col->mutable_ints_data()));
      break;
    case PayloadClass::kDouble:
      PIXELS_RETURN_NOT_OK(
          RowNumbers(type, encoding, &in, rows, col->mutable_doubles_data()));
      break;
    case PayloadClass::kString: {
      std::vector<std::string_view> entries;
      std::vector<uint32_t> codes;
      PIXELS_RETURN_NOT_OK(RowStrings(encoding, &in, rows, &entries, &codes));
      std::string* out = col->mutable_strings_data();
      for (size_t i = 0; i < num_rows; ++i) {
        if (valid[i]) out[i] = entries[codes[i]];
      }
      break;
    }
  }
  col->RecountNulls();
  return col;
}

}  // namespace pixels
