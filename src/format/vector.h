// Null-aware typed column vectors — the unit of vectorized execution and
// of column-chunk encoding.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "format/type.h"

namespace pixels {

/// Which payload array of a ColumnVector holds a type's values.
enum class PayloadClass : uint8_t { kInt, kDouble, kString };

inline PayloadClass PayloadClassOf(TypeId t) {
  if (t == TypeId::kDouble) return PayloadClass::kDouble;
  if (t == TypeId::kString) return PayloadClass::kString;
  return PayloadClass::kInt;
}

/// The type a computed value of type `t` takes: kInt64, kDouble or
/// kString (bools, int32s, dates and timestamps compute as kInt64).
inline TypeId PayloadType(TypeId t) {
  if (t == TypeId::kDouble || t == TypeId::kString) return t;
  return TypeId::kInt64;
}

/// A column of values of a single type with a validity (non-null) mask.
/// Integer-like types (bool, int32, int64, date, timestamp) share the
/// int64 payload; doubles and strings have their own payloads.
class ColumnVector {
 public:
  explicit ColumnVector(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const { return valid_.size(); }
  bool empty() const { return valid_.empty(); }

  bool IsNull(size_t i) const { return !valid_[i]; }
  /// O(1): maintained incrementally by the append paths.
  size_t NullCount() const { return null_count_; }

  /// Typed accessors; callers must respect the vector's type and nullness.
  int64_t GetInt(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  const std::string& GetString(size_t i) const { return strings_[i]; }
  bool GetBool(size_t i) const { return ints_[i] != 0; }

  /// Generic accessor producing a scalar Value (numeric widening applied).
  Value GetValue(size_t i) const;

  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendBool(bool v);

  /// Appends a Value, coercing numerics to this vector's type. Null-kind
  /// appends a null. Returns TypeError on string/numeric mismatch.
  Status AppendValue(const Value& v);

  /// Appends row `i` of `other` (must be the same type).
  void AppendFrom(const ColumnVector& other, size_t i);

  void Reserve(size_t n);
  void Clear();

  /// Grows or shrinks to `n` rows; added rows are nulls with zeroed
  /// payload. Kernels size their output once with this, write rows by
  /// index through the mutable_* pointers, then call RecountNulls().
  void Resize(size_t n);
  void RecountNulls();

  /// Returns a new vector containing rows `sel` in order. Bulk-copies the
  /// payload arrays (one type dispatch per call, not per row).
  std::shared_ptr<ColumnVector> Gather(const std::vector<uint32_t>& sel) const;
  /// Appends rows `sel` of `src`, another vector of this vector's type,
  /// the same way.
  void AppendGather(const ColumnVector& src, const std::vector<uint32_t>& sel);

  /// Raw payload access for vectorized kernels. The payload that matches
  /// the vector's type class is dense (one slot per row, nulls zeroed);
  /// the others are empty.
  const uint8_t* valid_data() const { return valid_.data(); }
  const int64_t* ints_data() const { return ints_.data(); }
  const double* doubles_data() const { return doubles_.data(); }
  const std::string* strings_data() const { return strings_.data(); }
  uint8_t* mutable_valid_data() { return valid_.data(); }
  int64_t* mutable_ints_data() { return ints_.data(); }
  double* mutable_doubles_data() { return doubles_.data(); }
  std::string* mutable_strings_data() { return strings_.data(); }

 private:
  TypeId type_;
  size_t null_count_ = 0;
  std::vector<uint8_t> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

using ColumnVectorPtr = std::shared_ptr<ColumnVector>;

/// Creates an empty vector of the given type.
ColumnVectorPtr MakeVector(TypeId type);

}  // namespace pixels
