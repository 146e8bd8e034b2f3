// Type system and scalar Value used across the format, SQL, and execution
// layers.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"

namespace pixels {

/// Physical/logical column types supported by the Pixels format.
enum class TypeId : uint8_t {
  kBool = 0,
  kInt32 = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
  kDate = 5,       // days since 1970-01-01, stored as int32
  kTimestamp = 6,  // milliseconds since epoch, stored as int64
};

/// SQL-facing type name, e.g. "bigint".
const char* TypeName(TypeId t);

/// Parses a SQL type name ("int", "bigint", "double", "varchar", ...).
Result<TypeId> TypeFromName(const std::string& name);

/// True for bool/int32/int64/date/timestamp (stored as integers).
bool IsIntegerLike(TypeId t);

/// True for types on which ordering comparisons are defined (all current types).
bool IsOrdered(TypeId t);

/// Fixed-width storage size in bytes; 0 for variable-width (string).
size_t FixedWidth(TypeId t);

/// A nullable scalar value. Integer-like types share the `i` payload,
/// doubles use `d`, strings use `s`.
struct Value {
  enum class Kind : uint8_t { kNull, kInt, kDouble, kString, kBool };

  Kind kind = Kind::kNull;
  int64_t i = 0;
  double d = 0;
  std::string s;

  Value() = default;

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value x;
    x.kind = Kind::kInt;
    x.i = v;
    return x;
  }
  static Value Double(double v) {
    Value x;
    x.kind = Kind::kDouble;
    x.d = v;
    return x;
  }
  static Value String(std::string v) {
    Value x;
    x.kind = Kind::kString;
    x.s = std::move(v);
    return x;
  }
  static Value Bool(bool v) {
    Value x;
    x.kind = Kind::kBool;
    x.i = v ? 1 : 0;
    return x;
  }

  bool is_null() const { return kind == Kind::kNull; }

  /// Numeric view: ints and bools widen to double.
  double AsDouble() const { return kind == Kind::kDouble ? d : static_cast<double>(i); }

  /// Integer view: doubles truncate.
  int64_t AsInt() const { return kind == Kind::kDouble ? static_cast<int64_t>(d) : i; }

  bool AsBool() const { return kind == Kind::kDouble ? d != 0 : i != 0; }

  /// SQL-style rendering: NULL, 42, 3.14, 'text', true.
  std::string ToString() const;

  /// Three-way comparison; null sorts first. Numeric kinds compare
  /// numerically across int/double/bool; strings compare lexically.
  /// Comparing a string against a numeric kind orders by kind.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
};

/// A proleptic Gregorian calendar date; year 0 is 1 BC.
struct CivilDate {
  int32_t year;
  int32_t month;  // 1..12
  int32_t day;    // 1..31
};

/// The calendar date `days` after 1970-01-01 (before it when negative), in
/// constant time for every int32 (Hinnant's civil_from_days).
CivilDate CivilFromDays(int32_t days);

/// Formats a date (days since epoch) as YYYY-MM-DD.
std::string FormatDate(int32_t days);

/// Parses YYYY-MM-DD into days since epoch.
Result<int32_t> ParseDate(const std::string& text);

}  // namespace pixels
