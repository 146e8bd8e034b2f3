#include "format/type.h"

#include <cmath>
#include <cstdio>

namespace pixels {

const char* TypeName(TypeId t) {
  switch (t) {
    case TypeId::kBool:
      return "boolean";
    case TypeId::kInt32:
      return "int";
    case TypeId::kInt64:
      return "bigint";
    case TypeId::kDouble:
      return "double";
    case TypeId::kString:
      return "varchar";
    case TypeId::kDate:
      return "date";
    case TypeId::kTimestamp:
      return "timestamp";
  }
  return "unknown";
}

Result<TypeId> TypeFromName(const std::string& name) {
  if (name == "boolean" || name == "bool") return TypeId::kBool;
  if (name == "int" || name == "integer") return TypeId::kInt32;
  if (name == "bigint" || name == "long") return TypeId::kInt64;
  if (name == "double" || name == "float" || name == "real" ||
      name == "decimal") {
    return TypeId::kDouble;
  }
  if (name == "varchar" || name == "string" || name == "text" ||
      name == "char") {
    return TypeId::kString;
  }
  if (name == "date") return TypeId::kDate;
  if (name == "timestamp") return TypeId::kTimestamp;
  return Status::InvalidArgument("unknown type name: " + name);
}

bool IsIntegerLike(TypeId t) {
  switch (t) {
    case TypeId::kBool:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kTimestamp:
      return true;
    default:
      return false;
  }
}

bool IsOrdered(TypeId) { return true; }

size_t FixedWidth(TypeId t) {
  switch (t) {
    case TypeId::kBool:
      return 1;
    case TypeId::kInt32:
    case TypeId::kDate:
      return 4;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
    case TypeId::kDouble:
      return 8;
    case TypeId::kString:
      return 0;
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind) {
    case Kind::kNull:
      return "NULL";
    case Kind::kBool:
      return i != 0 ? "true" : "false";
    case Kind::kInt:
      return std::to_string(i);
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", d);
      return buf;
    }
    case Kind::kString:
      return "'" + s + "'";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  const bool a_str = kind == Kind::kString;
  const bool b_str = other.kind == Kind::kString;
  if (a_str != b_str) return a_str ? 1 : -1;  // order by kind, numerics first
  if (a_str) {
    int c = s.compare(other.s);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Exact comparison for int-int; double path otherwise.
  if (kind != Kind::kDouble && other.kind != Kind::kDouble) {
    return i < other.i ? -1 : (i > other.i ? 1 : 0);
  }
  double a = AsDouble();
  double b = other.AsDouble();
  return a < b ? -1 : (a > b ? 1 : 0);
}

namespace {
constexpr int kDaysPerMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

bool IsLeap(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

int DaysInYear(int y) { return IsLeap(y) ? 366 : 365; }

int DaysInMonth(int y, int m) {
  if (m == 2 && IsLeap(y)) return 29;
  return kDaysPerMonth[m - 1];
}
}  // namespace

CivilDate CivilFromDays(int32_t days) {
  // Count from 0000-03-01, so each 400-year era (146097 days) ends with
  // its leap day; int64 keeps every int32 input in range.
  const int64_t z = static_cast<int64_t>(days) + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;  // day of era, [0, 146096]
  const int64_t yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const int64_t mp = (5 * doy + 2) / 153;  // month from March, [0, 11]
  CivilDate out;
  out.day = static_cast<int32_t>(doy - (153 * mp + 2) / 5 + 1);
  out.month = static_cast<int32_t>(mp < 10 ? mp + 3 : mp - 9);
  out.year = static_cast<int32_t>(yoe + era * 400 + (out.month <= 2 ? 1 : 0));
  return out;
}

std::string FormatDate(int32_t days) {
  const CivilDate c = CivilFromDays(days);
  char buf[40];  // room for three full int32s
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

Result<int32_t> ParseDate(const std::string& text) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3 || m < 1 ||
      m > 12 || d < 1 || y < 1 || d > DaysInMonth(y, m)) {
    return Status::ParseError("invalid date: " + text);
  }
  int32_t days = 0;
  if (y >= 1970) {
    for (int yy = 1970; yy < y; ++yy) days += DaysInYear(yy);
  } else {
    for (int yy = y; yy < 1970; ++yy) days -= DaysInYear(yy);
  }
  for (int mm = 1; mm < m; ++mm) days += DaysInMonth(y, mm);
  return days + (d - 1);
}

}  // namespace pixels
