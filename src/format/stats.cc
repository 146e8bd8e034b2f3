#include "format/stats.h"

#include <cmath>
#include <limits>

namespace pixels {

namespace stats_internal {

void SerializeValue(const Value& v, ByteWriter* out) {
  out->PutU8(static_cast<uint8_t>(v.kind));
  switch (v.kind) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
    case Value::Kind::kInt:
      out->PutSignedVarint(v.i);
      break;
    case Value::Kind::kDouble:
      out->PutF64(v.d);
      break;
    case Value::Kind::kString:
      out->PutString(v.s);
      break;
  }
}

Result<Value> DeserializeValue(ByteReader* in) {
  PIXELS_ASSIGN_OR_RETURN(uint8_t kind, in->GetU8());
  Value v;
  if (kind > static_cast<uint8_t>(Value::Kind::kBool)) {
    return Status::Corruption("bad value kind tag");
  }
  v.kind = static_cast<Value::Kind>(kind);
  switch (v.kind) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
    case Value::Kind::kInt: {
      PIXELS_ASSIGN_OR_RETURN(v.i, in->GetSignedVarint());
      break;
    }
    case Value::Kind::kDouble: {
      PIXELS_ASSIGN_OR_RETURN(v.d, in->GetF64());
      break;
    }
    case Value::Kind::kString: {
      PIXELS_ASSIGN_OR_RETURN(v.s, in->GetString());
      break;
    }
  }
  return v;
}

}  // namespace stats_internal

void ColumnStats::Update(const Value& v) {
  ++num_values;
  if (v.is_null()) {
    ++null_count;
    return;
  }
  if (v.kind == Value::Kind::kDouble && std::isnan(v.d)) {
    // NaN compares equal to every value (Value::Compare), so no narrower
    // range can hold it: the chunk takes the whole line and is never
    // pruned. No double sorts outside it, so it stays put.
    min = Value::Double(-std::numeric_limits<double>::infinity());
    max = Value::Double(std::numeric_limits<double>::infinity());
    has_min_max = true;
    return;
  }
  if (!has_min_max) {
    min = v;
    max = v;
    has_min_max = true;
    return;
  }
  if (v.Compare(min) < 0) min = v;
  if (v.Compare(max) > 0) max = v;
}

void ColumnStats::UpdateVector(const ColumnVector& col) {
  for (size_t i = 0; i < col.size(); ++i) Update(col.GetValue(i));
}

void ColumnStats::Merge(const ColumnStats& other) {
  num_values += other.num_values;
  null_count += other.null_count;
  if (!other.has_min_max) return;
  if (!has_min_max) {
    min = other.min;
    max = other.max;
    has_min_max = true;
    return;
  }
  if (other.min.Compare(min) < 0) min = other.min;
  if (other.max.Compare(max) > 0) max = other.max;
}

bool ColumnStats::MayMatch(const std::string& op, const Value& literal) const {
  if (!has_min_max || literal.is_null()) return true;
  if (op == "=") {
    return literal.Compare(min) >= 0 && literal.Compare(max) <= 0;
  }
  if (op == "<") return min.Compare(literal) < 0;
  if (op == "<=") return min.Compare(literal) <= 0;
  if (op == ">") return max.Compare(literal) > 0;
  if (op == ">=") return max.Compare(literal) >= 0;
  if (op == "<>" || op == "!=") {
    // Only prunable when the chunk is a single constant equal to the literal.
    return !(min.Compare(max) == 0 && min.Compare(literal) == 0);
  }
  return true;
}

void ColumnStats::Serialize(ByteWriter* out) const {
  out->PutVarint(num_values);
  out->PutVarint(null_count);
  out->PutU8(has_min_max ? 1 : 0);
  if (has_min_max) {
    stats_internal::SerializeValue(min, out);
    stats_internal::SerializeValue(max, out);
  }
}

Result<ColumnStats> ColumnStats::Deserialize(ByteReader* in) {
  ColumnStats s;
  PIXELS_ASSIGN_OR_RETURN(s.num_values, in->GetVarint());
  PIXELS_ASSIGN_OR_RETURN(s.null_count, in->GetVarint());
  PIXELS_ASSIGN_OR_RETURN(uint8_t flag, in->GetU8());
  s.has_min_max = flag != 0;
  if (s.has_min_max) {
    PIXELS_ASSIGN_OR_RETURN(s.min, stats_internal::DeserializeValue(in));
    PIXELS_ASSIGN_OR_RETURN(s.max, stats_internal::DeserializeValue(in));
  }
  return s;
}

}  // namespace pixels
