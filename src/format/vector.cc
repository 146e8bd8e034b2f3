#include "format/vector.h"

namespace pixels {

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case TypeId::kBool:
      return Value::Bool(ints_[i] != 0);
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kTimestamp:
      return Value::Int(ints_[i]);
    case TypeId::kDouble:
      return Value::Double(doubles_[i]);
    case TypeId::kString:
      return Value::String(strings_[i]);
  }
  return Value::Null();
}

void ColumnVector::AppendNull() {
  valid_.push_back(0);
  ++null_count_;
  if (type_ == TypeId::kDouble) {
    doubles_.push_back(0);
  } else if (type_ == TypeId::kString) {
    strings_.emplace_back();
  } else {
    ints_.push_back(0);
  }
}

void ColumnVector::AppendInt(int64_t v) {
  valid_.push_back(1);
  if (type_ == TypeId::kDouble) {
    doubles_.push_back(static_cast<double>(v));
  } else {
    ints_.push_back(v);
  }
}

void ColumnVector::AppendDouble(double v) {
  valid_.push_back(1);
  if (type_ == TypeId::kDouble) {
    doubles_.push_back(v);
  } else {
    ints_.push_back(static_cast<int64_t>(v));
  }
}

void ColumnVector::AppendString(std::string v) {
  valid_.push_back(1);
  strings_.push_back(std::move(v));
}

void ColumnVector::AppendBool(bool v) {
  valid_.push_back(1);
  ints_.push_back(v ? 1 : 0);
}

Status ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  const bool want_string = type_ == TypeId::kString;
  const bool have_string = v.kind == Value::Kind::kString;
  if (want_string != have_string) {
    return Status::TypeError(std::string("cannot append ") +
                             (have_string ? "string" : "numeric") +
                             " value to " + TypeName(type_) + " column");
  }
  if (want_string) {
    AppendString(v.s);
  } else if (type_ == TypeId::kDouble) {
    AppendDouble(v.AsDouble());
  } else {
    AppendInt(v.AsInt());
  }
  return Status::OK();
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t i) {
  if (other.IsNull(i)) {
    AppendNull();
    return;
  }
  if (type_ == TypeId::kDouble) {
    valid_.push_back(1);
    doubles_.push_back(other.type_ == TypeId::kDouble
                           ? other.doubles_[i]
                           : static_cast<double>(other.ints_[i]));
  } else if (type_ == TypeId::kString) {
    valid_.push_back(1);
    strings_.push_back(other.strings_[i]);
  } else {
    valid_.push_back(1);
    ints_.push_back(other.type_ == TypeId::kDouble
                        ? static_cast<int64_t>(other.doubles_[i])
                        : other.ints_[i]);
  }
}

void ColumnVector::Reserve(size_t n) {
  valid_.reserve(n);
  if (type_ == TypeId::kDouble) {
    doubles_.reserve(n);
  } else if (type_ == TypeId::kString) {
    strings_.reserve(n);
  } else {
    ints_.reserve(n);
  }
}

void ColumnVector::Clear() {
  null_count_ = 0;
  valid_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
}

void ColumnVector::Resize(size_t n) {
  const size_t old = valid_.size();
  valid_.resize(n, 0);
  if (type_ == TypeId::kDouble) {
    doubles_.resize(n);
  } else if (type_ == TypeId::kString) {
    strings_.resize(n);
  } else {
    ints_.resize(n);
  }
  if (n >= old) {
    null_count_ += n - old;  // added rows are nulls
  } else {
    RecountNulls();
  }
}

void ColumnVector::RecountNulls() {
  size_t nulls = 0;
  for (uint8_t ok : valid_) nulls += (ok == 0);
  null_count_ = nulls;
}

std::shared_ptr<ColumnVector> ColumnVector::Gather(
    const std::vector<uint32_t>& sel) const {
  auto out = std::make_shared<ColumnVector>(type_);
  out->AppendGather(*this, sel);
  return out;
}

void ColumnVector::AppendGather(const ColumnVector& src,
                                const std::vector<uint32_t>& sel) {
  const size_t base = size();
  const size_t n = sel.size();
  const uint32_t* at = sel.data();
  valid_.resize(base + n);
  uint8_t* valid = valid_.data() + base;
  const uint8_t* src_valid = src.valid_.data();
  for (size_t i = 0; i < n; ++i) valid[i] = src_valid[at[i]];
  size_t nulls = 0;
  for (size_t i = 0; i < n; ++i) nulls += (valid[i] == 0);
  null_count_ += nulls;
  if (type_ == TypeId::kDouble) {
    doubles_.resize(base + n);
    double* out = doubles_.data() + base;
    const double* in = src.doubles_.data();
    for (size_t i = 0; i < n; ++i) out[i] = in[at[i]];
  } else if (type_ == TypeId::kString) {
    strings_.resize(base + n);
    std::string* out = strings_.data() + base;
    const std::string* in = src.strings_.data();
    for (size_t i = 0; i < n; ++i) out[i] = in[at[i]];
  } else {
    ints_.resize(base + n);
    int64_t* out = ints_.data() + base;
    const int64_t* in = src.ints_.data();
    for (size_t i = 0; i < n; ++i) out[i] = in[at[i]];
  }
}

ColumnVectorPtr MakeVector(TypeId type) {
  return std::make_shared<ColumnVector>(type);
}

}  // namespace pixels
