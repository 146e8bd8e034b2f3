#include "exec/expression.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <type_traits>

#include "format/compare.h"

namespace pixels {

bool LikeMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0, star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

std::string ToLower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string ToUpper(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

Result<Value> EvalFunction(const Expr& e, const RowBatch& batch, size_t row) {
  // Aggregates must have been rewritten away by the binder.
  if (IsAggregateFunction(e.name)) {
    return Status::Internal("aggregate '" + e.name +
                            "' reached scalar evaluation");
  }
  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const auto& a : e.args) {
    PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*a, batch, row));
    args.push_back(std::move(v));
  }
  auto need_args = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::InvalidArgument("function " + e.name +
                                     ": wrong argument count");
    }
    return Status::OK();
  };

  if (e.name == "coalesce") {
    for (auto& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  // All remaining functions are null-propagating.
  for (const auto& v : args) {
    if (v.is_null()) return Value::Null();
  }

  if (e.name == "abs") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind == Value::Kind::kDouble) {
      return Value::Double(std::fabs(args[0].d));
    }
    return Value::Int(args[0].i < 0 ? -args[0].i : args[0].i);
  }
  if (e.name == "round") {
    PIXELS_RETURN_NOT_OK(need_args(1, 2));
    double scale = args.size() == 2 ? std::pow(10.0, args[1].AsDouble()) : 1.0;
    return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (e.name == "floor") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    return Value::Double(std::floor(args[0].AsDouble()));
  }
  if (e.name == "ceil" || e.name == "ceiling") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    return Value::Double(std::ceil(args[0].AsDouble()));
  }
  if (e.name == "sqrt") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].AsDouble() < 0) return Value::Null();
    return Value::Double(std::sqrt(args[0].AsDouble()));
  }
  if (e.name == "length") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind != Value::Kind::kString) {
      return Status::TypeError("length() requires a string");
    }
    return Value::Int(static_cast<int64_t>(args[0].s.size()));
  }
  if (e.name == "lower") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    return Value::String(ToLower(args[0].s));
  }
  if (e.name == "upper") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    return Value::String(ToUpper(args[0].s));
  }
  if (e.name == "substr" || e.name == "substring") {
    PIXELS_RETURN_NOT_OK(need_args(2, 3));
    if (args[0].kind != Value::Kind::kString) {
      return Status::TypeError("substr() requires a string");
    }
    const std::string& s = args[0].s;
    int64_t start = args[1].AsInt();  // 1-based
    if (start < 1) start = 1;
    if (static_cast<size_t>(start) > s.size()) return Value::String("");
    size_t pos = static_cast<size_t>(start - 1);
    size_t len = args.size() == 3
                     ? static_cast<size_t>(std::max<int64_t>(args[2].AsInt(), 0))
                     : std::string::npos;
    return Value::String(s.substr(pos, len));
  }
  if (e.name == "concat") {
    std::string out;
    for (const auto& v : args) {
      out += v.kind == Value::Kind::kString ? v.s : v.ToString();
    }
    return Value::String(std::move(out));
  }
  if (e.name == "year" || e.name == "month" || e.name == "day") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    // Interprets the int payload as days since epoch.
    std::string date = FormatDate(static_cast<int32_t>(args[0].AsInt()));
    if (e.name == "year") return Value::Int(std::stoll(date.substr(0, 4)));
    if (e.name == "month") return Value::Int(std::stoll(date.substr(5, 2)));
    return Value::Int(std::stoll(date.substr(8, 2)));
  }
  if (e.name == "cast_int" || e.name == "cast_integer" ||
      e.name == "cast_bigint") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind == Value::Kind::kString) {
      char* end = nullptr;
      long long v = std::strtoll(args[0].s.c_str(), &end, 10);
      if (end == args[0].s.c_str()) return Value::Null();
      return Value::Int(v);
    }
    return Value::Int(args[0].AsInt());
  }
  if (e.name == "cast_double") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind == Value::Kind::kString) {
      char* end = nullptr;
      double v = std::strtod(args[0].s.c_str(), &end);
      if (end == args[0].s.c_str()) return Value::Null();
      return Value::Double(v);
    }
    return Value::Double(args[0].AsDouble());
  }
  if (e.name == "cast_varchar" || e.name == "cast_string") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind == Value::Kind::kString) return args[0];
    return Value::String(args[0].ToString());
  }
  return Status::NotImplemented("unknown function: " + e.name);
}

}  // namespace

Result<Value> EvaluateExprRow(const Expr& e, const RowBatch& batch, size_t row) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kColumnRef: {
      int idx = batch.FindColumn(e.QualifiedName());
      if (idx < 0) {
        return Status::InvalidArgument("column not found at execution: " +
                                       e.QualifiedName());
      }
      return batch.column(static_cast<size_t>(idx))->GetValue(row);
    }
    case Expr::Kind::kStar:
      return Status::Internal("bare * reached evaluation");
    case Expr::Kind::kUnary: {
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args[0], batch, row));
      if (v.is_null()) return Value::Null();
      if (e.op == "NOT") return Value::Bool(!v.AsBool());
      if (e.op == "-") {
        if (v.kind == Value::Kind::kDouble) return Value::Double(-v.d);
        return Value::Int(-v.i);
      }
      return Status::NotImplemented("unary op " + e.op);
    }
    case Expr::Kind::kBinary: {
      if (e.op == "AND") {
        PIXELS_ASSIGN_OR_RETURN(Value a, EvaluateExprRow(*e.args[0], batch, row));
        if (!a.is_null() && !a.AsBool()) return Value::Bool(false);
        PIXELS_ASSIGN_OR_RETURN(Value b, EvaluateExprRow(*e.args[1], batch, row));
        if (!b.is_null() && !b.AsBool()) return Value::Bool(false);
        if (a.is_null() || b.is_null()) return Value::Null();
        return Value::Bool(true);
      }
      if (e.op == "OR") {
        PIXELS_ASSIGN_OR_RETURN(Value a, EvaluateExprRow(*e.args[0], batch, row));
        if (!a.is_null() && a.AsBool()) return Value::Bool(true);
        PIXELS_ASSIGN_OR_RETURN(Value b, EvaluateExprRow(*e.args[1], batch, row));
        if (!b.is_null() && b.AsBool()) return Value::Bool(true);
        if (a.is_null() || b.is_null()) return Value::Null();
        return Value::Bool(false);
      }
      PIXELS_ASSIGN_OR_RETURN(Value a, EvaluateExprRow(*e.args[0], batch, row));
      PIXELS_ASSIGN_OR_RETURN(Value b, EvaluateExprRow(*e.args[1], batch, row));
      if (a.is_null() || b.is_null()) return Value::Null();
      if (e.op == "=") return Value::Bool(a.Compare(b) == 0);
      if (e.op == "<>") return Value::Bool(a.Compare(b) != 0);
      if (e.op == "<") return Value::Bool(a.Compare(b) < 0);
      if (e.op == "<=") return Value::Bool(a.Compare(b) <= 0);
      if (e.op == ">") return Value::Bool(a.Compare(b) > 0);
      if (e.op == ">=") return Value::Bool(a.Compare(b) >= 0);
      if (e.op == "LIKE") {
        if (a.kind != Value::Kind::kString || b.kind != Value::Kind::kString) {
          return Status::TypeError("LIKE requires strings");
        }
        return Value::Bool(LikeMatch(a.s, b.s));
      }
      if (e.op == "||") {
        std::string lhs = a.kind == Value::Kind::kString ? a.s : a.ToString();
        std::string rhs = b.kind == Value::Kind::kString ? b.s : b.ToString();
        return Value::String(lhs + rhs);
      }
      const bool dbl =
          a.kind == Value::Kind::kDouble || b.kind == Value::Kind::kDouble;
      if (e.op == "+") {
        return dbl ? Value::Double(a.AsDouble() + b.AsDouble())
                   : Value::Int(a.i + b.i);
      }
      if (e.op == "-") {
        return dbl ? Value::Double(a.AsDouble() - b.AsDouble())
                   : Value::Int(a.i - b.i);
      }
      if (e.op == "*") {
        return dbl ? Value::Double(a.AsDouble() * b.AsDouble())
                   : Value::Int(a.i * b.i);
      }
      if (e.op == "/") {
        if (dbl) {
          if (b.AsDouble() == 0) return Value::Null();
          return Value::Double(a.AsDouble() / b.AsDouble());
        }
        if (b.i == 0) return Value::Null();
        return Value::Int(a.i / b.i);
      }
      if (e.op == "%") {
        if (b.AsInt() == 0) return Value::Null();
        return Value::Int(a.AsInt() % b.AsInt());
      }
      return Status::NotImplemented("binary op " + e.op);
    }
    case Expr::Kind::kFunction:
      return EvalFunction(e, batch, row);
    case Expr::Kind::kBetween: {
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args[0], batch, row));
      PIXELS_ASSIGN_OR_RETURN(Value lo, EvaluateExprRow(*e.args[1], batch, row));
      PIXELS_ASSIGN_OR_RETURN(Value hi, EvaluateExprRow(*e.args[2], batch, row));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      return Value::Bool(e.negated ? !in : in);
    }
    case Expr::Kind::kInList: {
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args[0], batch, row));
      if (v.is_null()) return Value::Null();
      bool found = false;
      for (size_t i = 1; i < e.args.size() && !found; ++i) {
        PIXELS_ASSIGN_OR_RETURN(Value item,
                                EvaluateExprRow(*e.args[i], batch, row));
        found = !item.is_null() && v.Compare(item) == 0;
      }
      return Value::Bool(e.negated ? !found : found);
    }
    case Expr::Kind::kIsNull: {
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args[0], batch, row));
      return Value::Bool(e.negated ? !v.is_null() : v.is_null());
    }
    case Expr::Kind::kCase: {
      size_t pairs = (e.args.size() - (e.has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        PIXELS_ASSIGN_OR_RETURN(Value cond,
                                EvaluateExprRow(*e.args[2 * i], batch, row));
        if (!cond.is_null() && cond.AsBool()) {
          return EvaluateExprRow(*e.args[2 * i + 1], batch, row);
        }
      }
      if (e.has_else) return EvaluateExprRow(*e.args.back(), batch, row);
      return Value::Null();
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<ColumnVectorPtr> BuildVectorFromValues(const std::vector<Value>& values) {
  TypeId type = TypeId::kInt64;
  bool saw_string = false, saw_double = false, saw_numeric = false;
  for (const auto& v : values) {
    if (v.is_null()) continue;
    if (v.kind == Value::Kind::kString) {
      saw_string = true;
    } else {
      saw_numeric = true;
      if (v.kind == Value::Kind::kDouble) saw_double = true;
    }
  }
  if (saw_string && saw_numeric) {
    return Status::TypeError("expression produced mixed string/numeric values");
  }
  if (saw_string) {
    type = TypeId::kString;
  } else if (saw_double) {
    type = TypeId::kDouble;
  }
  auto col = MakeVector(type);
  col->Reserve(values.size());
  for (const auto& v : values) {
    PIXELS_RETURN_NOT_OK(col->AppendValue(v));
  }
  return col;
}

namespace {

/// Whole-batch row-at-a-time evaluation: the fallback for shapes outside
/// the column kernels, and the source of every error status.
Result<ColumnVectorPtr> EvaluateRows(const Expr& expr, const RowBatch& batch) {
  const size_t n = batch.num_rows();
  std::vector<Value> values;
  values.reserve(n);
  for (size_t row = 0; row < n; ++row) {
    PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(expr, batch, row));
    values.push_back(std::move(v));
  }
  return BuildVectorFromValues(values);
}

// ---- column kernels ----

/// The payload class a scalar's value is stored in.
PayloadClass ValueClass(const Value& v) {
  if (v.kind == Value::Kind::kDouble) return PayloadClass::kDouble;
  if (v.kind == Value::Kind::kString) return PayloadClass::kString;
  return PayloadClass::kInt;  // ints and bools share the int payload
}

TypeId TypeOf(PayloadClass c) {
  if (c == PayloadClass::kDouble) return TypeId::kDouble;
  if (c == PayloadClass::kString) return TypeId::kString;
  return TypeId::kInt64;
}

/// A kernel operand: a column vector, or, when `vec` is null, one scalar
/// (a literal or a folded constant) standing for every row. Every
/// non-null row of a vector holds a value of the vector's class, which is
/// the Value kind the row evaluator produces for that row.
struct Col {
  ColumnVectorPtr vec;
  Value scalar;

  bool null_scalar() const { return vec == nullptr && scalar.is_null(); }
  PayloadClass cls() const {
    return vec != nullptr ? PayloadClassOf(vec->type()) : ValueClass(scalar);
  }
};

Col ScalarCol(Value v) {
  Col c;
  c.scalar = std::move(v);
  return c;
}

Col VectorCol(ColumnVectorPtr v) {
  v->RecountNulls();
  Col c;
  c.vec = std::move(v);
  return c;
}

/// A shape outside the kernel set. EvaluateExpr then reruns the whole
/// expression row at a time, which also reproduces any error exactly.
Status Unsupported() {
  return Status::NotImplemented("expression shape has no column kernel");
}

/// `n` null rows with zeroed payload; kernels overwrite rows by index.
ColumnVectorPtr NewVector(TypeId type, size_t n) {
  auto v = MakeVector(type);
  v->Resize(n);
  return v;
}

template <typename T>
const T* Data(const ColumnVector& v) {
  if constexpr (std::is_same_v<T, double>) {
    return v.doubles_data();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v.strings_data();
  } else {
    return v.ints_data();
  }
}

template <typename T>
const T* Data(const Value& v) {
  if constexpr (std::is_same_v<T, double>) {
    return &v.d;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return &v.s;
  } else {
    return &v.i;
  }
}

/// Row readers over a vector's payload or one scalar, so every kernel
/// loop is written once and instantiated flat for each operand shape.
template <typename T>
struct VecRead {
  const T* p;
  const T& operator()(size_t i) const { return p[i]; }
};

template <typename T>
struct ConstRead {
  const T* p;
  const T& operator()(size_t) const { return *p; }
};

template <typename T, typename Fn>
void Read(const Col& c, Fn&& fn) {
  if (c.vec != nullptr) {
    fn(VecRead<T>{Data<T>(*c.vec)});
  } else {
    fn(ConstRead<T>{Data<T>(c.scalar)});
  }
}

/// Reads an int- or double-class operand with its own payload type.
template <typename Fn>
void ReadNum(const Col& c, Fn&& fn) {
  if (c.cls() == PayloadClass::kDouble) {
    Read<double>(c, fn);
  } else {
    Read<int64_t>(c, fn);
  }
}

/// ok[i] = row i of `c` is non-null.
void ValidInto(const Col& c, uint8_t* ok, size_t n) {
  if (c.vec != nullptr) {
    std::copy_n(c.vec->valid_data(), n, ok);
  } else {
    std::fill_n(ok, n, static_cast<uint8_t>(!c.scalar.is_null()));
  }
}

/// ok[i] &= row i of `c` is non-null.
void AndValid(const Col& c, uint8_t* ok, size_t n) {
  if (c.vec != nullptr) {
    const uint8_t* v = c.vec->valid_data();
    for (size_t i = 0; i < n; ++i) ok[i] &= v[i];
  } else if (c.scalar.is_null()) {
    std::fill_n(ok, n, uint8_t{0});
  }
}

/// t[i] = Value::AsBool of row i; null rows read their zero payload.
void TruthInto(const Col& c, uint8_t* t, size_t n) {
  switch (c.cls()) {
    case PayloadClass::kString:
      std::fill_n(t, n, uint8_t{0});  // AsBool reads a string's zero int
      return;
    case PayloadClass::kDouble:
      Read<double>(c, [&](auto r) {
        for (size_t i = 0; i < n; ++i) t[i] = r(i) != 0;
      });
      return;
    case PayloadClass::kInt:
      Read<int64_t>(c, [&](auto r) {
        for (size_t i = 0; i < n; ++i) t[i] = r(i) != 0;
      });
      return;
  }
}

/// A Bool-valued result; Value::Bool rows build int64 vectors.
struct BoolOut {
  explicit BoolOut(size_t n)
      : vec(NewVector(TypeId::kInt64, n)),
        ok(vec->mutable_valid_data()),
        v(vec->mutable_ints_data()) {}
  Col Done() { return VectorCol(std::move(vec)); }

  ColumnVectorPtr vec;
  uint8_t* ok;
  int64_t* v;
};

/// m[i] = (a_i op b_i) for numbers. Written with `<` only so NaN orders
/// as in Value::Compare (neither less nor greater, hence equal); int/double
/// pairs widen to double and int/int compares exactly, as there.
template <typename RA, typename RB>
void CmpLoop(CmpOp op, RA a, RB b, uint8_t* m, size_t n) {
  switch (op) {
    case CmpOp::kEq:
      for (size_t i = 0; i < n; ++i) m[i] = !(a(i) < b(i)) && !(b(i) < a(i));
      break;
    case CmpOp::kNe:
      for (size_t i = 0; i < n; ++i) m[i] = (a(i) < b(i)) || (b(i) < a(i));
      break;
    case CmpOp::kLt:
      for (size_t i = 0; i < n; ++i) m[i] = a(i) < b(i);
      break;
    case CmpOp::kLe:
      for (size_t i = 0; i < n; ++i) m[i] = !(b(i) < a(i));
      break;
    case CmpOp::kGt:
      for (size_t i = 0; i < n; ++i) m[i] = b(i) < a(i);
      break;
    case CmpOp::kGe:
      for (size_t i = 0; i < n; ++i) m[i] = !(a(i) < b(i));
      break;
  }
}

/// m[i] = Value::Compare(a_i, b_i) satisfies `op`, ignoring nullness.
void CmpInto(CmpOp op, const Col& a, const Col& b, uint8_t* m, size_t n) {
  const bool a_str = a.cls() == PayloadClass::kString;
  const bool b_str = b.cls() == PayloadClass::kString;
  if (a_str != b_str) {
    // Numerics order before strings whatever the values.
    std::fill_n(m, n, static_cast<uint8_t>(ApplyCmp(op, a_str ? 1 : -1)));
  } else if (a_str) {
    Read<std::string>(a, [&](auto ra) {
      Read<std::string>(b, [&](auto rb) {
        if (op == CmpOp::kEq || op == CmpOp::kNe) {
          const bool ne = op == CmpOp::kNe;
          for (size_t i = 0; i < n; ++i) m[i] = (ra(i) == rb(i)) != ne;
        } else {
          for (size_t i = 0; i < n; ++i) {
            m[i] = ApplyCmp(op, ra(i).compare(rb(i)));
          }
        }
      });
    });
  } else {
    ReadNum(a, [&](auto ra) {
      ReadNum(b, [&](auto rb) { CmpLoop(op, ra, rb, m, n); });
    });
  }
}

Col Compare(CmpOp op, const Col& a, const Col& b, size_t n) {
  BoolOut out(n);
  std::vector<uint8_t> m(n);
  CmpInto(op, a, b, m.data(), n);
  ValidInto(a, out.ok, n);
  AndValid(b, out.ok, n);
  for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] & m[i];
  return out.Done();
}

// Two's-complement wraparound, as the row evaluator's int64 arithmetic
// behaves in practice, without signed-overflow UB in the kernels.
inline int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) +
                              static_cast<uint64_t>(y));
}
inline int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) -
                              static_cast<uint64_t>(y));
}
inline int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) *
                              static_cast<uint64_t>(y));
}

/// Int-result arithmetic. Only `%` sees double operands here, and reads
/// them through Value::AsInt's truncation. A zero divisor yields NULL.
template <typename RA, typename RB>
void IntArith(char op, RA a, RB b, uint8_t* ok, int64_t* v, size_t n) {
  auto x = [&](size_t i) { return static_cast<int64_t>(a(i)); };
  auto y = [&](size_t i) { return static_cast<int64_t>(b(i)); };
  switch (op) {
    case '+':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? WrapAdd(x(i), y(i)) : 0;
      return;
    case '-':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? WrapSub(x(i), y(i)) : 0;
      return;
    case '*':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? WrapMul(x(i), y(i)) : 0;
      return;
    default:  // '/' and '%'
      for (size_t i = 0; i < n; ++i) {
        const int64_t d = y(i);
        if (!ok[i] || d == 0) {
          ok[i] = 0;
          v[i] = 0;
        } else if (d == -1) {  // INT64_MIN / -1 would trap
          v[i] = op == '/' ? WrapSub(0, x(i)) : 0;
        } else {
          v[i] = op == '/' ? x(i) / d : x(i) % d;
        }
      }
      return;
  }
}

template <typename RA, typename RB>
void DoubleArith(char op, RA a, RB b, uint8_t* ok, double* v, size_t n) {
  auto x = [&](size_t i) { return static_cast<double>(a(i)); };
  auto y = [&](size_t i) { return static_cast<double>(b(i)); };
  switch (op) {
    case '+':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? x(i) + y(i) : 0.0;
      return;
    case '-':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? x(i) - y(i) : 0.0;
      return;
    case '*':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? x(i) * y(i) : 0.0;
      return;
    default:  // '/'
      for (size_t i = 0; i < n; ++i) {
        const double d = y(i);
        if (!ok[i] || d == 0) {
          ok[i] = 0;
          v[i] = 0.0;
        } else {
          v[i] = x(i) / d;
        }
      }
      return;
  }
}

Result<Col> Arith(char op, const Col& a, const Col& b, size_t n) {
  // String operands take the row evaluator's zero-payload arithmetic.
  if (a.cls() == PayloadClass::kString || b.cls() == PayloadClass::kString) {
    return Unsupported();
  }
  const bool dbl = op != '%' && (a.cls() == PayloadClass::kDouble ||
                                  b.cls() == PayloadClass::kDouble);
  auto out = NewVector(dbl ? TypeId::kDouble : TypeId::kInt64, n);
  uint8_t* ok = out->mutable_valid_data();
  ValidInto(a, ok, n);
  AndValid(b, ok, n);
  ReadNum(a, [&](auto ra) {
    ReadNum(b, [&](auto rb) {
      if (dbl) {
        DoubleArith(op, ra, rb, ok, out->mutable_doubles_data(), n);
      } else {
        IntArith(op, ra, rb, ok, out->mutable_ints_data(), n);
      }
    });
  });
  return VectorCol(std::move(out));
}

Result<Col> Negate(const Col& a, size_t n) {
  if (a.cls() == PayloadClass::kString) return Unsupported();
  const bool dbl = a.cls() == PayloadClass::kDouble;
  auto out = NewVector(dbl ? TypeId::kDouble : TypeId::kInt64, n);
  uint8_t* ok = out->mutable_valid_data();
  ValidInto(a, ok, n);
  if (dbl) {
    const double* x = a.vec->doubles_data();
    double* v = out->mutable_doubles_data();
    for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? -x[i] : 0.0;
  } else {
    const int64_t* x = a.vec->ints_data();
    int64_t* v = out->mutable_ints_data();
    for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? WrapSub(0, x[i]) : 0;
  }
  return VectorCol(std::move(out));
}

Col Not(const Col& a, size_t n) {
  BoolOut out(n);
  std::vector<uint8_t> t(n);
  ValidInto(a, out.ok, n);
  TruthInto(a, t.data(), n);
  for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] & !t[i];
  return out.Done();
}

/// Kleene AND/OR. Both sides are evaluated for every row; the row
/// evaluator's short-circuit only skips work, and any error the right
/// side would raise on a skipped row sends the expression to the row path.
Col AndOr(bool is_and, const Col& a, const Col& b, size_t n) {
  std::vector<uint8_t> aok(n), at(n), bok(n), bt(n);
  ValidInto(a, aok.data(), n);
  TruthInto(a, at.data(), n);
  ValidInto(b, bok.data(), n);
  TruthInto(b, bt.data(), n);
  BoolOut out(n);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t a1 = aok[i] & at[i], b1 = bok[i] & bt[i];
    const uint8_t a0 = aok[i] & !at[i], b0 = bok[i] & !bt[i];
    if (is_and) {
      out.v[i] = a1 & b1;
      out.ok[i] = (a1 & b1) | a0 | b0;  // one false side decides
    } else {
      out.v[i] = a1 | b1;
      out.ok[i] = a1 | b1 | (a0 & b0);  // one true side decides
    }
  }
  return out.Done();
}

Col IsNullCol(const Col& a, bool negated, size_t n) {
  BoolOut out(n);
  std::vector<uint8_t> valid(n);
  ValidInto(a, valid.data(), n);
  for (size_t i = 0; i < n; ++i) {
    out.ok[i] = 1;
    out.v[i] = valid[i] ^ static_cast<uint8_t>(!negated);
  }
  return out.Done();
}

Col Between(const Col& v, const Col& lo, const Col& hi, bool negated,
            size_t n) {
  std::vector<uint8_t> ge(n), le(n);
  CmpInto(CmpOp::kGe, v, lo, ge.data(), n);
  CmpInto(CmpOp::kLe, v, hi, le.data(), n);
  BoolOut out(n);
  ValidInto(v, out.ok, n);
  AndValid(lo, out.ok, n);
  AndValid(hi, out.ok, n);
  const uint8_t neg = negated;
  for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] & ((ge[i] & le[i]) ^ neg);
  return out.Done();
}

/// args[0] IN (args[1..]): null items never match; a null probe is NULL.
Col InList(const std::vector<Col>& args, bool negated, size_t n) {
  const Col& v = args[0];
  std::vector<uint8_t> found(n, 0), eq(n), item_ok(n);
  for (size_t k = 1; k < args.size(); ++k) {
    CmpInto(CmpOp::kEq, v, args[k], eq.data(), n);
    ValidInto(args[k], item_ok.data(), n);
    for (size_t i = 0; i < n; ++i) found[i] |= item_ok[i] & eq[i];
  }
  BoolOut out(n);
  ValidInto(v, out.ok, n);
  const uint8_t neg = negated;
  for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] & (found[i] ^ neg);
  return out.Done();
}

/// A LIKE pattern with no `_` and `%` only at its ends is a plain string
/// test; anything else runs LikeMatch per row.
struct LikeShape {
  enum class Kind : uint8_t { kExact, kPrefix, kSuffix, kContains, kGeneral };
  Kind kind;
  std::string_view lit;
};

LikeShape ClassifyLike(std::string_view p) {
  const bool lead = !p.empty() && p.front() == '%';
  if (lead) p.remove_prefix(1);
  const bool trail = !p.empty() && p.back() == '%';
  if (trail) p.remove_suffix(1);
  if (p.find_first_of("%_") != std::string_view::npos) {
    return {LikeShape::Kind::kGeneral, p};
  }
  if (lead && trail) return {LikeShape::Kind::kContains, p};
  if (lead) return {LikeShape::Kind::kSuffix, p};
  if (trail) return {LikeShape::Kind::kPrefix, p};
  return {LikeShape::Kind::kExact, p};
}

/// `string column LIKE 'literal'`. Other operands (a non-string value is
/// a per-row TypeError, checked only after nulls) take the row path.
Result<Col> Like(const Col& a, const Col& pattern, size_t n) {
  if (a.vec == nullptr || pattern.vec != nullptr ||
      a.cls() != PayloadClass::kString ||
      pattern.cls() != PayloadClass::kString) {
    return Unsupported();
  }
  const std::string& pat = pattern.scalar.s;
  const LikeShape shape = ClassifyLike(pat);
  const std::string* s = a.vec->strings_data();
  BoolOut out(n);
  ValidInto(a, out.ok, n);
  auto drive = [&](auto&& match) {
    for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] && match(s[i]);
  };
  switch (shape.kind) {
    case LikeShape::Kind::kExact:
      drive([&](std::string_view x) { return x == shape.lit; });
      break;
    case LikeShape::Kind::kPrefix:
      drive([&](std::string_view x) { return x.starts_with(shape.lit); });
      break;
    case LikeShape::Kind::kSuffix:
      drive([&](std::string_view x) { return x.ends_with(shape.lit); });
      break;
    case LikeShape::Kind::kContains:
      drive([&](std::string_view x) {
        return x.find(shape.lit) != std::string_view::npos;
      });
      break;
    case LikeShape::Kind::kGeneral:
      drive([&](const std::string& x) { return LikeMatch(x, pat); });
      break;
  }
  return out.Done();
}

/// out row i = row i of branches[br[i]], in one branch-free pass: each
/// branch is a (values, validity, step) triple, step 0 for a scalar. A
/// branch of another class took no non-null row (see Case) and reads as
/// NULL; int branches widen when T is double.
template <typename T>
void TakeBranches(const std::vector<const Col*>& branches, const uint8_t* br,
                  ColumnVector* out) {
  static constexpr uint8_t kValid = 1, kNull = 0;
  const size_t nb = branches.size();
  const size_t n = out->size();
  const PayloadClass cls = PayloadClassOf(out->type());
  std::vector<T> consts(nb);
  std::vector<std::vector<T>> widened(nb);
  std::vector<const T*> vals(nb);
  std::vector<const uint8_t*> oks(nb);
  std::vector<size_t> steps(nb, 0);
  for (size_t b = 0; b < nb; ++b) {
    const Col& c = *branches[b];
    vals[b] = &consts[b];
    oks[b] = &kNull;
    const bool widen =
        cls == PayloadClass::kDouble && c.cls() == PayloadClass::kInt;
    if (c.null_scalar() || (c.cls() != cls && !widen)) continue;
    if (c.vec == nullptr) {
      if constexpr (std::is_same_v<T, double>) {
        consts[b] = c.scalar.AsDouble();
      } else {
        consts[b] = *Data<T>(c.scalar);
      }
      oks[b] = &kValid;
      continue;
    }
    steps[b] = 1;
    oks[b] = c.vec->valid_data();
    vals[b] = Data<T>(*c.vec);
    if constexpr (std::is_same_v<T, double>) {
      if (widen) {
        const int64_t* x = c.vec->ints_data();
        widened[b].assign(x, x + n);
        vals[b] = widened[b].data();
      }
    }
  }
  uint8_t* ok = out->mutable_valid_data();
  T* v = [&] {
    if constexpr (std::is_same_v<T, double>) {
      return out->mutable_doubles_data();
    } else if constexpr (std::is_same_v<T, std::string>) {
      return out->mutable_strings_data();
    } else {
      return out->mutable_ints_data();
    }
  }();
  for (size_t i = 0; i < n; ++i) {
    const size_t b = br[i];
    const size_t j = i * steps[b];
    ok[i] = oks[b][j];
    if constexpr (std::is_same_v<T, std::string>) {
      if (ok[i]) v[i] = vals[b][j];
    } else {
      const T x = vals[b][j];
      v[i] = ok[i] ? x : T{};
    }
  }
}

/// Searched CASE. Every condition and branch is evaluated for every row
/// (an error on a row the row evaluator would skip sends the expression
/// to the row path); each row then takes its first true branch. The
/// output class follows the values rows actually take, exactly as
/// BuildVectorFromValues types them.
Result<Col> Case(const Expr& e, const std::vector<Col>& args, bool top,
                 size_t n) {
  const size_t pairs = (args.size() - (e.has_else ? 1 : 0)) / 2;
  if (pairs >= 255) return Unsupported();  // branch ids are bytes
  // Branch k < pairs is THEN k; branch `pairs` is ELSE (NULL without one).
  const Col null_else;
  std::vector<const Col*> branches;
  for (size_t k = 0; k < pairs; ++k) branches.push_back(&args[2 * k + 1]);
  branches.push_back(e.has_else ? &args.back() : &null_else);

  // br[i]: the branch row i takes, its first true condition.
  std::vector<uint8_t> br(n, static_cast<uint8_t>(pairs)), ok(n), t(n);
  for (size_t k = pairs; k-- > 0;) {
    ValidInto(args[2 * k], ok.data(), n);
    TruthInto(args[2 * k], t.data(), n);
    const uint8_t id = static_cast<uint8_t>(k);
    for (size_t i = 0; i < n; ++i) br[i] = (ok[i] & t[i]) ? id : br[i];
  }

  bool seen[3] = {false, false, false};  // indexed by PayloadClass
  for (size_t k = 0; k <= pairs; ++k) {
    const Col& c = *branches[k];
    ValidInto(c, ok.data(), n);
    uint8_t any = 0;
    for (size_t i = 0; i < n; ++i) any |= (br[i] == k) & ok[i];
    if (any) seen[static_cast<size_t>(c.cls())] = true;
  }
  const bool s = seen[static_cast<size_t>(PayloadClass::kString)];
  const bool d = seen[static_cast<size_t>(PayloadClass::kDouble)];
  const bool in = seen[static_cast<size_t>(PayloadClass::kInt)];
  // Strings next to numbers: a TypeError at the top, and rows of mixed
  // kinds below it. Ints next to doubles widen only at the top, where
  // BuildVectorFromValues widens them; below, each row keeps its kind.
  if ((s && (d || in)) || (d && in && !top)) return Unsupported();
  const PayloadClass out_cls =
      s ? PayloadClass::kString
        : (d ? PayloadClass::kDouble : PayloadClass::kInt);

  auto out = NewVector(TypeOf(out_cls), n);
  switch (out_cls) {
    case PayloadClass::kInt:
      TakeBranches<int64_t>(branches, br.data(), out.get());
      break;
    case PayloadClass::kDouble:
      TakeBranches<double>(branches, br.data(), out.get());
      break;
    case PayloadClass::kString:
      TakeBranches<std::string>(branches, br.data(), out.get());
      break;
  }
  return VectorCol(std::move(out));
}

Result<Col> ColumnCol(const Expr& e, const RowBatch& batch) {
  const int idx = batch.FindColumn(e.QualifiedName());
  if (idx < 0) {
    return Status::InvalidArgument("column not found at execution: " +
                                   e.QualifiedName());
  }
  const ColumnVectorPtr& col = batch.column(static_cast<size_t>(idx));
  if (col->type() != TypeId::kBool) return Col{col, Value()};
  // Bool rows read back as Value::Bool: 0/1 whatever the stored payload.
  const size_t n = col->size();
  auto out = NewVector(TypeId::kInt64, n);
  std::copy_n(col->valid_data(), n, out->mutable_valid_data());
  const uint8_t* ok = col->valid_data();
  const int64_t* x = col->ints_data();
  int64_t* v = out->mutable_ints_data();
  for (size_t i = 0; i < n; ++i) v[i] = ok[i] && x[i] != 0;
  return VectorCol(std::move(out));
}

Result<Col> Binary(const std::string& op, const Col& a, const Col& b,
                   size_t n) {
  if (op == "AND" || op == "OR") return AndOr(op == "AND", a, b, n);
  if (op == "LIKE") return Like(a, b, n);
  if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
    return Arith(op[0], a, b, n);
  }
  // "!=" is only a lexer spelling; the row evaluator rejects it.
  const std::optional<CmpOp> cmp =
      op == "!=" ? std::nullopt : ParseCmpOp(op);
  if (!cmp) return Unsupported();  // ||
  return Compare(*cmp, a, b, n);
}

Result<Col> EvalCol(const Expr& e, const RowBatch& batch, bool top) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return ScalarCol(e.literal);
    case Expr::Kind::kColumnRef:
      return ColumnCol(e, batch);
    case Expr::Kind::kStar:
      return Unsupported();
    default:
      break;
  }
  std::vector<Col> args;
  args.reserve(e.args.size());
  bool constant = true;
  for (const auto& a : e.args) {
    PIXELS_ASSIGN_OR_RETURN(Col c, EvalCol(*a, batch, false));
    constant = constant && c.vec == nullptr;
    args.push_back(std::move(c));
  }
  // No column below: one row-evaluator call stands for every row.
  if (constant) {
    PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(e, batch, 0));
    return ScalarCol(std::move(v));
  }
  const size_t n = batch.num_rows();
  switch (e.kind) {
    case Expr::Kind::kUnary:
      if (e.op == "-") return Negate(args[0], n);
      if (e.op == "NOT") return Not(args[0], n);
      return Unsupported();
    case Expr::Kind::kBinary:
      return Binary(e.op, args[0], args[1], n);
    case Expr::Kind::kBetween:
      return Between(args[0], args[1], args[2], e.negated, n);
    case Expr::Kind::kInList:
      return InList(args, e.negated, n);
    case Expr::Kind::kIsNull:
      return IsNullCol(args[0], e.negated, n);
    case Expr::Kind::kCase:
      return Case(e, args, top, n);
    default:
      return Unsupported();  // scalar functions over columns
  }
}

/// `n` copies of `v`, typed as BuildVectorFromValues types them.
ColumnVectorPtr Broadcast(const Value& v, size_t n) {
  if (v.is_null()) return NewVector(TypeId::kInt64, n);
  const PayloadClass cls = ValueClass(v);
  auto out = NewVector(TypeOf(cls), n);
  std::fill_n(out->mutable_valid_data(), n, uint8_t{1});
  switch (cls) {
    case PayloadClass::kInt:
      std::fill_n(out->mutable_ints_data(), n, v.i);
      break;
    case PayloadClass::kDouble:
      std::fill_n(out->mutable_doubles_data(), n, v.d);
      break;
    case PayloadClass::kString:
      std::fill_n(out->mutable_strings_data(), n, v.s);
      break;
  }
  out->RecountNulls();
  return out;
}

Result<ColumnVectorPtr> EvaluateKernels(const Expr& expr,
                                        const RowBatch& batch) {
  PIXELS_ASSIGN_OR_RETURN(Col c, EvalCol(expr, batch, /*top=*/true));
  const size_t n = batch.num_rows();
  if (c.vec == nullptr) return Broadcast(c.scalar, n);
  // A result with no non-null value is typed kInt64.
  if (c.vec->NullCount() == n && c.vec->type() != TypeId::kInt64) {
    return NewVector(TypeId::kInt64, n);
  }
  return c.vec;
}

}  // namespace

Result<ColumnVectorPtr> EvaluateExpr(const Expr& expr, const RowBatch& batch) {
  // A bare column reference is the column itself, with its exact type.
  if (expr.kind == Expr::Kind::kColumnRef) {
    int idx = batch.FindColumn(expr.QualifiedName());
    if (idx < 0) {
      return Status::InvalidArgument("column not found at execution: " +
                                     expr.QualifiedName());
    }
    return batch.column(static_cast<size_t>(idx));
  }
  // No rows: nothing is evaluated, so nothing can fail.
  if (batch.num_rows() == 0) return MakeVector(TypeId::kInt64);
  Result<ColumnVectorPtr> out = EvaluateKernels(expr, batch);
  if (out.ok()) return out;
  return EvaluateRows(expr, batch);
}

}  // namespace pixels
