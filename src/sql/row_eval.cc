#include "sql/row_eval.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/int_arith.h"

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

/// `v` as a value of `e`'s bound type: an int taken by a CASE or
/// coalesce typed kDouble widens, as the column kernels widen it.
Value AsBoundType(const Expr& e, Value v) {
  if (e.type == TypeId::kDouble && !v.is_null() &&
      v.kind != Value::Kind::kDouble && v.kind != Value::Kind::kString) {
    return Value::Double(v.AsDouble());
  }
  return v;
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
      if (!v.is_null()) return AsBoundType(e, std::move(v));
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
        return Value::Int(WrapSub(0, v.i));
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
                   : Value::Int(WrapAdd(a.i, b.i));
      }
      if (e.op == "-") {
        return dbl ? Value::Double(a.AsDouble() - b.AsDouble())
                   : Value::Int(WrapSub(a.i, b.i));
      }
      if (e.op == "*") {
        return dbl ? Value::Double(a.AsDouble() * b.AsDouble())
                   : Value::Int(WrapMul(a.i, b.i));
      }
      if (e.op == "/") {
        if (dbl) {
          if (b.AsDouble() == 0) return Value::Null();
          return Value::Double(a.AsDouble() / b.AsDouble());
        }
        if (b.i == 0) return Value::Null();
        return Value::Int(WrapDiv(a.i, b.i));
      }
      if (e.op == "%") {
        if (b.AsInt() == 0) return Value::Null();
        return Value::Int(WrapMod(a.AsInt(), b.AsInt()));
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
          PIXELS_ASSIGN_OR_RETURN(Value v,
                                  EvaluateExprRow(*e.args[2 * i + 1], batch, row));
          return AsBoundType(e, std::move(v));
        }
      }
      if (!e.has_else) return Value::Null();
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args.back(), batch, row));
      return AsBoundType(e, std::move(v));
    }
  }
  return Status::Internal("unreachable expression kind");
}

}  // namespace pixels
