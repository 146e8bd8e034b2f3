// Row-at-a-time evaluation of a bound expression: the semantics oracle
// of the column kernels (exec/expression.h). It evaluates one row at a
// time on boxed Values, skips AND/OR right sides and untaken CASE
// branches per row, and shares nothing with the kernels but LikeMatch
// and CivilFromDays. Expressions must have passed the binder, which
// rejects every argument count and operand type a function cannot take.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/int_arith.h"
#include "common/result.h"
#include "exec/expression.h"
#include "format/batch.h"
#include "sql/ast.h"

namespace pixels {

Result<Value> EvaluateExprRow(const Expr& expr, const RowBatch& batch,
                              size_t row);

/// Builds a vector of `type` from scalar values, converting numerics as
/// ColumnVector::AppendValue does (a string next to a number is a
/// TypeError).
inline Result<ColumnVectorPtr> BuildVectorFromValues(
    const std::vector<Value>& values, TypeId type) {
  auto col = MakeVector(type);
  col->Reserve(values.size());
  for (const auto& v : values) {
    PIXELS_RETURN_NOT_OK(col->AppendValue(v));
  }
  return col;
}

namespace row_eval {

inline std::string ToLower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

inline std::string ToUpper(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

/// `v` as a value of `e`'s bound type: an int taken by a CASE or
/// coalesce typed kDouble widens, as the column kernels widen it.
inline Value AsBoundType(const Expr& e, Value v) {
  if (e.type == TypeId::kDouble && !v.is_null() &&
      v.kind != Value::Kind::kDouble && v.kind != Value::Kind::kString) {
    return Value::Double(v.AsDouble());
  }
  return v;
}

/// The text of `arg`'s value `v` for concat, `||` and CAST(… AS
/// varchar), by the argument's bound type: a kBool prints true/false, and
/// any other non-string by its Value kind, where a truth value bound
/// kInt64 (a comparison) prints 1/0.
inline std::string Text(const Expr& arg, const Value& v) {
  if (v.kind == Value::Kind::kString) return v.s;
  if (arg.type == TypeId::kBool) return v.AsBool() ? "true" : "false";
  if (v.kind == Value::Kind::kBool) return std::to_string(v.i);
  return v.ToString();
}

inline Result<Value> EvalFunction(const Expr& e, const RowBatch& batch,
                                  size_t row) {
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
    if (args[0].kind == Value::Kind::kDouble) {
      return Value::Double(std::fabs(args[0].d));
    }
    return Value::Int(args[0].i < 0 ? WrapSub(0, args[0].i) : args[0].i);
  }
  if (e.name == "round") {
    double scale = args.size() == 2 ? std::pow(10.0, args[1].AsDouble()) : 1.0;
    return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (e.name == "floor") return Value::Double(std::floor(args[0].AsDouble()));
  if (e.name == "ceil" || e.name == "ceiling") {
    return Value::Double(std::ceil(args[0].AsDouble()));
  }
  if (e.name == "sqrt") {
    if (args[0].AsDouble() < 0) return Value::Null();
    return Value::Double(std::sqrt(args[0].AsDouble()));
  }
  if (e.name == "length") {
    return Value::Int(static_cast<int64_t>(args[0].s.size()));
  }
  if (e.name == "lower") return Value::String(ToLower(args[0].s));
  if (e.name == "upper") return Value::String(ToUpper(args[0].s));
  if (e.name == "substr" || e.name == "substring") {
    const std::string& s = args[0].s;
    int64_t start = args[1].AsInt();  // 1-based
    if (start < 1) start = 1;
    if (static_cast<uint64_t>(start) > s.size()) return Value::String("");
    size_t pos = static_cast<size_t>(start - 1);
    size_t len = args.size() == 3
                     ? static_cast<size_t>(std::max<int64_t>(args[2].AsInt(), 0))
                     : std::string::npos;
    return Value::String(s.substr(pos, len));
  }
  if (e.name == "concat" || e.name == "cast_varchar" ||
      e.name == "cast_string") {
    std::string out;
    for (size_t k = 0; k < args.size(); ++k) out += Text(*e.args[k], args[k]);
    return Value::String(std::move(out));
  }
  if (e.name == "year" || e.name == "month" || e.name == "day") {
    // Interprets the int payload as days since epoch.
    const CivilDate date = CivilFromDays(static_cast<int32_t>(args[0].AsInt()));
    if (e.name == "year") return Value::Int(date.year);
    if (e.name == "month") return Value::Int(date.month);
    return Value::Int(date.day);
  }
  if (e.name == "cast_int" || e.name == "cast_integer" ||
      e.name == "cast_bigint") {
    if (args[0].kind == Value::Kind::kString) {
      char* end = nullptr;
      long long v = std::strtoll(args[0].s.c_str(), &end, 10);
      if (end == args[0].s.c_str()) return Value::Null();
      return Value::Int(v);
    }
    return Value::Int(args[0].AsInt());
  }
  if (e.name == "cast_double") {
    if (args[0].kind == Value::Kind::kString) {
      char* end = nullptr;
      double v = std::strtod(args[0].s.c_str(), &end);
      if (end == args[0].s.c_str()) return Value::Null();
      return Value::Double(v);
    }
    return Value::Double(args[0].AsDouble());
  }
  return Status::NotImplemented("unknown function: " + e.name);
}

}  // namespace row_eval

/// Evaluates `expr` for row `row` of `batch`. AND/OR and CASE skip
/// subexpressions per row. A CASE or coalesce typed kDouble returns its
/// int branches as doubles.
inline Result<Value> EvaluateExprRow(const Expr& e, const RowBatch& batch,
                                     size_t row) {
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
      if (e.op == "LIKE") return Value::Bool(LikeMatch(a.s, b.s));
      if (e.op == "||") {
        std::string out = row_eval::Text(*e.args[0], a);
        out += row_eval::Text(*e.args[1], b);
        return Value::String(std::move(out));
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
      return row_eval::EvalFunction(e, batch, row);
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
          return row_eval::AsBoundType(e, std::move(v));
        }
      }
      if (!e.has_else) return Value::Null();
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args.back(), batch, row));
      return row_eval::AsBoundType(e, std::move(v));
    }
  }
  return Status::Internal("unreachable expression kind");
}

}  // namespace pixels
