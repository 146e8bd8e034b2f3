#include "sql/ast.h"

namespace pixels {

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string qualifier, std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->name = std::move(name);
  return e;
}

ExprPtr MakeStar() {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kStar;
  return e;
}

ExprPtr MakeUnary(std::string op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kUnary;
  e->op = std::move(op);
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kBinary;
  e->op = std::move(op);
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kFunction;
  e->name = std::move(name);
  e->args = std::move(args);
  return e;
}

bool IsAggregateFunction(const std::string& name) {
  return name == "sum" || name == "avg" || name == "count" || name == "min" ||
         name == "max";
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->qualifier = qualifier;
  e->name = name;
  e->op = op;
  e->negated = negated;
  e->distinct = distinct;
  e->has_else = has_else;
  e->type = type;
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

bool Expr::ContainsAggregate() const {
  if (kind == Kind::kFunction && IsAggregateFunction(name)) return true;
  for (const auto& a : args) {
    if (a->ContainsAggregate()) return true;
  }
  return false;
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind || qualifier != other.qualifier ||
      name != other.name || op != other.op || negated != other.negated ||
      distinct != other.distinct || has_else != other.has_else ||
      args.size() != other.args.size()) {
    return false;
  }
  // For literals, numeric kinds compare by value (1 == 1.0); NULL equals
  // NULL structurally.
  if (kind == Kind::kLiteral && literal.Compare(other.literal) != 0) {
    return false;
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i]->Equals(*other.args[i])) return false;
  }
  return true;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kColumnRef:
      return QualifiedName();
    case Kind::kStar:
      return "*";
    case Kind::kUnary:
      if (op == "NOT") return "(NOT " + args[0]->ToString() + ")";
      return "(" + op + args[0]->ToString() + ")";
    case Kind::kBinary:
      return "(" + args[0]->ToString() + " " + op + " " + args[1]->ToString() +
             ")";
    case Kind::kFunction: {
      std::string s = name + "(";
      if (distinct) s += "DISTINCT ";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) s += ", ";
        s += args[i]->ToString();
      }
      return s + ")";
    }
    case Kind::kBetween:
      return "(" + args[0]->ToString() + (negated ? " NOT" : "") + " BETWEEN " +
             args[1]->ToString() + " AND " + args[2]->ToString() + ")";
    case Kind::kInList: {
      std::string s = "(" + args[0]->ToString() + (negated ? " NOT" : "") +
                      " IN (";
      for (size_t i = 1; i < args.size(); ++i) {
        if (i > 1) s += ", ";
        s += args[i]->ToString();
      }
      return s + "))";
    }
    case Kind::kIsNull:
      return "(" + args[0]->ToString() + " IS " + (negated ? "NOT " : "") +
             "NULL)";
    case Kind::kCase: {
      std::string s = "CASE";
      size_t pairs = (args.size() - (has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        s += " WHEN " + args[2 * i]->ToString() + " THEN " +
             args[2 * i + 1]->ToString();
      }
      if (has_else) s += " ELSE " + args.back()->ToString();
      return s + " END";
    }
  }
  return "?";
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = distinct;
  for (const auto& item : items) {
    out->items.push_back(SelectItem{item.expr->Clone(), item.alias});
  }
  out->has_from = has_from;
  out->from = from;
  for (const auto& j : joins) {
    JoinClause jc;
    jc.type = j.type;
    jc.table = j.table;
    jc.on = j.on ? j.on->Clone() : nullptr;
    out->joins.push_back(std::move(jc));
  }
  out->where = where ? where->Clone() : nullptr;
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  out->having = having ? having->Clone() : nullptr;
  for (const auto& o : order_by) {
    out->order_by.push_back(OrderItem{o.expr->Clone(), o.ascending});
  }
  out->limit = limit;
  return out;
}

std::string SelectStmt::ToString() const {
  std::string s = "SELECT ";
  if (distinct) s += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) s += ", ";
    s += items[i].expr->ToString();
    if (!items[i].alias.empty()) s += " AS " + items[i].alias;
  }
  if (has_from) {
    s += " FROM " + from.table;
    if (!from.alias.empty()) s += " AS " + from.alias;
    for (const auto& j : joins) {
      switch (j.type) {
        case JoinClause::Type::kInner:
          s += " JOIN ";
          break;
        case JoinClause::Type::kLeft:
          s += " LEFT JOIN ";
          break;
        case JoinClause::Type::kCross:
          s += " CROSS JOIN ";
          break;
      }
      s += j.table.table;
      if (!j.table.alias.empty()) s += " AS " + j.table.alias;
      if (j.on) s += " ON " + j.on->ToString();
    }
  }
  if (where) s += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    s += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) s += ", ";
      s += group_by[i]->ToString();
    }
  }
  if (having) s += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    s += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) s += ", ";
      s += order_by[i].expr->ToString();
      s += order_by[i].ascending ? " ASC" : " DESC";
    }
  }
  if (limit >= 0) s += " LIMIT " + std::to_string(limit);
  return s;
}

}  // namespace pixels
