// SQL abstract syntax tree: expressions and the SELECT statement.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "format/type.h"

namespace pixels {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// A SQL expression node. One struct with a kind tag keeps the tree
/// cheap to clone and print; children live in `args`.
struct Expr {
  enum class Kind : uint8_t {
    kLiteral,    // literal (Value)
    kColumnRef,  // [qualifier.]name
    kStar,       // * (only valid in SELECT list and COUNT(*))
    kUnary,      // op in {"-", "NOT"}; args[0]
    kBinary,     // op in {+,-,*,/,%,=,<>,<,<=,>,>=,AND,OR,LIKE,||}; args[0,1]
    kFunction,   // name(args...); aggregates: sum,avg,count,min,max
    kBetween,    // args[0] BETWEEN args[1] AND args[2]; `negated`
    kInList,     // args[0] IN (args[1..]); `negated`
    kIsNull,     // args[0] IS [NOT] NULL; `negated`
    kCase,       // CASE WHEN a THEN b [WHEN..] [ELSE e] END;
                 // args = [when1, then1, when2, then2, ..., else?]; `has_else`
  };

  Kind kind;
  Value literal;           // kLiteral
  std::string qualifier;   // kColumnRef (may be empty)
  std::string name;        // kColumnRef column / kFunction name (lower case)
  std::string op;          // kUnary / kBinary
  std::vector<ExprPtr> args;
  bool negated = false;    // NOT BETWEEN / NOT IN / IS NOT NULL
  bool distinct = false;   // COUNT(DISTINCT x)
  bool has_else = false;   // kCase
  /// Output type, set by the binder (plan/binder.h BindTypes) and kept by
  /// Clone. Unset on a parsed tree. Equals, ToString and fingerprints
  /// ignore it.
  std::optional<TypeId> type;

  /// Fully qualified column name ("q.name" or "name").
  std::string QualifiedName() const {
    return qualifier.empty() ? name : qualifier + "." + name;
  }

  /// Deep copy.
  ExprPtr Clone() const;

  /// SQL-ish rendering (parenthesized, lossless for round-trip tests).
  std::string ToString() const;

  /// True when this subtree contains an aggregate function call.
  bool ContainsAggregate() const;

  /// Structural equality.
  bool Equals(const Expr& other) const;
};

/// Factory helpers.
ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string name);
ExprPtr MakeStar();
ExprPtr MakeUnary(std::string op, ExprPtr operand);
ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args);

/// True when `name` (lower case) is an aggregate function.
bool IsAggregateFunction(const std::string& name);

/// One SELECT-list item.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty when none
};

/// A base table reference with optional alias.
struct TableRef {
  std::string table;
  std::string alias;  // empty when none

  /// The name other clauses refer to this table by.
  const std::string& EffectiveName() const { return alias.empty() ? table : alias; }
};

/// One JOIN clause following the first FROM table.
struct JoinClause {
  enum class Type : uint8_t { kInner, kLeft, kCross };
  Type type = Type::kInner;
  TableRef table;
  ExprPtr on;  // null for cross joins
};

/// ORDER BY item.
struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

/// A parsed SELECT statement.
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  bool has_from = false;
  TableRef from;
  std::vector<JoinClause> joins;
  ExprPtr where;   // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;  // may be null
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1 = no limit

  /// SQL rendering (canonical form used by tests and the NL service).
  std::string ToString() const;

  /// Deep copy.
  std::unique_ptr<SelectStmt> Clone() const;
};

using SelectStmtPtr = std::unique_ptr<SelectStmt>;

}  // namespace pixels
