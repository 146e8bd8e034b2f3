#include "plan/binder.h"

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "format/compare.h"
#include "sql/parser.h"

namespace pixels {

namespace {

/// Name-resolution scope: the tables visible to column references.
class Scope {
 public:
  Status AddTable(const std::string& qualifier, const TableSchema* schema) {
    if (by_qualifier_.count(qualifier) > 0) {
      return Status::InvalidArgument("duplicate table alias: " + qualifier);
    }
    by_qualifier_[qualifier] = schema;
    order_.push_back(qualifier);
    return Status::OK();
  }

  /// Resolves a column reference: fills the qualifier for bare names and
  /// the type from the catalog.
  Status ResolveColumn(Expr* ref) const {
    if (!ref->qualifier.empty()) {
      auto it = by_qualifier_.find(ref->qualifier);
      if (it == by_qualifier_.end()) {
        return Status::InvalidArgument("unknown table alias '" +
                                       ref->qualifier + "'");
      }
      const int idx = it->second->FindColumn(ref->name);
      if (idx < 0) {
        return Status::InvalidArgument("no column '" + ref->name +
                                       "' in table " + ref->qualifier);
      }
      ref->type = it->second->columns[static_cast<size_t>(idx)].type;
      return Status::OK();
    }
    std::string found;
    for (const auto& q : order_) {
      const TableSchema* schema = by_qualifier_.at(q);
      const int idx = schema->FindColumn(ref->name);
      if (idx >= 0) {
        if (!found.empty()) {
          return Status::InvalidArgument("ambiguous column '" + ref->name +
                                         "' (in " + found + " and " + q + ")");
        }
        found = q;
        ref->type = schema->columns[static_cast<size_t>(idx)].type;
      }
    }
    if (found.empty()) {
      return Status::InvalidArgument("unknown column '" + ref->name + "'");
    }
    ref->qualifier = found;
    return Status::OK();
  }

  /// All columns in FROM order, qualified.
  std::vector<std::pair<std::string, std::string>> AllColumns() const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& q : order_) {
      for (const auto& col : by_qualifier_.at(q)->columns) {
        out.emplace_back(q, col.name);
      }
    }
    return out;
  }

 private:
  std::map<std::string, const TableSchema*> by_qualifier_;
  std::vector<std::string> order_;
};

/// The values CASE or coalesce `e` returns: CASE's THEN args and ELSE,
/// every coalesce arg.
bool IsBranch(const Expr& e, size_t i) {
  return e.kind != Expr::Kind::kCase || i % 2 == 1 ||
         (e.has_else && i + 1 == e.args.size());
}

/// True when `e` is NULL on every row: a NULL literal, or a CASE or
/// coalesce whose branches all are. It takes its type from context.
bool OnlyNull(const Expr& e) {
  if (e.kind == Expr::Kind::kLiteral) return e.literal.is_null();
  const bool coalesce = e.kind == Expr::Kind::kFunction && e.name == "coalesce";
  if (e.kind != Expr::Kind::kCase && !coalesce) return false;
  for (size_t i = 0; i < e.args.size(); ++i) {
    if (IsBranch(e, i) && !OnlyNull(*e.args[i])) return false;
  }
  return true;
}

/// The common type of the values CASE or coalesce `e` returns.
Result<TypeId> UnifyBranches(const Expr& e) {
  const bool is_case = e.kind == Expr::Kind::kCase;
  std::optional<TypeId> out;
  for (size_t i = 0; i < e.args.size(); ++i) {
    const Expr& b = *e.args[i];
    if (!IsBranch(e, i) || OnlyNull(b)) continue;
    const TypeId t = PayloadType(*b.type);
    if (!out || *out == t) {
      out = t;
    } else if (*out == TypeId::kString || t == TypeId::kString) {
      return Status::TypeError(std::string(is_case ? "CASE" : "coalesce") +
                               " mixes string and numeric values");
    } else {
      out = TypeId::kDouble;
    }
  }
  return out.value_or(TypeId::kInt64);
}

Result<TypeId> AggregateType(const Expr& e) {
  if (e.name == "count") return TypeId::kInt64;
  if (e.args.size() != 1 || e.args[0]->kind == Expr::Kind::kStar) {
    return Status::InvalidArgument("aggregate " + e.name +
                                   " takes one argument");
  }
  const TypeId arg = PayloadType(*e.args[0]->type);
  if ((e.name == "sum" || e.name == "avg") && arg == TypeId::kString) {
    return Status::TypeError(e.name + " needs a numeric argument: " +
                             e.ToString());
  }
  if (e.name == "avg") return TypeId::kDouble;
  if (e.name == "sum") return arg == TypeId::kDouble ? arg : TypeId::kInt64;
  return arg;  // min, max
}

/// What an operand must be. An operand that is NULL on every row
/// (OnlyNull) fits either.
enum class Need : uint8_t { kAny, kNumber, kString };

bool Fits(const Expr& arg, Need need) {
  if (need == Need::kAny || OnlyNull(arg)) return true;
  return (PayloadType(*arg.type) == TypeId::kString) == (need == Need::kString);
}

/// A scalar function's argument count, operand classes (the first
/// argument, then every later one) and result type.
struct Signature {
  size_t min_args, max_args;
  Need first, rest;
  TypeId result;
};

std::optional<Signature> ScalarSignature(const std::string& f) {
  using enum Need;
  constexpr size_t kMany = SIZE_MAX;
  if (f == "abs") return Signature{1, 1, kNumber, kNumber, TypeId::kInt64};
  if (f == "floor" || f == "ceil" || f == "ceiling" || f == "sqrt") {
    return Signature{1, 1, kNumber, kNumber, TypeId::kDouble};
  }
  if (f == "round") return Signature{1, 2, kNumber, kNumber, TypeId::kDouble};
  if (f == "year" || f == "month" || f == "day") {
    return Signature{1, 1, kNumber, kNumber, TypeId::kInt64};
  }
  if (f == "length") return Signature{1, 1, kString, kString, TypeId::kInt64};
  if (f == "lower" || f == "upper") {
    return Signature{1, 1, kString, kString, TypeId::kString};
  }
  if (f == "substr" || f == "substring") {
    return Signature{2, 3, kString, kNumber, TypeId::kString};
  }
  if (f == "cast_int" || f == "cast_integer" || f == "cast_bigint") {
    return Signature{1, 1, kAny, kAny, TypeId::kInt64};
  }
  if (f == "cast_double") return Signature{1, 1, kAny, kAny, TypeId::kDouble};
  if (f == "cast_varchar" || f == "cast_string") {
    return Signature{1, 1, kAny, kAny, TypeId::kString};
  }
  if (f == "concat") return Signature{0, kMany, kAny, kAny, TypeId::kString};
  if (f == "coalesce") return Signature{0, kMany, kAny, kAny, TypeId::kInt64};
  return std::nullopt;
}

const char* NeedName(Need need) {
  return need == Need::kString ? "a string" : "a numeric";
}

Result<TypeId> FunctionType(const Expr& e) {
  const std::string& f = e.name;
  if (IsAggregateFunction(f)) return AggregateType(e);
  const std::optional<Signature> sig = ScalarSignature(f);
  if (!sig) return Status::NotImplemented("unknown function: " + f);
  if (e.args.size() < sig->min_args || e.args.size() > sig->max_args) {
    return Status::InvalidArgument("function " + f + ": wrong argument count");
  }
  for (size_t i = 0; i < e.args.size(); ++i) {
    const Need need = i == 0 ? sig->first : sig->rest;
    if (!Fits(*e.args[i], need)) {
      return Status::TypeError(f + " needs " + NeedName(need) +
                               " argument: " + e.ToString());
    }
  }
  if (f == "coalesce") return UnifyBranches(e);
  if (f == "abs" && *e.args[0]->type == TypeId::kDouble) return TypeId::kDouble;
  return sig->result;
}

/// A TypeError unless every operand of operator `e` fits `need`.
Status CheckOperands(const Expr& e, Need need) {
  for (const auto& a : e.args) {
    if (!Fits(*a, need)) {
      return Status::TypeError(e.op + " needs " + NeedName(need) +
                               " operand: " + e.ToString());
    }
  }
  return Status::OK();
}

/// The type of `e` from its children's types (TypeTree types column
/// refs).
Result<TypeId> NodeType(const Expr& e) {
  auto arg = [&](size_t i) { return *e.args[i]->type; };
  switch (e.kind) {
    case Expr::Kind::kLiteral:  // NULL and bools compute as kInt64
      if (e.literal.kind == Value::Kind::kDouble) return TypeId::kDouble;
      return e.literal.kind == Value::Kind::kString ? TypeId::kString
                                                    : TypeId::kInt64;
    case Expr::Kind::kColumnRef:
      return Status::Internal("untyped column ref: " + e.QualifiedName());
    case Expr::Kind::kStar:  // COUNT(*)'s argument
      return TypeId::kInt64;
    case Expr::Kind::kUnary:
      if (e.op == "NOT") return TypeId::kInt64;
      if (e.op == "-") {
        PIXELS_RETURN_NOT_OK(CheckOperands(e, Need::kNumber));
        return arg(0) == TypeId::kDouble ? arg(0) : TypeId::kInt64;
      }
      return Status::NotImplemented("unary op " + e.op);
    case Expr::Kind::kBinary: {
      const std::string& op = e.op;
      if (op == "||") return TypeId::kString;
      if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
        PIXELS_RETURN_NOT_OK(CheckOperands(e, Need::kNumber));
        return op != "%" &&
                       (arg(0) == TypeId::kDouble || arg(1) == TypeId::kDouble)
                   ? TypeId::kDouble
                   : TypeId::kInt64;
      }
      if (op == "LIKE") {
        PIXELS_RETURN_NOT_OK(CheckOperands(e, Need::kString));
        return TypeId::kInt64;
      }
      if (op == "AND" || op == "OR" || ParseCmpOp(op).has_value()) {
        return TypeId::kInt64;
      }
      return Status::NotImplemented("binary op " + op);
    }
    case Expr::Kind::kFunction:
      return FunctionType(e);
    case Expr::Kind::kBetween:
    case Expr::Kind::kInList:
    case Expr::Kind::kIsNull:
      return TypeId::kInt64;
    case Expr::Kind::kCase:
      return UnifyBranches(e);
  }
  return Status::Internal("unreachable expression kind");
}

/// Sets the type of every untyped node of `e`, bottom-up: `column(ref)`
/// types a column ref, NodeType every other node.
template <typename ColumnFn>
Status TypeTree(Expr* e, const ColumnFn& column) {
  if (e->type) return Status::OK();
  if (e->kind == Expr::Kind::kColumnRef) return column(e);
  for (auto& a : e->args) PIXELS_RETURN_NOT_OK(TypeTree(a.get(), column));
  PIXELS_ASSIGN_OR_RETURN(TypeId t, NodeType(*e));
  e->type = t;
  return Status::OK();
}

/// Resolves every column ref of `e` in `scope` and types every node.
Status ResolveExpr(Expr* e, const Scope& scope) {
  return TypeTree(e, [&](Expr* ref) { return scope.ResolveColumn(ref); });
}

/// A ref to output column `name` of the node below, typed `type`.
ExprPtr OutputRef(const std::string& name, std::optional<TypeId> type) {
  ExprPtr ref = MakeColumnRef("", name);
  ref->type = type;
  return ref;
}

/// Collects aggregate calls in an expression into `out` (deduplicated by
/// canonical string).
void CollectAggregates(const Expr& e, std::map<std::string, const Expr*>* out) {
  if (e.kind == Expr::Kind::kFunction && IsAggregateFunction(e.name)) {
    out->emplace(e.ToString(), &e);
    return;  // no nested aggregates
  }
  for (const auto& a : e.args) CollectAggregates(*a, out);
}

/// Rewrites an expression for evaluation above an Aggregate node:
/// aggregate subtrees become column refs to their canonical output name;
/// subtrees equal to a group expression become refs to the group output.
/// Returns an error if a bare column survives (not grouped, not aggregated).
Result<ExprPtr> RewriteOverAggregate(
    const Expr& e, const std::vector<ExprPtr>& group_exprs,
    const std::vector<std::string>& group_names,
    const std::map<std::string, std::string>& agg_name_of) {
  // Group expression match first (a group key used verbatim).
  for (size_t g = 0; g < group_exprs.size(); ++g) {
    if (e.Equals(*group_exprs[g])) {
      return OutputRef(group_names[g], PayloadType(*group_exprs[g]->type));
    }
  }
  if (e.kind == Expr::Kind::kFunction && IsAggregateFunction(e.name)) {
    auto it = agg_name_of.find(e.ToString());
    if (it == agg_name_of.end()) {
      return Status::Internal("aggregate not collected: " + e.ToString());
    }
    return OutputRef(it->second, e.type);
  }
  if (e.kind == Expr::Kind::kColumnRef) {
    return Status::InvalidArgument(
        "column '" + e.QualifiedName() +
        "' must appear in GROUP BY or inside an aggregate");
  }
  ExprPtr out = e.Clone();
  for (size_t i = 0; i < out->args.size(); ++i) {
    PIXELS_ASSIGN_OR_RETURN(
        out->args[i], RewriteOverAggregate(*e.args[i], group_exprs, group_names,
                                           agg_name_of));
  }
  return out;
}

/// Output name for a select item without an explicit alias.
std::string DefaultItemName(const Expr& e) {
  if (e.kind == Expr::Kind::kColumnRef) return e.name;
  return e.ToString();
}

}  // namespace

Result<PlanPtr> BindSelect(const SelectStmt& stmt, const Catalog& catalog,
                           const std::string& db) {
  if (!stmt.has_from) {
    // SELECT <literals>: bind as a projection over a one-row dummy view.
    auto one_row = std::make_shared<Table>();
    auto batch = std::make_shared<RowBatch>();
    auto col = MakeVector(TypeId::kInt64);
    col->AppendInt(1);
    batch->AddColumn("$dummy", std::move(col));
    one_row->AddBatch(std::move(batch));
    PlanPtr plan = MakeMaterializedView(std::move(one_row));
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const auto& item : stmt.items) {
      if (item.expr->kind == Expr::Kind::kStar) {
        return Status::InvalidArgument("SELECT * requires FROM");
      }
      if (item.expr->ContainsAggregate()) {
        return Status::InvalidArgument("aggregates require FROM");
      }
      names.push_back(item.alias.empty() ? DefaultItemName(*item.expr)
                                         : item.alias);
      exprs.push_back(item.expr->Clone());
      PIXELS_RETURN_NOT_OK(ResolveExpr(exprs.back().get(), Scope()));
    }
    return MakeProject(std::move(plan), std::move(exprs), std::move(names));
  }

  // 1. Build the scope and scan/join tree.
  Scope scope;
  auto add_table = [&](const TableRef& ref) -> Result<PlanPtr> {
    PIXELS_ASSIGN_OR_RETURN(const TableSchema* schema,
                            catalog.GetTable(db, ref.table));
    const std::string qualifier = ref.EffectiveName();
    PIXELS_RETURN_NOT_OK(scope.AddTable(qualifier, schema));
    PlanPtr scan = MakeScan(db, ref.table, qualifier);
    for (const auto& col : schema->columns) scan->columns.push_back(col.name);
    return scan;
  };

  PIXELS_ASSIGN_OR_RETURN(PlanPtr plan, add_table(stmt.from));
  for (const auto& join : stmt.joins) {
    PIXELS_ASSIGN_OR_RETURN(PlanPtr right, add_table(join.table));
    ExprPtr cond;
    if (join.on) {
      cond = join.on->Clone();
      PIXELS_RETURN_NOT_OK(ResolveExpr(cond.get(), scope));
    }
    plan = MakeJoin(std::move(plan), std::move(right), join.type,
                    std::move(cond));
  }

  // 2. WHERE.
  if (stmt.where) {
    ExprPtr where = stmt.where->Clone();
    if (where->ContainsAggregate()) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    PIXELS_RETURN_NOT_OK(ResolveExpr(where.get(), scope));
    plan = MakeFilter(std::move(plan), std::move(where));
  }

  // 3. Expand SELECT * and resolve select expressions.
  std::vector<SelectItem> items;
  for (const auto& item : stmt.items) {
    if (item.expr->kind == Expr::Kind::kStar) {
      for (const auto& [q, c] : scope.AllColumns()) {
        items.push_back(SelectItem{MakeColumnRef(q, c), ""});
        PIXELS_RETURN_NOT_OK(ResolveExpr(items.back().expr.get(), scope));
      }
      continue;
    }
    SelectItem copy;
    copy.expr = item.expr->Clone();
    copy.alias = item.alias;
    PIXELS_RETURN_NOT_OK(ResolveExpr(copy.expr.get(), scope));
    items.push_back(std::move(copy));
  }
  if (items.empty()) return Status::InvalidArgument("empty select list");

  // 4. Aggregation.
  bool has_aggregates = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const auto& item : items) {
    has_aggregates = has_aggregates || item.expr->ContainsAggregate();
  }

  ExprPtr having;
  if (stmt.having) {
    having = stmt.having->Clone();
    PIXELS_RETURN_NOT_OK(ResolveExpr(having.get(), scope));
  }

  std::vector<ExprPtr> final_exprs;
  std::vector<std::string> final_names;
  std::shared_ptr<LogicalPlan> agg_node;
  std::map<std::string, std::string> agg_name_of;

  if (has_aggregates) {
    auto agg = std::make_shared<LogicalPlan>();
    agg->kind = LogicalPlan::Kind::kAggregate;
    agg->children.push_back(plan);

    for (const auto& g : stmt.group_by) {
      ExprPtr ge = g->Clone();
      PIXELS_RETURN_NOT_OK(ResolveExpr(ge.get(), scope));
      if (ge->ContainsAggregate()) {
        return Status::InvalidArgument("aggregates not allowed in GROUP BY");
      }
      agg->group_names.push_back(ge->kind == Expr::Kind::kColumnRef
                                     ? ge->QualifiedName()
                                     : ge->ToString());
      agg->group_exprs.push_back(std::move(ge));
    }

    // Collect aggregate calls from select items, HAVING, and ORDER BY.
    std::map<std::string, const Expr*> agg_calls;
    for (const auto& item : items) CollectAggregates(*item.expr, &agg_calls);
    if (having) CollectAggregates(*having, &agg_calls);
    std::vector<ExprPtr> resolved_order;
    for (const auto& o : stmt.order_by) {
      ExprPtr oe = o.expr->Clone();
      if (oe->kind != Expr::Kind::kLiteral) {
        // Resolution may fail when it references an output alias; that is
        // handled later, so ignore errors here for non-aggregate refs.
        Status st = ResolveExpr(oe.get(), scope);
        if (st.ok()) CollectAggregates(*oe, &agg_calls);
      }
      resolved_order.push_back(std::move(oe));
    }

    for (const auto& [canon, call] : agg_calls) {
      agg_name_of[canon] = canon;  // output column named by canonical string
      agg->agg_names.push_back(canon);
      agg->agg_exprs.push_back(call->Clone());
    }
    agg_node = agg;
    plan = agg;

    // HAVING becomes a filter over aggregate outputs.
    if (having) {
      PIXELS_ASSIGN_OR_RETURN(
          ExprPtr rewritten,
          RewriteOverAggregate(*having, agg->group_exprs, agg->group_names,
                               agg_name_of));
      plan = MakeFilter(std::move(plan), std::move(rewritten));
    }

    for (auto& item : items) {
      PIXELS_ASSIGN_OR_RETURN(
          ExprPtr rewritten,
          RewriteOverAggregate(*item.expr, agg->group_exprs, agg->group_names,
                               agg_name_of));
      final_names.push_back(item.alias.empty() ? DefaultItemName(*item.expr)
                                               : item.alias);
      final_exprs.push_back(std::move(rewritten));
    }
  } else {
    for (auto& item : items) {
      final_names.push_back(item.alias.empty() ? DefaultItemName(*item.expr)
                                               : item.alias);
      final_exprs.push_back(item.expr->Clone());
    }
  }

  // Keep originals for ORDER BY matching before moving into the project.
  std::vector<ExprPtr> select_originals;
  for (const auto& item : items) select_originals.push_back(item.expr->Clone());

  plan = MakeProject(std::move(plan), std::move(final_exprs),
                     std::move(final_names));
  LogicalPlan* project_node = plan.get();
  const std::vector<std::string>& out_names = plan->names;
  const size_t visible_columns = out_names.size();

  if (stmt.distinct) {
    auto d = std::make_shared<LogicalPlan>();
    d->kind = LogicalPlan::Kind::kDistinct;
    d->children.push_back(plan);
    plan = d;
  }

  // 5. ORDER BY: positional, by output alias/name, by select expression,
  // or (for plain queries) by any resolvable expression via a hidden
  // projection column dropped after the sort.
  // Appends `resolved` as a hidden projection column and returns a
  // reference to it usable as a sort key.
  auto add_hidden_sort_key = [&](const Expr& resolved) -> Result<ExprPtr> {
    if (stmt.distinct) {
      return Status::InvalidArgument(
          "ORDER BY of a DISTINCT query must reference the select list");
    }
    ExprPtr proj_expr;
    if (has_aggregates) {
      PIXELS_ASSIGN_OR_RETURN(
          proj_expr,
          RewriteOverAggregate(resolved, agg_node->group_exprs,
                               agg_node->group_names, agg_name_of));
    } else {
      proj_expr = resolved.Clone();
    }
    std::string hidden = "$sort" + std::to_string(project_node->names.size());
    ExprPtr key = OutputRef(hidden, proj_expr->type);
    project_node->exprs.push_back(std::move(proj_expr));
    project_node->names.push_back(hidden);
    return key;
  };

  if (!stmt.order_by.empty()) {
    auto sort = std::make_shared<LogicalPlan>();
    sort->kind = LogicalPlan::Kind::kSort;
    sort->children.push_back(plan);
    for (const auto& o : stmt.order_by) {
      ExprPtr key;
      if (o.expr->kind == Expr::Kind::kLiteral &&
          o.expr->literal.kind == Value::Kind::kInt) {
        int64_t pos = o.expr->literal.i;
        if (pos < 1 || pos > static_cast<int64_t>(out_names.size())) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
        key = OutputRef(out_names[static_cast<size_t>(pos - 1)],
                        project_node->exprs[static_cast<size_t>(pos - 1)]->type);
      } else if (o.expr->kind == Expr::Kind::kColumnRef &&
                 o.expr->qualifier.empty()) {
        // Try alias / output-name match first.
        bool matched = false;
        for (size_t i = 0; i < out_names.size(); ++i) {
          if (out_names[i] == o.expr->name) {
            key = OutputRef(out_names[i], project_node->exprs[i]->type);
            matched = true;
            break;
          }
        }
        if (!matched) {
          ExprPtr oe = o.expr->Clone();
          PIXELS_RETURN_NOT_OK(ResolveExpr(oe.get(), scope));
          // Match against the original select expressions.
          for (size_t i = 0; i < select_originals.size(); ++i) {
            if (oe->Equals(*select_originals[i])) {
              key = OutputRef(out_names[i], project_node->exprs[i]->type);
              matched = true;
              break;
            }
          }
          if (!matched) {
            PIXELS_ASSIGN_OR_RETURN(key, add_hidden_sort_key(*oe));
          }
        }
      } else {
        // Expression: match against select expressions, else hidden key.
        ExprPtr oe = o.expr->Clone();
        PIXELS_RETURN_NOT_OK(ResolveExpr(oe.get(), scope));
        bool matched = false;
        for (size_t i = 0; i < select_originals.size(); ++i) {
          if (oe->Equals(*select_originals[i])) {
            key = OutputRef(out_names[i], project_node->exprs[i]->type);
            matched = true;
            break;
          }
        }
        if (!matched) {
          PIXELS_ASSIGN_OR_RETURN(key, add_hidden_sort_key(*oe));
        }
      }
      sort->order_by.push_back(OrderItem{std::move(key), o.ascending});
    }
    plan = sort;
  }

  // Drop hidden sort columns after the sort.
  if (project_node->names.size() > visible_columns) {
    std::vector<ExprPtr> vis_exprs;
    std::vector<std::string> vis_names;
    for (size_t i = 0; i < visible_columns; ++i) {
      vis_exprs.push_back(
          OutputRef(project_node->names[i], project_node->exprs[i]->type));
      vis_names.push_back(project_node->names[i]);
    }
    plan = MakeProject(std::move(plan), std::move(vis_exprs),
                       std::move(vis_names));
  }

  if (stmt.limit >= 0) plan = MakeLimit(std::move(plan), stmt.limit);
  return plan;
}

Status BindTypes(Expr* e, const PlanSchema& input) {
  return TypeTree(e, [&](Expr* ref) {
    const int idx = FindName(input.names, ref->QualifiedName());
    if (idx < 0) {
      return Status::InvalidArgument("column not found: " + ref->QualifiedName());
    }
    ref->type = input.types[static_cast<size_t>(idx)];
    return Status::OK();
  });
}

Result<PlanPtr> PlanQuery(const std::string& sql, const Catalog& catalog,
                          const std::string& db) {
  PIXELS_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelect(sql));
  return BindSelect(*stmt, catalog, db);
}

}  // namespace pixels
