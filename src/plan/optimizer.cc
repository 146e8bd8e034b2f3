#include "plan/optimizer.h"

#include <algorithm>
#include <set>
#include <string_view>

#include "exec/expression.h"
#include "plan/binder.h"

namespace pixels {

namespace {

bool IsLiteral(const Expr& e) { return e.kind == Expr::Kind::kLiteral; }

}  // namespace

ExprPtr FoldConstants(ExprPtr expr) {
  for (auto& a : expr->args) a = FoldConstants(std::move(a));
  if (expr->kind == Expr::Kind::kLiteral ||
      expr->kind == Expr::Kind::kColumnRef ||
      expr->kind == Expr::Kind::kStar) {
    return expr;
  }
  // Aggregates are never folded.
  if (expr->kind == Expr::Kind::kFunction) return expr;
  bool all_literal = true;
  for (const auto& a : expr->args) all_literal &= IsLiteral(*a);
  if (!all_literal) return expr;
  // One kernel pass over one row. The kernels need bound types, and a
  // column-free subtree binds against no columns; an error leaves the
  // expression for binding or execution to report.
  ExprPtr typed = expr->type ? nullptr : expr->Clone();
  if (typed != nullptr && !BindTypes(typed.get(), PlanSchema{}).ok()) {
    return expr;
  }
  auto value = EvaluateConstant(typed != nullptr ? *typed : *expr);
  if (!value.ok()) return expr;
  ExprPtr out = MakeLiteral(std::move(value).ValueOrDie());
  out->type = expr->type;  // the folded expression's
  return out;
}

std::vector<ExprPtr> SplitConjuncts(const Expr& expr) {
  std::vector<ExprPtr> out;
  if (expr.kind == Expr::Kind::kBinary && expr.op == "AND") {
    auto left = SplitConjuncts(*expr.args[0]);
    auto right = SplitConjuncts(*expr.args[1]);
    for (auto& e : left) out.push_back(std::move(e));
    for (auto& e : right) out.push_back(std::move(e));
    return out;
  }
  out.push_back(expr.Clone());
  return out;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr out = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    out = MakeBinary("AND", std::move(out), std::move(conjuncts[i]));
    out->type = TypeId::kInt64;
  }
  return out;
}

void CollectColumnRefs(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == Expr::Kind::kColumnRef) {
    out->push_back(expr.QualifiedName());
    return;
  }
  for (const auto& a : expr.args) CollectColumnRefs(*a, out);
}

namespace {

/// The qualifiers (table aliases) referenced by an expression.
std::set<std::string> Qualifiers(const Expr& e) {
  std::vector<std::string> refs;
  CollectColumnRefs(e, &refs);
  std::set<std::string> out;
  for (const auto& r : refs) {
    size_t dot = r.rfind('.');
    out.insert(dot == std::string::npos ? r : r.substr(0, dot));
  }
  return out;
}

/// The set of qualifiers produced by a plan subtree.
void PlanQualifiers(const LogicalPlan& plan, std::set<std::string>* out) {
  if (plan.kind == LogicalPlan::Kind::kScan) {
    out->insert(plan.table_alias.empty() ? plan.table : plan.table_alias);
  }
  for (const auto& c : plan.children) PlanQualifiers(*c, out);
}

/// Tries to convert a conjunct into a scan predicate (col op literal /
/// literal op col / BETWEEN literals). Returns predicates to add.
std::vector<ScanPredicate> ToScanPredicates(const Expr& e) {
  std::vector<ScanPredicate> out;
  auto flip = [](const std::string& op) -> std::string {
    if (op == "<") return ">";
    if (op == "<=") return ">=";
    if (op == ">") return "<";
    if (op == ">=") return "<=";
    return op;  // = and <> are symmetric
  };
  if (e.kind == Expr::Kind::kBinary) {
    static const std::set<std::string> kOps = {"=", "<>", "<", "<=", ">", ">="};
    if (kOps.count(e.op) == 0) return out;
    const Expr& l = *e.args[0];
    const Expr& r = *e.args[1];
    if (l.kind == Expr::Kind::kColumnRef && IsLiteral(r)) {
      out.push_back(ScanPredicate{l.name, e.op, r.literal});
    } else if (r.kind == Expr::Kind::kColumnRef && IsLiteral(l)) {
      out.push_back(ScanPredicate{r.name, flip(e.op), l.literal});
    }
    return out;
  }
  if (e.kind == Expr::Kind::kBetween && !e.negated &&
      e.args[0]->kind == Expr::Kind::kColumnRef && IsLiteral(*e.args[1]) &&
      IsLiteral(*e.args[2])) {
    out.push_back(ScanPredicate{e.args[0]->name, ">=", e.args[1]->literal});
    out.push_back(ScanPredicate{e.args[0]->name, "<=", e.args[2]->literal});
  }
  return out;
}

/// Pushes filter conjuncts down through joins toward scans. Conjuncts that
/// reference a single side of a join move below it; single-scan conjuncts
/// that are simple comparisons also register as zone-map predicates (the
/// filter itself remains, since zone maps only prune row groups).
PlanPtr PushdownFilters(PlanPtr plan) {
  for (auto& c : plan->children) c = PushdownFilters(std::move(c));
  if (plan->kind != LogicalPlan::Kind::kFilter) return plan;

  PlanPtr child = plan->children[0];
  std::vector<ExprPtr> conjuncts = SplitConjuncts(*plan->predicate);

  if (child->kind == LogicalPlan::Kind::kJoin &&
      child->join_type != JoinClause::Type::kLeft) {
    std::set<std::string> left_q, right_q;
    PlanQualifiers(*child->children[0], &left_q);
    PlanQualifiers(*child->children[1], &right_q);
    std::vector<ExprPtr> stay, to_left, to_right;
    for (auto& cj : conjuncts) {
      auto quals = Qualifiers(*cj);
      bool in_left = true, in_right = true;
      for (const auto& q : quals) {
        if (left_q.count(q) == 0) in_left = false;
        if (right_q.count(q) == 0) in_right = false;
      }
      if (in_left && !quals.empty()) {
        to_left.push_back(std::move(cj));
      } else if (in_right && !quals.empty()) {
        to_right.push_back(std::move(cj));
      } else {
        stay.push_back(std::move(cj));
      }
    }
    if (!to_left.empty()) {
      child->children[0] = PushdownFilters(
          MakeFilter(child->children[0], CombineConjuncts(std::move(to_left))));
    }
    if (!to_right.empty()) {
      child->children[1] = PushdownFilters(MakeFilter(
          child->children[1], CombineConjuncts(std::move(to_right))));
    }
    if (stay.empty()) return child;
    plan->predicate = CombineConjuncts(std::move(stay));
    return plan;
  }

  if (child->kind == LogicalPlan::Kind::kScan) {
    for (const auto& cj : conjuncts) {
      for (auto& sp : ToScanPredicates(*cj)) {
        child->pushed.push_back(std::move(sp));
      }
    }
    return plan;  // filter retained for exact row filtering
  }
  return plan;
}

void FoldPlanExprs(LogicalPlan* plan) {
  if (plan->predicate) plan->predicate = FoldConstants(std::move(plan->predicate));
  if (plan->join_condition) {
    plan->join_condition = FoldConstants(std::move(plan->join_condition));
  }
  for (auto& e : plan->exprs) e = FoldConstants(std::move(e));
  for (auto& e : plan->group_exprs) e = FoldConstants(std::move(e));
  for (auto& o : plan->order_by) o.expr = FoldConstants(std::move(o.expr));
  for (auto& c : plan->children) FoldPlanExprs(c.get());
}

/// Collects every column name (qualified) used above each scan, then
/// narrows scan projections to the used set.
void CollectUsedColumns(const LogicalPlan& plan, std::set<std::string>* used) {
  auto add_expr = [&](const Expr& e) {
    std::vector<std::string> refs;
    CollectColumnRefs(e, &refs);
    for (auto& r : refs) used->insert(std::move(r));
  };
  if (plan.predicate) add_expr(*plan.predicate);
  if (plan.join_condition) add_expr(*plan.join_condition);
  for (const auto& e : plan.exprs) add_expr(*e);
  for (const auto& e : plan.group_exprs) add_expr(*e);
  for (const auto& e : plan.agg_exprs) add_expr(*e);
  for (const auto& o : plan.order_by) add_expr(*o.expr);
  for (const auto& c : plan.children) CollectUsedColumns(*c, used);
}

void PruneProjections(LogicalPlan* plan, const std::set<std::string>& used,
                      bool all_needed) {
  if (plan->kind == LogicalPlan::Kind::kScan && !all_needed) {
    const std::string q =
        plan->table_alias.empty() ? plan->table : plan->table_alias;
    std::vector<std::string> kept;
    for (const auto& col : plan->columns) {
      if (used.count(q + "." + col) > 0 || used.count(col) > 0) {
        kept.push_back(col);
      }
    }
    // A scan must produce at least one column to carry row count.
    if (kept.empty() && !plan->columns.empty()) kept.push_back(plan->columns[0]);
    plan->columns = std::move(kept);
  }
  // A Distinct over the raw scan output needs all columns below it only if
  // there is no project in between; projects reset the needed set.
  for (auto& c : plan->children) {
    PruneProjections(c.get(), used,
                     all_needed && plan->kind != LogicalPlan::Kind::kProject &&
                         plan->kind != LogicalPlan::Kind::kAggregate);
  }
}

/// Column refs an expression list reads, appended to `out`.
void AddRefs(const std::vector<ExprPtr>& exprs, std::vector<std::string>* out) {
  for (const auto& e : exprs) CollectColumnRefs(*e, out);
}

/// Sets each join's kept output columns (`columns`, empty = all) to the
/// columns some operator above it reads. `reads` are the column refs read
/// between `plan`'s output and the nearest Project or Aggregate above it;
/// `all` means every output column is read (the plan root, a Distinct).
/// A join keeps at least one column (its row count feeds count(*)), and
/// each join child keeps what its parent keeps plus what the parent's
/// condition reads: key columns and residual operands stay available
/// until the condition has run. Scan projections are left alone.
/// `outputs` is `plan`'s output list when its parent join already built
/// it (a join's list is its children's lists back to back, so each child
/// gets its part without rebuilding it), else empty.
void PruneJoinOutputs(LogicalPlan* plan, std::vector<std::string> reads,
                      bool all, std::span<const std::string> outputs) {
  switch (plan->kind) {
    case LogicalPlan::Kind::kFilter:
      CollectColumnRefs(*plan->predicate, &reads);
      break;
    case LogicalPlan::Kind::kSort:
      for (const auto& o : plan->order_by) CollectColumnRefs(*o.expr, &reads);
      break;
    case LogicalPlan::Kind::kDistinct:
      all = true;
      break;
    case LogicalPlan::Kind::kProject:
      reads.clear();
      AddRefs(plan->exprs, &reads);
      all = false;
      break;
    case LogicalPlan::Kind::kAggregate:
      reads.clear();
      AddRefs(plan->group_exprs, &reads);
      AddRefs(plan->agg_exprs, &reads);
      all = false;
      break;
    case LogicalPlan::Kind::kJoin: {
      const size_t num_left = plan->children[0]->NumOutputColumns();
      const size_t num_right = plan->children[1]->NumOutputColumns();
      if (num_left == 0 || num_right == 0) {
        // A child with an unlisted projection: names are unknown here.
        for (auto& c : plan->children) PruneJoinOutputs(c.get(), {}, true, {});
        return;
      }
      std::vector<std::string> built;
      if (outputs.size() != num_left + num_right) {
        // Not handed down: the topmost join under a Project or Aggregate.
        built = plan->children[0]->OutputColumns();
        const auto right = plan->children[1]->OutputColumns();
        built.insert(built.end(), right.begin(), right.end());
        outputs = built;
      }
      const std::span<const std::string> full = outputs;
      std::vector<bool> keep(full.size(), true);
      if (!all) {
        keep = ColumnsRead(reads, full);
        if (std::find(keep.begin(), keep.end(), true) == keep.end()) {
          keep[0] = true;
        }
      }
      plan->columns.clear();
      if (std::find(keep.begin(), keep.end(), false) != keep.end()) {
        for (size_t i = 0; i < full.size(); ++i) {
          if (keep[i]) plan->columns.push_back(full[i]);
        }
      }
      std::vector<bool> need = keep;
      if (plan->join_condition != nullptr) {
        std::vector<std::string> cond;
        CollectColumnRefs(*plan->join_condition, &cond);
        const std::vector<bool> cond_cols = ColumnsRead(cond, full);
        for (size_t i = 0; i < full.size(); ++i) {
          need[i] = need[i] || cond_cols[i];
        }
      }
      std::vector<std::string> left_reads, right_reads;
      for (size_t i = 0; i < full.size(); ++i) {
        if (need[i]) {
          (i < num_left ? left_reads : right_reads).push_back(full[i]);
        }
      }
      PruneJoinOutputs(plan->children[0].get(), std::move(left_reads), false,
                       full.first(num_left));
      PruneJoinOutputs(plan->children[1].get(), std::move(right_reads), false,
                       full.subspan(num_left));
      return;
    }
    default:  // Limit passes through; scans and views end the walk
      break;
  }
  // Filter, Sort, Limit and Distinct output their child's columns.
  const bool same_columns = plan->kind != LogicalPlan::Kind::kProject &&
                            plan->kind != LogicalPlan::Kind::kAggregate;
  for (auto& c : plan->children) {
    PruneJoinOutputs(c.get(), reads, all,
                     same_columns ? outputs : std::span<const std::string>());
  }
}

/// Swaps inner equi-join children so the smaller side builds the hash
/// table. Left joins and cross joins are left untouched (not symmetric /
/// no keys).
void ReorderJoins(LogicalPlan* plan, const Catalog& catalog) {
  for (auto& c : plan->children) ReorderJoins(c.get(), catalog);
  if (plan->kind != LogicalPlan::Kind::kJoin ||
      plan->join_type != JoinClause::Type::kInner ||
      plan->join_condition == nullptr) {
    return;
  }
  uint64_t left_rows = EstimateRows(*plan->children[0], catalog);
  uint64_t right_rows = EstimateRows(*plan->children[1], catalog);
  // The right child is the build side; keep the smaller input there.
  if (right_rows > left_rows) {
    std::swap(plan->children[0], plan->children[1]);
  }
}

/// Finds the scan that produces `qual`.`col` walking down from `node`,
/// descending only through nodes where pre-filtering rows is safe for an
/// inner-join probe: filters (commute), and join children whose rows the
/// filtered column flows through unchanged (any child of an inner/cross
/// join — dropping a definitely-non-matching row only removes output rows
/// the annotated join would discard anyway — and the probe child of a
/// left join; the padded side must stay complete). Projects, aggregates,
/// sorts, and limits stop the walk.
LogicalPlan* FindScanForRef(LogicalPlan* node, const std::string& qual,
                            const std::string& col) {
  switch (node->kind) {
    case LogicalPlan::Kind::kScan: {
      const std::string q =
          node->table_alias.empty() ? node->table : node->table_alias;
      if (q != qual) return nullptr;
      if (!node->columns.empty()) {
        bool have = false;
        for (const auto& c : node->columns) have = have || c == col;
        if (!have) return nullptr;
      }
      return node;
    }
    case LogicalPlan::Kind::kFilter:
      return FindScanForRef(node->children[0].get(), qual, col);
    case LogicalPlan::Kind::kJoin: {
      const size_t last =
          node->join_type == JoinClause::Type::kLeft ? 1 : node->children.size();
      for (size_t i = 0; i < last; ++i) {
        std::set<std::string> quals;
        PlanQualifiers(*node->children[i], &quals);
        if (quals.count(qual) > 0) {
          return FindScanForRef(node->children[i].get(), qual, col);
        }
      }
      return nullptr;
    }
    default:
      return nullptr;
  }
}

/// Annotates inner equi-joins with a runtime-filter id and build key, and
/// the probe-side scan feeding the key with the matching hub slot. One
/// filter per join (the first simple column = column conjunct).
void PlanRuntimeFilters(LogicalPlan* plan, int* next_id) {
  for (auto& c : plan->children) PlanRuntimeFilters(c.get(), next_id);
  if (plan->kind != LogicalPlan::Kind::kJoin ||
      plan->join_type != JoinClause::Type::kInner ||
      plan->join_condition == nullptr) {
    return;
  }
  std::set<std::string> left_q, right_q;
  PlanQualifiers(*plan->children[0], &left_q);
  PlanQualifiers(*plan->children[1], &right_q);
  for (const auto& cj : SplitConjuncts(*plan->join_condition)) {
    if (cj->kind != Expr::Kind::kBinary || cj->op != "=" ||
        cj->args[0]->kind != Expr::Kind::kColumnRef ||
        cj->args[1]->kind != Expr::Kind::kColumnRef) {
      continue;
    }
    const Expr* a = cj->args[0].get();
    const Expr* b = cj->args[1].get();
    if (a->qualifier.empty() || b->qualifier.empty()) continue;
    // Orient: probe ref on the left (outer) side, build ref on the right.
    const Expr* probe = nullptr;
    const Expr* build = nullptr;
    if (left_q.count(a->qualifier) > 0 && right_q.count(b->qualifier) > 0) {
      probe = a;
      build = b;
    } else if (left_q.count(b->qualifier) > 0 &&
               right_q.count(a->qualifier) > 0) {
      probe = b;
      build = a;
    } else {
      continue;
    }
    LogicalPlan* scan =
        FindScanForRef(plan->children[0].get(), probe->qualifier, probe->name);
    if (scan == nullptr) continue;
    plan->rf_id = (*next_id)++;
    plan->rf_build_column = build->QualifiedName();
    scan->runtime_filters.push_back(
        LogicalPlan::ScanRuntimeFilter{plan->rf_id, probe->name});
    return;
  }
}

}  // namespace

std::vector<bool> ColumnsRead(const std::vector<std::string>& refs,
                              std::span<const std::string> cols) {
  auto base = [](std::string_view s) {
    const size_t dot = s.rfind('.');
    return dot == std::string_view::npos ? s : s.substr(dot + 1);
  };
  std::vector<bool> read(cols.size(), false);
  for (const auto& ref : refs) {
    const auto exact = std::find(cols.begin(), cols.end(), ref);
    if (exact != cols.end()) {
      read[static_cast<size_t>(exact - cols.begin())] = true;
      continue;
    }
    const std::string_view b = base(ref);
    for (size_t i = 0; i < cols.size(); ++i) {
      if (base(cols[i]) == b) read[i] = true;
    }
  }
  return read;
}

uint64_t EstimateRows(const LogicalPlan& plan, const Catalog& catalog) {
  switch (plan.kind) {
    case LogicalPlan::Kind::kScan: {
      auto table = catalog.GetTable(plan.db, plan.table);
      uint64_t rows = table.ok() ? (*table)->row_count : 1000;
      // Each pushed zone-map predicate is assumed to halve the scan.
      for (size_t i = 0; i < plan.pushed.size() && rows > 1; ++i) rows /= 2;
      return std::max<uint64_t>(rows, 1);
    }
    case LogicalPlan::Kind::kFilter:
      return std::max<uint64_t>(
          EstimateRows(*plan.children[0], catalog) / 4, 1);
    case LogicalPlan::Kind::kJoin: {
      uint64_t l = EstimateRows(*plan.children[0], catalog);
      uint64_t r = EstimateRows(*plan.children[1], catalog);
      if (plan.join_type == JoinClause::Type::kCross) return l * r;
      return std::max(l, r);
    }
    case LogicalPlan::Kind::kAggregate:
      return plan.group_exprs.empty()
                 ? 1
                 : std::max<uint64_t>(
                       EstimateRows(*plan.children[0], catalog) / 10, 1);
    case LogicalPlan::Kind::kLimit: {
      uint64_t child = EstimateRows(*plan.children[0], catalog);
      return plan.limit >= 0
                 ? std::min<uint64_t>(child, static_cast<uint64_t>(plan.limit))
                 : child;
    }
    case LogicalPlan::Kind::kMaterializedView:
      return plan.view != nullptr ? std::max<uint64_t>(plan.view->num_rows(), 1)
                                  : 1;
    default:
      return plan.children.empty()
                 ? 1
                 : EstimateRows(*plan.children[0], catalog);
  }
}

Result<PlanPtr> Optimize(PlanPtr plan, const Catalog& catalog,
                         OptimizerOptions options) {
  if (options.fold_constants) FoldPlanExprs(plan.get());
  if (options.pushdown_predicates) plan = PushdownFilters(std::move(plan));
  if (options.optimize_join_order) ReorderJoins(plan.get(), catalog);
  if (options.runtime_filters) {
    // After join reordering: the build side (children[1]) is final here.
    int next_rf_id = 0;
    PlanRuntimeFilters(plan.get(), &next_rf_id);
  }
  if (options.prune_projections) {
    std::set<std::string> used;
    CollectUsedColumns(*plan, &used);
    // If the root (or any node up to the first project) needs all columns
    // (e.g. SELECT * handled via explicit projection, so normally not),
    // we start with all_needed=false: the binder always adds a Project.
    PruneProjections(plan.get(), used, false);
    PruneJoinOutputs(plan.get(), {}, /*all=*/true, {});
  }
  return plan;
}

}  // namespace pixels
