#include "plan/fingerprint.h"

#include <algorithm>

#include "plan/optimizer.h"

namespace pixels {

namespace {

// Two independent FNV-1a streams; both must collide for a key collision.
constexpr uint64_t kFnvOffset1 = 14695981039346656037ULL;
constexpr uint64_t kFnvOffset2 = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(const std::string& text, uint64_t h) {
  for (unsigned char c : text) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

std::string Hex16(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// True for operators where (a op b) == (b op a).
bool IsCommutative(const std::string& op) {
  return op == "+" || op == "*" || op == "=" || op == "<>" || op == "AND" ||
         op == "OR";
}

std::string JoinSorted(std::vector<std::string> parts, const char* sep) {
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace

std::string PlanFingerprint::ToHex() const { return Hex16(hi) + Hex16(lo); }

std::string CanonicalExprText(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral: {
      // The kind tag keeps 1 and '1' distinct even if their renderings
      // matched. Short literals embed verbatim, length-prefixed so the
      // bytes are self-delimiting and cannot impersonate surrounding
      // grammar; only long constants are hashed, and then with both FNV
      // streams so a single 64-bit collision cannot merge two keys.
      std::string payload;
      payload += static_cast<char>('0' + static_cast<int>(expr.literal.kind));
      payload += expr.literal.ToString();
      if (payload.size() <= 64) {
        return "lit{" + std::to_string(payload.size()) + ":" + payload + "}";
      }
      return "lit#" + Hex16(Fnv1a(payload, kFnvOffset1)) +
             Hex16(Fnv1a(payload, kFnvOffset2));
    }
    case Expr::Kind::kColumnRef:
      return "col:" + expr.QualifiedName();
    case Expr::Kind::kStar:
      return "*";
    case Expr::Kind::kUnary:
      return expr.op + "(" + CanonicalExprText(*expr.args[0]) + ")";
    case Expr::Kind::kBinary: {
      std::string a = CanonicalExprText(*expr.args[0]);
      std::string b = CanonicalExprText(*expr.args[1]);
      std::string op = expr.op;
      // (a > b) and (b < a) are the same predicate: normalize every
      // greater-than comparison to its flipped less-than form.
      if (op == ">" || op == ">=") {
        op = op == ">" ? "<" : "<=";
        std::swap(a, b);
      }
      if (IsCommutative(op) && b < a) std::swap(a, b);
      return "(" + a + " " + op + " " + b + ")";
    }
    case Expr::Kind::kFunction: {
      std::string s = expr.name;
      if (expr.distinct) s += " distinct";
      s += "(";
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) s += ",";
        s += CanonicalExprText(*expr.args[i]);
      }
      return s + ")";
    }
    case Expr::Kind::kBetween:
      return "(" + CanonicalExprText(*expr.args[0]) +
             (expr.negated ? " not" : "") + " between " +
             CanonicalExprText(*expr.args[1]) + " and " +
             CanonicalExprText(*expr.args[2]) + ")";
    case Expr::Kind::kInList: {
      // IN-list membership is order-insensitive.
      std::vector<std::string> items;
      for (size_t i = 1; i < expr.args.size(); ++i) {
        items.push_back(CanonicalExprText(*expr.args[i]));
      }
      return "(" + CanonicalExprText(*expr.args[0]) +
             (expr.negated ? " not" : "") + " in [" +
             JoinSorted(std::move(items), ",") + "])";
    }
    case Expr::Kind::kIsNull:
      return "(" + CanonicalExprText(*expr.args[0]) + " is" +
             (expr.negated ? " not" : "") + " null)";
    case Expr::Kind::kCase: {
      std::string s = "case(";
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) s += ",";
        s += CanonicalExprText(*expr.args[i]);
      }
      return s + (expr.has_else ? ",else" : "") + ")";
    }
  }
  return "?";
}

Result<std::string> CanonicalPlanText(const LogicalPlan& plan) {
  switch (plan.kind) {
    case LogicalPlan::Kind::kScan: {
      std::string s = "scan(" + plan.db + "." + plan.table;
      const std::string& alias =
          plan.table_alias.empty() ? plan.table : plan.table_alias;
      s += " as " + alias;
      // Projection order is irrelevant — downstream operators resolve
      // columns by name — so it is sorted out of the key.
      s += "|cols=[" + JoinSorted(plan.columns, ",") + "]";
      std::vector<std::string> preds;
      for (const auto& p : plan.pushed) {
        preds.push_back(p.column + " " + p.op + " " +
                        CanonicalExprText(*MakeLiteral(p.literal)));
      }
      s += "|pred=[" + JoinSorted(std::move(preds), ";") + "]";
      // The CF partitioner restricts workers to file subsets; partitions
      // must never share a key with each other or with the full scan.
      if (!plan.file_subset.empty()) {
        s += "|files=[" + JoinSorted(plan.file_subset, ",") + "]";
      }
      return s + ")";
    }
    case LogicalPlan::Kind::kFilter: {
      PIXELS_ASSIGN_OR_RETURN(std::string child,
                              CanonicalPlanText(*plan.children[0]));
      // AND-conjunct order is commutative: sort the canonical conjuncts.
      std::vector<std::string> parts;
      for (const auto& c : SplitConjuncts(*plan.predicate)) {
        parts.push_back(CanonicalExprText(*c));
      }
      return "filter{" + JoinSorted(std::move(parts), ";") + "}(" + child +
             ")";
    }
    case LogicalPlan::Kind::kProject: {
      PIXELS_ASSIGN_OR_RETURN(std::string child,
                              CanonicalPlanText(*plan.children[0]));
      // Output columns are addressed by name, so (name, expr) pairs are
      // sorted: SELECT a, b and SELECT b, a share a key.
      std::vector<std::string> parts;
      for (size_t i = 0; i < plan.exprs.size(); ++i) {
        parts.push_back(plan.names[i] + "=" +
                        CanonicalExprText(*plan.exprs[i]));
      }
      return "project{" + JoinSorted(std::move(parts), ";") + "}(" + child +
             ")";
    }
    case LogicalPlan::Kind::kJoin: {
      PIXELS_ASSIGN_OR_RETURN(std::string left,
                              CanonicalPlanText(*plan.children[0]));
      PIXELS_ASSIGN_OR_RETURN(std::string right,
                              CanonicalPlanText(*plan.children[1]));
      std::string s = "join:";
      s += plan.join_type == JoinClause::Type::kLeft
               ? "left"
               : (plan.join_type == JoinClause::Type::kCross ? "cross"
                                                             : "inner");
      if (plan.join_condition != nullptr) {
        s += "{" + CanonicalExprText(*plan.join_condition) + "}";
      }
      // A join pruned to fewer output columns is a different result set
      // (a sub-plan MV for {a} cannot answer a query reading {a, b}).
      if (!plan.columns.empty()) {
        s += "|cols=[" + JoinSorted(plan.columns, ",") + "]";
      }
      return s + "(" + left + ")(" + right + ")";
    }
    case LogicalPlan::Kind::kAggregate: {
      PIXELS_ASSIGN_OR_RETURN(std::string child,
                              CanonicalPlanText(*plan.children[0]));
      std::vector<std::string> groups;
      for (size_t i = 0; i < plan.group_exprs.size(); ++i) {
        groups.push_back(plan.group_names[i] + "=" +
                         CanonicalExprText(*plan.group_exprs[i]));
      }
      std::vector<std::string> aggs;
      for (size_t i = 0; i < plan.agg_exprs.size(); ++i) {
        aggs.push_back(plan.agg_names[i] + "=" +
                       CanonicalExprText(*plan.agg_exprs[i]));
      }
      std::string s = "agg";
      if (plan.partial) s += ":partial";
      if (plan.merge_partials) s += ":merge";
      return s + "{" + JoinSorted(std::move(groups), ";") + "}{" +
             JoinSorted(std::move(aggs), ";") + "}(" + child + ")";
    }
    case LogicalPlan::Kind::kSort: {
      PIXELS_ASSIGN_OR_RETURN(std::string child,
                              CanonicalPlanText(*plan.children[0]));
      // Sort-key order is significant (primary vs secondary key).
      std::string s = "sort{";
      for (size_t i = 0; i < plan.order_by.size(); ++i) {
        if (i > 0) s += ",";
        s += CanonicalExprText(*plan.order_by[i].expr);
        s += plan.order_by[i].ascending ? " asc" : " desc";
      }
      return s + "}(" + child + ")";
    }
    case LogicalPlan::Kind::kLimit: {
      PIXELS_ASSIGN_OR_RETURN(std::string child,
                              CanonicalPlanText(*plan.children[0]));
      return "limit:" + std::to_string(plan.limit) + "(" + child + ")";
    }
    case LogicalPlan::Kind::kDistinct: {
      PIXELS_ASSIGN_OR_RETURN(std::string child,
                              CanonicalPlanText(*plan.children[0]));
      return "distinct(" + child + ")";
    }
    case LogicalPlan::Kind::kMaterializedView:
      return Status::InvalidArgument(
          "plan with an inlined materialized view is not fingerprintable");
  }
  return Status::Internal("unknown plan node kind");
}

Result<PlanFingerprint> FingerprintPlan(const LogicalPlan& plan) {
  PIXELS_ASSIGN_OR_RETURN(std::string text, CanonicalPlanText(plan));
  PlanFingerprint fp;
  fp.hi = Fnv1a(text, kFnvOffset1);
  fp.lo = Fnv1a(text, kFnvOffset2);
  return fp;
}

namespace {

Status CollectPins(const LogicalPlan& plan, const Catalog& catalog,
                   std::vector<TableVersionPin>* out) {
  if (plan.kind == LogicalPlan::Kind::kScan) {
    PIXELS_ASSIGN_OR_RETURN(uint64_t version,
                            catalog.GetTableVersion(plan.db, plan.table));
    out->push_back(TableVersionPin{plan.db, plan.table, version});
  }
  for (const auto& c : plan.children) {
    PIXELS_RETURN_NOT_OK(CollectPins(*c, catalog, out));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<TableVersionPin>> CollectTableVersionPins(
    const LogicalPlan& plan, const Catalog& catalog) {
  std::vector<TableVersionPin> pins;
  PIXELS_RETURN_NOT_OK(CollectPins(plan, catalog, &pins));
  std::sort(pins.begin(), pins.end(),
            [](const TableVersionPin& a, const TableVersionPin& b) {
              if (a.db != b.db) return a.db < b.db;
              if (a.table != b.table) return a.table < b.table;
              return a.version < b.version;
            });
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  return pins;
}

}  // namespace pixels
