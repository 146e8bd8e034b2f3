#include "exec/executor.h"

#include <cctype>

#include "common/trace.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/operators.h"
#include "exec/profile.h"
#include "exec/sort.h"
#include "mv/mv_store.h"
#include "plan/binder.h"
#include "plan/fingerprint.h"
#include "plan/optimizer.h"

namespace pixels {

namespace {

Result<OperatorPtr> BuildOperatorNode(const PlanPtr& plan, ExecContext* ctx) {
  switch (plan->kind) {
    case LogicalPlan::Kind::kScan:
      return OperatorPtr(new ScanOperator(*plan, ctx));
    case LogicalPlan::Kind::kFilter: {
      PIXELS_ASSIGN_OR_RETURN(OperatorPtr child,
                              BuildOperator(plan->children[0], ctx));
      return OperatorPtr(new FilterOperator(std::move(child), *plan->predicate));
    }
    case LogicalPlan::Kind::kProject: {
      PIXELS_ASSIGN_OR_RETURN(OperatorPtr child,
                              BuildOperator(plan->children[0], ctx));
      return OperatorPtr(
          new ProjectOperator(std::move(child), plan->exprs, plan->names));
    }
    case LogicalPlan::Kind::kJoin: {
      PIXELS_ASSIGN_OR_RETURN(OperatorPtr left,
                              BuildOperator(plan->children[0], ctx));
      PIXELS_ASSIGN_OR_RETURN(OperatorPtr right,
                              BuildOperator(plan->children[1], ctx));
      return OperatorPtr(new HashJoinOperator(std::move(left),
                                              std::move(right), *plan, ctx));
    }
    case LogicalPlan::Kind::kAggregate: {
      PIXELS_ASSIGN_OR_RETURN(OperatorPtr child,
                              BuildOperator(plan->children[0], ctx));
      return OperatorPtr(new HashAggOperator(std::move(child), *plan, ctx));
    }
    case LogicalPlan::Kind::kSort: {
      PIXELS_ASSIGN_OR_RETURN(OperatorPtr child,
                              BuildOperator(plan->children[0], ctx));
      return OperatorPtr(new SortOperator(std::move(child), *plan));
    }
    case LogicalPlan::Kind::kLimit: {
      PIXELS_ASSIGN_OR_RETURN(OperatorPtr child,
                              BuildOperator(plan->children[0], ctx));
      return OperatorPtr(new LimitOperator(std::move(child), plan->limit));
    }
    case LogicalPlan::Kind::kDistinct: {
      PIXELS_ASSIGN_OR_RETURN(OperatorPtr child,
                              BuildOperator(plan->children[0], ctx));
      return OperatorPtr(new DistinctOperator(std::move(child)));
    }
    case LogicalPlan::Kind::kMaterializedView:
      return OperatorPtr(new ViewOperator(*plan));
  }
  return Status::Internal("unknown plan node kind");
}

std::string ProfileNodeName(const LogicalPlan& plan) {
  switch (plan.kind) {
    case LogicalPlan::Kind::kScan:
      return "Scan(" + plan.db + "." + plan.table + ")";
    case LogicalPlan::Kind::kFilter:
      return "Filter";
    case LogicalPlan::Kind::kProject:
      return "Project";
    case LogicalPlan::Kind::kJoin:
      return "HashJoin";
    case LogicalPlan::Kind::kAggregate:
      return "HashAgg";
    case LogicalPlan::Kind::kSort:
      return "Sort";
    case LogicalPlan::Kind::kLimit:
      return "Limit";
    case LogicalPlan::Kind::kDistinct:
      return "Distinct";
    case LogicalPlan::Kind::kMaterializedView:
      return "MaterializedView";
  }
  return "?";
}

}  // namespace

Result<OperatorPtr> BuildOperator(const PlanPtr& plan, ExecContext* ctx) {
  if (ctx->profile == nullptr) return BuildOperatorNode(plan, ctx);
  // Scans attribute I/O: their measured deltas partition the context's
  // bytes_scanned, so per-operator bytes sum exactly to the query total.
  const bool measures_io = plan->kind == LogicalPlan::Kind::kScan;
  OperatorProfile* node = ctx->profile->AddNode(
      ProfileNodeName(*plan), ctx->profile_parent, measures_io);
  OperatorProfile* saved = ctx->profile_parent;
  ctx->profile_parent = node;
  Result<OperatorPtr> child = BuildOperatorNode(plan, ctx);
  ctx->profile_parent = saved;
  if (!child.ok()) return child;
  return OperatorPtr(
      new ProfilingOperator(std::move(*child), node, ctx));
}

Result<TablePtr> ExecutePlan(const PlanPtr& plan, ExecContext* ctx) {
  PIXELS_ASSIGN_OR_RETURN(OperatorPtr root, BuildOperator(plan, ctx));
  PIXELS_RETURN_NOT_OK(root->Open());
  auto table = std::make_shared<Table>();
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch in, root->Next());
    if (in.batch == nullptr) break;
    RowBatchPtr batch = in.Materialize();
    if (batch->num_rows() > 0 || table->batches().empty()) {
      table->AddBatch(std::move(batch));
    }
  }
  root->Close();
  return table;
}

namespace {

/// Matches one leading keyword (case-insensitive, whole word); on match
/// `*rest` receives everything after it.
bool ConsumeKeyword(const std::string& sql, const char* keyword,
                    std::string* rest) {
  size_t i = 0;
  while (i < sql.size() && std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  size_t j = 0;
  while (keyword[j] != '\0' && i + j < sql.size() &&
         std::tolower(static_cast<unsigned char>(sql[i + j])) == keyword[j]) {
    ++j;
  }
  if (keyword[j] != '\0') return false;
  if (i + j < sql.size() &&
      (std::isalnum(static_cast<unsigned char>(sql[i + j])) ||
       sql[i + j] == '_')) {
    return false;  // prefix of a longer identifier
  }
  if (rest != nullptr) *rest = sql.substr(i + j);
  return true;
}

/// Renders multi-line text as the one-column "plan" table EXPLAIN-style
/// statements return.
TablePtr TextAsPlanTable(const std::string& text) {
  auto table = std::make_shared<Table>();
  auto batch = std::make_shared<RowBatch>();
  auto col = MakeVector(TypeId::kString);
  // One row per line keeps the output readable in clients.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    col->AppendString(text.substr(start, end - start));
    start = end + 1;
  }
  batch->AddColumn("plan", std::move(col));
  table->AddBatch(std::move(batch));
  return table;
}

/// The non-EXPLAIN execution path: plan, optimize, consult the MV store,
/// execute. Emits plan/mv-lookup spans when the context carries a tracer.
Result<TablePtr> ExecuteSelect(const std::string& sql, const std::string& db,
                               ExecContext* ctx) {
  Tracer* tracer =
      ctx->tracer != nullptr && ctx->tracer->enabled() ? ctx->tracer : nullptr;

  uint64_t plan_span = 0;
  if (tracer != nullptr) {
    plan_span = tracer->StartSpan("plan", ctx->trace_parent);
  }
  auto planned = PlanQuery(sql, *ctx->catalog, db);
  Result<PlanPtr> optimized =
      planned.ok() ? Optimize(std::move(planned).ValueOrDie(), *ctx->catalog)
                   : std::move(planned);
  if (tracer != nullptr) {
    if (!optimized.ok()) {
      tracer->Annotate(plan_span, "error", optimized.status().ToString());
    }
    tracer->EndSpan(plan_span);
  }
  PIXELS_ASSIGN_OR_RETURN(PlanPtr plan, std::move(optimized));

  if (ctx->mv_store == nullptr) return ExecutePlan(plan, ctx);

  // Full-query MV reuse: planning above touched only catalog metadata, so
  // a hit answers the query with zero storage requests and zero scanned
  // bytes. Plans that cannot be fingerprinted just execute normally.
  auto fp = FingerprintPlan(*plan);
  if (fp.ok()) {
    uint64_t mv_span = 0;
    if (tracer != nullptr) {
      mv_span = tracer->StartSpan("mv-lookup", ctx->trace_parent);
      tracer->Annotate(mv_span, "granularity", "full-query");
    }
    auto hit = ctx->mv_store->Lookup(*fp, *ctx->catalog);
    if (tracer != nullptr) {
      tracer->Annotate(mv_span, "hit", hit ? "true" : "false");
      if (hit) {
        tracer->Annotate(mv_span, "saved_bytes", hit->saved_scan_bytes);
      }
      tracer->EndSpan(mv_span);
    }
    if (hit) {
      ctx->mv_hits.fetch_add(1, std::memory_order_relaxed);
      ctx->mv_saved_bytes.fetch_add(hit->saved_scan_bytes,
                                    std::memory_order_relaxed);
      return hit->table;
    }
  }
  // Pins MUST be snapshotted before execution: the scan resolves its file
  // list at Open(), i.e. at or after this point, so any catalog mutation
  // that could have changed what the scan read also bumps a version past
  // the snapshot and the stored entry conservatively fails validation.
  // (Collected after execution, a mutation landing mid-query would stamp
  // a stale result with the new epoch — a silently poisoned cache.)
  auto pins = fp.ok() ? CollectTableVersionPins(*plan, *ctx->catalog)
                      : Result<std::vector<TableVersionPin>>(fp.status());
  const uint64_t scanned_before = ctx->bytes_scanned.load();
  PIXELS_ASSIGN_OR_RETURN(TablePtr table, ExecutePlan(plan, ctx));
  if (fp.ok() && pins.ok()) {
    // Rebuild cost = what this execution scanned.
    ctx->mv_store->Insert(*fp, table,
                          ctx->bytes_scanned.load() - scanned_before,
                          std::move(*pins));
  }
  return table;
}

}  // namespace

bool IsExplainStatement(const std::string& sql, std::string* inner) {
  return ConsumeKeyword(sql, "explain", inner);
}

Result<std::string> ExplainQuery(const std::string& sql, const std::string& db,
                                 const Catalog& catalog) {
  std::string inner = sql;
  IsExplainStatement(sql, &inner);
  PIXELS_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(inner, catalog, db));
  PIXELS_ASSIGN_OR_RETURN(plan, Optimize(std::move(plan), catalog));
  return plan->ToString();
}

Result<TablePtr> ExecuteQuery(const std::string& sql, const std::string& db,
                              ExecContext* ctx) {
  std::string inner;
  if (IsExplainStatement(sql, &inner)) {
    std::string select;
    if (ConsumeKeyword(inner, "analyze", &select)) {
      // EXPLAIN ANALYZE executes the query with every operator profiled
      // and returns the rolled-up report instead of the result rows. The
      // context's billing counters fill exactly as a plain execution
      // would — the report is a view over them, not a different path.
      QueryProfile profile;
      QueryProfile* saved_profile = ctx->profile;
      OperatorProfile* saved_parent = ctx->profile_parent;
      ctx->profile = &profile;
      ctx->profile_parent = nullptr;
      Result<TablePtr> executed = ExecuteSelect(select, db, ctx);
      ctx->profile = saved_profile;
      ctx->profile_parent = saved_parent;
      PIXELS_RETURN_NOT_OK(executed.status());
      return TextAsPlanTable(profile.ToText());
    }
    PIXELS_ASSIGN_OR_RETURN(std::string text,
                            ExplainQuery(inner, db, *ctx->catalog));
    return TextAsPlanTable(text);
  }
  return ExecuteSelect(sql, db, ctx);
}

}  // namespace pixels
