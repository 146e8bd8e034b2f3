#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

// ---------------------------------------------------------------- metrics

namespace {

MetricDef Gated(const char* name, const char* unit, bool higher) {
  return {name, unit, higher, Kind::kGated};
}
MetricDef Printed(const char* name, const char* unit, bool higher) {
  return {name, unit, higher, Kind::kPrinted};
}
MetricDef Layer(const std::string& name, const char* unit, bool higher) {
  return {name, unit, higher, Kind::kLayer};
}

std::vector<MetricDef> BuildCatalogue() {
  std::vector<MetricDef> c = {
      Gated("setup_s", "s", false),
      Gated("qps", "1/s", true),
      Gated("peak_rss_mb", "MB", false),
      Printed("fail_ratio", "ratio", false),
      Printed("query_ms_geomean", "ms", false),
      Printed("slo_violation_ratio", "ratio", false),
  };
  for (const char* stat : {"latency_s_p50", "latency_s_tail"}) {
    for (const char* level : {"immediate", "relaxed", "best_effort"}) {
      c.push_back(
          Printed((std::string(stat) + "." + level).c_str(), "s", false));
    }
  }
  c.push_back(Printed("bill_usd_per_query", "usd", false));
  c.push_back(Printed("cost_usd_per_query", "usd", false));

  c.push_back(Layer("sql.parse_us", "us", false));
  c.push_back(Layer("plan.bind_us", "us", false));
  c.push_back(Layer("plan.optimize_us", "us", false));
  for (const char* op :
       {"scan", "filter", "project", "hash_agg", "hash_join", "sort"}) {
    c.push_back(Layer(std::string("exec.") + op + "_self_ms", "ms", false));
  }
  for (const char* q :
       {"q1_pricing_summary", "q3_shipping_priority", "q5_local_supplier",
        "q6_forecast_revenue", "q12_shipmode_priority", "q14_promo_effect",
        "q_supplier_balance", "probe_count_orders", "probe_top_customers"}) {
    c.push_back(Layer(std::string("exec.query_ms.") + q, "ms", false));
  }
  c.push_back(Layer("exec.rows_scanned", "rows/query", false));
  c.push_back(Layer("exec.filter_selectivity", "ratio", false));
  c.push_back(Layer("exec.rf_useful_ratio", "ratio", true));
  c.push_back(Layer("storage.read_calls", "count/query", false));
  c.push_back(Layer("storage.read_mb", "MB/query", false));
  c.push_back(Layer("storage.read_busy_ms", "ms/query", false));
  c.push_back(Layer("storage.cache_hit_ratio", "ratio", true));
  c.push_back(Layer("storage.get_requests", "count/query", false));
  c.push_back(Layer("storage.coalesced_gets", "count/query", true));
  c.push_back(Layer("mv.hit_ratio", "ratio", true));
  c.push_back(Layer("mv.saved_mb", "MB", true));
  c.push_back(Layer("turbo.cf_query_ratio", "ratio", false));
  c.push_back(Layer("turbo.shuffle_queries", "count", false));
  c.push_back(Layer("turbo.cf_worker_retries", "count", false));
  c.push_back(Layer("turbo.hedges_fired", "count", false));
  c.push_back(Layer("turbo.hedge_win_ratio", "ratio", true));
  c.push_back(Layer("turbo.shuffle_mb_written", "MB", false));
  c.push_back(Layer("turbo.cf_stage_wall_ms_p50", "virtual_ms", false));
  c.push_back(Layer("cloud.scale_out_events", "count", false));
  c.push_back(Layer("cloud.peak_vms", "count", false));
  c.push_back(Layer("cloud.vm_cost_usd", "usd", false));
  c.push_back(Layer("cloud.cf_cost_usd", "usd", false));
  c.push_back(Layer("server.submit_us", "us", false));
  c.push_back(Layer("server.status_batch_us", "us", false));
  c.push_back(Layer("server.open_session_us", "us", false));
  c.push_back(Layer("server.messages_per_query", "count/query", false));
  c.push_back(Layer("server.pump_max_batch", "count", false));
  c.push_back(Layer("server.preemptions", "count", false));
  c.push_back(Layer("server.recalls", "count", false));
  c.push_back(Layer("common.sim_events", "count", false));
  c.push_back(Layer("common.event_wall_us_tail", "us", false));
  c.push_back(Layer("nl2sql.translate_us", "us", false));
  c.push_back(Layer("nl2sql.translated_ratio", "ratio", true));
  c.push_back(Layer("trace.overhead_ratio", "ratio", false));
  return c;
}

const MetricDef* FindDef(const std::string& name) {
  for (const MetricDef& d : MetricCatalogue()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

/// Shortest round-trip decimal form of a double (all its digits).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<MetricDef>& MetricCatalogue() {
  static const std::vector<MetricDef> catalogue = BuildCatalogue();
  return catalogue;
}

void Report::Add(const std::string& name, double value, std::string note) {
  if (FindDef(name) == nullptr) {
    std::fprintf(stderr, "internal error: metric %s not in catalogue\n",
                 name.c_str());
    std::abort();
  }
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.note = std::move(note);
      return;
    }
  }
  entries_.push_back({name, value, std::move(note)});
}

bool Report::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

void Report::ZeroMissing(Kind kind) {
  for (const MetricDef& d : MetricCatalogue()) {
    if (d.kind == kind && !Has(d.name)) Add(d.name, 0);
  }
}

bool Report::Emit(Kind kind, bool correct, uint64_t attempted,
                  uint64_t failed) const {
  // Human-readable lines in catalogue order.
  for (const MetricDef& d : MetricCatalogue()) {
    for (const Entry& e : entries_) {
      if (e.name != d.name) continue;
      std::printf("  %-34s %16.6f %-12s (%s is better)%s%s\n", d.name.c_str(),
                  e.value, d.unit.c_str(),
                  d.higher_is_better ? "higher" : "lower",
                  e.note.empty() ? "" : "  ", e.note.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : MetricCatalogue()) {
    if (d.kind != kind) continue;
    const Entry* found = nullptr;
    for (const Entry& e : entries_) {
      if (e.name == d.name) found = &e;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "internal error: metric %s was not measured\n",
                   d.name.c_str());
      return false;
    }
    if (!first) json += ", ";
    first = false;
    json += "\"" + d.name + "\": {\"value\": " + JsonNumber(found->value) +
            ", \"unit\": \"" + d.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

int Finish(const Args& args, const SpanLog& spans, size_t attempted,
           size_t failed, Report* report) {
  report->Add("fail_ratio",
              static_cast<double>(failed) /
                  static_cast<double>(attempted > 0 ? attempted : 1));
  if (args.trace && !args.span_out.empty() &&
      !spans.WriteJsonLines(args.span_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.span_out.c_str());
    return 1;
  }
  const bool correct = failed == 0;
  if (!report->Emit(args.trace ? Kind::kLayer : Kind::kGated, correct,
                    attempted, failed)) {
    return 1;
  }
  return correct ? 0 : 1;
}

// ------------------------------------------------------------------ spans

uint32_t SpanLog::Begin(const char* name, uint32_t parent, int64_t query_id) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, NowNs(), 0, parent, query_id});
  return static_cast<uint32_t>(spans_.size());
}

void SpanLog::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = NowNs();
}

double SpanLog::MeanUs(const char* name, size_t* count) const {
  double total = 0;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) != 0) continue;
    total += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    ++n;
  }
  if (count != nullptr) *count = n;
  return n == 0 ? 0 : total / static_cast<double>(n);
}

std::vector<double> SpanLog::DurationsUs(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %u, \"query_id\": %lld}\n",
                 i + 1, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<long long>(s.query_id));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------- statistics

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

bool TailPercentile(std::vector<double> values, double* value,
                    double* percentile) {
  const size_t n = values.size();
  if (n <= 10) return false;
  std::sort(values.begin(), values.end());
  const size_t rank = n - 10;  // 1-based; exactly 10 samples lie beyond it
  *value = values[rank - 1];
  *percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return true;
}

std::string TailNote(double percentile, size_t n) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.6g n=%zu", percentile, n);
  return buf;
}

// ---------------------------------------------------------------- digests

uint64_t Fold(uint64_t digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 1099511628211ULL;
  }
  return digest;
}

uint64_t FoldDouble(uint64_t digest, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Fold(digest, bits);
}

namespace {

std::string Lower(const std::string& text) {
  std::string out(text.size(), ' ');
  std::transform(text.begin(), text.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

uint64_t FoldString(uint64_t digest, const std::string& text) {
  for (unsigned char ch : text) {
    digest ^= ch;
    digest *= 1099511628211ULL;
  }
  return Fold(digest, text.size());
}

std::vector<std::string> SplitTabs(const std::string& row) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t tab = row.find('\t', start);
    out.push_back(row.substr(start, tab - start));
    if (tab == std::string::npos) return out;
    start = tab + 1;
  }
}

/// Output-column indices of the ORDER BY items, or empty when there is no
/// ORDER BY or an item is not a plain output column.
std::vector<size_t> SortColumns(const std::string& sql,
                                const std::vector<std::string>& columns,
                                bool* has_order_by, bool* has_limit) {
  const std::string lower = Lower(sql);
  const size_t order = lower.rfind("order by");
  *has_order_by = order != std::string::npos;
  *has_limit = lower.find(" limit ") != std::string::npos;
  std::vector<size_t> keys;
  if (!*has_order_by) return keys;
  size_t end = lower.find(" limit ", order);
  if (end == std::string::npos) end = lower.size();
  std::string items = lower.substr(order + 8, end - order - 8);
  size_t start = 0;
  while (start <= items.size()) {
    size_t comma = items.find(',', start);
    if (comma == std::string::npos) comma = items.size();
    std::string item = items.substr(start, comma - start);
    start = comma + 1;
    // "n.n_name desc" -> "n_name"
    const size_t first = item.find_first_not_of(' ');
    if (first == std::string::npos) return {};
    item = item.substr(first, item.find(' ', first) - first);
    const size_t dot = item.rfind('.');
    const std::string bare = dot == std::string::npos ? item : item.substr(dot + 1);
    bool found = false;
    for (size_t c = 0; c < columns.size(); ++c) {
      const std::string name = Lower(columns[c]);
      if (name == item || name == bare) {
        keys.push_back(c);
        found = true;
        break;
      }
    }
    if (!found) return {};
  }
  return keys;
}

}  // namespace

uint64_t ResultDigest(const pixels::Table& table, const std::string& sql) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (const auto& batch : table.batches()) {
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      rows.push_back(batch->RowToString(r));
    }
  }
  bool has_order_by = false;
  bool has_limit = false;
  const std::vector<size_t> keys =
      SortColumns(sql, table.ColumnNames(), &has_order_by, &has_limit);
  uint64_t digest = Fold(kDigestSeed, rows.size());
  if (!has_order_by) {
    std::sort(rows.begin(), rows.end());
    for (const std::string& row : rows) digest = FoldString(digest, row);
    return digest;
  }
  if (keys.empty()) {
    for (const std::string& row : rows) digest = FoldString(digest, row);
    return digest;
  }
  // Walk groups of consecutive rows tied on the sort key.
  size_t begin = 0;
  while (begin < rows.size()) {
    const std::vector<std::string> first = SplitTabs(rows[begin]);
    std::string key;
    for (size_t k : keys) key += (k < first.size() ? first[k] : "") + '\t';
    size_t end = begin + 1;
    while (end < rows.size()) {
      const std::vector<std::string> cells = SplitTabs(rows[end]);
      std::string next;
      for (size_t k : keys) next += (k < cells.size() ? cells[k] : "") + '\t';
      if (next != key) break;
      ++end;
    }
    digest = FoldString(digest, key);
    digest = Fold(digest, end - begin);
    if (!(has_limit && end == rows.size())) {
      std::vector<std::string> group(rows.begin() + begin, rows.begin() + end);
      std::sort(group.begin(), group.end());
      for (const std::string& row : group) digest = FoldString(digest, row);
    }
    begin = end;
  }
  return digest;
}

// --------------------------------------------------------- timing storage

void TimingStorage::Record(int64_t start_ns, uint64_t bytes) {
  read_busy_ns_.fetch_add(NowNs() - start_ns, std::memory_order_relaxed);
  read_calls_.fetch_add(1, std::memory_order_relaxed);
  read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

pixels::Result<std::vector<uint8_t>> TimingStorage::Read(
    const std::string& path) {
  const int64_t start = NowNs();
  auto out = inner_->Read(path);
  Record(start, out.ok() ? out->size() : 0);
  return out;
}

pixels::Result<std::vector<uint8_t>> TimingStorage::ReadRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  const int64_t start = NowNs();
  auto out = inner_->ReadRange(path, offset, length);
  Record(start, out.ok() ? out->size() : 0);
  return out;
}

pixels::Result<std::vector<std::vector<uint8_t>>> TimingStorage::ReadRanges(
    const std::string& path, const std::vector<pixels::ByteRange>& ranges,
    uint64_t coalesce_gap_bytes) {
  const int64_t start = NowNs();
  auto out = inner_->ReadRanges(path, ranges, coalesce_gap_bytes);
  uint64_t bytes = 0;
  if (out.ok()) {
    for (const auto& buf : *out) bytes += buf.size();
  }
  Record(start, bytes);
  return out;
}

StorageTiming TimingStorage::timing() const {
  StorageTiming t;
  t.read_calls = read_calls_.load(std::memory_order_relaxed);
  t.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  t.read_busy_ms =
      static_cast<double>(read_busy_ns_.load(std::memory_order_relaxed)) / 1e6;
  return t;
}

}  // namespace e2e
