// Shared plumbing of the end-to-end benchmark: arguments, the metric
// catalogue and report, benchmark-owned spans, result digests, summary
// statistics, and the timing Storage decorator used by traced runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "format/batch.h"
#include "storage/storage.h"

namespace e2e {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string span_out;
};

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// ru_maxrss of this process, in MB.
double PeakRssMb();

// ---------------------------------------------------------------- metrics

/// Where a metric is reported. kGated metrics are BENCHMARK.json's
/// `end_to_end` list and fill the untraced run's JSON line; kLayer metrics
/// are its `per_layer` list and fill the traced run's JSON line. kPrinted
/// metrics are end-to-end metrics of some workloads only; every run prints
/// the ones its workload has, but they stay out of the JSON line, which
/// must hold the same names on every workload.
enum class Kind { kGated, kPrinted, kLayer };

struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_is_better;
  Kind kind;
};

/// The catalogue: every metric any workload reports, in print order.
const std::vector<MetricDef>& MetricCatalogue();

/// Collected values of one run. Add() rejects names missing from the
/// catalogue so a typo cannot silently drop a gated metric.
class Report {
 public:
  void Add(const std::string& name, double value, std::string note = "");
  /// Adds 0 for every catalogue metric of `kind` not yet collected: the
  /// per-layer counts of modules a workload never calls.
  void ZeroMissing(Kind kind);

  /// Prints one human-readable line per collected metric (name, value,
  /// unit, direction, note), then the JSON result line holding every
  /// catalogue metric of `kind`. Returns false, printing no JSON line,
  /// when one of them was not collected.
  bool Emit(Kind kind, bool correct, uint64_t attempted,
            uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string note;
  };
  bool Has(const std::string& name) const;

  std::vector<Entry> entries_;
};

// ------------------------------------------------------------------ spans

/// One benchmark-owned span: a call the benchmark made into a module.
struct Span {
  const char* name;  // static string, e.g. "sql.parse"
  int64_t start_ns;
  int64_t end_ns;
  uint32_t parent;   // 1-based index of the parent span, 0 = root
  int64_t query_id;  // workload-level query id, 0 = none
};

/// In-memory span store, written out once at exit. Single-threaded: the
/// benchmark takes spans only on its driving thread. Disabled logs record
/// nothing and cost one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span; returns its 1-based id (0 when disabled).
  uint32_t Begin(const char* name, uint32_t parent = 0, int64_t query_id = 0);
  void End(uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }

  /// Mean duration (us) and count of the spans named `name` (0 when there
  /// are none).
  double MeanUs(const char* name, size_t* count = nullptr) const;
  /// Durations (us) of the spans named `name`, in start order.
  std::vector<double> DurationsUs(const char* name) const;

  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t parent = 0,
             int64_t query_id = 0)
      : log_(log), id_(log->Begin(name, parent, query_id)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

// ------------------------------------------------------------- statistics

double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);

/// The highest percentile with at least 10 samples beyond it: the value
/// at rank n-10 (1-based) of the sorted samples, and that rank as a
/// percentile. Needs more than 10 samples; returns false otherwise.
bool TailPercentile(std::vector<double> values, double* value,
                    double* percentile);

/// "p99.7069 n=3412"-style note for a tail value.
std::string TailNote(double percentile, size_t n);

// ---------------------------------------------------------------- digests

/// 64-bit digest of a query result that ignores every row order the SQL
/// leaves unspecified. Without ORDER BY the rows are compared as a
/// multiset. With ORDER BY the order of distinct sort keys counts, rows
/// tied on the sort key compare as a multiset, and under LIMIT the last
/// tie group contributes only its key and size (which of the tied rows
/// made the cut is unspecified). Rows render with RowBatch::RowToString.
/// When an ORDER BY item is not an output column, the whole row order
/// counts.
uint64_t ResultDigest(const pixels::Table& table, const std::string& sql);

/// Order-sensitive FNV-1a fold of 64-bit values.
uint64_t Fold(uint64_t digest, uint64_t value);
uint64_t FoldDouble(uint64_t digest, double value);
constexpr uint64_t kDigestSeed = 1469598103934665603ULL;

// --------------------------------------------------------- timing storage

/// Counters of the timing decorator.
struct StorageTiming {
  uint64_t read_calls = 0;
  uint64_t read_bytes = 0;
  double read_busy_ms = 0;  // wall time inside reads, summed over threads
};

/// Benchmark-owned Storage decorator that times reads. It sits innermost,
/// directly over MemoryStore, so the coordinator's decorator-stack walks
/// (ObjectStore stats, FaultInjectingStorage straggler rules) still find
/// every production layer above it. Thread-safe: CF workers read
/// concurrently.
class TimingStorage : public pixels::Storage {
 public:
  explicit TimingStorage(std::shared_ptr<pixels::Storage> inner)
      : inner_(std::move(inner)) {}

  pixels::Result<std::vector<uint8_t>> Read(const std::string& path) override;
  pixels::Result<std::vector<uint8_t>> ReadRange(const std::string& path,
                                                 uint64_t offset,
                                                 uint64_t length) override;
  /// Forwards to the inner ReadRanges so the inner store coalesces exactly
  /// as it would without this decorator.
  pixels::Result<std::vector<std::vector<uint8_t>>> ReadRanges(
      const std::string& path, const std::vector<pixels::ByteRange>& ranges,
      uint64_t coalesce_gap_bytes) override;
  pixels::Status Write(const std::string& path,
                       const std::vector<uint8_t>& data) override {
    return inner_->Write(path, data);
  }
  pixels::Result<uint64_t> Size(const std::string& path) override {
    return inner_->Size(path);
  }
  pixels::Result<std::vector<std::string>> List(
      const std::string& prefix) override {
    return inner_->List(prefix);
  }
  pixels::Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  bool Exists(const std::string& path) override {
    return inner_->Exists(path);
  }

  StorageTiming timing() const;

 private:
  void Record(int64_t start_ns, uint64_t bytes);

  std::shared_ptr<pixels::Storage> inner_;
  std::atomic<uint64_t> read_calls_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<int64_t> read_busy_ns_{0};
};

/// Ends a workload run: adds fail_ratio, writes the spans of a traced run
/// to `args.span_out`, prints the report and the JSON line (end-to-end
/// metrics untraced, per-layer metrics traced), and returns the exit code:
/// 0 only when nothing failed.
int Finish(const Args& args, const SpanLog& spans, size_t attempted,
           size_t failed, Report* report);

// -------------------------------------------------------------- workloads

/// Each workload runs in its own process, prints its metrics and the JSON
/// result line, and returns the process exit code (non-zero on any wrong
/// result or failed operation).
int RunTpchEngine(const Args& args);
int RunServedMix(const Args& args);
int RunControlPlane(const Args& args);

}  // namespace e2e
