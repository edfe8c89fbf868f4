#include "obs/workload_profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <utility>

#include "obs/export.h"

namespace adict {
namespace obs {
namespace {

// Seconds on the steady clock since the first call (the profiler epoch);
// decay math works on this scale, never on wall time.
double SteadySeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

// fetch_add on atomic<double> is C++20 but not yet universal; CAS instead
// (same pattern as Histogram::Observe).
void AtomicAddDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string_view ColumnOpName(ColumnOp op) {
  switch (op) {
    case ColumnOp::kExtract:
      return "extract";
    case ColumnOp::kLocate:
      return "locate";
    case ColumnOp::kScan:
      return "scan";
    case ColumnOp::kMerge:
      return "merge";
    case ColumnOp::kRowScan:
      return "row_scan";
  }
  return "?";
}

ColumnHeat::ColumnHeat(std::string name)
    : name_(std::move(name)),
      // Dynamic gauge name: the "profiler.heat." literal prefix is the
      // registration the docs' parameterized `profiler.heat.<column>` row
      // refers to.
      heat_gauge_(Metrics().GetGauge(std::string("profiler.heat.") + name_,
                                     "ops",
                                     "time-decayed operation heat of one "
                                     "column (refreshed at scrape time)")),
      latency_{Histogram(DefaultLatencyBucketsUs()),
               Histogram(DefaultLatencyBucketsUs()),
               Histogram(DefaultLatencyBucketsUs()),
               Histogram(DefaultLatencyBucketsUs()),
               Histogram(DefaultLatencyBucketsUs())} {
  MutexLock lock(&decay_mutex_);
  last_fold_seconds_ = SteadySeconds();
}

void ColumnHeat::RecordLatency(ColumnOp op, double us,
                               uint64_t represented_ops) {
  const auto i = static_cast<size_t>(op);
  latency_[i].Observe(us);
  AtomicAddDouble(&total_us_[i], us * static_cast<double>(represented_ops));
}

ColumnHeat::OpTotals ColumnHeat::Totals(ColumnOp op) const {
  const auto i = static_cast<size_t>(op);
  OpTotals totals;
  totals.count = counts_[i].load(std::memory_order_relaxed);
  totals.bytes = bytes_[i].load(std::memory_order_relaxed);
  totals.total_us = total_us_[i].load(std::memory_order_relaxed);
  return totals;
}

uint64_t ColumnHeat::TotalOps() const {
  uint64_t total = 0;
  for (const auto& count : counts_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ColumnHeat::WindowCount(ColumnOp op) const {
  const auto i = static_cast<size_t>(op);
  const uint64_t base = window_base_[i].load(std::memory_order_acquire);
  const uint64_t count = counts_[i].load(std::memory_order_relaxed);
  return count > base ? count - base : 0;
}

void ColumnHeat::RestartWindow() {
  for (size_t i = 0; i < counts_.size(); ++i) {
    window_base_[i].store(counts_[i].load(std::memory_order_relaxed),
                          std::memory_order_release);
  }
}

double ColumnHeat::FoldLocked(double now_seconds,
                              double extra_age_seconds) const {
  const double half_life = Profiler().half_life_seconds();
  const double dt =
      std::max(0.0, now_seconds - last_fold_seconds_) + extra_age_seconds;
  if (dt > 0 && half_life > 0) {
    heat_ *= std::exp2(-dt / half_life);
  }
  const uint64_t total = TotalOps();
  heat_ += static_cast<double>(total - folded_ops_);
  folded_ops_ = total;
  last_fold_seconds_ = now_seconds;
  heat_gauge_->Set(heat_);
  return heat_;
}

double ColumnHeat::DecayedHeat() const {
  MutexLock lock(&decay_mutex_);
  return FoldLocked(SteadySeconds(), 0.0);
}

void ColumnHeat::DecayForTest(double seconds) {
  MutexLock lock(&decay_mutex_);
  // Fold pending ops at full weight first, then age the folded heat: the
  // documented "as if `seconds` passed from now on" semantics. A single
  // fold would decay only previously-folded heat and let pending ops ride
  // through untouched.
  FoldLocked(SteadySeconds(), 0.0);
  FoldLocked(SteadySeconds(), seconds);
}

void ColumnHeat::ResetValues() {
  for (auto& count : counts_) count.store(0, std::memory_order_relaxed);
  for (auto& bytes : bytes_) bytes.store(0, std::memory_order_relaxed);
  for (auto& base : window_base_) base.store(0, std::memory_order_release);
  for (auto& us : total_us_) us.store(0, std::memory_order_relaxed);
  for (auto& histogram : latency_) histogram.Reset();
  MutexLock lock(&decay_mutex_);
  heat_ = 0;
  folded_ops_ = 0;
  last_fold_seconds_ = SteadySeconds();
  heat_gauge_->Set(0);
}

ColumnHeat* WorkloadProfiler::GetColumn(std::string_view name) {
  MutexLock lock(&mutex_);
  const auto it = columns_.find(name);
  if (it != columns_.end()) return &it->second;
  return &columns_
              .emplace(std::piecewise_construct,
                       std::forward_as_tuple(std::string(name)),
                       std::forward_as_tuple(std::string(name)))
              .first->second;
}

std::vector<const ColumnHeat*> WorkloadProfiler::Columns() const {
  MutexLock lock(&mutex_);
  std::vector<const ColumnHeat*> columns;
  columns.reserve(columns_.size());
  for (const auto& [name, slot] : columns_) columns.push_back(&slot);
  return columns;  // std::map iterates in name order
}

std::vector<ColumnHeat*> WorkloadProfiler::MutableColumns() {
  MutexLock lock(&mutex_);
  std::vector<ColumnHeat*> columns;
  columns.reserve(columns_.size());
  for (auto& [name, slot] : columns_) columns.push_back(&slot);
  return columns;
}

void WorkloadProfiler::RefreshScrapeMetrics() {
  static Counter* extracts = Metrics().GetCounter(
      "dict.extract.count", "calls",
      "dictionary extract calls, summed over the column usage records");
  static Counter* locates = Metrics().GetCounter(
      "dict.locate.count", "calls",
      "dictionary locate calls, summed over the column usage records");
  static Counter* scanned = Metrics().GetCounter(
      "dict.scan.entries", "entries",
      "entries read via dictionary scans, summed over the column usage "
      "records");
  uint64_t extract_sum = 0, locate_sum = 0, scan_sum = 0;
  for (ColumnHeat* slot : MutableColumns()) {
    (void)slot->DecayedHeat();  // folds and publishes the slot's gauge
    extract_sum += slot->Totals(ColumnOp::kExtract).count;
    locate_sum += slot->Totals(ColumnOp::kLocate).count;
    scan_sum += slot->Totals(ColumnOp::kScan).count;
  }
  extracts->Set(extract_sum);
  locates->Set(locate_sum);
  scanned->Set(scan_sum);
}

void WorkloadProfiler::RecordQuery(QueryAttribution record) {
  MutexLock lock(&mutex_);
  ++total_queries_;
  queries_.push_back(std::move(record));
  while (queries_.size() > kQueryRingCapacity) queries_.pop_front();
}

std::vector<QueryAttribution> WorkloadProfiler::RecentQueries() const {
  MutexLock lock(&mutex_);
  return {queries_.begin(), queries_.end()};
}

uint64_t WorkloadProfiler::total_queries() const {
  MutexLock lock(&mutex_);
  return total_queries_;
}

void WorkloadProfiler::RecordSchedulerRanking(
    std::vector<SchedulerRankEntry> ranking) {
  MutexLock lock(&mutex_);
  ranking_ = std::move(ranking);
}

std::vector<SchedulerRankEntry> WorkloadProfiler::LatestSchedulerRanking()
    const {
  MutexLock lock(&mutex_);
  return ranking_;
}

void WorkloadProfiler::ResetValues() {
  for (ColumnHeat* slot : MutableColumns()) slot->ResetValues();
  MutexLock lock(&mutex_);
  queries_.clear();
  total_queries_ = 0;
  ranking_.clear();
}

WorkloadProfiler& Profiler() {
  static WorkloadProfiler* profiler = new WorkloadProfiler();
  return *profiler;
}

ScopedQueryProfile::ScopedQueryProfile(std::string_view query)
    : query_(query) {
  if (!Enabled()) return;
  active_ = true;
  for (ColumnHeat* slot : Profiler().MutableColumns()) {
    SlotSnapshot snapshot;
    snapshot.slot = slot;
    for (int op = 0; op < kNumColumnOps; ++op) {
      snapshot.ops[op] = slot->Totals(static_cast<ColumnOp>(op));
    }
    before_.push_back(snapshot);
  }
  start_ = std::chrono::steady_clock::now();
}

ScopedQueryProfile::~ScopedQueryProfile() {
  if (!active_) return;
  QueryAttribution record;
  record.query = query_;
  record.wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  // Slots created after the constructor ran have a zero baseline; walk the
  // current slot list and look each one up in the snapshot.
  for (ColumnHeat* slot : Profiler().MutableColumns()) {
    const SlotSnapshot* base = nullptr;
    for (const SlotSnapshot& snapshot : before_) {
      if (snapshot.slot == slot) {
        base = &snapshot;
        break;
      }
    }
    QueryColumnUsage usage;
    usage.column = slot->name();
    bool touched = false;
    for (int op = 0; op < kNumColumnOps; ++op) {
      ColumnHeat::OpTotals now = slot->Totals(static_cast<ColumnOp>(op));
      if (base != nullptr) {
        now.count -= base->ops[op].count;
        now.bytes -= base->ops[op].bytes;
        now.total_us -= base->ops[op].total_us;
      }
      usage.ops[op] = now;
      touched = touched || now.count != 0;
    }
    if (touched) record.columns.push_back(std::move(usage));
  }
  if (Enabled()) {
    static Counter* queries = Metrics().GetCounter(
        "profiler.queries.count", "queries",
        "queries attributed by the workload profiler");
    queries->Increment();
  }
  Profiler().RecordQuery(std::move(record));
}

std::string ProfileToJson(const WorkloadProfiler& profiler) {
  std::string out;
  Appendf(&out, "{\"half_life_seconds\":%.6g,\"columns\":[",
          profiler.half_life_seconds());
  bool first = true;
  for (const ColumnHeat* slot : profiler.Columns()) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, slot->name());
    Appendf(&out, ",\"heat\":%.6g,\"ops\":{", slot->DecayedHeat());
    for (int op = 0; op < kNumColumnOps; ++op) {
      if (op > 0) out.push_back(',');
      const auto which = static_cast<ColumnOp>(op);
      const ColumnHeat::OpTotals totals = slot->Totals(which);
      const Histogram& latency = slot->latency(which);
      AppendJsonString(&out, ColumnOpName(which));
      Appendf(&out,
              ":{\"count\":%" PRIu64 ",\"bytes\":%" PRIu64
              ",\"total_us\":%.6g,\"p50_us\":%.6g,\"p95_us\":%.6g"
              ",\"p99_us\":%.6g}",
              totals.count, totals.bytes, totals.total_us,
              latency.Quantile(0.50), latency.Quantile(0.95),
              latency.Quantile(0.99));
    }
    out.append("}}");
  }
  Appendf(&out, "],\"total_queries\":%" PRIu64 ",\"queries\":[",
          profiler.total_queries());
  first = true;
  for (const QueryAttribution& query : profiler.RecentQueries()) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"query\":");
    AppendJsonString(&out, query.query);
    Appendf(&out, ",\"wall_us\":%.6g,\"columns\":[", query.wall_us);
    for (size_t i = 0; i < query.columns.size(); ++i) {
      if (i > 0) out.push_back(',');
      const QueryColumnUsage& usage = query.columns[i];
      out.append("{\"name\":");
      AppendJsonString(&out, usage.column);
      for (int op = 0; op < kNumColumnOps; ++op) {
        const auto which = static_cast<ColumnOp>(op);
        if (usage.ops[op].count == 0) continue;
        Appendf(&out, ",\"%s\":{\"count\":%" PRIu64 ",\"bytes\":%" PRIu64
                      ",\"total_us\":%.6g}",
                std::string(ColumnOpName(which)).c_str(), usage.ops[op].count,
                usage.ops[op].bytes, usage.ops[op].total_us);
      }
      out.push_back('}');
    }
    out.append("]}");
  }
  out.append("],\"scheduler_ranking\":[");
  first = true;
  for (const SchedulerRankEntry& entry : profiler.LatestSchedulerRanking()) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"column\":");
    AppendJsonString(&out, entry.column);
    Appendf(&out,
            ",\"score\":%.6g,\"decayed_heat\":%.6g,\"dict_bytes\":%" PRIu64
            ",\"staleness\":%.6g}",
            entry.score, entry.decayed_heat, entry.dict_bytes,
            entry.staleness);
  }
  out.append("]}");
  return out;
}

}  // namespace obs
}  // namespace adict
