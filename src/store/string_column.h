// Domain-encoded, usage-instrumented string column of the read-optimized
// store.
//
// Every dictionary access is counted, which is exactly the trace the
// compression manager consumes: the paper's offline prototype instruments
// the store, runs a representative workload, and feeds the counts into the
// format decision at the next rebuild. The counts live in the column's one
// usage record — its workload-profiler slot (obs/workload_profiler.h) —
// which VersionedStringColumn points every version of a table column at.
// Because all dictionary formats are order-preserving, the dictionary can
// be rebuilt in a different format without touching the column vector.
#ifndef ADICT_STORE_STRING_COLUMN_H_
#define ADICT_STORE_STRING_COLUMN_H_

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tradeoff.h"
#include "dict/dictionary.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "store/column_memo.h"
#include "store/column_vector.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace adict {

/// Domain encoding: sorted distinct values plus one value ID per row.
struct DomainEncoded {
  std::vector<std::string> dictionary;  // sorted, distinct
  std::vector<uint32_t> ids;            // per row, index into dictionary
};

/// Domain-encodes a raw value column.
DomainEncoded DomainEncode(std::span<const std::string> values);

class StringColumn {
 public:
  /// Empty placeholder column (no dictionary); assign a built column before
  /// using any accessor.
  StringColumn() = default;

  // Move-only (the dictionary is uniquely owned).
  StringColumn(StringColumn&&) noexcept = default;
  StringColumn& operator=(StringColumn&&) noexcept = default;

  /// Builds from raw row values with an explicit dictionary format.
  static StringColumn FromValues(std::span<const std::string> values,
                                 DictFormat format = DictFormat::kFcInline);

  /// Builds from pre-encoded parts (used by merge).
  static StringColumn FromEncoded(DomainEncoded encoded, DictFormat format);

  /// Assembles a column from an already-built dictionary and per-row value
  /// IDs (used by the guarded merge path, which builds — and possibly
  /// falls back — the dictionary before committing the column).
  static StringColumn FromParts(std::unique_ptr<Dictionary> dict,
                                std::span<const uint32_t> ids);

  /// Same, reusing an already-packed column vector. Because every format is
  /// order-preserving, a dictionary-only rebuild (format change under
  /// memory pressure) keeps the value IDs bit-identical — the rebuilder
  /// copies the packed words instead of decoding and re-packing the rows.
  /// `vector` must have been packed against a dictionary with the same
  /// entries as `dict`.
  static StringColumn FromParts(std::unique_ptr<Dictionary> dict,
                                ColumnVector vector);

  /// Value of `row` (counted as one extract).
  std::string GetValue(uint64_t row) const {
    obs::ScopedColumnOp op(heat_, obs::ColumnOp::kExtract);
    std::string value = dict_->Extract(vector_.Get(row));
    op.AddBytes(value.size());
    return value;
  }

  /// Appends the value of `row` to `out` (counted as one extract).
  void GetValueInto(uint64_t row, std::string* out) const {
    obs::ScopedColumnOp op(heat_, obs::ColumnOp::kExtract);
    const size_t before = out->size();
    dict_->ExtractInto(vector_.Get(row), out);
    op.AddBytes(out->size() - before);
  }

  /// Value ID of `row` (pure vector access, no dictionary cost).
  uint32_t GetValueId(uint64_t row) const { return vector_.Get(row); }

  /// Dictionary lookup (counted as one locate).
  LocateResult Locate(std::string_view value) const {
    obs::ScopedColumnOp op(heat_, obs::ColumnOp::kLocate);
    op.AddBytes(value.size());
    return dict_->Locate(value);
  }

  /// Extracts the dictionary entry for a value ID (counted as one extract).
  std::string ExtractId(uint32_t id) const {
    obs::ScopedColumnOp op(heat_, obs::ColumnOp::kExtract);
    std::string value = dict_->Extract(id);
    op.AddBytes(value.size());
    return value;
  }

  /// Sequentially scans dictionary entries [first, first + count) through
  /// one dictionary cursor, calling `fn(id, value)` (counted as `count`
  /// scans).
  template <typename Fn>
  void ScanDictionary(uint32_t first, uint32_t count, Fn&& fn) const {
    ADICT_TRACE_SPAN("column.scan_dictionary");
    obs::ScopedColumnOp op(heat_, obs::ColumnOp::kScan, count);
    op.AddBytes(DictionaryShare(count));
    dict_->Scan(first, count, fn);
  }

  /// Counts `entries` dictionary entries that the caller read through its
  /// own cursor as scans. The join merge reads two dictionaries in one
  /// loop, so neither read has a latency of its own: no latency sample.
  void RecordCursorScan(uint64_t entries) const {
    if (heat_ == nullptr) return;
    heat_->RecordOp(obs::ColumnOp::kScan, entries,
                    obs::Enabled() ? DictionaryShare(entries) : 0);
  }

  /// Records a vector-driver scan over `rows` rows, timed until the
  /// returned scope ends, with the proportional share of the packed vector
  /// as its bytes. Row scans compare packed value IDs without touching the
  /// dictionary, so they add heat but not TracedUsage.
  [[nodiscard]] obs::ScopedColumnOp RecordRowScan(uint64_t rows) const {
    return obs::ScopedColumnOp(
        heat_, obs::ColumnOp::kRowScan, rows, obs::OpTiming::kAuto,
        num_rows() == 0 ? 0 : VectorBytes() * rows / num_rows());
  }

  uint64_t num_rows() const { return vector_.size(); }
  uint32_t num_distinct() const { return dict_->size(); }
  const Dictionary& dictionary() const { return *dict_; }
  const ColumnVector& vector() const { return vector_; }
  DictFormat format() const { return dict_->format(); }

  /// Decompresses the full dictionary back into sorted distinct values
  /// (used at merge / format-change time, when reconstruction happens
  /// anyway). Not counted as extracts.
  std::vector<std::string> MaterializeDictionary() const;

  /// Dictionary, column vector and the memo's derived structures.
  size_t MemoryBytes() const {
    return DictionaryBytes() + VectorBytes() + MemoBytes();
  }
  size_t DictionaryBytes() const { return dict_->MemoryBytes(); }
  size_t VectorBytes() const { return vector_.MemoryBytes(); }
  /// Bytes of the join maps and ID index built into this version's memo.
  size_t MemoBytes() const {
    return memo_ == nullptr ? 0 : memo_->MemoryBytes();
  }

  /// This column with its dictionary rebuilt in `format`. Value IDs are
  /// stable across formats (all formats are order-preserving), so the
  /// column vector is copied as-is.
  StringColumn WithFormat(DictFormat format) const;

  /// Persistence: compressed dictionary + bit-packed vector, no re-encoding
  /// on load. Usage counters are not persisted (they describe one dictionary
  /// lifetime). Deserialize fails (never aborts) on a corrupt or truncated
  /// dictionary image.
  void Serialize(ByteWriter* out) const;
  static StatusOr<StringColumn> Deserialize(ByteReader* in);

  /// The usage trace since the column's last publish or ResetUsage():
  /// extract calls, locate calls and dictionary entries scanned, read from
  /// the column's usage record. Zero for a column never published into a
  /// VersionedStringColumn. The lifetime and column vector size fields are
  /// filled in.
  ColumnUsage TracedUsage(double lifetime_seconds) const {
    ColumnUsage usage;
    if (heat_ != nullptr) {
      usage.num_extracts = heat_->WindowCount(obs::ColumnOp::kExtract);
      usage.num_locates = heat_->WindowCount(obs::ColumnOp::kLocate);
      usage.num_scans = heat_->WindowCount(obs::ColumnOp::kScan);
    }
    usage.lifetime_seconds = lifetime_seconds;
    usage.column_vector_bytes = VectorBytes();
    return usage;
  }

  /// The column's usage record (its workload-profiler slot), or null for
  /// a column that was never published into a VersionedStringColumn.
  obs::ColumnHeat* heat() const { return heat_; }

  /// The epoch this version was published at (0: initial or unpublished).
  uint64_t epoch() const { return epoch_; }

  /// The memo of structures derived from this version (engine/join.h reads
  /// it), or null for a column that was never published.
  ColumnMemo* memo() const { return memo_.get(); }

 private:
  // Bytes touched by reading `entries` entries, approximated from the
  // compressed dictionary size: summing entry lengths would tax every entry.
  uint64_t DictionaryShare(uint64_t entries) const {
    return num_distinct() == 0 ? 0
                               : DictionaryBytes() * entries / num_distinct();
  }

  friend class VersionedStringColumn;  // binds and stamps each version

  std::unique_ptr<Dictionary> dict_;
  ColumnVector vector_;
  // Set only by VersionedStringColumn, before the version is shared; the
  // record is internally synchronized, so const accessors may record
  // through it concurrently.
  obs::ColumnHeat* heat_ = nullptr;
  uint64_t epoch_ = 0;
  // Set only by VersionedStringColumn, with heat_; internally synchronized.
  std::unique_ptr<ColumnMemo> memo_;
};

/// Versioned holder of one read-optimized column: the snapshot-read side of
/// the delta-merge protocol (docs/parallelism.md).
///
/// Readers call Snapshot() — a brief lock to copy the shared_ptr — and then
/// scan their version without any further synchronization; a concurrent
/// merge builds the next version entirely off-lock (MergeDelta /
/// MergeDeltaAdaptive are pure functions of the old column) and Publish()es
/// it with a pointer swap. Readers therefore never block a merge and a
/// merge never blocks readers; a superseded version stays alive exactly
/// until its last snapshot holder drops it (shared_ptr refcount). A pin is
/// the only way to read a version, and it carries its version's epoch.
class VersionedStringColumn {
 public:
  /// Publish's `expected_epoch` for an unconditional commit.
  static constexpr uint64_t kAnyEpoch = std::numeric_limits<uint64_t>::max();

  /// `usage` is the column's usage record (Table passes the profiler slot
  /// named "table.column"): every version of the column records into it.
  VersionedStringColumn(StringColumn column, obs::ColumnHeat& usage)
      : usage_(usage), current_(Bind(std::move(column))) {
    usage_.RestartWindow();
  }

  VersionedStringColumn(const VersionedStringColumn&) = delete;
  VersionedStringColumn& operator=(const VersionedStringColumn&) = delete;

  /// The current version, pinned: holds the version alive across any number
  /// of later Publish() calls.
  std::shared_ptr<const StringColumn> Snapshot() const
      ADICT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return current_;
  }

  /// Replaces the current version with `next`, stamped with the next epoch, if
  /// the current version's epoch still equals `expected_epoch` (kAnyEpoch: always).
  /// Returns false — and discards `next` — when the version moved on. The guard is
  /// the optimistic-concurrency primitive for writers whose input is a pin (the
  /// recompression scheduler passes its pin's epoch()): a delta merge that races a
  /// pressure rebuild must never be overwritten by a column built from the
  /// pre-merge snapshot. `next` is fully built by the caller, so the lock is held
  /// only for the epoch check, the stamp and the pointer exchange.
  bool Publish(StringColumn next, uint64_t expected_epoch)
      ADICT_EXCLUDES(mutex_) {
    std::shared_ptr<StringColumn> version = Bind(std::move(next));
    uint64_t epoch;
    {
      MutexLock lock(&mutex_);
      const uint64_t published = current_->epoch();
      if (expected_epoch != kAnyEpoch && published != expected_epoch) return false;
      epoch = published + 1;
      version->epoch_ = epoch;  // before the version is shared
      current_ = std::move(version);
      usage_.RestartWindow();
    }
    if (obs::Enabled()) {
      static obs::Counter* publishes = obs::Metrics().GetCounter(
          "store.snapshot.publish", "versions",
          "column versions published by delta merges, format changes and "
          "pressure rebuilds");
      static obs::Gauge* epoch_gauge = obs::Metrics().GetGauge(
          "store.snapshot.epoch", "epoch",
          "version epoch of the most recently published column");
      publishes->Increment();
      epoch_gauge->Set(static_cast<double>(epoch));
    }
    return true;
  }

  /// A format change: publishes the current version rebuilt in `format`, guarded by
  /// its epoch (a version published meanwhile wins).
  void PublishFormat(DictFormat format) ADICT_EXCLUDES(mutex_) {
    const std::shared_ptr<const StringColumn> pin = Snapshot();
    if (pin->format() != format) Publish(pin->WithFormat(format), pin->epoch());
  }

  /// The current version's epoch: versions published since construction.
  uint64_t epoch() const ADICT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return current_->epoch();
  }

  /// Restarts the usage window (the start of a traced workload).
  void ResetUsage() { usage_.RestartWindow(); }

 private:
  // Points a new version at the usage record and gives it an empty memo.
  // Installing the version restarts the record's usage window, so
  // TracedUsage counts from zero for every version.
  std::shared_ptr<StringColumn> Bind(StringColumn column) const {
    auto version = std::make_shared<StringColumn>(std::move(column));
    version->heat_ = &usage_;
    version->memo_ = std::make_unique<ColumnMemo>();
    return version;
  }

  obs::ColumnHeat& usage_;
  mutable Mutex mutex_{LockRank::kColumnVersion,
                       "VersionedStringColumn.mutex_"};
  std::shared_ptr<const StringColumn> current_ ADICT_GUARDED_BY(mutex_);
};

}  // namespace adict

#endif  // ADICT_STORE_STRING_COLUMN_H_
