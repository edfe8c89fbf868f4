// Structured trace of the compression manager's format decisions, plus
// cumulative prediction-accuracy accounting.
//
// Every ChooseFormat call appends one DecisionRecord: which column, what the
// sampled properties looked like, every candidate's predicted (size,
// rel_time) point, which format won, and the global trade-off parameter c at
// that moment. When the dictionary is actually built, the real size is
// patched into the record, so the paper's size-model accuracy claim (<8%
// relative error for most predictions, Figure 6) is measured continuously in
// production paths, not only in the offline benchmark.
//
// The log is a bounded ring: old entries are evicted, but the accuracy
// accounting is cumulative and survives eviction. Formats are stored as
// (id, name) pairs resolved by the caller, which keeps this layer free of
// any dependency above util.
#ifndef ADICT_OBS_DECISION_LOG_H_
#define ADICT_OBS_DECISION_LOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace adict {
namespace obs {

/// One dictionary format's predicted position on the decision plane.
struct DecisionCandidate {
  int format_id = -1;       // DictFormat enum value
  std::string format_name;  // paper-style name, e.g. "fc block rp 12"
  /// Predicted dictionary size + column vector size (the size axis the
  /// selection strategies compare against the dividing line).
  double predicted_size_bytes = 0;
  /// Lifetime-normalized runtime spent in the dictionary (the time axis).
  double rel_time = 0;
};

/// One step of the guarded build's degradation chain: the decided (or
/// previous fallback) format failed to build or validate, and the rebuild
/// moved on to the next, safer format (docs/robustness.md).
struct FallbackEvent {
  int from_format_id = -1;
  std::string from_format_name;
  int to_format_id = -1;
  std::string to_format_name;
  std::string reason;  // Status::ToString() of the failure
};

/// One ChooseFormat call, from sampled input to (eventually) built output.
struct DecisionRecord {
  uint64_t sequence = 0;  // assigned by DecisionLog::Push, starts at 1
  std::string column_id;  // caller-supplied; may be empty

  // Digest of the sampled properties the models consumed.
  uint64_t num_strings = 0;
  double raw_chars = 0;
  double entropy0 = 0;        // order-0 entropy of the sample, bits/char
  double sampled_fraction = 1.0;

  // Traced usage fed into the time model.
  uint64_t num_extracts = 0;
  uint64_t num_locates = 0;
  uint64_t num_scans = 0;
  double lifetime_seconds = 0;
  uint64_t column_vector_bytes = 0;

  // The decision.
  std::vector<DecisionCandidate> candidates;
  int chosen_format_id = -1;
  std::string chosen_format_name;
  /// Predicted size of the chosen *dictionary alone* (candidate size minus
  /// the column vector), comparable to Dictionary::MemoryBytes().
  double predicted_dict_bytes = 0;
  double c = 0;          // global trade-off parameter at decision time
  std::string strategy;  // selection strategy name ("const"/"rel"/"tilt")
  double alpha = 0;      // derived configuration parameter of the strategy

  // The outcome, patched in by RecordActual* once the dictionary is built.
  double actual_dict_bytes = -1;  // < 0: not (yet) built

  // Degradation steps taken before the build committed (empty in the normal
  // case where the chosen format built and validated first try). The format
  // actually built is the last event's to_format_id, or the chosen format
  // when no fallback happened.
  std::vector<FallbackEvent> fallbacks;

  bool has_actual() const { return actual_dict_bytes >= 0; }
  /// The paper's relative prediction error |real - predicted| / real
  /// (Figure 6). Only meaningful when has_actual().
  double prediction_error() const {
    if (!has_actual() || actual_dict_bytes <= 0) return 0;
    const double diff = actual_dict_bytes - predicted_dict_bytes;
    return (diff < 0 ? -diff : diff) / actual_dict_bytes;
  }
};

/// Cumulative predicted-vs-actual accounting over all decisions whose
/// dictionary was built, independent of ring eviction.
struct PredictionAccuracy {
  uint64_t num_predictions = 0;  // decisions with a recorded actual size
  double sum_abs_rel_error = 0;
  double max_abs_rel_error = 0;
  uint64_t within_8pct = 0;  // the paper's Figure-6 yardstick

  double mean_abs_rel_error() const {
    return num_predictions == 0
               ? 0.0
               : sum_abs_rel_error / static_cast<double>(num_predictions);
  }
  double within_8pct_fraction() const {
    return num_predictions == 0
               ? 0.0
               : static_cast<double>(within_8pct) /
                     static_cast<double>(num_predictions);
  }
};

/// Bounded, thread-safe ring buffer of decision records.
class DecisionLog {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit DecisionLog(size_t capacity = kDefaultCapacity);

  /// Appends `record`, assigning and returning its sequence number. Evicts
  /// the oldest entry when full.
  uint64_t Push(DecisionRecord record) ADICT_EXCLUDES(mutex_);

  /// Patches the actual built size into the record with `sequence` and
  /// updates the accuracy accounting. Returns false if the record was
  /// already evicted or already has an actual size.
  bool RecordActual(uint64_t sequence, double actual_dict_bytes)
      ADICT_EXCLUDES(mutex_);

  /// Same, addressing the *newest* record for `column_id` that has no
  /// actual size yet (for callers that rebuild by name, not by sequence).
  bool RecordActualForColumn(std::string_view column_id,
                             double actual_dict_bytes) ADICT_EXCLUDES(mutex_);

  /// Appends a degradation step to the record with `sequence`. Returns
  /// false if the record was already evicted.
  bool RecordFallback(uint64_t sequence, FallbackEvent event)
      ADICT_EXCLUDES(mutex_);

  /// Copies the current contents, oldest first.
  std::vector<DecisionRecord> Snapshot() const ADICT_EXCLUDES(mutex_);

  PredictionAccuracy accuracy() const ADICT_EXCLUDES(mutex_);

  size_t capacity() const { return capacity_; }
  size_t size() const ADICT_EXCLUDES(mutex_);
  uint64_t total_pushed() const ADICT_EXCLUDES(mutex_);
  uint64_t evicted() const ADICT_EXCLUDES(mutex_);

  /// Drops all records and zeroes the accounting. For tests.
  void Clear() ADICT_EXCLUDES(mutex_);

 private:
  const size_t capacity_;
  mutable Mutex mutex_{LockRank::kDecisionLog, "DecisionLog.mutex_"};
  std::deque<DecisionRecord> ring_ ADICT_GUARDED_BY(mutex_);  // oldest first
  uint64_t next_sequence_ ADICT_GUARDED_BY(mutex_) = 1;
  uint64_t evicted_ ADICT_GUARDED_BY(mutex_) = 0;
  PredictionAccuracy accuracy_ ADICT_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace adict

#endif  // ADICT_OBS_DECISION_LOG_H_
