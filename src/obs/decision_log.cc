#include "obs/decision_log.h"

#include <algorithm>

#include "util/check.h"

namespace adict {
namespace obs {

DecisionLog::DecisionLog(size_t capacity) : capacity_(capacity) {
  ADICT_CHECK(capacity_ > 0);
}

uint64_t DecisionLog::Push(DecisionRecord record) {
  MutexLock lock(&mutex_);
  record.sequence = next_sequence_++;
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++evicted_;
  }
  ring_.push_back(std::move(record));
  return ring_.back().sequence;
}

bool DecisionLog::RecordActual(uint64_t sequence, double actual_dict_bytes) {
  MutexLock lock(&mutex_);
  // Sequences are dense and ascending: the record's position, if still in
  // the ring, is its distance from the front entry's sequence.
  if (ring_.empty() || sequence < ring_.front().sequence ||
      sequence > ring_.back().sequence) {
    return false;
  }
  DecisionRecord& record = ring_[sequence - ring_.front().sequence];
  if (record.has_actual()) return false;
  record.actual_dict_bytes = actual_dict_bytes;
  const double error = record.prediction_error();
  ++accuracy_.num_predictions;
  accuracy_.sum_abs_rel_error += error;
  accuracy_.max_abs_rel_error = std::max(accuracy_.max_abs_rel_error, error);
  if (error <= 0.08) ++accuracy_.within_8pct;
  return true;
}

bool DecisionLog::RecordFallback(uint64_t sequence, FallbackEvent event) {
  MutexLock lock(&mutex_);
  if (ring_.empty() || sequence < ring_.front().sequence ||
      sequence > ring_.back().sequence) {
    return false;
  }
  ring_[sequence - ring_.front().sequence].fallbacks.push_back(
      std::move(event));
  return true;
}

std::vector<DecisionRecord> DecisionLog::Snapshot() const {
  MutexLock lock(&mutex_);
  return {ring_.begin(), ring_.end()};
}

PredictionAccuracy DecisionLog::accuracy() const {
  MutexLock lock(&mutex_);
  return accuracy_;
}

size_t DecisionLog::size() const {
  MutexLock lock(&mutex_);
  return ring_.size();
}

uint64_t DecisionLog::total_pushed() const {
  MutexLock lock(&mutex_);
  return next_sequence_ - 1;
}

uint64_t DecisionLog::evicted() const {
  MutexLock lock(&mutex_);
  return evicted_;
}

void DecisionLog::Clear() {
  MutexLock lock(&mutex_);
  ring_.clear();
  next_sequence_ = 1;
  evicted_ = 0;
  accuracy_ = PredictionAccuracy{};
}

}  // namespace obs
}  // namespace adict
