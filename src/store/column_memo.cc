#include "store/column_memo.h"

#include "obs/obs.h"
#include "store/string_column.h"

namespace adict {

IdIndex::IdIndex(const StringColumn& column)
    : num_ids_(column.num_distinct()) {
  const uint64_t n = column.num_rows();
  // Both passes are serial: the scatter must land rows in ascending order
  // within each ID bucket, and a serial count beats an atomic histogram at
  // every key-column size the TPC-H plans index.
  offsets_.assign(num_ids_ + 1, 0);
  for (uint64_t row = 0; row < n; ++row) {
    ++offsets_[column.GetValueId(row) + 1];
  }
  for (uint32_t id = 0; id < num_ids_; ++id) {
    offsets_[id + 1] += offsets_[id];
  }
  rows_.resize(n);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (uint64_t row = 0; row < n; ++row) {
    rows_[cursor[column.GetValueId(row)]++] = static_cast<uint32_t>(row);
  }
}

void ColumnMemo::RecordLookup(bool built) {
  if (!obs::Enabled()) return;
  static obs::Counter* built_counter = obs::Metrics().GetCounter(
      "store.memo.built", "structures",
      "join maps and ID indexes built into a column version's memo");
  static obs::Counter* reused_counter = obs::Metrics().GetCounter(
      "store.memo.reused", "structures",
      "join map and ID index lookups answered from a column version's memo");
  (built ? built_counter : reused_counter)->Increment();
}

const IdIndex& ColumnMemo::Index(const StringColumn& column) {
  bool built = false;
  std::call_once(index_built_, [&] {
    index_.emplace(column);
    built = true;
    MutexLock lock(&mutex_);
    index_held_ = true;
    index_bytes_ = index_->MemoryBytes();
  });
  RecordLookup(built);
  return *index_;
}

const std::vector<uint32_t>& ColumnMemo::Map(
    const ColumnMemo& to,
    const std::function<std::vector<uint32_t>()>& build) {
  MapSlot* slot = nullptr;
  {
    MutexLock lock(&mutex_);
    // A partner version that no longer exists is never asked for again.
    std::erase_if(maps_, [](const std::unique_ptr<MapSlot>& s) {
      return s->to_retired->load(std::memory_order_acquire);
    });
    for (const std::unique_ptr<MapSlot>& s : maps_) {
      if (s->to_retired == to.retired_) {
        slot = s.get();
        break;
      }
    }
    if (slot == nullptr) {
      maps_.push_back(std::make_unique<MapSlot>());
      slot = maps_.back().get();
      slot->to_retired = to.retired_;
    }
  }
  bool built = false;
  std::call_once(slot->built, [&] {
    slot->map = build();
    built = true;
    MutexLock lock(&mutex_);
    slot->bytes = slot->map.capacity() * sizeof(uint32_t);
  });
  RecordLookup(built);
  return slot->map;
}

size_t ColumnMemo::MemoryBytes() const {
  MutexLock lock(&mutex_);
  size_t bytes = index_bytes_;
  for (const std::unique_ptr<MapSlot>& slot : maps_) bytes += slot->bytes;
  return bytes;
}

size_t ColumnMemo::size() const {
  MutexLock lock(&mutex_);
  return (index_held_ ? 1 : 0) + maps_.size();
}

}  // namespace adict
