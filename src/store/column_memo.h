// Read-only structures derived from one published column version: its
// id -> rows index and, per partner version, the value-ID map of a join
// onto that partner. Every input of these structures is immutable once the
// version is published, so each is built once, on first use, and lives
// exactly as long as the version (docs/parallelism.md).
#ifndef ADICT_STORE_COLUMN_MEMO_H_
#define ADICT_STORE_COLUMN_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace adict {

class StringColumn;

/// Marker for "probe value not present in build dictionary".
inline constexpr uint32_t kNoMatch = std::numeric_limits<uint32_t>::max();

/// id -> rows index over a domain-encoded column (build side of a join).
class IdIndex {
 public:
  explicit IdIndex(const StringColumn& column);

  /// Rows whose value has the given ID.
  std::span<const uint32_t> Rows(uint32_t id) const {
    if (id >= num_ids_) return {};
    return std::span<const uint32_t>(rows_.data() + offsets_[id],
                                     offsets_[id + 1] - offsets_[id]);
  }

  /// The single row for a unique (key) column; kNoMatch if absent.
  uint32_t UniqueRow(uint32_t id) const {
    const std::span<const uint32_t> rows = Rows(id);
    return rows.empty() ? kNoMatch : rows[0];
  }

  size_t MemoryBytes() const {
    return (offsets_.capacity() + rows_.capacity()) * sizeof(uint32_t);
  }

 private:
  uint32_t num_ids_;
  std::vector<uint32_t> offsets_;  // num_ids_ + 1
  std::vector<uint32_t> rows_;
};

/// The memo of one published version (VersionedStringColumn creates it
/// with the version, which frees it). A lookup finds or inserts its slot
/// under the memo's mutex, then builds through the slot's once-flag with no
/// lock held: a build records usage and opens spans, which take obs-stratum
/// locks, and racing callers wait for the one build instead of repeating
/// it. A map refers to its partner only through the partner memo's
/// retirement flag, so the memo never keeps another version alive; a map
/// whose partner is gone is dropped at the next map lookup.
class ColumnMemo {
 public:
  ColumnMemo() = default;
  ~ColumnMemo() { retired_->store(true, std::memory_order_release); }
  ColumnMemo(const ColumnMemo&) = delete;
  ColumnMemo& operator=(const ColumnMemo&) = delete;

  /// The owning version's IdIndex; `column` must be that version.
  const IdIndex& Index(const StringColumn& column) ADICT_EXCLUDES(mutex_);

  /// The owning version's value-ID map onto the version that owns `to`,
  /// made by `build` on the first call for that version.
  const std::vector<uint32_t>& Map(
      const ColumnMemo& to,
      const std::function<std::vector<uint32_t>()>& build)
      ADICT_EXCLUDES(mutex_);

  /// Bytes of the structures built so far.
  size_t MemoryBytes() const ADICT_EXCLUDES(mutex_);
  /// Structures held: the index once built, plus one map per partner.
  size_t size() const ADICT_EXCLUDES(mutex_);

 private:
  struct MapSlot {
    // The partner memo's retired_: the slot's key, and set once the
    // partner is gone. Holding it keeps nothing of the partner alive.
    std::shared_ptr<const std::atomic<bool>> to_retired;
    std::once_flag built;
    std::vector<uint32_t> map;
    size_t bytes = 0;  // set under mutex_ once `map` is built
  };

  // Counts one lookup as built or reused. Called with no lock held.
  static void RecordLookup(bool built);

  // Set when the version is destroyed. The thread that destroys a version
  // is the last of its holders, so a memo that loads the flag (acquire)
  // before it frees its map onto the version frees it after every reader.
  // A std::weak_ptr's expired() would not do: it is a relaxed load.
  const std::shared_ptr<std::atomic<bool>> retired_ =
      std::make_shared<std::atomic<bool>>(false);
  mutable Mutex mutex_{LockRank::kColumnMemo, "ColumnMemo.mutex_"};
  std::once_flag index_built_;
  std::optional<IdIndex> index_;  // written once, inside index_built_
  bool index_held_ ADICT_GUARDED_BY(mutex_) = false;
  size_t index_bytes_ ADICT_GUARDED_BY(mutex_) = 0;
  // Slots are heap-allocated: a caller keeps its slot across the unlocked
  // build while other lookups insert or drop slots.
  std::vector<std::unique_ptr<MapSlot>> maps_ ADICT_GUARDED_BY(mutex_);
};

}  // namespace adict

#endif  // ADICT_STORE_COLUMN_MEMO_H_
