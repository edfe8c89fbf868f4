// Seeded single-tuple request streams (kExtract row -> value, kLocate
// value -> id) over string columns, with answers computed in-process from
// plain copies of the columns before any timed phase.
#ifndef ADICT_PERFBENCH_POINT_OPS_H_
#define ADICT_PERFBENCH_POINT_OPS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "load_gen.h"
#include "store/table.h"

namespace perfbench {

/// One served string column, pinned at the version the answers describe.
struct ServedColumn {
  std::string table;
  std::string column;
  std::shared_ptr<const adict::StringColumn> snapshot;
};

/// Every string column of `tables`, in table then column order.
std::vector<ServedColumn> ServeColumns(
    const std::vector<const adict::Table*>& tables);

/// One request. `rank` is a Zipf draw; `row` and `id` are its mapping onto
/// the pinned column (`id` is the answer's value ID for both kinds).
struct PointOp {
  uint32_t column = 0;
  bool locate = false;
  uint64_t rank = 0;
  uint32_t row = 0;
  uint32_t id = 0;
};

/// `count` requests, half extracts and half locates, column uniform,
/// rows and values Zipf-skewed (s = 1) through a seeded hash, so the hot
/// set is scattered over the column.
std::vector<PointOp> MakePointOps(const std::vector<ServedColumn>& columns,
                                  uint64_t seed, size_t count);

/// Seeded position of Zipf rank `rank` in a population of `n`.
uint64_t RankToIndex(uint64_t rank, uint64_t salt, uint64_t n);

/// The string each op extracts or locates, from SortedValues (a sequential
/// Dictionary::Scan), so the expected answers do not come from the
/// random-access ExtractInto/Locate paths the server answers with.
std::vector<std::string> OpValues(const std::vector<ServedColumn>& columns,
                                  const std::vector<PointOp>& ops);

/// Pre-encoded requests with pre-serialized expected answers, cycled in
/// order; the read-only serving workload's source.
class FixedSource : public RequestSource {
 public:
  /// `values`: OpValues(columns, ops).
  FixedSource(const std::vector<ServedColumn>& columns,
              const std::vector<PointOp>& ops,
              const std::vector<std::string>& values, bool plant_wrong_answer);
  void Encode(uint64_t seq, std::vector<uint8_t>* out) override;
  bool Check(uint64_t seq, std::span<const uint8_t> payload) override;
  size_t size() const { return frame_offsets_.size() - 1; }

 private:
  std::vector<uint8_t> frames_;
  std::vector<size_t> frame_offsets_;
  std::vector<uint8_t> answers_;
  std::vector<size_t> answer_offsets_;
};

/// Serialized results the server returns for the two request kinds.
std::vector<uint8_t> ExtractAnswer(const std::string& value);
std::vector<uint8_t> LocateAnswer(uint32_t id);

/// Reads against columns that a writer appends to and republishes. A
/// request only names rows published before it is sent; a locate answer
/// may come from any version published between send and answer.
class IngestSource : public RequestSource {
 public:
  /// `row_values[c]`: every row column `c` will hold once all `versions`
  /// are published (initial rows, then the appended batches);
  /// `version_dicts[c][v]`: its sorted distinct values at version v.
  IngestSource(const std::vector<ServedColumn>& columns,
               std::vector<PointOp> ops,
               std::vector<std::vector<std::string>> row_values,
               const std::vector<std::vector<std::vector<std::string>>>&
                   version_dicts,
               bool plant_wrong_answer);

  /// Writer side: column `c` now serves `rows` rows at its next version.
  void Published(size_t c, uint64_t rows);

  void Encode(uint64_t seq, std::vector<uint8_t>* out) override;
  bool Check(uint64_t seq, std::span<const uint8_t> payload) override;

 private:
  struct Sent {
    uint32_t column = 0;
    bool locate = false;
    uint64_t row_or_id = 0;
    uint64_t version = 0;
  };
  /// Requests in flight are tracked by sequence number modulo this; far
  /// more than the open loop ever has outstanding.
  static constexpr size_t kRing = 1 << 16;

  std::vector<std::string> table_, column_;
  std::vector<PointOp> ops_;
  std::vector<std::vector<std::string>> row_values_;
  std::vector<std::vector<std::string>> dict0_;
  /// locate_ids_[c][v][id0]: ID of version-0 entry id0 at version v.
  std::vector<std::vector<std::vector<uint32_t>>> locate_ids_;
  std::unique_ptr<std::atomic<uint64_t>[]> published_rows_;
  std::unique_ptr<std::atomic<uint64_t>[]> versions_;
  std::vector<Sent> sent_;
};

}  // namespace perfbench

#endif  // ADICT_PERFBENCH_POINT_OPS_H_
