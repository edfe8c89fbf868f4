#include "point_ops.h"

#include <algorithm>
#include <cstring>

#include "bench.h"
#include "server/protocol.h"
#include "util/rng.h"
#include "util/zipf.h"

using namespace adict;

namespace perfbench {

namespace {

/// Zipf population; ranks beyond a column's size wrap around it.
constexpr uint64_t kZipfRanks = 1 << 20;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Request MakeRequest(const std::string& table, const std::string& column,
                    bool locate, uint64_t row, const std::string& value) {
  Request request;
  request.kind = locate ? QueryKind::kLocate : QueryKind::kExtract;
  request.table = table;
  request.column = column;
  if (locate) {
    request.value = value;
  } else {
    request.row = row;
  }
  return request;
}

void AppendFrame(const Request& request, uint64_t seq,
                 std::vector<uint8_t>* out) {
  Request with_id = request;
  with_id.request_id = seq;
  const std::vector<uint8_t> frame = EncodeRequest(with_id);
  out->insert(out->end(), frame.begin(), frame.end());
}

}  // namespace

uint64_t RankToIndex(uint64_t rank, uint64_t salt, uint64_t n) {
  return Mix(rank ^ Mix(salt)) % n;
}

std::vector<ServedColumn> ServeColumns(
    const std::vector<const Table*>& tables) {
  std::vector<ServedColumn> columns;
  for (const Table* table : tables) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      columns.push_back({table->name(), table->string_column_name(i),
                         table->string_column(i).Snapshot()});
    }
  }
  return columns;
}

std::vector<PointOp> MakePointOps(const std::vector<ServedColumn>& columns,
                                  uint64_t seed, size_t count) {
  const ZipfDistribution zipf(kZipfRanks, 1.0);
  Rng rng(seed);
  std::vector<PointOp> ops(count);
  for (PointOp& op : ops) {
    op.column = static_cast<uint32_t>(rng.Uniform(columns.size()));
    op.locate = rng.Uniform(2) == 1;
    op.rank = zipf.Sample(&rng);
    const StringColumn& column = *columns[op.column].snapshot;
    const uint64_t salt = seed * 131 + op.column * 2 + (op.locate ? 1 : 0);
    if (op.locate) {
      op.id = static_cast<uint32_t>(
          RankToIndex(op.rank, salt, column.num_distinct()));
    } else {
      op.row = static_cast<uint32_t>(
          RankToIndex(op.rank, salt, column.num_rows()));
      op.id = column.GetValueId(op.row);
    }
  }
  return ops;
}

std::vector<uint8_t> ExtractAnswer(const std::string& value) {
  QueryResult result;
  result.column_names = {"value"};
  result.AddRow({value});
  return EncodeQueryResult(result);
}

std::vector<uint8_t> LocateAnswer(uint32_t id) {
  QueryResult result;
  result.column_names = {"id", "found"};
  result.AddRow({Cell(static_cast<uint64_t>(id)), "1"});
  return EncodeQueryResult(result);
}

std::vector<std::string> OpValues(const std::vector<ServedColumn>& columns,
                                  const std::vector<PointOp>& ops) {
  // One column decoded at a time.
  std::vector<std::vector<size_t>> by_column(columns.size());
  for (size_t i = 0; i < ops.size(); ++i) by_column[ops[i].column].push_back(i);
  std::vector<std::string> values(ops.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    if (by_column[c].empty()) continue;
    const std::vector<std::string> sorted = SortedValues(*columns[c].snapshot);
    for (size_t i : by_column[c]) values[i] = sorted[ops[i].id];
  }
  return values;
}

FixedSource::FixedSource(const std::vector<ServedColumn>& columns,
                         const std::vector<PointOp>& ops,
                         const std::vector<std::string>& values,
                         bool plant_wrong_answer) {
  frame_offsets_.push_back(0);
  answer_offsets_.push_back(0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const PointOp& op = ops[i];
    const ServedColumn& served = columns[op.column];
    AppendFrame(MakeRequest(served.table, served.column, op.locate, op.row,
                            values[i]),
                0, &frames_);
    const std::vector<uint8_t> answer =
        op.locate ? LocateAnswer(op.id) : ExtractAnswer(values[i]);
    answers_.insert(answers_.end(), answer.begin(), answer.end());
    frame_offsets_.push_back(frames_.size());
    answer_offsets_.push_back(answers_.size());
  }
  if (plant_wrong_answer && !ops.empty()) answers_[answer_offsets_[1] - 1] ^= 1;
}

void FixedSource::Encode(uint64_t seq, std::vector<uint8_t>* out) {
  const size_t i = (seq - 1) % size();
  const size_t at = out->size();
  out->insert(out->end(), frames_.begin() + frame_offsets_[i],
              frames_.begin() + frame_offsets_[i + 1]);
  // The request id follows the 4-byte length prefix.
  std::memcpy(out->data() + at + sizeof(uint32_t), &seq, sizeof(seq));
}

bool FixedSource::Check(uint64_t seq, std::span<const uint8_t> payload) {
  const size_t i = (seq - 1) % size();
  const size_t length = answer_offsets_[i + 1] - answer_offsets_[i];
  return payload.size() == length &&
         std::memcmp(payload.data(), answers_.data() + answer_offsets_[i],
                     length) == 0;
}

IngestSource::IngestSource(
    const std::vector<ServedColumn>& columns, std::vector<PointOp> ops,
    std::vector<std::vector<std::string>> row_values,
    const std::vector<std::vector<std::vector<std::string>>>& version_dicts,
    bool plant_wrong_answer)
    : ops_(std::move(ops)),
      row_values_(std::move(row_values)),
      published_rows_(new std::atomic<uint64_t>[columns.size()]),
      versions_(new std::atomic<uint64_t>[columns.size()]),
      sent_(kRing) {
  for (size_t c = 0; c < columns.size(); ++c) {
    table_.push_back(columns[c].table);
    column_.push_back(columns[c].column);
    published_rows_[c].store(columns[c].snapshot->num_rows());
    versions_[c].store(0);
    const std::vector<std::string>& dict0 = version_dicts[c][0];
    dict0_.push_back(dict0);
    std::vector<std::vector<uint32_t>> ids_by_version;
    for (const std::vector<std::string>& dict : version_dicts[c]) {
      std::vector<uint32_t> ids(dict0.size());
      for (size_t id0 = 0; id0 < dict0.size(); ++id0) {
        ids[id0] = static_cast<uint32_t>(
            std::lower_bound(dict.begin(), dict.end(), dict0[id0]) -
            dict.begin());
      }
      ids_by_version.push_back(std::move(ids));
    }
    locate_ids_.push_back(std::move(ids_by_version));
  }
  // The planted error corrupts every row's expected value, so the first
  // extract answered counts as wrong.
  if (plant_wrong_answer) {
    for (auto& rows : row_values_) {
      for (size_t r = 0; r < rows.size(); ++r) rows[r] += "#";
    }
  }
}

void IngestSource::Published(size_t c, uint64_t rows) {
  published_rows_[c].store(rows, std::memory_order_release);
  versions_[c].fetch_add(1, std::memory_order_acq_rel);
}

void IngestSource::Encode(uint64_t seq, std::vector<uint8_t>* out) {
  const PointOp& op = ops_[(seq - 1) % ops_.size()];
  const size_t c = op.column;
  Sent& sent = sent_[seq % kRing];
  sent.column = op.column;
  sent.locate = op.locate;
  // Version before row count: a row counted here was published no later
  // than the version recorded.
  sent.version = versions_[c].load(std::memory_order_acquire);
  const uint64_t rows = published_rows_[c].load(std::memory_order_acquire);
  const uint64_t salt = c * 2 + (op.locate ? 1 : 0);
  if (op.locate) {
    sent.row_or_id = RankToIndex(op.rank, salt, dict0_[c].size());
    AppendFrame(MakeRequest(table_[c], column_[c], true, 0,
                            dict0_[c][sent.row_or_id]),
                seq, out);
  } else {
    sent.row_or_id = RankToIndex(op.rank, salt, rows);
    AppendFrame(MakeRequest(table_[c], column_[c], false, sent.row_or_id, ""),
                seq, out);
  }
}

bool IngestSource::Check(uint64_t seq, std::span<const uint8_t> payload) {
  const Sent& sent = sent_[seq % kRing];
  auto equals = [&payload](const std::vector<uint8_t>& expected) {
    return std::equal(payload.begin(), payload.end(), expected.begin(),
                      expected.end());
  };
  if (!sent.locate) {
    return equals(ExtractAnswer(row_values_[sent.column][sent.row_or_id]));
  }
  // Any version from the one current at send time up to one past the
  // latest the writer has finished publishing (a publish may be landing).
  const auto& ids = locate_ids_[sent.column];
  const uint64_t last = std::min<uint64_t>(
      ids.size() - 1,
      versions_[sent.column].load(std::memory_order_acquire) + 1);
  for (uint64_t v = sent.version; v <= last; ++v) {
    if (equals(LocateAnswer(ids[v][sent.row_or_id]))) return true;
  }
  return false;
}

}  // namespace perfbench
