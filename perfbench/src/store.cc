// Seeded store setup, TPC-H passes with answer digests, and the synthetic
// `part` insert stream.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "server/protocol.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/thread_pool.h"

using namespace adict;

namespace perfbench {

std::unique_ptr<TpchDatabase> GenerateStore(const Config& config) {
  TpchOptions options;
  options.scale_factor = config.scale_factor;
  options.seed = config.seed;
  options.format = DictFormat::kFcInline;
  return std::make_unique<TpchDatabase>(GenerateTpch(options));
}

std::unique_ptr<TpchDatabase> SetupStore(const Config& config,
                                         double* setup_s) {
  std::vector<double> seconds(kSetups);
  std::unique_ptr<TpchDatabase> db;
  for (double& s : seconds) {
    db.reset();  // free the previous copy before timing the next one
    const int64_t start = NowNs();
    db = GenerateStore(config);
    s = static_cast<double>(NowNs() - start) / 1e9;
  }
  *setup_s = Median(seconds);
  return db;
}

double DictBytes(const TpchDatabase& db) {
  double bytes = 0;
  for (const Table* table : db.tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      bytes += static_cast<double>(
          table->string_column(i).Snapshot()->DictionaryBytes());
    }
  }
  return bytes;
}

std::string FormatsJson(const TpchDatabase& db) {
  JsonObject formats;
  for (const Table* table : db.tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      formats.AddString(
          table->name() + "." + table->string_column_name(i),
          std::string(DictFormatName(table->string_column(i).Snapshot()->format())));
    }
  }
  return formats.Render();
}

uint64_t ResultDigest(const QueryResult& result) {
  const std::vector<uint8_t> bytes = EncodeQueryResult(result);
  return Fnv1a64(bytes.data(), bytes.size());
}

namespace {

std::string SfKey(double sf) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", sf);
  return buf;
}

/// Looks up `sf seed d1 .. d22` in the committed digest file.
bool LoadCommittedDigests(const Config& config, TpchDigests* digests) {
  if (config.expected_dir.empty()) return false;
  std::ifstream in(config.expected_dir + "/tpch_digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string sf;
    uint64_t seed = 0;
    fields >> sf >> seed;
    if (sf != SfKey(config.scale_factor) || seed != config.seed) continue;
    for (uint64_t& digest : *digests) {
      std::string hex;
      if (!(fields >> hex)) return false;
      digest = std::stoull(hex, nullptr, 16);
    }
    return true;
  }
  return false;
}

}  // namespace

std::string DigestLine(const Config& config, const TpchDigests& digests) {
  std::string line = SfKey(config.scale_factor) + " " + std::to_string(config.seed);
  for (uint64_t digest : digests) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), " %016llx",
                  static_cast<unsigned long long>(digest));
    line += hex;
  }
  return line;
}

TpchDigests ReferenceDigests(const TpchDatabase& db) {
  TpchDigests digests{};
  SetPoolParallelism(1);
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    digests[q - 1] = ResultDigest(RunTpchQuery(db, q));
  }
  SetPoolParallelism(DefaultPoolParallelism());
  return digests;
}

TpchDigests ExpectedDigests(const Config& config, const TpchDatabase& db,
                            std::string* source) {
  TpchDigests digests{};
  if (LoadCommittedDigests(config, &digests)) {
    *source = "committed";
  } else {
    digests = ReferenceDigests(db);
    *source = "serial_reference_pass";
  }
  if (config.plant_wrong_answer) digests[0] ^= 1;
  return digests;
}

double RunTpchPass(const TpchDatabase& db, const TpchDigests& expected,
                   std::array<std::vector<double>, kNumTpchQueries>* query_ms,
                   uint64_t* wrong) {
  const int64_t pass_start = NowNs();
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    const int64_t start = NowNs();
    const QueryResult result = RunTpchQuery(db, q);
    (*query_ms)[q - 1].push_back(static_cast<double>(NowNs() - start) / 1e6);
    if (ResultDigest(result) != expected[q - 1]) ++*wrong;
  }
  return static_cast<double>(NowNs() - pass_start) / 1e9;
}

namespace {

std::vector<std::string> Words(const std::string& s) {
  std::vector<std::string> words;
  std::istringstream in(s);
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

std::string Join(const std::vector<std::string>& words, size_t begin,
                 size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < words.size(); ++i) {
    if (!out.empty()) out.push_back(' ');
    out += words[i];
  }
  return out;
}

}  // namespace

std::vector<std::string> SortedValues(const StringColumn& column) {
  const Dictionary& dict = column.dictionary();
  std::vector<std::string> values;
  values.reserve(dict.size());
  dict.Scan(0, dict.size(), [&values](uint32_t, std::string_view value) {
    values.emplace_back(value);
  });
  return values;
}

std::vector<std::vector<std::string>> PlainRows(const Table& table) {
  std::vector<std::vector<std::string>> rows(table.num_string_columns());
  for (size_t c = 0; c < rows.size(); ++c) {
    const auto column = table.string_column(c).Snapshot();
    const std::vector<std::string> values = SortedValues(*column);
    rows[c].reserve(column->num_rows());
    for (uint64_t row = 0; row < column->num_rows(); ++row) {
      rows[c].push_back(values[column->GetValueId(row)]);
    }
  }
  return rows;
}

StringColumn UsageFreeCopy(const StringColumn& column) {
  std::vector<uint8_t> bytes;
  ByteWriter writer(&bytes);
  column.Serialize(&writer);
  ByteReader reader(bytes.data(), bytes.size());
  return StringColumn::Deserialize(&reader).value();
}

std::vector<std::vector<std::string>> SynthesizePartRows(
    const Table& part, const std::vector<std::vector<std::string>>& existing,
    uint64_t first_new_key, uint64_t count, uint64_t seed) {
  const size_t num_columns = part.num_string_columns();
  const uint64_t rows = existing.empty() ? 0 : existing[0].size();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  std::vector<std::vector<std::string>> out(num_columns);
  for (uint64_t j = 0; j < count; ++j) {
    const uint64_t donor = rng.Uniform(rows);
    for (size_t c = 0; c < num_columns; ++c) {
      const std::string& name = part.string_column_name(c);
      std::string value;
      if (name == "P_PARTKEY") {
        value = KeyString(first_new_key + j);
      } else if (name == "P_NAME") {
        // Word i comes from the name of a random existing part.
        const size_t length = Words(existing[c][donor]).size();
        std::vector<std::string> words;
        for (size_t w = 0; w < length; ++w) {
          const std::vector<std::string> source =
              Words(existing[c][rng.Uniform(rows)]);
          words.push_back(source.empty() ? "" : source[w % source.size()]);
        }
        value = Join(words, 0, words.size());
      } else if (name == "P_COMMENT") {
        // First half of one comment, second half of another.
        const std::vector<std::string> a = Words(existing[c][donor]);
        const std::vector<std::string> b =
            Words(existing[c][rng.Uniform(rows)]);
        value = Join(a, 0, a.size() / 2);
        const std::string tail = Join(b, b.size() / 2, b.size());
        if (!value.empty() && !tail.empty()) value.push_back(' ');
        value += tail;
      } else {
        value = existing[c][donor];  // categorical columns stay in-domain
      }
      out[c].push_back(std::move(value));
    }
  }
  return out;
}

}  // namespace perfbench
