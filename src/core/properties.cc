#include "core/properties.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dict/column_bc.h"
#include "dict/front_coding.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "text/codec.h"
#include "text/ngram.h"
#include "text/repair.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/varint.h"

namespace adict {
namespace {

/// Picks `want` distinct indices out of [0, n) uniformly at random.
/// Returns them sorted (cheap cache-friendly iteration; uniformity of the
/// *set* is what matters).
std::vector<uint32_t> SampleIndices(uint64_t n, uint64_t want, Rng* rng) {
  ADICT_DCHECK(want <= n);
  std::vector<uint32_t> all(n);
  for (uint64_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
  for (uint64_t i = 0; i < want; ++i) {
    std::swap(all[i], all[i + rng->Uniform(n - i)]);
  }
  all.resize(want);
  std::sort(all.begin(), all.end());
  return all;
}

/// Character-level statistics of a set of string views.
struct CharStats {
  uint64_t total_chars = 0;
  std::array<uint64_t, 256> freqs{};

  void Add(std::string_view s) {
    total_chars += s.size();
    for (unsigned char c : s) ++freqs[c];
  }

  int DistinctChars() const {
    int distinct = 0;
    for (uint64_t f : freqs) distinct += f > 0;
    return distinct;
  }

  double Entropy0() const {
    if (total_chars == 0) return 0;
    double h = 0;
    for (uint64_t f : freqs) {
      if (f == 0) continue;
      const double p = static_cast<double>(f) / total_chars;
      h -= p * std::log2(p);
    }
    return h;
  }
};

/// Fraction of n-gram windows covered by the 3840 most frequent n-grams
/// (paper: coverage = #covered n-grams / (|raw data| - n + 1)), plus the
/// number of n-grams that receive proper codes.
struct CoverageResult {
  double coverage = 0;
  int table_grams = 0;
};

CoverageResult NgramCoverage(const std::vector<std::string_view>& views, int n) {
  std::unordered_map<uint32_t, uint64_t> counts;
  uint64_t windows = 0;
  for (std::string_view s : views) {
    if (s.size() < static_cast<size_t>(n)) continue;
    for (size_t i = 0; i + n <= s.size(); ++i) {
      uint32_t key = 0;
      for (int b = 0; b < n; ++b) {
        key = (key << 8) | static_cast<unsigned char>(s[i + b]);
      }
      ++counts[key];
      ++windows;
    }
  }
  if (windows == 0) return {};
  std::vector<uint64_t> occurrence_counts;
  occurrence_counts.reserve(counts.size());
  for (const auto& [key, count] : counts) occurrence_counts.push_back(count);
  const size_t kept =
      std::min<size_t>(occurrence_counts.size(), NgramCodec::kNumNgramCodes);
  std::partial_sort(occurrence_counts.begin(), occurrence_counts.begin() + kept,
                    occurrence_counts.end(), std::greater<uint64_t>());
  uint64_t covered = 0;
  for (size_t i = 0; i < kept; ++i) covered += occurrence_counts[i];
  return {static_cast<double>(covered) / windows, static_cast<int>(kept)};
}

/// Re-Pair payload compressed/raw ratio on the sample, plus the number of
/// grammar rules learned (the size model extrapolates the grammar table from
/// it separately).
struct RePairResult {
  double rate = 1.0;
  uint64_t rules = 0;
};

struct RePairRates {
  RePairResult rp12;
  RePairResult rp16;
};

uint64_t EncodedBits(const RePairCodec& codec,
                     const std::vector<std::string_view>& views) {
  BitWriter sink;
  uint64_t bits = 0;
  for (std::string_view s : views) {
    bits += codec.Encode(s, &sink);
    sink.Clear();
  }
  return bits;
}

/// Both Re-Pair rates from one training: the 12-bit grammar is the first
/// 3840 rules of the 16-bit one. When the two grammars are the same, one
/// parse counts the symbols for both widths.
RePairRates RePairRate(const std::vector<std::string_view>& views) {
  uint64_t raw = 0;
  for (std::string_view s : views) raw += s.size();
  if (raw == 0) return {};
  const auto rp16 = RePairCodec::Train(16, views);
  const auto rp12 = rp16->Truncated(12);
  const uint64_t bits16 = EncodedBits(*rp16, views);
  const uint64_t bits12 = rp12->num_rules() == rp16->num_rules()
                              ? bits16 / 16 * 12
                              : EncodedBits(*rp12, views);
  const double raw_bytes = static_cast<double>(raw);
  return {{static_cast<double>(bits12) / 8 / raw_bytes, rp12->num_rules()},
          {static_cast<double>(bits16) / 8 / raw_bytes, rp16->num_rules()}};
}

}  // namespace

DictionaryProperties SampleProperties(std::span<const std::string> sorted_unique,
                                      const SamplingConfig& config,
                                      uint64_t seed) {
  ADICT_TRACE_SPAN("props.sample_properties");
  obs::ScopedTimer timer(
      obs::Enabled()
          ? obs::Metrics().GetHistogram(
                "core.sample_properties_us", {}, "us",
                "property sampling incl. the Re-Pair trial on the sample")
          : nullptr);
  DictionaryProperties props;
  const uint64_t n = sorted_unique.size();
  props.num_strings = n;
  if (n == 0) return props;

  Rng rng(seed);
  const uint64_t want = std::min<uint64_t>(
      n, std::max<uint64_t>(static_cast<uint64_t>(std::ceil(config.ratio * n)),
                            config.min_entries));
  props.sampled_fraction = static_cast<double>(want) / n;

  // ------------------------------------------------------------------
  // String-granular sample (array-class properties).
  // ------------------------------------------------------------------
  std::vector<std::string_view> sample;
  CharStats chars;
  {
    ADICT_TRACE_SPAN("props.sample_strings");
    const std::vector<uint32_t> indices = SampleIndices(n, want, &rng);
    sample.reserve(indices.size());
    for (uint32_t i : indices) {
      const std::string_view s = sorted_unique[i];
      sample.push_back(s);
      chars.Add(s);
      props.max_string_len = std::max<uint64_t>(props.max_string_len, s.size());
    }
  }
  const double scale = static_cast<double>(n) / want;
  props.raw_chars = static_cast<double>(chars.total_chars) * scale;
  props.distinct_chars = chars.DistinctChars();
  props.entropy0 = chars.Entropy0();
  {
    ADICT_TRACE_SPAN("props.measure_strings");
    const CoverageResult ng2 = NgramCoverage(sample, 2);
    const CoverageResult ng3 = NgramCoverage(sample, 3);
    props.ng2_coverage = ng2.coverage;
    props.ng3_coverage = ng3.coverage;
    props.ng2_table_grams = ng2.table_grams;
    props.ng3_table_grams = ng3.table_grams;
    const RePairRates rp = RePairRate(sample);
    props.rp12_rate = rp.rp12.rate;
    props.rp16_rate = rp.rp16.rate;
    props.rp12_rules = rp.rp12.rules;
    props.rp16_rules = rp.rp16.rules;
  }

  // ------------------------------------------------------------------
  // Block-granular sample (front-coding properties). Blocks keep their
  // dictionary-order boundaries; we sample whole blocks.
  // ------------------------------------------------------------------
  std::optional<obs::ScopedSpan> fc_span("props.measure_fc_blocks");
  constexpr uint32_t kFcBlock = FcBlockDict::kBlockSize;
  const uint64_t num_fc_blocks = (n + kFcBlock - 1) / kFcBlock;
  const uint64_t want_fc_blocks =
      std::min<uint64_t>(num_fc_blocks, (want + kFcBlock - 1) / kFcBlock);
  const std::vector<uint32_t> fc_blocks =
      SampleIndices(num_fc_blocks, want_fc_blocks, &rng);

  CharStats fc_chars;
  std::vector<std::string_view> fc_suffixes;
  uint64_t fc_df_chars = 0;
  uint64_t fc_inline_header = 0;
  uint64_t fc_sampled_strings = 0;
  for (uint32_t b : fc_blocks) {
    const uint64_t first = static_cast<uint64_t>(b) * kFcBlock;
    const uint64_t count = std::min<uint64_t>(kFcBlock, n - first);
    fc_sampled_strings += count;
    for (uint64_t i = 0; i < count; ++i) {
      const std::string_view s = sorted_unique[first + i];
      uint32_t prefix = 0;
      uint32_t df_prefix = 0;
      if (i > 0) {
        prefix = std::min(CommonPrefixLength(sorted_unique[first + i - 1], s),
                          FcBlockDict::kMaxPrefixLength);
        df_prefix = std::min(CommonPrefixLength(sorted_unique[first], s),
                             FcBlockDict::kMaxPrefixLength);
      }
      const std::string_view suffix = s.substr(prefix);
      fc_suffixes.push_back(suffix);
      fc_chars.Add(suffix);
      fc_df_chars += s.size() - df_prefix;
      fc_inline_header += VarintLength(prefix) + VarintLength(suffix.size());
    }
  }
  const double fc_scale =
      fc_sampled_strings == 0 ? 0 : static_cast<double>(n) / fc_sampled_strings;
  props.fc_raw_chars = static_cast<double>(fc_chars.total_chars) * fc_scale;
  props.fc_df_raw_chars = static_cast<double>(fc_df_chars) * fc_scale;
  props.fc_distinct_chars = fc_chars.DistinctChars();
  props.fc_entropy0 = fc_chars.Entropy0();
  const CoverageResult fc_ng2 = NgramCoverage(fc_suffixes, 2);
  const CoverageResult fc_ng3 = NgramCoverage(fc_suffixes, 3);
  props.fc_ng2_coverage = fc_ng2.coverage;
  props.fc_ng3_coverage = fc_ng3.coverage;
  props.fc_ng2_table_grams = fc_ng2.table_grams;
  props.fc_ng3_table_grams = fc_ng3.table_grams;
  const RePairRates fc_rp = RePairRate(fc_suffixes);
  props.fc_rp12_rate = fc_rp.rp12.rate;
  props.fc_rp16_rate = fc_rp.rp16.rate;
  props.fc_rp12_rules = fc_rp.rp12.rules;
  props.fc_rp16_rules = fc_rp.rp16.rules;
  props.fc_inline_header_chars = static_cast<double>(fc_inline_header) * fc_scale;
  fc_span.reset();

  // ------------------------------------------------------------------
  // Column-bc blocks: encode sampled blocks, average their size.
  // ------------------------------------------------------------------
  ADICT_TRACE_SPAN("props.measure_colbc_blocks");
  constexpr uint32_t kCbBlock = ColumnBcDict::kBlockSize;
  const uint64_t num_cb_blocks = (n + kCbBlock - 1) / kCbBlock;
  const uint64_t want_cb_blocks =
      std::min<uint64_t>(num_cb_blocks, (want + kCbBlock - 1) / kCbBlock);
  const std::vector<uint32_t> cb_blocks =
      SampleIndices(num_cb_blocks, want_cb_blocks, &rng);
  std::vector<uint8_t> arena;
  uint64_t cb_bytes = 0;
  std::vector<std::string_view> rows;
  for (uint32_t b : cb_blocks) {
    const uint64_t first = static_cast<uint64_t>(b) * kCbBlock;
    const uint64_t count = std::min<uint64_t>(kCbBlock, n - first);
    rows.clear();
    for (uint64_t i = 0; i < count; ++i) {
      rows.push_back(sorted_unique[first + i]);
    }
    arena.clear();
    cb_bytes += ColumnBcDict::EncodeBlock(rows, &arena);
  }
  props.colbc_avg_block_size = cb_blocks.empty()
                                   ? 0
                                   : static_cast<double>(cb_bytes) /
                                         static_cast<double>(cb_blocks.size());
  return props;
}

}  // namespace adict
