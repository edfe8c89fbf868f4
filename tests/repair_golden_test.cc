// Golden Re-Pair outputs over seeded inputs.
//
// The Re-Pair grammar is part of every rp dictionary's serialized form, its
// parse decides every rp encoding, and the sampled Re-Pair rates feed the
// manager's size model. The trainer and the replay parser may get faster,
// but they must keep producing these exact bytes: the digests below were
// recorded before the trainer's lazy heap and hash maps were replaced, and a
// change to any of them is a change of the on-disk format or of a format
// decision.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/properties.h"
#include "datasets/generators.h"
#include "dict/dictionary.h"
#include "dict/serialization.h"
#include "text/repair.h"
#include "tpch/dbgen.h"
#include "util/bit_stream.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/sha256.h"

namespace adict {
namespace {

/// First 16 hex digits of the SHA-256 of `bytes`.
std::string Digest(const std::vector<uint8_t>& bytes) {
  return Sha256Hex(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                    bytes.size()))
      .substr(0, 16);
}

std::string Digest(std::string_view text) {
  return Sha256Hex(text).substr(0, 16);
}

/// Strings made of runs of one character, over an alphabet with NUL, 0xFF
/// and two letters: exercises overlapping pairs like (x, x).
std::vector<std::string> Runs(uint64_t seed) {
  static constexpr char kAlphabet[] = {'a', 'b', '\0', '\xff'};
  Rng rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < 1500; ++i) {
    std::string s;
    const int runs = 1 + static_cast<int>(rng.Uniform(4));
    for (int r = 0; r < runs; ++r) {
      s.append(1 + rng.Uniform(64), kAlphabet[rng.Uniform(4)]);
    }
    out.push_back(std::move(s));
  }
  return SortedUnique(std::move(out));
}

/// Short random strings over NUL, 0xFF and their neighbors.
std::vector<std::string> NulAndFf(uint64_t seed) {
  static constexpr char kAlphabet[] = {'\0', '\x01', '\xfe', '\xff'};
  Rng rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < 3000; ++i) {
    std::string s;
    const int len = 1 + static_cast<int>(rng.Uniform(24));
    for (int c = 0; c < len; ++c) s.push_back(kAlphabet[rng.Uniform(4)]);
    out.push_back(std::move(s));
  }
  return SortedUnique(std::move(out));
}

std::vector<std::string> PartColumn(const std::string& column) {
  TpchOptions options;
  options.scale_factor = 0.01;
  options.seed = 3;
  return GenerateTpch(options).part.SnapshotStrings(column)
      ->MaterializeDictionary();
}

/// The named golden input, built on first use. Every input is sorted and
/// unique, so the same strings feed the codec, the sampler and the
/// dictionaries.
const std::vector<std::string>& Input(const std::string& name) {
  static std::map<std::string, std::vector<std::string>> cache;
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  std::vector<std::string> strings;
  if (name == "runs") {
    strings = Runs(7);
  } else if (name == "nul_ff") {
    strings = NulAndFf(11);
  } else if (name == "p_name") {
    strings = PartColumn("P_NAME");
  } else if (name == "p_comment") {
    strings = PartColumn("P_COMMENT");
  } else {
    strings = GenerateSurveyDataset(name, 6000, 5);
  }
  return cache.emplace(name, std::move(strings)).first->second;
}

std::vector<std::string_view> Views(const std::vector<std::string>& strings) {
  return {strings.begin(), strings.end()};
}

/// Rule count and digests of the grammar and of every string's encoding.
struct CodecDigest {
  size_t rules = 0;
  std::string grammar;
  std::string stream;
};

CodecDigest DigestCodec(const RePairCodec& codec,
                        const std::vector<std::string>& strings) {
  std::vector<uint8_t> grammar;
  ByteWriter writer(&grammar);
  codec.Serialize(&writer);
  BitWriter stream;
  uint64_t bits = 0;
  for (const std::string& s : strings) bits += codec.Encode(s, &stream);
  EXPECT_EQ(bits, stream.bit_count());
  return {codec.num_rules(), Digest(grammar), Digest(stream.bytes())};
}

/// Every Re-Pair field of SampleProperties, bit-exact.
std::string RePairFields(const DictionaryProperties& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%a %a %llu %llu %a %a %llu %llu",
                p.rp12_rate, p.rp16_rate,
                static_cast<unsigned long long>(p.rp12_rules),
                static_cast<unsigned long long>(p.rp16_rules), p.fc_rp12_rate,
                p.fc_rp16_rate, static_cast<unsigned long long>(p.fc_rp12_rules),
                static_cast<unsigned long long>(p.fc_rp16_rules));
  return buf;
}

std::string DigestDictionary(DictFormat format,
                             const std::vector<std::string>& strings) {
  const std::unique_ptr<Dictionary> dict = BuildDictionary(format, strings);
  std::vector<uint8_t> bytes;
  SaveDictionary(*dict, &bytes);
  return Digest(bytes);
}

struct Golden {
  const char* input;
  CodecDigest rp12;
  CodecDigest rp16;
  const char* properties;  // digest of RePairFields
  const char* fc_block_rp12;
  const char* array_rp16;
};

void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.input; }

// clang-format off
const Golden kGolden[] = {
    {"runs", {346, "b30179d992d5a0ff", "3a458e9065c87738"},
     {346, "84e65423393eee95", "7bc45ddccbee6176"},
     "4e138584bd6b589b", "b73087ad8f01e272", "ec0b3e1ecdf6dea3"},
    {"nul_ff", {1229, "7cbeba99e2ea3a2d", "62c0c3cd03e219ce"},
     {1229, "0e118e9cbb083817", "b4993e2a36602793"},
     "7fcfaf0714bae5fb", "1132320557103591", "b307f3f966a6e88b"},
    {"src", {3840, "31988a456ed16817", "7bd4722ac17a235c"},
     {7261, "48dfbc4df9f89263", "3e848fae524e8232"},
     "521512deb94b35ac", "78dce67a353325cd", "4ab1930867e5cc10"},
    {"url", {3840, "fe4e6958b3e0b94b", "ebe64a1ae1de5fea"},
     {3943, "dc4abe6c35caa223", "9742e697aaad7fee"},
     "a8da851ae47b7e69", "f005abfbf90ba729", "5a69d443526ec101"},
    {"hash", {3840, "cbb1a2f92837eb99", "306135cdbf2944fb"},
     {15459, "3beb6dbc02ea0891", "3608ef774c50fc44"},
     "91fcbe5ea36a0673", "41e22b6fb8ef54b0", "36f3fce815366510"},
    {"p_name", {1297, "de95851f6df23952", "408c6a86a4023bcc"},
     {1297, "3c39b606844b8740", "8c6625d7a3415b50"},
     "eb78a2fa5c7c3f8b", "8091feb26a2f01d5", "62f7a82a6492e87b"},
    {"p_comment", {1194, "aae22ed0b025e41c", "05d6c67edacd37b4"},
     {1194, "d9cae6e9ffadceb7", "ea16878c8d4cdd17"},
     "fe9debc936fd97dc", "ef4eb2e16602e72e", "7d3d219ebc10a9ec"},
};
// clang-format on

class RePairGoldenTest : public ::testing::TestWithParam<Golden> {
 protected:
  const std::vector<std::string>& strings() const {
    return Input(GetParam().input);
  }
};

TEST_P(RePairGoldenTest, GrammarAndEncoding) {
  for (int bits : {12, 16}) {
    SCOPED_TRACE(bits);
    const CodecDigest want = bits == 12 ? GetParam().rp12 : GetParam().rp16;
    const CodecDigest got =
        DigestCodec(*RePairCodec::Train(bits, Views(strings())), strings());
    EXPECT_EQ(got.rules, want.rules);
    EXPECT_EQ(got.grammar, want.grammar);
    EXPECT_EQ(got.stream, want.stream);
  }
}

TEST_P(RePairGoldenTest, SampledProperties) {
  const std::string fields =
      RePairFields(SampleProperties(strings(), SamplingConfig::Default()));
  EXPECT_EQ(Digest(fields), GetParam().properties) << fields;
}

TEST_P(RePairGoldenTest, SerializedDictionaries) {
  EXPECT_EQ(DigestDictionary(DictFormat::kFcBlockRp12, strings()),
            GetParam().fc_block_rp12);
  EXPECT_EQ(DigestDictionary(DictFormat::kArrayRp16, strings()),
            GetParam().array_rp16);
}

INSTANTIATE_TEST_SUITE_P(SeededInputs, RePairGoldenTest,
                         ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.input);
                         });

/// The packed (left << 16 | right) rules of a serialized codec.
std::vector<uint32_t> PackedRules(const RePairCodec& codec) {
  std::vector<uint8_t> bytes;
  ByteWriter writer(&bytes);
  codec.Serialize(&writer);
  ByteReader reader(bytes.data(), bytes.size());
  reader.Read<uint16_t>();  // codec kind tag
  return reader.ReadVector<uint32_t>();
}

// Training is deterministic and only stops at the symbol-space cap, so the
// 12-bit grammar is the first 3840 rules of the 16-bit one. 1720 `src`
// strings learn 3910 rules at 16 bits (1700 learn fewer than 3840).
TEST(RePairGolden, TwelveBitGrammarIsPrefixOfSixteenBit) {
  const std::vector<std::string> strings = GenerateSurveyDataset("src", 1720, 5);
  const auto rp12 = RePairCodec::Train(12, Views(strings));
  const auto rp16 = RePairCodec::Train(16, Views(strings));
  ASSERT_EQ(rp12->num_rules(), 3840u);
  ASSERT_GT(rp16->num_rules(), 3840u);
  const std::vector<uint32_t> rules12 = PackedRules(*rp12);
  const std::vector<uint32_t> rules16 = PackedRules(*rp16);
  EXPECT_EQ(rules12, std::vector<uint32_t>(rules16.begin(),
                                           rules16.begin() + 3840));
}

}  // namespace
}  // namespace adict
