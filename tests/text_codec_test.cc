// Unit and property tests for the string compression codecs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "datasets/generators.h"
#include "text/bit_compress.h"
#include "text/codec.h"
#include "text/ngram.h"
#include "text/prefix_code.h"
#include "text/repair.h"
#include "util/bit_stream.h"
#include "util/rng.h"

namespace adict {
namespace {

std::vector<std::string_view> Views(const std::vector<std::string>& strings) {
  return {strings.begin(), strings.end()};
}

/// Encodes all strings into one stream, then decodes each by its bit range.
void ExpectRoundtrip(const StringCodec& codec,
                     const std::vector<std::string>& strings) {
  BitWriter writer;
  std::vector<uint64_t> offsets{0};
  for (const std::string& s : strings) {
    codec.Encode(s, &writer);
    offsets.push_back(writer.bit_count());
  }
  for (size_t i = 0; i < strings.size(); ++i) {
    BitReader reader(writer.bytes().data(), offsets[i]);
    std::string decoded;
    codec.Decode(&reader, offsets[i + 1] - offsets[i], &decoded);
    ASSERT_EQ(decoded, strings[i]) << "string " << i;
  }
}

uint64_t EncodedBits(const StringCodec& codec,
                     const std::vector<std::string>& strings) {
  BitWriter writer;
  uint64_t bits = 0;
  for (const std::string& s : strings) bits += codec.Encode(s, &writer);
  return bits;
}

uint64_t RawBits(const std::vector<std::string>& strings) {
  uint64_t chars = 0;
  for (const std::string& s : strings) chars += s.size();
  return chars * 8;
}

std::vector<std::string> EnglishLikeCorpus(int n, uint64_t seed) {
  static const char* kWords[] = {"the",    "quick", "brown",  "fox",
                                 "jumps",  "over",  "lazy",   "dog",
                                 "stream", "table", "column", "store"};
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::string s;
    const int words = 1 + static_cast<int>(rng.Uniform(5));
    for (int w = 0; w < words; ++w) {
      if (w) s.push_back(' ');
      s += kWords[rng.Uniform(std::size(kWords))];
    }
    out.push_back(std::move(s));
  }
  return out;
}

// -- Parameterized roundtrip across every codec kind ------------------------

class CodecRoundtripTest : public ::testing::TestWithParam<CodecKind> {};

TEST_P(CodecRoundtripTest, EnglishLikeStrings) {
  const std::vector<std::string> strings = EnglishLikeCorpus(300, 1);
  auto codec = TrainCodec(GetParam(), Views(strings));
  ASSERT_NE(codec, nullptr);
  ExpectRoundtrip(*codec, strings);
}

TEST_P(CodecRoundtripTest, EmptyStringsAllowed) {
  const std::vector<std::string> strings = {"", "a", "", "bb", ""};
  auto codec = TrainCodec(GetParam(), Views(strings));
  ExpectRoundtrip(*codec, strings);
}

TEST_P(CodecRoundtripTest, SingleDistinctCharacter) {
  const std::vector<std::string> strings = {"a", "aa", "aaa", "aaaaaaaa"};
  auto codec = TrainCodec(GetParam(), Views(strings));
  ExpectRoundtrip(*codec, strings);
}

TEST_P(CodecRoundtripTest, FullByteAlphabet) {
  std::vector<std::string> strings;
  for (int c = 0; c < 256; ++c) {
    strings.push_back(std::string(3, static_cast<char>(c)));
  }
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    std::string s;
    for (int j = 0; j < 20; ++j) {
      s.push_back(static_cast<char>(rng.Uniform(256)));
    }
    strings.push_back(std::move(s));
  }
  auto codec = TrainCodec(GetParam(), Views(strings));
  ExpectRoundtrip(*codec, strings);
}

TEST_P(CodecRoundtripTest, RandomizedFuzz) {
  Rng rng(3);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::string> strings;
    const int alphabet = 1 + static_cast<int>(rng.Uniform(60));
    for (int i = 0; i < 120; ++i) {
      std::string s;
      const int len = static_cast<int>(rng.Uniform(40));
      for (int j = 0; j < len; ++j) {
        s.push_back(static_cast<char>('!' + rng.Uniform(alphabet)));
      }
      strings.push_back(std::move(s));
    }
    auto codec = TrainCodec(GetParam(), Views(strings));
    ExpectRoundtrip(*codec, strings);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRoundtripTest,
    ::testing::Values(CodecKind::kBitCompress, CodecKind::kHuffman,
                      CodecKind::kHuTucker, CodecKind::kNgram2,
                      CodecKind::kNgram3, CodecKind::kRePair12,
                      CodecKind::kRePair16),
    [](const ::testing::TestParamInfo<CodecKind>& info) {
      std::string name(CodecKindName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// -- Bit compression ---------------------------------------------------------

TEST(BitCompress, WidthIsLogOfAlphabet) {
  const std::vector<std::string> two = {"abab"};
  EXPECT_EQ(BitCompressCodec::Train(Views(two))->bits_per_char(), 1);

  const std::vector<std::string> five = {"abcde"};
  EXPECT_EQ(BitCompressCodec::Train(Views(five))->bits_per_char(), 3);

  const std::vector<std::string> sixteen = {"0123456789abcdef"};
  EXPECT_EQ(BitCompressCodec::Train(Views(sixteen))->bits_per_char(), 4);

  const std::vector<std::string> seventeen = {"0123456789abcdefg"};
  EXPECT_EQ(BitCompressCodec::Train(Views(seventeen))->bits_per_char(), 5);
}

TEST(BitCompress, CompressesDigitsToFourBits) {
  std::vector<std::string> strings;
  Rng rng(4);
  for (int i = 0; i < 100; ++i) strings.push_back(rng.RandomString(10, "0123456789"));
  auto codec = BitCompressCodec::Train(Views(strings));
  EXPECT_EQ(EncodedBits(*codec, strings), RawBits(strings) * 4 / 8);
}

TEST(BitCompress, CodesPreserveCharacterOrder) {
  const std::vector<std::string> strings = {"dcba"};
  auto codec = BitCompressCodec::Train(Views(strings));
  BitWriter wa, wb, wc;
  codec->Encode("a", &wa);
  codec->Encode("b", &wb);
  codec->Encode("c", &wc);
  EXPECT_LT(wa.bytes()[0], wb.bytes()[0]);
  EXPECT_LT(wb.bytes()[0], wc.bytes()[0]);
}

// -- Huffman ------------------------------------------------------------------

double Entropy0(const std::vector<std::string>& strings) {
  std::array<uint64_t, 256> freqs{};
  uint64_t total = 0;
  for (const std::string& s : strings) {
    for (unsigned char c : s) {
      ++freqs[c];
      ++total;
    }
  }
  double h = 0;
  for (uint64_t f : freqs) {
    if (f == 0) continue;
    const double p = static_cast<double>(f) / total;
    h -= p * std::log2(p);
  }
  return h;
}

TEST(Huffman, WithinOneBitOfEntropy) {
  const std::vector<std::string> strings = EnglishLikeCorpus(500, 5);
  auto codec = HuffmanCodec::Train(Views(strings));
  const double bits_per_char =
      static_cast<double>(EncodedBits(*codec, strings)) / (RawBits(strings) / 8);
  const double entropy = Entropy0(strings);
  EXPECT_GE(bits_per_char, entropy - 1e-9);
  EXPECT_LE(bits_per_char, entropy + 1.0);
}

TEST(Huffman, SkewedDistributionGetsShortCodeForFrequentChar) {
  std::vector<std::string> strings = {std::string(1000, 'a')};
  strings.push_back("bcdefgh");
  auto codec = HuffmanCodec::Train(Views(strings));
  EXPECT_EQ(codec->CodeLength('a'), 1);
  EXPECT_GT(codec->CodeLength('b'), 1);
}

// -- Hu-Tucker ----------------------------------------------------------------

TEST(HuTucker, MatchesKnownOptimalAlphabeticCode) {
  // Classic example: weights (1, 2, 3, 4) have an optimal alphabetic tree
  // with depths (3, 3, 2, 1): cost 1*3 + 2*3 + 3*2 + 4*1 = 19.
  const std::vector<int> levels = HuTuckerCodec::ComputeLevels({1, 2, 3, 4});
  ASSERT_EQ(levels.size(), 4u);
  const int cost = 1 * levels[0] + 2 * levels[1] + 3 * levels[2] + 4 * levels[3];
  EXPECT_EQ(cost, 19);
}

TEST(HuTucker, UniformWeightsGiveBalancedTree) {
  const std::vector<int> levels = HuTuckerCodec::ComputeLevels({5, 5, 5, 5});
  EXPECT_EQ(levels, std::vector<int>({2, 2, 2, 2}));
}

TEST(HuTucker, LevelsSatisfyKraftEquality) {
  Rng rng(6);
  for (int round = 0; round < 100; ++round) {
    const int n = 2 + static_cast<int>(rng.Uniform(40));
    std::vector<uint64_t> weights(n);
    for (auto& w : weights) w = 1 + rng.Uniform(1000);
    const std::vector<int> levels = HuTuckerCodec::ComputeLevels(weights);
    double kraft = 0;
    for (int level : levels) kraft += std::ldexp(1.0, -level);
    EXPECT_NEAR(kraft, 1.0, 1e-12) << "round " << round;
  }
}

TEST(HuTucker, CostAtLeastHuffmanAndWithinOneBit) {
  // Alphabetic codes can never beat Huffman, and Hu-Tucker is known to cost
  // at most one extra bit per symbol.
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    std::vector<std::string> strings;
    for (int i = 0; i < 150; ++i) {
      strings.push_back(rng.RandomString(1 + rng.Uniform(20),
                                         "aabbbcdeeeeefghiijklmnop"));
    }
    auto huffman = HuffmanCodec::Train(Views(strings));
    auto hu_tucker = HuTuckerCodec::Train(Views(strings));
    const uint64_t huffman_bits = EncodedBits(*huffman, strings);
    const uint64_t hu_tucker_bits = EncodedBits(*hu_tucker, strings);
    EXPECT_GE(hu_tucker_bits, huffman_bits);
    EXPECT_LE(hu_tucker_bits, huffman_bits + RawBits(strings) / 8);
  }
}

TEST(HuTucker, EncodedStringsPreserveOrder) {
  Rng rng(8);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> strings;
    for (int i = 0; i < 100; ++i) {
      strings.push_back(rng.RandomString(1 + rng.Uniform(12), "abcdefgh"));
    }
    auto codec = HuTuckerCodec::Train(Views(strings));

    // Compare encodings of single characters: they must be bit-ordered.
    // (Prefix-freeness then extends the order to whole strings.)
    std::string prev_bits;
    for (char ch = 'a'; ch <= 'h'; ++ch) {
      BitWriter writer;
      codec->Encode(std::string_view(&ch, 1), &writer);
      std::string bits;
      BitReader reader(writer.bytes().data(), 0);
      for (uint64_t i = 0; i < writer.bit_count(); ++i) {
        bits.push_back(reader.ReadBit() ? '1' : '0');
      }
      if (!prev_bits.empty()) {
        EXPECT_LT(prev_bits, bits) << "char " << ch;
        // Prefix-freeness.
        EXPECT_NE(bits.substr(0, prev_bits.size()), prev_bits);
      }
      prev_bits = bits;
    }
  }
}

// -- N-gram -------------------------------------------------------------------

TEST(Ngram, CoveredTextUsesOneCodePerNgram) {
  // Text consisting of a single repeated 2-gram compresses to 12 bits per
  // 2 characters.
  std::vector<std::string> strings(50, "abababab");  // 4 grams each
  auto codec = NgramCodec::Train(2, Views(strings));
  EXPECT_EQ(EncodedBits(*codec, strings), 50u * 4 * 12);
}

TEST(Ngram, UncoveredTextFallsBackToSingleCharCodes) {
  // Train on one alphabet, encode a string of chars that never form covered
  // grams: every char costs 12 bits (negative compression, as the paper
  // notes for high-variety content).
  std::vector<std::string> training(20, "aaaa");
  auto codec = NgramCodec::Train(2, Views(training));
  BitWriter writer;
  EXPECT_EQ(codec->Encode("xyz", &writer), 3u * 12);
}

TEST(Ngram, KeepsAtMost3840Ngrams) {
  // 100 distinct chars -> 10000 distinct 2-grams, more than the code space.
  std::vector<std::string> strings;
  Rng rng(9);
  std::string alphabet;
  for (int i = 0; i < 100; ++i) alphabet.push_back(static_cast<char>(32 + i));
  for (int i = 0; i < 4000; ++i) strings.push_back(rng.RandomString(24, alphabet));
  auto codec = NgramCodec::Train(2, Views(strings));
  EXPECT_LE(codec->num_ngrams(), NgramCodec::kNumNgramCodes);
  EXPECT_GT(codec->num_ngrams(), 3000);
  ExpectRoundtrip(*codec, strings);
}

TEST(Ngram3, GroupsOfThree) {
  std::vector<std::string> strings(50, "abcabcabc");  // 3 covered 3-grams
  auto codec = NgramCodec::Train(3, Views(strings));
  EXPECT_EQ(EncodedBits(*codec, strings), 50u * 3 * 12);
}

// -- Re-Pair ------------------------------------------------------------------

TEST(RePair, CompressesRepetitiveText) {
  std::vector<std::string> strings(200, "abcabcabcabcabcabc");
  auto codec = RePairCodec::Train(16, Views(strings));
  EXPECT_GT(codec->num_rules(), 0u);
  // 18 chars -> few symbols; must beat 8 bits/char comfortably.
  EXPECT_LT(EncodedBits(*codec, strings), RawBits(strings) / 2);
  ExpectRoundtrip(*codec, strings);
}

TEST(RePair, RandomTextBarelyCompresses) {
  Rng rng(10);
  std::vector<std::string> strings;
  std::string alphabet;
  for (int i = 33; i < 127; ++i) alphabet.push_back(static_cast<char>(i));
  for (int i = 0; i < 500; ++i) strings.push_back(rng.RandomString(10, alphabet));
  auto codec = RePairCodec::Train(12, Views(strings));
  // 12-bit symbols on incompressible text: size must not drop below ~75% of
  // one symbol per char.
  EXPECT_GT(EncodedBits(*codec, strings), RawBits(strings) * 3 / 4);
  ExpectRoundtrip(*codec, strings);
}

TEST(RePair, SymbolSpaceRespected) {
  // Highly repetitive long strings would love many rules; 12-bit space must
  // cap at 3840.
  Rng rng(11);
  std::vector<std::string> strings;
  for (int i = 0; i < 2000; ++i) {
    std::string s;
    for (int w = 0; w < 10; ++w) s += rng.NextDouble() < 0.5 ? "foo" : "barbaz";
    strings.push_back(std::move(s));
  }
  auto rp12 = RePairCodec::Train(12, Views(strings));
  EXPECT_LE(rp12->num_rules(), 4096u - 256u);
  ExpectRoundtrip(*rp12, strings);
}

TEST(RePair, TruncatedEqualsTrainingWithFewerBits) {
  // 1720 `src` lines learn more than 3840 rules at 16 bits, so the
  // truncation drops rules.
  const std::vector<std::string> strings = GenerateSurveyDataset("src", 1720, 5);
  const auto rp16 = RePairCodec::Train(16, Views(strings));
  ASSERT_GT(rp16->num_rules(), 3840u);
  const auto truncated = rp16->Truncated(12);
  const auto rp12 = RePairCodec::Train(12, Views(strings));
  EXPECT_EQ(truncated->kind(), CodecKind::kRePair12);
  std::vector<uint8_t> want, got;
  ByteWriter want_writer(&want), got_writer(&got);
  rp12->Serialize(&want_writer);
  truncated->Serialize(&got_writer);
  EXPECT_EQ(got, want);
  BitWriter want_bits, got_bits;
  for (const std::string& s : strings) {
    rp12->Encode(s, &want_bits);
    truncated->Encode(s, &got_bits);
  }
  EXPECT_EQ(got_bits.bytes(), want_bits.bytes());
}

TEST(RePair, RulesNeverCrossStringBoundaries) {
  // "ab" appears only split across consecutive strings; no rule may exploit
  // that, so every one-char string encodes as one symbol.
  std::vector<std::string> strings;
  for (int i = 0; i < 100; ++i) {
    strings.push_back("a");
    strings.push_back("b");
  }
  auto codec = RePairCodec::Train(16, Views(strings));
  BitWriter writer;
  EXPECT_EQ(codec->Encode("a", &writer), 16u);
  EXPECT_EQ(codec->Encode("b", &writer), 16u);
}

TEST(RePair, ExpandSymbolMatchesRules) {
  std::vector<std::string> strings(100, "mississippi");
  auto codec = RePairCodec::Train(16, Views(strings));
  ASSERT_GT(codec->num_rules(), 0u);
  std::string expansion;
  codec->ExpandSymbol('m', &expansion);
  EXPECT_EQ(expansion, "m");
}

TEST(RePair, OverlappingPairsHandled) {
  // Runs of a single character: "aa" occurrences overlap; training and
  // replay must both stay consistent.
  std::vector<std::string> strings;
  for (int i = 1; i <= 40; ++i) strings.push_back(std::string(i, 'a'));
  for (int bits : {12, 16}) {
    auto codec = RePairCodec::Train(bits, Views(strings));
    ExpectRoundtrip(*codec, strings);
  }
}

// -- Codec factory -----------------------------------------------------------

TEST(CodecFactory, NoneReturnsNull) {
  EXPECT_EQ(TrainCodec(CodecKind::kNone, {}), nullptr);
}

TEST(CodecFactory, NamesMatchPaper) {
  EXPECT_EQ(CodecKindName(CodecKind::kBitCompress), "bc");
  EXPECT_EQ(CodecKindName(CodecKind::kHuTucker), "hu");
  EXPECT_EQ(CodecKindName(CodecKind::kNgram2), "ng2");
  EXPECT_EQ(CodecKindName(CodecKind::kNgram3), "ng3");
  EXPECT_EQ(CodecKindName(CodecKind::kRePair12), "rp12");
  EXPECT_EQ(CodecKindName(CodecKind::kRePair16), "rp16");
}

}  // namespace
}  // namespace adict
