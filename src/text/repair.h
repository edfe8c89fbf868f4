// Re-Pair grammar compression (Larsson & Moffat, DCC 1999; paper Section 3.2).
//
// Training repeatedly replaces the most frequent pair of adjacent symbols by
// a fresh nonterminal until no pair occurs twice or the symbol space is
// exhausted. The symbol space is 12 bits (256 terminals + up to 3840 rules,
// "rp 12") or 16 bits (up to 65280 rules, "rp 16"); compressed strings are
// sequences of fixed-width symbol codes.
//
// Pairs never span two strings: every dictionary entry must decompress
// independently, so training inserts non-pairable separators between strings.
#ifndef ADICT_TEXT_REPAIR_H_
#define ADICT_TEXT_REPAIR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "text/codec.h"

namespace adict {

/// Flat open-addressing map from a symbol pair, packed as (a << 16 | b), to
/// an index. Entries are never removed. The Re-Pair trainer finds its pair
/// records through it, the codec its rules.
class PairIndex {
 public:
  static constexpr uint32_t kMissing = ~0u;

  /// The value stored for `key`, or kMissing.
  uint32_t Find(uint32_t key) const;

  /// The value stored for `key`; stores `value` first if `key` is absent.
  uint32_t FindOrInsert(uint32_t key, uint32_t value);

 private:
  struct Slot {
    uint32_t key = 0;
    uint32_t value = kMissing;
  };

  /// Slot holding `key`, or the empty slot where it belongs.
  size_t SlotOf(uint32_t key) const;

  std::vector<Slot> slots_ = std::vector<Slot>(16);  // at most half full
  int shift_ = 64 - 4;                                // 64 - log2(slots)
  size_t size_ = 0;
};

class RePairCodec final : public StringCodec {
 public:
  /// Trains a Re-Pair grammar over `samples`. `symbol_bits` is 12 or 16.
  static std::unique_ptr<RePairCodec> Train(
      int symbol_bits, const std::vector<std::string_view>& samples);

  /// The codec of this grammar's first (2^symbol_bits - 256) rules. Training
  /// is deterministic and only stops at the symbol-space cap, so on the same
  /// samples this equals Train(symbol_bits) at a fraction of the cost.
  std::unique_ptr<RePairCodec> Truncated(int symbol_bits) const;

  /// Reconstructs a codec written by Serialize (kind tag already consumed).
  static std::unique_ptr<RePairCodec> Deserialize(int symbol_bits,
                                                  ByteReader* in);

  CodecKind kind() const override {
    return symbol_bits_ == 12 ? CodecKind::kRePair12 : CodecKind::kRePair16;
  }
  uint64_t Encode(std::string_view s, BitWriter* out) const override;
  void Decode(BitReader* in, uint64_t bit_len, std::string* out) const override;
  size_t TableBytes() const override;
  bool order_preserving() const override { return false; }
  void Serialize(ByteWriter* out) const override;

  int symbol_bits() const { return symbol_bits_; }
  size_t num_rules() const { return rules_.size(); }

  /// Expands a single symbol (terminal or rule) to its character string.
  void ExpandSymbol(uint32_t symbol, std::string* out) const;

 private:
  explicit RePairCodec(int symbol_bits) : symbol_bits_(symbol_bits) {}

  static constexpr uint32_t kFirstRuleSymbol = 256;
  static constexpr uint32_t kNoRule = PairIndex::kMissing;

  static size_t MaxRules(int symbol_bits) {
    return (size_t{1} << symbol_bits) - kFirstRuleSymbol;
  }

  /// Fills pair_to_rule_ from rules_.
  void IndexRules();

  /// Index of the rule for the pair (a, b), or kNoRule.
  uint32_t RuleOf(uint32_t a, uint32_t b) const;

  /// Parses `s` into grammar symbols by replaying rules in creation order
  /// (most frequent pairs were created first).
  void Parse(std::string_view s, std::vector<uint32_t>* symbols) const;

  int symbol_bits_;
  // rules_[k] = (left, right) defines symbol 256 + k.
  std::vector<std::pair<uint16_t, uint16_t>> rules_;
  // (a << 16 | b) -> rule index (not symbol).
  PairIndex pair_to_rule_;
};

}  // namespace adict

#endif  // ADICT_TEXT_REPAIR_H_
