#include "text/repair.h"

#include <algorithm>

#include "util/check.h"

namespace adict {
namespace {

constexpr int32_t kEmpty = -1;
constexpr int32_t kSeparator = -2;

inline uint32_t PairKey(uint32_t a, uint32_t b) { return (a << 16) | b; }

/// Mutable training sequence with hole skipping and per-pair occurrence
/// lists (the Larsson-Moffat data structure). Each pair seen in the sequence
/// has one record holding its count, the head of its occurrence list and its
/// slot in an indexed max-heap of the pairs that occur at least twice.
class Trainer {
 public:
  explicit Trainer(const std::vector<std::string_view>& samples) {
    size_t total = 0;
    for (std::string_view s : samples) total += s.size() + 1;
    seq_.reserve(total);
    for (std::string_view s : samples) {
      for (unsigned char ch : s) seq_.push_back(ch);
      seq_.push_back(kSeparator);
    }
    const int32_t n = static_cast<int32_t>(seq_.size());
    nxt_.resize(n);
    prv_.resize(n);
    occ_next_.assign(n, -1);
    occ_prev_.assign(n, -1);
    for (int32_t i = 0; i < n; ++i) {
      nxt_[i] = i + 1;
      prv_[i] = i - 1;
    }
    // Initial pair census.
    for (int32_t i = 0; i + 1 < n; ++i) {
      if (Pairable(seq_[i]) && Pairable(seq_[i + 1])) {
        AddOccurrence(i, i + 1);
      }
    }
  }

  /// Runs replacement rounds until no pair occurs twice or `max_rules` rules
  /// exist. Returns the rules in creation order.
  std::vector<std::pair<uint16_t, uint16_t>> Run(size_t max_rules) {
    std::vector<std::pair<uint16_t, uint16_t>> rules;
    std::vector<int32_t> positions;
    std::vector<int32_t> valid;
    while (rules.size() < max_rules && !heap_.empty()) {
      // The most frequent pair; ties go to the larger key.
      const uint32_t top = heap_[0].record;
      HeapRemove(top);
      const uint32_t key = records_[top].key;
      const uint32_t a = key >> 16;
      const uint32_t b = key & 0xffff;

      // Collect still-valid occurrence positions, left to right, skipping
      // overlaps (relevant for pairs like (x, x) in runs of x).
      positions.clear();
      for (int32_t p = records_[top].head; p >= 0; p = occ_next_[p]) {
        positions.push_back(p);
      }
      std::sort(positions.begin(), positions.end());
      valid.clear();
      int32_t last_end = -1;
      for (int32_t p : positions) {
        if (seq_[p] != static_cast<int32_t>(a)) continue;
        const int32_t q = Next(p);
        if (q < 0 || seq_[q] != static_cast<int32_t>(b)) continue;
        if (p <= last_end) continue;  // overlaps previous replacement site
        valid.push_back(p);
        last_end = q;
      }
      if (valid.size() < 2) {
        // Overcounted (overlaps); keep the pair out of future consideration
        // but do not spend a rule on it.
        Retire(top);
        continue;
      }

      const uint32_t rule_symbol = 256 + static_cast<uint32_t>(rules.size());
      rules.emplace_back(static_cast<uint16_t>(a), static_cast<uint16_t>(b));

      for (int32_t i : valid) {
        // Re-validate: an earlier replacement in this round may have
        // consumed a neighbor.
        if (seq_[i] != static_cast<int32_t>(a)) continue;
        const int32_t j = Next(i);
        if (j < 0 || seq_[j] != static_cast<int32_t>(b)) continue;

        const int32_t left = Prev(i);
        const int32_t right = Next(j);

        // Retire the old neighbor pairs.
        if (left >= 0 && Pairable(seq_[left])) RemoveOccurrence(left, i);
        if (right >= 0 && Pairable(seq_[right])) RemoveOccurrence(j, right);
        RemoveOccurrence(i, j);

        // Perform the replacement.
        seq_[i] = static_cast<int32_t>(rule_symbol);
        seq_[j] = kEmpty;
        nxt_[i] = right >= 0 ? right : static_cast<int32_t>(seq_.size());
        if (right >= 0) prv_[right] = i;

        // Introduce the new neighbor pairs.
        if (left >= 0 && Pairable(seq_[left])) AddOccurrence(left, i);
        if (right >= 0 && Pairable(seq_[right])) AddOccurrence(i, right);
      }
      Retire(top);
    }
    return rules;
  }

 private:
  static constexpr uint32_t kNone = ~0u;

  /// One pair's state. A count of 0 means the pair is not counted (never
  /// seen, fully removed, or retired); a head of -1 means no occurrence
  /// list.
  struct PairRecord {
    uint32_t key;
    uint32_t count = 0;
    int32_t head = -1;
    uint32_t heap_slot = kNone;
  };

  /// Heap entry: the record's (count, key) as one comparable word.
  struct HeapEntry {
    uint64_t priority;
    uint32_t record;
  };

  static bool Pairable(int32_t symbol) { return symbol >= 0; }

  int32_t Next(int32_t i) const {
    const int32_t n = nxt_[i];
    return n < static_cast<int32_t>(seq_.size()) ? n : -1;
  }
  int32_t Prev(int32_t i) const { return prv_[i] >= 0 ? prv_[i] : -1; }

  uint32_t KeyAt(int32_t p, int32_t q) const {
    return PairKey(static_cast<uint32_t>(seq_[p]),
                   static_cast<uint32_t>(seq_[q]));
  }

  /// The record of `key`, created (uncounted) on first sight. Records are
  /// never removed.
  uint32_t RecordOf(uint32_t key) {
    const uint32_t fresh = static_cast<uint32_t>(records_.size());
    const uint32_t record = index_.FindOrInsert(key, fresh);
    if (record == fresh) records_.push_back({key});
    return record;
  }

  /// Registers the pair occurrence starting at position `p` (second symbol at
  /// `q`) and bumps its count.
  void AddOccurrence(int32_t p, int32_t q) {
    const uint32_t r = RecordOf(KeyAt(p, q));
    PairRecord& rec = records_[r];
    ++rec.count;
    occ_next_[p] = rec.head;
    if (rec.head >= 0) occ_prev_[rec.head] = p;
    rec.head = p;
    occ_prev_[p] = -1;
    if (rec.count < 2) return;
    if (rec.heap_slot == kNone) {
      rec.heap_slot = static_cast<uint32_t>(heap_.size());
      heap_.push_back({0, r});
    }
    heap_[rec.heap_slot].priority = Priority(rec);
    SiftUp(rec.heap_slot);
  }

  /// Unregisters the pair occurrence starting at `p` (second symbol at `q`)
  /// and drops its count.
  void RemoveOccurrence(int32_t p, int32_t q) {
    const uint32_t r = index_.Find(KeyAt(p, q));
    if (r == PairIndex::kMissing) return;
    PairRecord& rec = records_[r];
    if (rec.count == 0) return;  // pair already fully retired
    --rec.count;
    if (rec.heap_slot != kNone) {
      if (rec.count < 2) {
        HeapRemove(r);
      } else {
        heap_[rec.heap_slot].priority = Priority(rec);
        SiftDown(rec.heap_slot);
      }
    }

    const int32_t prev = occ_prev_[p];
    const int32_t next = occ_next_[p];
    if (prev >= 0) occ_next_[prev] = next;
    if (next >= 0) occ_prev_[next] = prev;
    if (rec.head == p) rec.head = next;
    occ_prev_[p] = occ_next_[p] = -1;
  }

  /// Drops a pair's count and occurrence list; occurrences still in the
  /// sequence are then ignored by RemoveOccurrence.
  void Retire(uint32_t r) {
    if (records_[r].heap_slot != kNone) HeapRemove(r);
    records_[r].count = 0;
    records_[r].head = -1;
  }

  static uint64_t Priority(const PairRecord& rec) {
    return (static_cast<uint64_t>(rec.count) << 32) | rec.key;
  }

  void Place(uint32_t slot, HeapEntry entry) {
    heap_[slot] = entry;
    records_[entry.record].heap_slot = slot;
  }

  void SiftUp(uint32_t slot) {
    const HeapEntry entry = heap_[slot];
    while (slot > 0) {
      const uint32_t parent = (slot - 1) / 2;
      if (heap_[parent].priority >= entry.priority) break;
      Place(slot, heap_[parent]);
      slot = parent;
    }
    Place(slot, entry);
  }

  void SiftDown(uint32_t slot) {
    const HeapEntry entry = heap_[slot];
    const uint32_t size = static_cast<uint32_t>(heap_.size());
    while (true) {
      uint32_t child = 2 * slot + 1;
      if (child >= size) break;
      if (child + 1 < size && heap_[child + 1].priority > heap_[child].priority) {
        ++child;
      }
      if (heap_[child].priority <= entry.priority) break;
      Place(slot, heap_[child]);
      slot = child;
    }
    Place(slot, entry);
  }

  void HeapRemove(uint32_t r) {
    const uint32_t slot = records_[r].heap_slot;
    records_[r].heap_slot = kNone;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (slot == heap_.size()) return;
    heap_[slot] = last;
    if (slot > 0 && heap_[(slot - 1) / 2].priority < last.priority) {
      SiftUp(slot);
    } else {
      SiftDown(slot);
    }
  }

  std::vector<int32_t> seq_;
  std::vector<int32_t> nxt_;
  std::vector<int32_t> prv_;
  std::vector<int32_t> occ_next_;
  std::vector<int32_t> occ_prev_;
  std::vector<PairRecord> records_;
  PairIndex index_;  // pair key -> records_ index
  // Max-heap by (count, key) of the records with count >= 2, except the
  // pair being replaced.
  std::vector<HeapEntry> heap_;
};

}  // namespace

size_t PairIndex::SlotOf(uint32_t key) const {
  const size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the product's top bits mix both symbols.
  size_t i = (key * 0x9e3779b97f4a7c15ull) >> shift_;
  while (slots_[i].value != kMissing && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

uint32_t PairIndex::Find(uint32_t key) const {
  return slots_[SlotOf(key)].value;
}

uint32_t PairIndex::FindOrInsert(uint32_t key, uint32_t value) {
  size_t slot = SlotOf(key);
  if (slots_[slot].value != kMissing) return slots_[slot].value;
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old) {
      if (s.value != kMissing) slots_[SlotOf(s.key)] = s;
    }
    slot = SlotOf(key);
  }
  slots_[slot] = {key, value};
  ++size_;
  return value;
}

std::unique_ptr<RePairCodec> RePairCodec::Train(
    int symbol_bits, const std::vector<std::string_view>& samples) {
  ADICT_CHECK(symbol_bits == 12 || symbol_bits == 16);
  auto codec = std::unique_ptr<RePairCodec>(new RePairCodec(symbol_bits));
  codec->rules_ = Trainer(samples).Run(MaxRules(symbol_bits));
  codec->IndexRules();
  return codec;
}

std::unique_ptr<RePairCodec> RePairCodec::Truncated(int symbol_bits) const {
  ADICT_CHECK(symbol_bits == 12 || symbol_bits == 16);
  auto codec = std::unique_ptr<RePairCodec>(new RePairCodec(symbol_bits));
  const size_t kept = std::min(rules_.size(), MaxRules(symbol_bits));
  codec->rules_.assign(rules_.begin(), rules_.begin() + kept);
  codec->IndexRules();
  return codec;
}

std::unique_ptr<RePairCodec> RePairCodec::Deserialize(int symbol_bits,
                                                      ByteReader* in) {
  ADICT_CHECK(symbol_bits == 12 || symbol_bits == 16);
  auto codec = std::unique_ptr<RePairCodec>(new RePairCodec(symbol_bits));
  const std::vector<uint32_t> packed = in->ReadVector<uint32_t>();
  codec->rules_.reserve(packed.size());
  for (const uint32_t key : packed) {
    codec->rules_.emplace_back(static_cast<uint16_t>(key >> 16),
                               static_cast<uint16_t>(key));
  }
  codec->IndexRules();
  return codec;
}

void RePairCodec::IndexRules() {
  for (size_t k = 0; k < rules_.size(); ++k) {
    const auto [a, b] = rules_[k];
    pair_to_rule_.FindOrInsert(PairKey(a, b), static_cast<uint32_t>(k));
  }
}

uint32_t RePairCodec::RuleOf(uint32_t a, uint32_t b) const {
  return pair_to_rule_.Find(PairKey(a, b));
}

void RePairCodec::Serialize(ByteWriter* out) const {
  out->Write<uint16_t>(static_cast<uint16_t>(kind()));
  std::vector<uint32_t> packed;
  packed.reserve(rules_.size());
  for (const auto& [a, b] : rules_) {
    packed.push_back(PairKey(a, b));
  }
  out->WriteVector(packed);
}

void RePairCodec::Parse(std::string_view s,
                        std::vector<uint32_t>* symbols) const {
  std::vector<uint32_t>& sym = *symbols;
  sym.assign(s.size(), 0);
  for (size_t i = 0; i < s.size(); ++i) {
    sym[i] = static_cast<unsigned char>(s[i]);
  }
  if (sym.size() < 2) return;
  // rule_at[i] is the rule for the pair (sym[i], sym[i + 1]), or kNoRule.
  std::vector<uint32_t> rule_at(sym.size() - 1);
  for (size_t i = 0; i + 1 < sym.size(); ++i) {
    rule_at[i] = RuleOf(sym[i], sym[i + 1]);
  }

  // Replay rules in creation order: repeatedly find the lowest-numbered rule
  // whose pair occurs, then replace all its (non-overlapping, leftmost-first)
  // occurrences. Creation order approximates the global frequency order the
  // trainer used, which keeps the parse close to the training parse.
  while (sym.size() >= 2) {
    const uint32_t best = *std::min_element(rule_at.begin(), rule_at.end());
    if (best == kNoRule) break;
    const uint32_t fresh = kFirstRuleSymbol + best;
    const size_t m = sym.size();
    size_t out = 0;
    for (size_t i = 0; i < m; ++out) {
      if (i + 1 < m && rule_at[i] == best) {
        sym[out] = fresh;
        i += 2;
      } else {
        // A kept pair keeps its rule unless its right symbol was replaced.
        sym[out] = sym[i];
        if (i + 1 < m) rule_at[out] = rule_at[i];
        ++i;
      }
    }
    sym.resize(out);
    rule_at.resize(out - 1);
    // Look up again only the pairs a replacement touched.
    for (size_t i = 0; i + 1 < out; ++i) {
      if (sym[i] == fresh || sym[i + 1] == fresh) {
        rule_at[i] = RuleOf(sym[i], sym[i + 1]);
      }
    }
  }
}

uint64_t RePairCodec::Encode(std::string_view s, BitWriter* out) const {
  std::vector<uint32_t> symbols;
  Parse(s, &symbols);
  for (uint32_t sym : symbols) {
    ADICT_DCHECK(sym < (1u << symbol_bits_));
    out->WriteBits(sym, symbol_bits_);
  }
  return static_cast<uint64_t>(symbols.size()) * symbol_bits_;
}

void RePairCodec::ExpandSymbol(uint32_t symbol, std::string* out) const {
  // Iterative expansion with an explicit stack; right children are pushed
  // first so the output is produced left to right.
  std::vector<uint32_t> stack{symbol};
  while (!stack.empty()) {
    const uint32_t sym = stack.back();
    stack.pop_back();
    if (sym < kFirstRuleSymbol) {
      out->push_back(static_cast<char>(sym));
    } else {
      const auto [a, b] = rules_[sym - kFirstRuleSymbol];
      stack.push_back(b);
      stack.push_back(a);
    }
  }
}

void RePairCodec::Decode(BitReader* in, uint64_t bit_len,
                         std::string* out) const {
  ADICT_DCHECK(bit_len % symbol_bits_ == 0);
  const uint64_t num_symbols = bit_len / symbol_bits_;
  for (uint64_t i = 0; i < num_symbols; ++i) {
    ExpandSymbol(static_cast<uint32_t>(in->ReadBits(symbol_bits_)), out);
  }
}

size_t RePairCodec::TableBytes() const {
  // Only the decode-side grammar is persisted with a read-only dictionary;
  // the pair -> rule map is construction-time state.
  return rules_.size() * sizeof(rules_[0]);
}

}  // namespace adict
