#include "dict/column_bc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <string>

#include "util/bit_stream.h"
#include "util/check.h"

namespace adict {
namespace {

// Block layout (byte-aligned header, then one bit-packed payload):
//   u16 num_rows, u16 max_len, u8 len_width
//   per character position j < max_len:
//     u8 alpha_size - 1, then alpha_size sorted alphabet bytes
//   payload bits:
//     lengths   num_rows * len_width
//     column j  num_rows * width_j          (width_j = bits for alpha_size_j)

inline int WidthForAlphabet(int alpha_size) {
  return alpha_size <= 1 ? 0 : std::bit_width(static_cast<unsigned>(alpha_size - 1));
}

inline uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

size_t ColumnBcDict::EncodeBlock(std::span<const std::string_view> rows,
                                 std::vector<uint8_t>* arena) {
  ADICT_CHECK(!rows.empty() && rows.size() < (1u << 16));
  const size_t start = arena->size();
  const uint32_t num_rows = static_cast<uint32_t>(rows.size());
  size_t max_len = 0;
  for (std::string_view r : rows) max_len = std::max(max_len, r.size());
  ADICT_CHECK_MSG(max_len < (1u << 16), "column bc string too long");

  const int len_width =
      max_len == 0 ? 0 : std::bit_width(static_cast<unsigned>(max_len));
  arena->push_back(static_cast<uint8_t>(num_rows));
  arena->push_back(static_cast<uint8_t>(num_rows >> 8));
  arena->push_back(static_cast<uint8_t>(max_len));
  arena->push_back(static_cast<uint8_t>(max_len >> 8));
  arena->push_back(static_cast<uint8_t>(len_width));

  // Per-position alphabets (pad byte 0 for rows shorter than the position).
  std::vector<std::array<uint8_t, 256>> char_to_code(max_len);
  std::vector<int> widths(max_len);
  for (size_t j = 0; j < max_len; ++j) {
    std::array<bool, 256> seen{};
    for (std::string_view r : rows) {
      seen[j < r.size() ? static_cast<unsigned char>(r[j]) : 0] = true;
    }
    int alpha_size = 0;
    std::array<uint8_t, 256>& mapping = char_to_code[j];
    const size_t alpha_size_pos = arena->size();
    arena->push_back(0);  // patched below
    for (int c = 0; c < 256; ++c) {
      if (!seen[c]) continue;
      mapping[c] = static_cast<uint8_t>(alpha_size++);
      arena->push_back(static_cast<uint8_t>(c));
    }
    (*arena)[alpha_size_pos] = static_cast<uint8_t>(alpha_size - 1);
    widths[j] = WidthForAlphabet(alpha_size);
  }

  // Payload.
  BitWriter payload;
  for (std::string_view r : rows) {
    payload.WriteBits(r.size(), len_width);
  }
  for (size_t j = 0; j < max_len; ++j) {
    if (widths[j] == 0) continue;
    for (std::string_view r : rows) {
      const unsigned char ch = j < r.size() ? static_cast<unsigned char>(r[j]) : 0;
      payload.WriteBits(char_to_code[j][ch], widths[j]);
    }
  }
  const std::vector<uint8_t> payload_bytes = payload.TakeBytes();
  arena->insert(arena->end(), payload_bytes.begin(), payload_bytes.end());
  return arena->size() - start;
}

std::unique_ptr<ColumnBcDict> ColumnBcDict::Build(
    std::span<const std::string> sorted_unique) {
  ADICT_DCHECK(IsSortedUnique(sorted_unique));
  auto dict = std::unique_ptr<ColumnBcDict>(new ColumnBcDict());
  dict->num_strings_ = static_cast<uint32_t>(sorted_unique.size());
  std::vector<std::string_view> rows;
  for (uint32_t first = 0; first < dict->num_strings_; first += kBlockSize) {
    const uint32_t count = std::min(kBlockSize, dict->num_strings_ - first);
    rows.assign(sorted_unique.begin() + first,
                sorted_unique.begin() + first + count);
    ADICT_CHECK_MSG(dict->arena_.size() < (1ull << 32),
                    "column bc payload too large");
    dict->offsets_.push_back(static_cast<uint32_t>(dict->arena_.size()));
    EncodeBlock(rows, &dict->arena_);
  }
  dict->arena_.shrink_to_fit();
  return dict;
}

void ColumnBcDict::DecodeRow(size_t offset, uint32_t row,
                             std::string* out) const {
  const uint8_t* block = arena_.data() + offset;
  const uint32_t num_rows = ReadU16(block);
  const uint32_t max_len = ReadU16(block + 2);
  const int len_width = block[4];
  ADICT_DCHECK(row < num_rows);

  // Pass 1: total header size (to find the payload).
  size_t header_pos = 5;
  for (uint32_t j = 0; j < max_len; ++j) {
    header_pos += 2 + block[header_pos];  // size byte + (alpha_size-1)+1 chars
  }
  const uint64_t payload_bit = (offset + header_pos) * 8;

  BitReader len_reader(arena_.data(), payload_bit + row * len_width);
  const uint32_t len = static_cast<uint32_t>(len_reader.ReadBits(len_width));

  // Pass 2: walk the alphabets again, reading this row's code per column.
  size_t alpha_pos = 5;
  uint64_t column_bit = payload_bit + static_cast<uint64_t>(num_rows) * len_width;
  for (uint32_t j = 0; j < len; ++j) {
    const int alpha_size = block[alpha_pos] + 1;
    const int width = WidthForAlphabet(alpha_size);
    if (width == 0) {
      out->push_back(static_cast<char>(block[alpha_pos + 1]));
    } else {
      BitReader reader(arena_.data(), column_bit + row * width);
      const uint64_t code = reader.ReadBits(width);
      out->push_back(static_cast<char>(block[alpha_pos + 1 + code]));
    }
    alpha_pos += 2 + block[alpha_pos];
    column_bit += static_cast<uint64_t>(num_rows) * width;
  }
}

void ColumnBcDict::ExtractInto(uint32_t id, std::string* out) const {
  ADICT_DCHECK(id < num_strings_);
  DecodeRow(offsets_[id / kBlockSize], id % kBlockSize, out);
}

LocateResult ColumnBcDict::Locate(std::string_view str) const {
  if (num_strings_ == 0) return {0, false};

  // Binary search for the last block whose first row is <= str.
  const uint32_t num_blocks = static_cast<uint32_t>(offsets_.size());
  std::string scratch;
  uint32_t lo = 0, hi = num_blocks;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    scratch.clear();
    DecodeRow(offsets_[mid], 0, &scratch);
    if (scratch <= str) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return {0, false};
  const uint32_t block = lo - 1;

  const uint32_t first = block * kBlockSize;
  const uint32_t count = std::min(kBlockSize, num_strings_ - first);
  for (uint32_t i = 0; i < count; ++i) {
    scratch.clear();
    DecodeRow(offsets_[block], i, &scratch);
    if (scratch == str) return {first + i, true};
    if (scratch > str) return {first + i, false};
  }
  return {std::min(first + kBlockSize, num_strings_), false};
}

// Reads each character column's codes in one forward pass over the block's
// payload, instead of walking the block header and seeking into every
// column once per row as an extract does.
class ColumnBcDict::BlockCursor final : public Cursor {
 public:
  explicit BlockCursor(const ColumnBcDict& dict) : dict_(dict) {}

  void Seek(uint32_t id) override {
    ADICT_DCHECK(id <= dict_.num_strings_);
    next_ = id;
  }

  std::string_view Next() override {
    ADICT_DCHECK(next_ < dict_.num_strings_);
    const uint32_t block = next_ / kBlockSize;
    if (block != block_) DecodeBlock(block);
    const uint32_t row = next_++ % kBlockSize;
    return std::string_view(rows_.data() + size_t{row} * max_len_,
                            lengths_[row]);
  }

 private:
  // Decodes every row of `block` into `rows_`, max_len_ bytes per row.
  void DecodeBlock(uint32_t block) {
    block_ = block;
    const size_t offset = dict_.offsets_[block];
    const uint8_t* data = dict_.arena_.data() + offset;
    const uint32_t num_rows = ReadU16(data);
    max_len_ = ReadU16(data + 2);
    const int len_width = data[4];
    size_t header_pos = 5;
    for (uint32_t j = 0; j < max_len_; ++j) header_pos += 2 + data[header_pos];

    BitReader reader(dict_.arena_.data(), (offset + header_pos) * 8);
    lengths_.resize(num_rows);
    for (uint32_t& length : lengths_) {
      length = static_cast<uint32_t>(reader.ReadBits(len_width));
    }
    rows_.resize(size_t{num_rows} * max_len_);
    size_t alpha_pos = 5;
    for (uint32_t j = 0; j < max_len_; ++j) {
      const uint8_t* alphabet = data + alpha_pos + 1;
      const int width = WidthForAlphabet(data[alpha_pos] + 1);
      for (uint32_t row = 0; row < num_rows; ++row) {
        rows_[size_t{row} * max_len_ + j] = static_cast<char>(
            alphabet[width == 0 ? 0 : reader.ReadBits(width)]);
      }
      alpha_pos += 2 + data[alpha_pos];
    }
  }

  const ColumnBcDict& dict_;
  uint32_t next_ = 0;
  uint32_t block_ = std::numeric_limits<uint32_t>::max();  // none decoded
  uint32_t max_len_ = 0;
  std::string rows_;
  std::vector<uint32_t> lengths_;
};

std::unique_ptr<Dictionary::Cursor> ColumnBcDict::NewCursor() const {
  return std::make_unique<BlockCursor>(*this);
}

size_t ColumnBcDict::MemoryBytes() const {
  return sizeof(*this) + arena_.size() + offsets_.size() * sizeof(uint32_t);
}

void ColumnBcDict::Serialize(ByteWriter* out) const {
  out->Write<uint32_t>(num_strings_);
  out->WriteVector(arena_);
  out->WriteVector(offsets_);
}

std::unique_ptr<ColumnBcDict> ColumnBcDict::Deserialize(ByteReader* in) {
  auto dict = std::unique_ptr<ColumnBcDict>(new ColumnBcDict());
  dict->num_strings_ = in->Read<uint32_t>();
  dict->arena_ = in->ReadVector<uint8_t>();
  dict->offsets_ = in->ReadVector<uint32_t>();
  const size_t expected_blocks =
      (static_cast<size_t>(dict->num_strings_) + kBlockSize - 1) / kBlockSize;
  if (dict->offsets_.size() != expected_blocks ||
      !std::is_sorted(dict->offsets_.begin(), dict->offsets_.end()) ||
      (!dict->offsets_.empty() &&
       dict->offsets_.back() >= dict->arena_.size())) {
    in->Fail("column bc dictionary structure corrupt");
    return nullptr;
  }
  return dict;
}

}  // namespace adict
