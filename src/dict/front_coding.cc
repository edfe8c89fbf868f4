#include "dict/front_coding.h"

#include <algorithm>
#include <cstring>

#include "util/bit_stream.h"
#include "util/check.h"
#include "util/varint.h"

namespace adict {

uint32_t CommonPrefixLength(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return static_cast<uint32_t>(i);
}

namespace {

/// Finds the last block whose first string is <= str. Returns false if str
/// precedes the very first string. `first_of` extracts a block's first
/// string into the scratch buffer and returns a view of it.
template <typename FirstOfFn>
bool FindCandidateBlock(uint32_t num_blocks, std::string_view str,
                        const FirstOfFn& first_of, uint32_t* block) {
  uint32_t lo = 0, hi = num_blocks;  // first block with first string > str
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (first_of(mid) <= str) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;
  *block = lo - 1;
  return true;
}

/// The cursors' step from one front-coded entry to the next: the previous
/// entry's first `prefix_len` bytes stay in `buffer` and `suffix` is copied
/// after them. `buffer` only grows, so an entry costs one copy of its
/// suffix; the returned view covers the entry.
std::string_view SpliceSuffix(std::string* buffer, size_t prefix_len,
                              const uint8_t* suffix, size_t suffix_len) {
  const size_t length = prefix_len + suffix_len;
  if (length > buffer->size()) {
    buffer->resize(std::max(length, 2 * buffer->size()));
  }
  std::memcpy(buffer->data() + prefix_len, suffix, suffix_len);
  return std::string_view(buffer->data(), length);
}

}  // namespace

// ---------------------------------------------------------------------------
// FcBlockDict
// ---------------------------------------------------------------------------

std::unique_ptr<FcBlockDict> FcBlockDict::Build(
    DictFormat format, std::span<const std::string> sorted_unique) {
  ADICT_DCHECK(IsSortedUnique(sorted_unique));
  ADICT_CHECK(format == DictFormat::kFcBlockDf ||
              (IsFrontCodingClass(format) && format != DictFormat::kFcInline));

  auto dict = std::unique_ptr<FcBlockDict>(new FcBlockDict());
  dict->format_ = format;
  dict->diff_to_first_ = format == DictFormat::kFcBlockDf;
  dict->num_strings_ = static_cast<uint32_t>(sorted_unique.size());

  // Pass 1: front-code into (prefix length, suffix) pairs.
  const uint32_t n = dict->num_strings_;
  std::vector<uint32_t> prefix_lens(n, 0);
  std::vector<std::string_view> suffixes(n);
  for (uint32_t i = 0; i < n; ++i) {
    const std::string_view s = sorted_unique[i];
    uint32_t p = 0;
    if (i % kBlockSize != 0) {
      const std::string_view reference =
          dict->diff_to_first_ ? std::string_view(sorted_unique[i - i % kBlockSize])
                               : std::string_view(sorted_unique[i - 1]);
      p = std::min(CommonPrefixLength(reference, s), kMaxPrefixLength);
    }
    prefix_lens[i] = p;
    suffixes[i] = s.substr(p);
  }

  // Train the codec on exactly the parts that get stored.
  const CodecKind codec_kind = DictFormatCodec(format);
  if (codec_kind != CodecKind::kNone) {
    dict->codec_ = TrainCodec(codec_kind, suffixes);
  }

  // Pass 2: emit payload and headers.
  dict->headers_.reserve(static_cast<size_t>(n) * kHeaderBytesPerString);
  dict->offsets_.reserve(dict->NumBlocks());
  BitWriter bit_writer;
  std::vector<uint8_t> raw_data;
  for (uint32_t i = 0; i < n; ++i) {
    if (i % kBlockSize == 0) {
      const uint64_t offset =
          dict->codec_ ? bit_writer.bit_count() : raw_data.size();
      ADICT_CHECK_MSG(offset < (1ull << 32), "fc dictionary payload too large");
      dict->offsets_.push_back(static_cast<uint32_t>(offset));
    }
    uint64_t suffix_size;
    if (dict->codec_) {
      suffix_size = dict->codec_->Encode(suffixes[i], &bit_writer);
    } else {
      raw_data.insert(raw_data.end(), suffixes[i].begin(), suffixes[i].end());
      suffix_size = suffixes[i].size();
    }
    ADICT_CHECK_MSG(suffix_size < (1u << 24), "fc suffix too large for header");
    const uint32_t packed =
        (prefix_lens[i] << 24) | static_cast<uint32_t>(suffix_size);
    dict->headers_.push_back(static_cast<uint8_t>(packed));
    dict->headers_.push_back(static_cast<uint8_t>(packed >> 8));
    dict->headers_.push_back(static_cast<uint8_t>(packed >> 16));
    dict->headers_.push_back(static_cast<uint8_t>(packed >> 24));
  }
  dict->data_ = dict->codec_ ? bit_writer.TakeBytes() : std::move(raw_data);
  dict->data_.shrink_to_fit();
  return dict;
}

void FcBlockDict::ReadSuffix(uint64_t* pos, uint32_t suffix_size,
                             std::string* out) const {
  if (codec_) {
    BitReader reader(data_.data(), *pos);
    codec_->Decode(&reader, suffix_size, out);
  } else {
    out->append(reinterpret_cast<const char*>(data_.data()) + *pos,
                suffix_size);
  }
  *pos += suffix_size;
}

void FcBlockDict::ExtractWithinBlock(uint32_t block, uint32_t index_in_block,
                                     std::string* out) const {
  const size_t base = out->size();
  const uint32_t first = block * kBlockSize;
  uint64_t pos = offsets_[block];

  // First string is always materialized.
  ReadSuffix(&pos, HeaderAt(first).suffix_size, out);
  if (index_in_block == 0) return;

  if (diff_to_first_) {
    // Suffixes differ from the first string: skip the siblings' payload
    // without decoding, then rebuild from the first string's prefix.
    for (uint32_t i = 1; i < index_in_block; ++i) {
      pos += HeaderAt(first + i).suffix_size;
    }
    const Header h = HeaderAt(first + index_in_block);
    out->resize(base + h.prefix_len);
    uint64_t final_pos = pos;
    ReadSuffix(&final_pos, h.suffix_size, out);
    return;
  }

  // Chained differences: materialize every predecessor.
  for (uint32_t i = 1; i <= index_in_block; ++i) {
    const Header h = HeaderAt(first + i);
    out->resize(base + h.prefix_len);
    ReadSuffix(&pos, h.suffix_size, out);
  }
}

void FcBlockDict::ExtractInto(uint32_t id, std::string* out) const {
  ADICT_DCHECK(id < num_strings_);
  ExtractWithinBlock(id / kBlockSize, id % kBlockSize, out);
}

LocateResult FcBlockDict::Locate(std::string_view str) const {
  if (num_strings_ == 0) return {0, false};

  std::string scratch;
  const auto first_of = [this, &scratch](uint32_t block) {
    scratch.clear();
    uint64_t pos = offsets_[block];
    ReadSuffix(&pos, HeaderAt(block * kBlockSize).suffix_size, &scratch);
    return std::string_view(scratch);
  };
  uint32_t block;
  if (!FindCandidateBlock(NumBlocks(), str, first_of, &block)) {
    return {0, false};
  }

  // Sequential scan inside the candidate block. The incremental rebuild is
  // valid for both modes: with diff-to-first, prefix lengths are
  // non-increasing in sorted order, so the running string always agrees with
  // the first string on the required prefix.
  const uint32_t first = block * kBlockSize;
  const uint32_t count = std::min(kBlockSize, num_strings_ - first);
  scratch.clear();
  uint64_t pos = offsets_[block];
  for (uint32_t i = 0; i < count; ++i) {
    const Header h = HeaderAt(first + i);
    scratch.resize(h.prefix_len);  // prefix_len is 0 for i == 0
    ReadSuffix(&pos, h.suffix_size, &scratch);
    if (scratch == str) return {first + i, true};
    if (scratch > str) return {first + i, false};
  }
  return {std::min(first + kBlockSize, num_strings_), false};
}

// Replays a block's chain from its first string: valid for both modes (see
// Locate), so one decoder serves every fc block variant.
class FcBlockDict::BlockCursor final : public Cursor {
 public:
  explicit BlockCursor(const FcBlockDict& dict) : dict_(dict) {}

  void Seek(uint32_t id) override {
    ADICT_DCHECK(id <= dict_.num_strings_);
    next_ = id - id % kBlockSize;
    while (next_ < id) Next();
  }

  std::string_view Next() override {
    ADICT_DCHECK(next_ < dict_.num_strings_);
    if (next_ % kBlockSize == 0) pos_ = dict_.offsets_[next_ / kBlockSize];
    // prefix_len is 0 at a block's first string.
    const Header h = dict_.HeaderAt(next_++);
    if (dict_.codec_ == nullptr) {
      const uint8_t* suffix = dict_.data_.data() + pos_;
      pos_ += h.suffix_size;
      return SpliceSuffix(&buffer_, h.prefix_len, suffix, h.suffix_size);
    }
    buffer_.resize(h.prefix_len);
    dict_.ReadSuffix(&pos_, h.suffix_size, &buffer_);
    return buffer_;
  }

 private:
  const FcBlockDict& dict_;
  uint32_t next_ = 0;
  uint64_t pos_ = 0;
  std::string buffer_;
};

std::unique_ptr<Dictionary::Cursor> FcBlockDict::NewCursor() const {
  return std::make_unique<BlockCursor>(*this);
}

size_t FcBlockDict::MemoryBytes() const {
  return sizeof(*this) + data_.size() + headers_.size() +
         offsets_.size() * sizeof(uint32_t) +
         (codec_ ? codec_->TableBytes() : 0);
}

void FcBlockDict::Serialize(ByteWriter* out) const {
  out->Write<uint16_t>(static_cast<uint16_t>(format_));
  out->Write<uint32_t>(num_strings_);
  SerializeCodec(codec_.get(), out);
  out->WriteVector(data_);
  out->WriteVector(headers_);
  out->WriteVector(offsets_);
}

std::unique_ptr<FcBlockDict> FcBlockDict::Deserialize(ByteReader* in) {
  auto dict = std::unique_ptr<FcBlockDict>(new FcBlockDict());
  const uint16_t raw_tag = in->Read<uint16_t>();
  if (raw_tag >= kNumDictFormats) {
    in->Fail("fc block dictionary format tag corrupt");
    return nullptr;
  }
  dict->format_ = static_cast<DictFormat>(raw_tag);
  dict->diff_to_first_ = dict->format_ == DictFormat::kFcBlockDf;
  dict->num_strings_ = in->Read<uint32_t>();
  dict->codec_ = DeserializeCodec(in);
  dict->data_ = in->ReadVector<uint8_t>();
  dict->headers_ = in->ReadVector<uint8_t>();
  dict->offsets_ = in->ReadVector<uint32_t>();
  if (!IsFrontCodingClass(dict->format_) ||
      (dict->codec_ == nullptr) !=
          (DictFormatCodec(dict->format_) == CodecKind::kNone) ||
      dict->headers_.size() !=
          static_cast<size_t>(dict->num_strings_) * kHeaderBytesPerString) {
    in->Fail("fc block dictionary structure corrupt");
    return nullptr;
  }
  return dict;
}

// ---------------------------------------------------------------------------
// FcInlineDict
// ---------------------------------------------------------------------------

std::unique_ptr<FcInlineDict> FcInlineDict::Build(
    std::span<const std::string> sorted_unique) {
  ADICT_DCHECK(IsSortedUnique(sorted_unique));
  auto dict = std::unique_ptr<FcInlineDict>(new FcInlineDict());
  dict->num_strings_ = static_cast<uint32_t>(sorted_unique.size());
  for (uint32_t i = 0; i < dict->num_strings_; ++i) {
    const std::string_view s = sorted_unique[i];
    uint32_t p = 0;
    if (i % kBlockSize == 0) {
      ADICT_CHECK_MSG(dict->data_.size() < (1ull << 32),
                      "fc inline payload too large");
      dict->offsets_.push_back(static_cast<uint32_t>(dict->data_.size()));
    } else {
      p = CommonPrefixLength(sorted_unique[i - 1], s);
    }
    PutVarint(&dict->data_, p);
    PutVarint(&dict->data_, s.size() - p);
    dict->data_.insert(dict->data_.end(), s.begin() + p, s.end());
  }
  dict->data_.shrink_to_fit();
  return dict;
}

void FcInlineDict::ExtractWithinBlock(uint32_t block, uint32_t index_in_block,
                                      std::string* out) const {
  const size_t base = out->size();
  size_t pos = offsets_[block];
  for (uint32_t i = 0; i <= index_in_block; ++i) {
    const uint64_t prefix_len = GetVarint(data_.data(), &pos);
    const uint64_t suffix_len = GetVarint(data_.data(), &pos);
    out->resize(base + prefix_len);
    out->append(reinterpret_cast<const char*>(data_.data()) + pos, suffix_len);
    pos += suffix_len;
  }
}

void FcInlineDict::ExtractInto(uint32_t id, std::string* out) const {
  ADICT_DCHECK(id < num_strings_);
  ExtractWithinBlock(id / kBlockSize, id % kBlockSize, out);
}

LocateResult FcInlineDict::Locate(std::string_view str) const {
  if (num_strings_ == 0) return {0, false};

  const uint32_t num_blocks = (num_strings_ + kBlockSize - 1) / kBlockSize;
  std::string scratch;
  const auto first_of = [this, &scratch](uint32_t block) {
    scratch.clear();
    ExtractWithinBlock(block, 0, &scratch);
    return std::string_view(scratch);
  };
  uint32_t block;
  if (!FindCandidateBlock(num_blocks, str, first_of, &block)) {
    return {0, false};
  }

  const uint32_t first = block * kBlockSize;
  const uint32_t count = std::min(kBlockSize, num_strings_ - first);
  scratch.clear();
  size_t pos = offsets_[block];
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t prefix_len = GetVarint(data_.data(), &pos);
    const uint64_t suffix_len = GetVarint(data_.data(), &pos);
    scratch.resize(prefix_len);
    scratch.append(reinterpret_cast<const char*>(data_.data()) + pos,
                   suffix_len);
    pos += suffix_len;
    if (scratch == str) return {first + i, true};
    if (scratch > str) return {first + i, false};
  }
  return {std::min(first + kBlockSize, num_strings_), false};
}

// The layout's purpose (paper: "in order to improve sequential access"):
// each entry is two varints and a suffix, read in one forward pass.
class FcInlineDict::StreamCursor final : public Cursor {
 public:
  explicit StreamCursor(const FcInlineDict& dict) : dict_(dict) {}

  void Seek(uint32_t id) override {
    ADICT_DCHECK(id <= dict_.num_strings_);
    next_ = id - id % kBlockSize;
    while (next_ < id) Next();
  }

  std::string_view Next() override {
    ADICT_DCHECK(next_ < dict_.num_strings_);
    if (next_ % kBlockSize == 0) pos_ = dict_.offsets_[next_ / kBlockSize];
    ++next_;
    const uint8_t* data = dict_.data_.data();
    // prefix_len is 0 at a block's first string.
    const uint64_t prefix_len = GetVarint(data, &pos_);
    const uint64_t suffix_len = GetVarint(data, &pos_);
    const uint8_t* suffix = data + pos_;
    pos_ += suffix_len;
    return SpliceSuffix(&buffer_, prefix_len, suffix, suffix_len);
  }

 private:
  const FcInlineDict& dict_;
  uint32_t next_ = 0;
  size_t pos_ = 0;
  std::string buffer_;
};

std::unique_ptr<Dictionary::Cursor> FcInlineDict::NewCursor() const {
  return std::make_unique<StreamCursor>(*this);
}

size_t FcInlineDict::MemoryBytes() const {
  return sizeof(*this) + data_.size() + offsets_.size() * sizeof(uint32_t);
}

void FcInlineDict::Serialize(ByteWriter* out) const {
  out->Write<uint32_t>(num_strings_);
  out->WriteVector(data_);
  out->WriteVector(offsets_);
}

std::unique_ptr<FcInlineDict> FcInlineDict::Deserialize(ByteReader* in) {
  auto dict = std::unique_ptr<FcInlineDict>(new FcInlineDict());
  dict->num_strings_ = in->Read<uint32_t>();
  dict->data_ = in->ReadVector<uint8_t>();
  dict->offsets_ = in->ReadVector<uint32_t>();
  const size_t expected_blocks =
      (static_cast<size_t>(dict->num_strings_) + kBlockSize - 1) / kBlockSize;
  if (dict->offsets_.size() != expected_blocks ||
      !std::is_sorted(dict->offsets_.begin(), dict->offsets_.end()) ||
      (!dict->offsets_.empty() &&
       dict->offsets_.back() >= dict->data_.size())) {
    in->Fail("fc inline dictionary structure corrupt");
    return nullptr;
  }
  return dict;
}

}  // namespace adict
