#include "dict/array_dict.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace adict {
namespace {

/// Generic binary search returning LocateResult; `extract(i)` must yield the
/// i-th string.
template <typename ExtractFn>
LocateResult BinarySearch(uint32_t n, std::string_view str,
                          const ExtractFn& extract) {
  uint32_t lo = 0, hi = n;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (extract(mid) < str) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const bool found = lo < n && extract(lo) == str;
  return {lo, found};
}

}  // namespace

// ---------------------------------------------------------------------------
// RawArrayDict
// ---------------------------------------------------------------------------

std::unique_ptr<RawArrayDict> RawArrayDict::Build(
    std::span<const std::string> sorted_unique) {
  ADICT_DCHECK(IsSortedUnique(sorted_unique));
  auto dict = std::unique_ptr<RawArrayDict>(new RawArrayDict());
  const uint64_t total = RawDataBytes(sorted_unique);
  ADICT_CHECK_MSG(total < (1ull << 32), "array dictionary payload too large");
  dict->data_.reserve(total);
  dict->offsets_.reserve(sorted_unique.size() + 1);
  dict->offsets_.push_back(0);
  for (const std::string& s : sorted_unique) {
    dict->data_ += s;
    dict->offsets_.push_back(static_cast<uint32_t>(dict->data_.size()));
  }
  return dict;
}

void RawArrayDict::ExtractInto(uint32_t id, std::string* out) const {
  ADICT_DCHECK(id < size());
  out->append(View(id));
}

LocateResult RawArrayDict::Locate(std::string_view str) const {
  return BinarySearch(size(), str, [this](uint32_t i) { return View(i); });
}

std::unique_ptr<Dictionary::Cursor> RawArrayDict::NewCursor() const {
  class ViewCursor final : public Cursor {
   public:
    explicit ViewCursor(const RawArrayDict& dict) : dict_(dict) {}
    void Seek(uint32_t id) override {
      ADICT_DCHECK(id <= dict_.size());
      next_ = id;
    }
    std::string_view Next() override {
      ADICT_DCHECK(next_ < dict_.size());
      return dict_.View(next_++);
    }

   private:
    const RawArrayDict& dict_;
    uint32_t next_ = 0;
  };
  return std::make_unique<ViewCursor>(*this);
}

size_t RawArrayDict::MemoryBytes() const {
  return sizeof(*this) + data_.size() + offsets_.size() * sizeof(uint32_t);
}

void RawArrayDict::Serialize(ByteWriter* out) const {
  out->WriteString(data_);
  out->WriteVector(offsets_);
}

std::unique_ptr<RawArrayDict> RawArrayDict::Deserialize(ByteReader* in) {
  auto dict = std::unique_ptr<RawArrayDict>(new RawArrayDict());
  dict->data_ = in->ReadString();
  dict->offsets_ = in->ReadVector<uint32_t>();
  if (dict->offsets_.empty() || dict->offsets_.front() != 0 ||
      dict->offsets_.back() != dict->data_.size() ||
      !std::is_sorted(dict->offsets_.begin(), dict->offsets_.end())) {
    in->Fail("raw array dictionary offsets corrupt");
    return nullptr;
  }
  return dict;
}

// ---------------------------------------------------------------------------
// CodedArrayDict
// ---------------------------------------------------------------------------

std::unique_ptr<CodedArrayDict> CodedArrayDict::Build(
    DictFormat format, std::span<const std::string> sorted_unique) {
  ADICT_DCHECK(IsSortedUnique(sorted_unique));
  const CodecKind codec_kind = DictFormatCodec(format);
  ADICT_CHECK(codec_kind != CodecKind::kNone);

  auto dict = std::unique_ptr<CodedArrayDict>(new CodedArrayDict());
  dict->format_ = format;
  std::vector<std::string_view> views(sorted_unique.begin(),
                                      sorted_unique.end());
  dict->codec_ = TrainCodec(codec_kind, views);

  BitWriter writer;
  dict->offsets_.reserve(sorted_unique.size() + 1);
  dict->offsets_.push_back(0);
  for (const std::string& s : sorted_unique) {
    dict->codec_->Encode(s, &writer);
    ADICT_CHECK_MSG(writer.bit_count() < (1ull << 32),
                    "array dictionary payload too large");
    dict->offsets_.push_back(static_cast<uint32_t>(writer.bit_count()));
  }
  dict->data_ = writer.TakeBytes();
  dict->data_.shrink_to_fit();
  return dict;
}

void CodedArrayDict::ExtractInto(uint32_t id, std::string* out) const {
  ADICT_DCHECK(id < size());
  BitReader reader(data_.data(), offsets_[id]);
  codec_->Decode(&reader, offsets_[id + 1] - offsets_[id], out);
}

LocateResult CodedArrayDict::Locate(std::string_view str) const {
  std::string scratch;
  return BinarySearch(size(), str, [this, &scratch](uint32_t i) {
    scratch.clear();
    ExtractInto(i, &scratch);
    return std::string_view(scratch);
  });
}

size_t CodedArrayDict::MemoryBytes() const {
  return sizeof(*this) + data_.size() + offsets_.size() * sizeof(uint32_t) +
         codec_->TableBytes();
}

void CodedArrayDict::Serialize(ByteWriter* out) const {
  out->Write<uint16_t>(static_cast<uint16_t>(format_));
  SerializeCodec(codec_.get(), out);
  out->WriteVector(data_);
  out->WriteVector(offsets_);
}

std::unique_ptr<CodedArrayDict> CodedArrayDict::Deserialize(ByteReader* in) {
  auto dict = std::unique_ptr<CodedArrayDict>(new CodedArrayDict());
  dict->format_ = static_cast<DictFormat>(in->Read<uint16_t>());
  dict->codec_ = DeserializeCodec(in);
  if (dict->codec_ == nullptr) {
    in->Fail("coded array dictionary without codec");
    return nullptr;
  }
  dict->data_ = in->ReadVector<uint8_t>();
  dict->offsets_ = in->ReadVector<uint32_t>();
  if (dict->offsets_.empty() || dict->offsets_.front() != 0 ||
      dict->offsets_.back() > dict->data_.size() * 8 ||
      !std::is_sorted(dict->offsets_.begin(), dict->offsets_.end())) {
    in->Fail("coded array dictionary offsets corrupt");
    return nullptr;
  }
  return dict;
}

// ---------------------------------------------------------------------------
// FixedArrayDict
// ---------------------------------------------------------------------------

std::unique_ptr<FixedArrayDict> FixedArrayDict::Build(
    std::span<const std::string> sorted_unique) {
  ADICT_DCHECK(IsSortedUnique(sorted_unique));
  auto dict = std::unique_ptr<FixedArrayDict>(new FixedArrayDict());
  dict->num_strings_ = static_cast<uint32_t>(sorted_unique.size());
  size_t width = 0;
  for (const std::string& s : sorted_unique) {
    ADICT_CHECK_MSG(s.find('\0') == std::string::npos,
                    "array fixed requires NUL-free strings");
    width = std::max(width, s.size());
  }
  dict->width_ = static_cast<uint32_t>(width);
  dict->data_.assign(width * sorted_unique.size(), '\0');
  for (size_t i = 0; i < sorted_unique.size(); ++i) {
    std::memcpy(dict->data_.data() + i * width, sorted_unique[i].data(),
                sorted_unique[i].size());
  }
  return dict;
}

std::string_view FixedArrayDict::View(uint32_t id) const {
  const char* slot = data_.data() + static_cast<size_t>(id) * width_;
  // Entries are NUL-free (Build checks it), so the first NUL ends the entry
  // and the rest of the slot is padding: the search costs the entry's
  // length, not the slot's.
  const void* nul = std::memchr(slot, '\0', width_);
  return std::string_view(
      slot, nul == nullptr ? width_ : static_cast<const char*>(nul) - slot);
}

void FixedArrayDict::ExtractInto(uint32_t id, std::string* out) const {
  ADICT_DCHECK(id < size());
  out->append(View(id));
}

LocateResult FixedArrayDict::Locate(std::string_view str) const {
  return BinarySearch(size(), str, [this](uint32_t i) { return View(i); });
}

size_t FixedArrayDict::MemoryBytes() const {
  return sizeof(*this) + data_.size();
}

void FixedArrayDict::Serialize(ByteWriter* out) const {
  out->Write<uint32_t>(num_strings_);
  out->Write<uint32_t>(width_);
  out->WriteString(data_);
}

std::unique_ptr<FixedArrayDict> FixedArrayDict::Deserialize(ByteReader* in) {
  auto dict = std::unique_ptr<FixedArrayDict>(new FixedArrayDict());
  dict->num_strings_ = in->Read<uint32_t>();
  dict->width_ = in->Read<uint32_t>();
  dict->data_ = in->ReadString();
  if (dict->data_.size() !=
      static_cast<size_t>(dict->num_strings_) * dict->width_) {
    in->Fail("fixed array dictionary size mismatch");
    return nullptr;
  }
  return dict;
}

}  // namespace adict
