#include "dict/dictionary.h"

#include <algorithm>
#include <array>

#include "dict/array_dict.h"
#include "dict/column_bc.h"
#include "dict/front_coding.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/check.h"

namespace adict {
namespace {

constexpr std::array<DictFormat, kNumDictFormats> kAllFormats = {
    DictFormat::kArray,       DictFormat::kArrayBc,
    DictFormat::kArrayHu,     DictFormat::kArrayNg2,
    DictFormat::kArrayNg3,    DictFormat::kArrayRp12,
    DictFormat::kArrayRp16,   DictFormat::kArrayFixed,
    DictFormat::kFcBlock,     DictFormat::kFcBlockBc,
    DictFormat::kFcBlockHu,   DictFormat::kFcBlockNg2,
    DictFormat::kFcBlockNg3,  DictFormat::kFcBlockRp12,
    DictFormat::kFcBlockRp16, DictFormat::kFcBlockDf,
    DictFormat::kFcInline,    DictFormat::kColumnBc,
};

/// The cursor of the formats without a sequential decoder of their own
/// (coded arrays, array fixed): one extract per entry.
class ExtractCursor final : public Dictionary::Cursor {
 public:
  explicit ExtractCursor(const Dictionary& dict) : dict_(dict) {}

  void Seek(uint32_t id) override {
    ADICT_DCHECK(id <= dict_.size());
    next_ = id;
  }

  std::string_view Next() override {
    ADICT_DCHECK(next_ < dict_.size());
    value_.clear();
    dict_.ExtractInto(next_++, &value_);
    return value_;
  }

 private:
  const Dictionary& dict_;
  uint32_t next_ = 0;
  std::string value_;
};

}  // namespace

std::span<const DictFormat> AllDictFormats() { return kAllFormats; }

std::unique_ptr<Dictionary::Cursor> Dictionary::NewCursor() const {
  return std::make_unique<ExtractCursor>(*this);
}

std::string_view DictFormatName(DictFormat format) {
  switch (format) {
    case DictFormat::kArray:
      return "array";
    case DictFormat::kArrayBc:
      return "array bc";
    case DictFormat::kArrayHu:
      return "array hu";
    case DictFormat::kArrayNg2:
      return "array ng2";
    case DictFormat::kArrayNg3:
      return "array ng3";
    case DictFormat::kArrayRp12:
      return "array rp 12";
    case DictFormat::kArrayRp16:
      return "array rp 16";
    case DictFormat::kArrayFixed:
      return "array fixed";
    case DictFormat::kFcBlock:
      return "fc block";
    case DictFormat::kFcBlockBc:
      return "fc block bc";
    case DictFormat::kFcBlockHu:
      return "fc block hu";
    case DictFormat::kFcBlockNg2:
      return "fc block ng2";
    case DictFormat::kFcBlockNg3:
      return "fc block ng3";
    case DictFormat::kFcBlockRp12:
      return "fc block rp 12";
    case DictFormat::kFcBlockRp16:
      return "fc block rp 16";
    case DictFormat::kFcBlockDf:
      return "fc block df";
    case DictFormat::kFcInline:
      return "fc inline";
    case DictFormat::kColumnBc:
      return "column bc";
  }
  return "?";
}

CodecKind DictFormatCodec(DictFormat format) {
  switch (format) {
    case DictFormat::kArrayBc:
    case DictFormat::kFcBlockBc:
      return CodecKind::kBitCompress;
    case DictFormat::kArrayHu:
    case DictFormat::kFcBlockHu:
      // Order preservation is required by every dictionary, so "hu" means
      // Hu-Tucker here (the paper uses Hu-Tucker whenever order matters).
      return CodecKind::kHuTucker;
    case DictFormat::kArrayNg2:
    case DictFormat::kFcBlockNg2:
      return CodecKind::kNgram2;
    case DictFormat::kArrayNg3:
    case DictFormat::kFcBlockNg3:
      return CodecKind::kNgram3;
    case DictFormat::kArrayRp12:
    case DictFormat::kFcBlockRp12:
      return CodecKind::kRePair12;
    case DictFormat::kArrayRp16:
    case DictFormat::kFcBlockRp16:
      return CodecKind::kRePair16;
    default:
      return CodecKind::kNone;
  }
}

bool IsArrayClass(DictFormat format) {
  switch (format) {
    case DictFormat::kArray:
    case DictFormat::kArrayBc:
    case DictFormat::kArrayHu:
    case DictFormat::kArrayNg2:
    case DictFormat::kArrayNg3:
    case DictFormat::kArrayRp12:
    case DictFormat::kArrayRp16:
    case DictFormat::kArrayFixed:
      return true;
    default:
      return false;
  }
}

bool IsFrontCodingClass(DictFormat format) {
  switch (format) {
    case DictFormat::kFcBlock:
    case DictFormat::kFcBlockBc:
    case DictFormat::kFcBlockHu:
    case DictFormat::kFcBlockNg2:
    case DictFormat::kFcBlockNg3:
    case DictFormat::kFcBlockRp12:
    case DictFormat::kFcBlockRp16:
    case DictFormat::kFcBlockDf:
    case DictFormat::kFcInline:
      return true;
    default:
      return false;
  }
}

namespace {

std::unique_ptr<Dictionary> BuildDictionaryImpl(
    DictFormat format, std::span<const std::string> sorted_unique) {
  switch (format) {
    case DictFormat::kArray:
      return RawArrayDict::Build(sorted_unique);
    case DictFormat::kArrayBc:
    case DictFormat::kArrayHu:
    case DictFormat::kArrayNg2:
    case DictFormat::kArrayNg3:
    case DictFormat::kArrayRp12:
    case DictFormat::kArrayRp16:
      return CodedArrayDict::Build(format, sorted_unique);
    case DictFormat::kArrayFixed:
      return FixedArrayDict::Build(sorted_unique);
    case DictFormat::kFcBlock:
    case DictFormat::kFcBlockBc:
    case DictFormat::kFcBlockHu:
    case DictFormat::kFcBlockNg2:
    case DictFormat::kFcBlockNg3:
    case DictFormat::kFcBlockRp12:
    case DictFormat::kFcBlockRp16:
    case DictFormat::kFcBlockDf:
      return FcBlockDict::Build(format, sorted_unique);
    case DictFormat::kFcInline:
      return FcInlineDict::Build(sorted_unique);
    case DictFormat::kColumnBc:
      return ColumnBcDict::Build(sorted_unique);
  }
  ADICT_CHECK_MSG(false, "unknown dictionary format");
  return nullptr;
}

}  // namespace

Status CheckBuildPreconditions(DictFormat format,
                               std::span<const std::string> sorted_unique) {
  if (!IsSortedUnique(sorted_unique)) {
    return Status::FailedPrecondition("input not sorted strictly ascending");
  }
  if (sorted_unique.size() >= 0xFFFFFFFFull) {
    return Status::ResourceExhausted("too many entries for 32-bit value IDs");
  }
  const uint64_t raw_bytes = RawDataBytes(sorted_unique);
  uint64_t max_len = 0;
  for (const std::string& s : sorted_unique) {
    max_len = std::max<uint64_t>(max_len, s.size());
  }
  constexpr uint64_t kPayloadLimit = 1ull << 32;  // 32-bit offsets everywhere

  if (format == DictFormat::kArray && raw_bytes >= kPayloadLimit) {
    return Status::ResourceExhausted("array payload exceeds 32-bit offsets");
  }
  if (IsArrayClass(format) && DictFormatCodec(format) != CodecKind::kNone &&
      raw_bytes * 2 >= kPayloadLimit) {
    // Conservative proxy: no codec in the survey expands beyond 2x, and bit
    // offsets must stay below 2^32.
    return Status::ResourceExhausted("coded array payload may exceed limits");
  }
  if (format == DictFormat::kArrayFixed) {
    if (max_len * sorted_unique.size() >= kPayloadLimit) {
      return Status::ResourceExhausted("fixed array slots exceed size limit");
    }
    for (const std::string& s : sorted_unique) {
      if (s.find('\0') != std::string::npos) {
        return Status::FailedPrecondition(
            "array fixed requires NUL-free strings");
      }
    }
  }
  if (IsFrontCodingClass(format)) {
    if (max_len >= (1u << 24)) {
      return Status::FailedPrecondition(
          "front coding headers limit strings to 16 MiB");
    }
    if (raw_bytes + 10 * sorted_unique.size() >= kPayloadLimit) {
      return Status::ResourceExhausted("fc payload exceeds 32-bit offsets");
    }
  }
  if (format == DictFormat::kColumnBc) {
    if (max_len >= (1u << 16)) {
      return Status::FailedPrecondition(
          "column bc limits strings to 64 KiB");
    }
    if (raw_bytes * 2 >= kPayloadLimit) {
      return Status::ResourceExhausted("column bc arena may exceed limits");
    }
  }
  return Status::Ok();
}

std::unique_ptr<Dictionary> BuildDictionary(
    DictFormat format, std::span<const std::string> sorted_unique) {
  ADICT_TRACE_SPAN("dict.build");
  if (!obs::Enabled()) return BuildDictionaryImpl(format, sorted_unique);

  static obs::Counter* builds = obs::Metrics().GetCounter(
      "dict.build.count", "builds", "dictionaries constructed");
  static obs::Counter* strings = obs::Metrics().GetCounter(
      "dict.build.strings", "strings", "entries across all builds");
  static obs::Counter* bytes = obs::Metrics().GetCounter(
      "dict.build.bytes", "bytes", "total footprint of built dictionaries");
  static obs::Histogram* build_us = obs::Metrics().GetHistogram(
      "dict.build.us", {}, "us", "per-dictionary construction time");

  std::unique_ptr<Dictionary> dict;
  {
    obs::ScopedTimer timer(build_us);
    dict = BuildDictionaryImpl(format, sorted_unique);
  }
  builds->Increment();
  strings->Increment(sorted_unique.size());
  bytes->Increment(dict->MemoryBytes());
  return dict;
}

bool IsSortedUnique(std::span<const std::string> strings) {
  for (size_t i = 1; i < strings.size(); ++i) {
    if (strings[i - 1] >= strings[i]) return false;
  }
  return true;
}

uint64_t RawDataBytes(std::span<const std::string> strings) {
  uint64_t total = 0;
  for (const std::string& s : strings) total += s.size();
  return total;
}

}  // namespace adict
