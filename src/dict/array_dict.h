// Array-class dictionaries: one consecutive payload area plus an offset
// ("pointer") per string (paper Section 3.3).
//
// Two implementations share this header: RawArrayDict stores plain bytes and
// byte offsets; CodedArrayDict stores codec output and bit offsets, so
// bit-granular codes pack without padding.
#ifndef ADICT_DICT_ARRAY_DICT_H_
#define ADICT_DICT_ARRAY_DICT_H_

#include <memory>
#include <vector>

#include "dict/dictionary.h"

namespace adict {

/// `array`: uncompressed strings, byte offsets. The fastest general format.
class RawArrayDict final : public Dictionary {
 public:
  static std::unique_ptr<RawArrayDict> Build(
      std::span<const std::string> sorted_unique);

  uint32_t size() const override {
    return static_cast<uint32_t>(offsets_.size()) - 1;
  }
  void ExtractInto(uint32_t id, std::string* out) const override;
  LocateResult Locate(std::string_view str) const override;
  /// Zero copy: Next() returns a view of the payload.
  std::unique_ptr<Cursor> NewCursor() const override;
  size_t MemoryBytes() const override;
  DictFormat format() const override { return DictFormat::kArray; }
  void Serialize(ByteWriter* out) const override;

  /// Reconstructs a dictionary written by Serialize.
  static std::unique_ptr<RawArrayDict> Deserialize(ByteReader* in);

  /// Zero-copy view of entry `id` (specific to the raw format).
  std::string_view View(uint32_t id) const {
    return std::string_view(data_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

 private:
  RawArrayDict() = default;

  std::string data_;
  std::vector<uint32_t> offsets_;  // n + 1 byte offsets
};

/// `array <codec>`: codec-compressed strings, bit offsets.
class CodedArrayDict final : public Dictionary {
 public:
  /// Trains `codec_kind` on the full input and encodes every string.
  static std::unique_ptr<CodedArrayDict> Build(
      DictFormat format, std::span<const std::string> sorted_unique);

  uint32_t size() const override {
    return static_cast<uint32_t>(offsets_.size()) - 1;
  }
  void ExtractInto(uint32_t id, std::string* out) const override;
  LocateResult Locate(std::string_view str) const override;
  size_t MemoryBytes() const override;
  DictFormat format() const override { return format_; }
  void Serialize(ByteWriter* out) const override;

  /// Reconstructs a dictionary written by Serialize.
  static std::unique_ptr<CodedArrayDict> Deserialize(ByteReader* in);

  const StringCodec& codec() const { return *codec_; }

 private:
  CodedArrayDict() = default;

  DictFormat format_ = DictFormat::kArray;
  std::unique_ptr<StringCodec> codec_;
  std::vector<uint8_t> data_;
  std::vector<uint32_t> offsets_;  // n + 1 bit offsets
};

/// `array fixed`: every entry occupies max-string-length bytes; no pointers.
/// Entries are NUL-padded, so input strings must not contain NUL bytes.
class FixedArrayDict final : public Dictionary {
 public:
  static std::unique_ptr<FixedArrayDict> Build(
      std::span<const std::string> sorted_unique);

  uint32_t size() const override { return num_strings_; }
  void ExtractInto(uint32_t id, std::string* out) const override;
  LocateResult Locate(std::string_view str) const override;
  size_t MemoryBytes() const override;
  DictFormat format() const override { return DictFormat::kArrayFixed; }
  void Serialize(ByteWriter* out) const override;

  /// Reconstructs a dictionary written by Serialize.
  static std::unique_ptr<FixedArrayDict> Deserialize(ByteReader* in);

  /// Slot width in bytes (= longest string).
  uint32_t slot_width() const { return width_; }

 private:
  FixedArrayDict() = default;

  std::string_view View(uint32_t id) const;

  std::string data_;
  uint32_t num_strings_ = 0;
  uint32_t width_ = 0;
};

}  // namespace adict

#endif  // ADICT_DICT_ARRAY_DICT_H_
