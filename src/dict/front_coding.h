// Blockwise front coding dictionaries (paper Section 3.3).
//
// Strings are grouped into blocks of kBlockSize. The first string of a block
// is stored in full; every other string stores only the suffix that differs
// from its predecessor (fc block) or from the block's first string
// (fc block df). Prefix lengths and suffix sizes live in a fixed-size block
// header; one pointer per block addresses the payload. Suffixes (and first
// strings) can additionally be compressed with any string codec.
#ifndef ADICT_DICT_FRONT_CODING_H_
#define ADICT_DICT_FRONT_CODING_H_

#include <memory>
#include <vector>

#include "dict/dictionary.h"

namespace adict {

/// Length of the common prefix of `a` and `b`.
uint32_t CommonPrefixLength(std::string_view a, std::string_view b);

/// `fc block [codec]` and `fc block df`.
class FcBlockDict final : public Dictionary {
 public:
  /// Strings per block.
  static constexpr uint32_t kBlockSize = 16;
  /// Header bytes per string: packed (prefix_len : 8, suffix_size : 24).
  static constexpr uint32_t kHeaderBytesPerString = 4;
  /// Longest representable prefix; longer shared prefixes are truncated
  /// (lossless: the suffix simply starts earlier).
  static constexpr uint32_t kMaxPrefixLength = 255;

  /// Builds any of the fc block formats: kFcBlock, kFcBlock{Bc,Hu,Ng2,Ng3,
  /// Rp12,Rp16}, kFcBlockDf.
  static std::unique_ptr<FcBlockDict> Build(
      DictFormat format, std::span<const std::string> sorted_unique);

  uint32_t size() const override { return num_strings_; }
  void ExtractInto(uint32_t id, std::string* out) const override;
  LocateResult Locate(std::string_view str) const override;
  /// Decodes each block once, walking its chain of suffixes forward.
  std::unique_ptr<Cursor> NewCursor() const override;
  size_t MemoryBytes() const override;
  DictFormat format() const override { return format_; }
  void Serialize(ByteWriter* out) const override;

  /// Reconstructs a dictionary written by Serialize.
  static std::unique_ptr<FcBlockDict> Deserialize(ByteReader* in);

 private:
  FcBlockDict() = default;

  class BlockCursor;

  struct Header {
    uint32_t prefix_len;
    uint32_t suffix_size;  // bits with a codec, bytes without
  };

  Header HeaderAt(uint32_t string_index) const {
    const uint8_t* p = headers_.data() +
                       static_cast<size_t>(string_index) * kHeaderBytesPerString;
    const uint32_t packed = static_cast<uint32_t>(p[0]) |
                            (static_cast<uint32_t>(p[1]) << 8) |
                            (static_cast<uint32_t>(p[2]) << 16) |
                            (static_cast<uint32_t>(p[3]) << 24);
    return {packed >> 24, packed & 0xffffffu};
  }

  uint32_t NumBlocks() const {
    return (num_strings_ + kBlockSize - 1) / kBlockSize;
  }

  /// Appends the suffix stored at payload position `pos` (bits or bytes) to
  /// `out` and advances `*pos` past it.
  void ReadSuffix(uint64_t* pos, uint32_t suffix_size, std::string* out) const;

  /// Extracts the first string of `block` into `out` (replacing content
  /// after `base`).
  void ExtractWithinBlock(uint32_t block, uint32_t index_in_block,
                          std::string* out) const;

  DictFormat format_ = DictFormat::kFcBlock;
  bool diff_to_first_ = false;
  uint32_t num_strings_ = 0;
  std::unique_ptr<StringCodec> codec_;  // nullptr: raw suffixes
  std::vector<uint8_t> data_;
  std::vector<uint8_t> headers_;   // kHeaderBytesPerString per string
  std::vector<uint32_t> offsets_;  // per block: bit (codec) or byte offset
};

/// `fc inline`: front coding with prefix and suffix lengths stored as varints
/// interleaved with the (uncompressed) suffix data, favoring sequential
/// scans. One pointer per block for random access.
class FcInlineDict final : public Dictionary {
 public:
  static constexpr uint32_t kBlockSize = 16;

  static std::unique_ptr<FcInlineDict> Build(
      std::span<const std::string> sorted_unique);

  uint32_t size() const override { return num_strings_; }
  void ExtractInto(uint32_t id, std::string* out) const override;
  LocateResult Locate(std::string_view str) const override;
  /// One forward pass over the interleaved stream.
  std::unique_ptr<Cursor> NewCursor() const override;
  size_t MemoryBytes() const override;
  DictFormat format() const override { return DictFormat::kFcInline; }
  void Serialize(ByteWriter* out) const override;

  /// Reconstructs a dictionary written by Serialize.
  static std::unique_ptr<FcInlineDict> Deserialize(ByteReader* in);

 private:
  FcInlineDict() = default;

  class StreamCursor;

  void ExtractWithinBlock(uint32_t block, uint32_t index_in_block,
                          std::string* out) const;

  uint32_t num_strings_ = 0;
  std::vector<uint8_t> data_;
  std::vector<uint32_t> offsets_;  // byte offset per block
};

}  // namespace adict

#endif  // ADICT_DICT_FRONT_CODING_H_
