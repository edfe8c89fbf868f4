// Column-wise bit compression (paper Section 3.3, `column bc`).
//
// The dictionary is split into blocks; each block is vertically partitioned
// into character columns (all characters at position j across the block's
// strings). Every character column gets its own alphabet and fixed-width
// bit codes. The format shines on columns whose strings share one length and
// structure (hashes, padded numbers, material codes) and degenerates badly
// otherwise — exactly the behaviour the paper reports.
#ifndef ADICT_DICT_COLUMN_BC_H_
#define ADICT_DICT_COLUMN_BC_H_

#include <memory>
#include <vector>

#include "dict/dictionary.h"

namespace adict {

class ColumnBcDict final : public Dictionary {
 public:
  /// Strings per block. Larger blocks amortize the per-position alphabet
  /// headers, which dominate on hex/digit content; 128 keeps single-tuple
  /// access cheap while making the format clearly the smallest on the
  /// constant-length data sets (paper Figure 4).
  static constexpr uint32_t kBlockSize = 128;

  static std::unique_ptr<ColumnBcDict> Build(
      std::span<const std::string> sorted_unique);

  uint32_t size() const override { return num_strings_; }
  void ExtractInto(uint32_t id, std::string* out) const override;
  LocateResult Locate(std::string_view str) const override;
  /// Decodes each block once, one character column at a time.
  std::unique_ptr<Cursor> NewCursor() const override;
  size_t MemoryBytes() const override;
  DictFormat format() const override { return DictFormat::kColumnBc; }
  void Serialize(ByteWriter* out) const override;

  /// Reconstructs a dictionary written by Serialize.
  static std::unique_ptr<ColumnBcDict> Deserialize(ByteReader* in);

  /// Encodes one block of rows into `arena`, returning the encoded size in
  /// bytes. Exposed so the size-prediction sampler can measure representative
  /// blocks without building a whole dictionary.
  static size_t EncodeBlock(std::span<const std::string_view> rows,
                            std::vector<uint8_t>* arena);

 private:
  ColumnBcDict() = default;

  class BlockCursor;

  /// Decodes row `row` of the block starting at `arena` offset `offset`.
  void DecodeRow(size_t offset, uint32_t row, std::string* out) const;

  uint32_t num_strings_ = 0;
  std::vector<uint8_t> arena_;
  std::vector<uint32_t> offsets_;  // byte offset per block
};

}  // namespace adict

#endif  // ADICT_DICT_COLUMN_BC_H_
