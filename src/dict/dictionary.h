// String dictionary interface and the 18 dictionary formats of the paper's
// survey (Section 3.3).
//
// A string dictionary is a read-only, order-preserving mapping between dense
// value IDs [0, n) and the sorted distinct strings of one column. It supports
// single-tuple access: extract(id) and locate(str) never decompress other
// entries wholesale.
#ifndef ADICT_DICT_DICTIONARY_H_
#define ADICT_DICT_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "text/codec.h"
#include "util/check.h"
#include "util/serde.h"
#include "util/status.h"

namespace adict {

/// The dictionary formats surveyed by the paper: two base classes (array and
/// blockwise front coding) crossed with the string compression schemes, plus
/// four special-purpose variants.
enum class DictFormat {
  kArray,        ///< pointer array + raw strings
  kArrayBc,      ///< array + bit compression
  kArrayHu,      ///< array + Hu-Tucker
  kArrayNg2,     ///< array + 2-gram codes
  kArrayNg3,     ///< array + 3-gram codes
  kArrayRp12,    ///< array + Re-Pair, 12-bit symbols
  kArrayRp16,    ///< array + Re-Pair, 16-bit symbols
  kArrayFixed,   ///< pointer-free array of fixed-size slots
  kFcBlock,      ///< blockwise front coding, raw suffixes
  kFcBlockBc,    ///< front coding + bit compression
  kFcBlockHu,    ///< front coding + Hu-Tucker
  kFcBlockNg2,   ///< front coding + 2-gram codes
  kFcBlockNg3,   ///< front coding + 3-gram codes
  kFcBlockRp12,  ///< front coding + Re-Pair, 12-bit symbols
  kFcBlockRp16,  ///< front coding + Re-Pair, 16-bit symbols
  kFcBlockDf,    ///< front coding with difference to the block's first string
  kFcInline,     ///< front coding with interleaved prefix lengths
  kColumnBc,     ///< blockwise column-wise bit compression
};

/// Number of dictionary formats.
inline constexpr int kNumDictFormats = 18;

/// All formats, in enum order.
std::span<const DictFormat> AllDictFormats();

/// Paper-style name, e.g. "array rp 12" or "fc block hu".
std::string_view DictFormatName(DictFormat format);

/// The string compression scheme a format applies to its stored string parts
/// (CodecKind::kNone for raw and for the special-purpose variants).
CodecKind DictFormatCodec(DictFormat format);

/// True for the array-class formats (including array fixed).
bool IsArrayClass(DictFormat format);

/// True for the front-coding-class formats (fc block*, fc inline).
bool IsFrontCodingClass(DictFormat format);

/// Result of Dictionary::Locate.
struct LocateResult {
  /// ID of `str` if found, otherwise the ID of the first string greater than
  /// `str` (== size() if no such string exists).
  uint32_t id;
  bool found;

  bool operator==(const LocateResult&) const = default;
};

/// Read-only compressed string dictionary (paper Definition 1).
class Dictionary {
 public:
  virtual ~Dictionary() = default;

  /// Number of entries.
  virtual uint32_t size() const = 0;

  /// Appends the string with the given value ID to `out`.
  virtual void ExtractInto(uint32_t id, std::string* out) const = 0;

  /// Returns the string with the given value ID.
  std::string Extract(uint32_t id) const {
    std::string s;
    ExtractInto(id, &s);
    return s;
  }

  /// Finds `str`; see LocateResult for the exact semantics.
  virtual LocateResult Locate(std::string_view str) const = 0;

  /// Sequential reader over the entries in ID order: Seek(id) positions it,
  /// then each Next() returns the entry at the position and advances by
  /// one. The view Next() returns stays valid until the next call on the
  /// cursor. A cursor reads its dictionary without synchronization (the
  /// dictionary is immutable) and must not outlive it.
  class Cursor {
   public:
    virtual ~Cursor() = default;

    /// Positions the cursor at `id` (<= size(); size() is the end).
    virtual void Seek(uint32_t id) = 0;

    /// The entry at the position; the position must be < size().
    virtual std::string_view Next() = 0;
  };

  /// A cursor at ID 0. Raw arrays return views of their payload; the front
  /// coding formats decode each block once, walking its chain forward
  /// (sequential access is the design goal of fc inline, paper §3.3);
  /// column bc decodes each block once, a character column at a time; the
  /// coded arrays and array fixed extract entry by entry.
  virtual std::unique_ptr<Cursor> NewCursor() const;

  /// Calls `fn(id, value)` for every ID in [first, first + count), in order,
  /// reading through one cursor. The string_view is only valid during the
  /// callback.
  template <typename Fn>
  void Scan(uint32_t first, uint32_t count, Fn&& fn) const {
    ADICT_DCHECK(static_cast<uint64_t>(first) + count <= size());
    if (count == 0) return;
    const std::unique_ptr<Cursor> cursor = NewCursor();
    cursor->Seek(first);
    const uint32_t last = first + count;
    for (uint32_t id = first; id < last; ++id) fn(id, cursor->Next());
  }

  /// Total memory consumption of the data structure in bytes, including
  /// offset arrays, headers, and codec tables.
  virtual size_t MemoryBytes() const = 0;

  virtual DictFormat format() const = 0;

  /// Writes the dictionary's complete state to `out` (excluding the format
  /// tag, which SaveDictionary in dict/serialization.h prepends).
  virtual void Serialize(ByteWriter* out) const = 0;
};

/// Builds a dictionary of `format` over `sorted_unique` (must be sorted
/// strictly ascending in byte-lexicographic order). The strings are copied;
/// the input may be discarded afterwards.
std::unique_ptr<Dictionary> BuildDictionary(
    DictFormat format, std::span<const std::string> sorted_unique);

/// Checks the input against `format`'s representational limits *before*
/// building: BuildDictionary treats a violation as a programming error and
/// aborts, while production rebuild paths (core/build_guard.h) call this
/// first and degrade to a safer format on kFailedPrecondition /
/// kResourceExhausted instead of crashing.
Status CheckBuildPreconditions(DictFormat format,
                               std::span<const std::string> sorted_unique);

/// Returns true if `strings` is strictly ascending (valid dictionary input).
bool IsSortedUnique(std::span<const std::string> strings);

/// Sum of the lengths of all strings: the uncompressed payload the paper's
/// compression rate definition divides by (Definition 2).
uint64_t RawDataBytes(std::span<const std::string> strings);

}  // namespace adict

#endif  // ADICT_DICT_DICTIONARY_H_
