#include "engine/predicates.h"

#include "engine/parallel.h"
#include "obs/trace.h"

namespace adict {

IdRange EqIds(const StringColumn& column, std::string_view value) {
  const LocateResult r = column.Locate(value);
  return r.found ? IdRange{r.id, r.id + 1} : IdRange{};
}

IdRange GreaterIds(const StringColumn& column, std::string_view value,
                   bool inclusive) {
  const LocateResult r = column.Locate(value);
  const uint32_t begin = (r.found && !inclusive) ? r.id + 1 : r.id;
  return {begin, column.num_distinct()};
}

IdRange LessIds(const StringColumn& column, std::string_view value,
                bool inclusive) {
  const LocateResult r = column.Locate(value);
  const uint32_t end = (r.found && inclusive) ? r.id + 1 : r.id;
  return {0, end};
}

IdRange BetweenIds(const StringColumn& column, std::string_view lo,
                   std::string_view hi) {
  const IdRange ge = GreaterIds(column, lo);
  const IdRange le = LessIds(column, hi);
  return {ge.begin, le.end};
}

IdRange PrefixIds(const StringColumn& column, std::string_view prefix) {
  const LocateResult lo = column.Locate(prefix);
  // The end of the prefix run is the first string >= the prefix with its
  // trailing 0xff bytes dropped and its last byte left incremented (no
  // string that starts with "a\xff" sorts at or after "b"). A prefix of
  // only 0xff bytes runs to the end of the dictionary.
  std::string upper(prefix);
  while (!upper.empty() && static_cast<unsigned char>(upper.back()) == 0xff) {
    upper.pop_back();
  }
  if (upper.empty()) return {lo.id, column.num_distinct()};
  upper.back() = static_cast<char>(static_cast<unsigned char>(upper.back()) + 1);
  const LocateResult hi = column.Locate(upper);
  return {lo.id, hi.id};
}

std::vector<bool> ContainsIds(const StringColumn& column,
                              std::string_view needle) {
  const std::string_view needles[] = {needle};
  return ContainsAllIds(column, needles);
}

std::vector<bool> ContainsAllIds(const StringColumn& column,
                                 std::span<const std::string_view> needles,
                                 ThreadPool* pool) {
  ADICT_TRACE_SPAN("engine.parallel.contains");
  // Each morsel matches into its own flag vector, and the vectors are
  // spliced in morsel order: std::vector<bool> packs 64 flags per word, so
  // concurrent writes to adjacent IDs at a morsel boundary would race.
  return ConcatInOrder(ForEachMorsel(
      column.num_distinct(), kMorselDictEntries,
      [&column, needles](uint64_t begin, uint64_t end) {
        std::vector<bool> flags(end - begin, false);
        column.ScanDictionary(
            static_cast<uint32_t>(begin), static_cast<uint32_t>(end - begin),
            [&flags, needles, begin](uint32_t id, std::string_view value) {
              size_t pos = 0;
              for (std::string_view needle : needles) {
                pos = value.find(needle, pos);
                if (pos == std::string_view::npos) return;
                pos += needle.size();
              }
              flags[id - begin] = true;
            });
        return flags;
      },
      pool));
}

std::vector<bool> InIds(const StringColumn& column,
                        std::span<const std::string_view> values) {
  std::vector<bool> flags(column.num_distinct(), false);
  for (std::string_view value : values) {
    const LocateResult r = column.Locate(value);
    if (r.found) flags[r.id] = true;
  }
  return flags;
}

}  // namespace adict
