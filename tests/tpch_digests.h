// perfbench's committed TPC-H answer digests, for the tests that check
// query answers against them: the SF 0.1 seed 0 line of
// perfbench/expected/tpch_digests.txt, made on the fc inline store as
// FNV-1a over EncodeQueryResult per query. At SF 0.1 lineitem spans ten
// morsels, so a pool of width 4 really splits the loops.
#ifndef ADICT_TESTS_TPCH_DIGESTS_H_
#define ADICT_TESTS_TPCH_DIGESTS_H_

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/result.h"
#include "server/protocol.h"
#include "tpch/dbgen.h"

#ifndef ADICT_SOURCE_DIR
#error "tests/CMakeLists.txt must define ADICT_SOURCE_DIR"
#endif

namespace adict {

/// The digests of Q1..Q22, or fewer if the file or its line is missing.
inline std::vector<uint64_t> CommittedTpchDigests() {
  std::ifstream in(std::string(ADICT_SOURCE_DIR) +
                   "/perfbench/expected/tpch_digests.txt");
  std::vector<uint64_t> digests;
  std::string line;
  while (digests.empty() && std::getline(in, line)) {
    std::istringstream fields(line);
    std::string sf, seed, hex;
    if (!(fields >> sf >> seed) || sf != "0.1" || seed != "0") continue;
    while (fields >> hex) digests.push_back(std::stoull(hex, nullptr, 16));
  }
  return digests;
}

/// The store the digests were made on.
inline TpchDatabase DigestTpchDatabase() {
  TpchOptions options;
  options.scale_factor = 0.1;
  options.seed = 0;
  options.format = DictFormat::kFcInline;
  return GenerateTpch(options);
}

inline uint64_t AnswerDigest(const QueryResult& result) {
  const std::vector<uint8_t> bytes = EncodeQueryResult(result);
  return Fnv1a64(bytes.data(), bytes.size());
}

}  // namespace adict

#endif  // ADICT_TESTS_TPCH_DIGESTS_H_
