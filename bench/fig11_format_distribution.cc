// Figure 11: dictionary formats selected by the compression manager for the
// TPC-H columns depending on the value of c.
//
// Paper shape: at very small c the pointer-free array fixed dominates (it
// is genuinely the smallest for the many low-cardinality columns) next to a
// wide mix of heavily compressing, specialized formats; as c grows, rp and
// column bc give way to balanced formats; at the largest c everything is
// array fixed / the fastest format.
#include <cstdio>
#include <map>

#include "bench/tpch_harness.h"

using namespace adict;

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const double sf = bench::EnvOrDouble("ADICT_TPCH_SF", 0.02);
  const int trace_mult = 100;

  TpchOptions options;
  options.scale_factor = sf;
  TpchDatabase db = GenerateTpch(options);
  const std::vector<bench::TracedColumn> traced =
      bench::TraceTpchWorkload(&db, trace_mult);

  std::printf("Figure 11: formats selected per c (TPC-H, %zu string columns)\n\n",
              traced.size());
  std::printf("%-16s", "variant \\ c");
  const double cs[] = {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0};
  for (double c : cs) std::printf(" %7g", c);
  std::printf("\n");

  CompressionManager manager;
  std::map<DictFormat, std::vector<double>> share;
  for (size_t ci = 0; ci < std::size(cs); ++ci) {
    manager.set_c(cs[ci]);
    const std::vector<FormatDecision> decisions =
        bench::SelectConfiguration(traced, manager);
    std::map<DictFormat, int> counts;
    for (const FormatDecision& decision : decisions) ++counts[decision.format];
    for (const auto& [format, count] : counts) {
      auto& row = share[format];
      row.resize(std::size(cs), 0.0);
      row[ci] = 100.0 * count / static_cast<double>(decisions.size());
    }
  }
  for (DictFormat format : AllDictFormats()) {
    const auto it = share.find(format);
    if (it == share.end()) continue;
    std::printf("%-16s", std::string(DictFormatName(format)).c_str());
    for (size_t ci = 0; ci < std::size(cs); ++ci) {
      const double value =
          it->second.size() > ci ? it->second[ci] : 0.0;
      if (value > 0) {
        std::printf(" %6.1f%%", value);
      } else {
        std::printf("      . ");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape: largest format diversity at small c; heavy\n"
      "compressors (rp, column bc) fade as c grows; the largest c hands\n"
      "every column to the fastest format.\n\n");
  bench::ReportObservability(stdout, /*max_decisions=*/8);
  return 0;
}
