// Figure 10: space / time trade-off of dictionary format selection
// strategies on the queries of the (modified) TPC-H benchmark.
//
// Every fixed-format configuration and every workload-driven configuration
// (compression manager with trade-off parameter c) is applied to the
// database; the workload is the 22 TPC-H queries; both axes are normalized
// against the fc inline configuration, as in the paper.
//
// Paper shape: the fixed formats span ~25% end-to-end runtime difference
// and ~3.5x memory; the workload-driven configurations dominate them —
// e.g. same speed as fc block at two thirds of its space, or ~10% faster
// at equal size — and c moves smoothly along the trade-off.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/tpch_harness.h"

using namespace adict;

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const double sf = bench::EnvOrDouble("ADICT_TPCH_SF", 0.02);
  const int reps = static_cast<int>(bench::EnvOr("ADICT_QUERY_REPS", 10));
  const int trace_mult = 100;

  std::printf("Figure 10: space/time trade-off on TPC-H (*KEY as VARCHAR(10))\n");
  std::printf("scale factor %.3f, %d reps per query, usage multiplier %d\n\n",
              sf, reps, trace_mult);

  TpchOptions options;
  options.scale_factor = sf;
  TpchDatabase db = GenerateTpch(options);
  std::printf("generated: %llu lineitems, %.1f MB total\n\n",
              static_cast<unsigned long long>(db.lineitem.num_rows()),
              static_cast<double>(db.MemoryBytes()) / 1e6);

  // Trace the workload once on the default configuration.
  const std::vector<bench::TracedColumn> traced =
      bench::TraceTpchWorkload(&db, trace_mult);

  struct Point {
    std::string label;
    double memory, time;
  };
  std::vector<Point> points;
  const auto measure = [&](std::string label) {
    const double time = bench::MeasureWorkloadSeconds(db, reps);
    points.push_back(
        {std::move(label), bench::ConfigurationBytes(db), time});
  };

  // Baseline: fc inline (both axes are normalized to it).
  db.ApplyFormat(DictFormat::kFcInline);
  const double base_memory = bench::ConfigurationBytes(db);
  const double base_time_before = bench::MeasureWorkloadSeconds(db, reps);

  // Fixed-format configurations.
  for (DictFormat format : AllDictFormats()) {
    db.ApplyFormat(format);
    measure("fixed: " + std::string(DictFormatName(format)));
  }

  // Workload-driven configurations over a logarithmic range of c.
  CompressionManager manager;
  for (double c : {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0}) {
    manager.set_c(c);
    bench::ApplyConfiguration(traced,
                              bench::SelectConfiguration(traced, manager));
    char label[64];
    std::snprintf(label, sizeof(label), "workload-driven: c=%g", c);
    measure(label);
  }

  // fc inline again after the sweep: the runtime axis is normalized by the
  // mean of both timings, so drift over the sweep shows and is halved.
  db.ApplyFormat(DictFormat::kFcInline);
  const double base_time_after = bench::MeasureWorkloadSeconds(db, reps);
  const double base_time = (base_time_before + base_time_after) / 2;
  std::printf(
      "fc inline baseline: %.3f s workload before the sweep, %.3f s after "
      "(normalized by the mean), %.1f MB\n\n",
      base_time_before, base_time_after, base_memory / 1e6);
  std::printf("%-28s %12s %12s\n", "configuration", "rel_memory", "rel_runtime");
  for (const Point& point : points) {
    std::printf("%-28s %12.3f %12.3f\n", point.label.c_str(),
                point.memory / base_memory, point.time / base_time);
  }

  std::printf(
      "\nExpected shape: fixed formats form a pareto-ish curve from fast/big\n"
      "(array fixed, array) to small/slow (fc block rp 12/16), column bc far\n"
      "outside; every workload-driven point lies on or below that curve,\n"
      "and increasing c moves it from small/slow towards fast/big.\n");
  return 0;
}
