// TPC-H demo: generate the modified benchmark database (*KEY columns as
// VARCHAR(10)), run queries on it, and show that swapping dictionary
// formats — manually or via the compression manager — changes memory, not
// results.
//
//   $ ./build/examples/tpch_demo [scale_factor]
#include <cstdio>
#include <cstdlib>

#include "core/compression_manager.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/stopwatch.h"

using namespace adict;

int main(int argc, char** argv) {
  TpchOptions options;
  options.scale_factor = argc > 1 ? std::atof(argv[1]) : 0.01;

  Stopwatch watch;
  TpchDatabase db = GenerateTpch(options);
  std::printf("generated TPC-H SF %.3f in %.2f s: %llu orders, %llu lineitems, "
              "%.1f MB\n\n",
              options.scale_factor, watch.ElapsedSeconds(),
              static_cast<unsigned long long>(db.orders.num_rows()),
              static_cast<unsigned long long>(db.lineitem.num_rows()),
              static_cast<double>(db.MemoryBytes()) / 1e6);

  // A flavor of the workload: pricing summary, shipping priority, promo share.
  for (int q : {1, 3, 14}) {
    watch.Restart();
    const QueryResult result = RunTpchQuery(db, q);
    std::printf("--- Q%d (%.1f ms)\n%s\n", q, watch.ElapsedMicros() / 1000.0,
                result.ToString(5).c_str());
  }

  // Same queries, heavily compressed dictionaries: identical rows.
  const QueryResult before = RunTpchQuery(db, 1);
  const size_t memory_before = db.StringColumnBytes();
  db.ApplyFormat(DictFormat::kFcBlockRp12);
  const QueryResult after = RunTpchQuery(db, 1);
  std::printf("all string dictionaries -> fc block rp 12: %.1f -> %.1f MB, "
              "Q1 results identical: %s\n\n",
              static_cast<double>(memory_before) / 1e6,
              static_cast<double>(db.StringColumnBytes()) / 1e6,
              before.rows == after.rows ? "yes" : "NO (bug!)");

  // Let the compression manager configure every column from a traced
  // workload, as the paper's offline prototype does.
  db.ApplyFormat(DictFormat::kFcInline);
  db.ResetUsage();
  watch.Restart();
  for (int q = 1; q <= kNumTpchQueries; ++q) (void)RunTpchQuery(db, q);
  const double lifetime = watch.ElapsedSeconds() * 100;  // ~100 repetitions

  CompressionManager manager;
  manager.set_c(0.1);
  std::printf("workload-driven configuration (c = %.1f):\n", manager.c());
  for (Table* table : db.tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      const auto column = table->string_column(i).Snapshot();
      ColumnUsage usage = column->TracedUsage(lifetime);
      usage.num_extracts *= 100;
      usage.num_locates *= 100;
      const DictFormat pick =
          manager.ChooseFormat(column->MaterializeDictionary(), usage);
      if (pick != column->format()) {
        std::printf("  %s.%s: %s -> %s\n", table->name().c_str(),
                    table->string_column_name(i).c_str(),
                    std::string(DictFormatName(column->format())).c_str(),
                    std::string(DictFormatName(pick)).c_str());
        table->string_column(i).PublishFormat(pick);
      }
    }
  }
  std::printf("total string-column memory now: %.1f MB\n",
              static_cast<double>(db.StringColumnBytes()) / 1e6);
  return 0;
}
