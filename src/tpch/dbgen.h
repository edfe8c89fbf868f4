// dbgen-style TPC-H data generator with the paper's schema modification:
// every *KEY column is a VARCHAR(10) string column (paper §6.1), reflecting
// the observation that real business applications keep keys in strings.
//
// The generator reproduces the TPC-H distributions the 22 queries depend on
// (value lists, date ranges and correlations, pseudo-text grammar for
// comments) at any scale factor. It is deterministic in the seed.
#ifndef ADICT_TPCH_DBGEN_H_
#define ADICT_TPCH_DBGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "store/table.h"

namespace adict {

struct TpchOptions {
  /// TPC-H scale factor; 1.0 is the paper's setting (~8.6M rows total).
  double scale_factor = 0.01;
  uint64_t seed = 42;
  /// Dictionary format used for every string column initially.
  DictFormat format = DictFormat::kFcInline;
};

/// The eight tables of a TpchDatabase, each pinned once: what one query reads.
struct TpchSnapshot {
  TableSnapshot region, nation, supplier, customer, part, partsupp, orders, lineitem;

  std::vector<const TableSnapshot*> tables() const {
    return {&region, &nation, &supplier, &customer, &part, &partsupp, &orders, &lineitem};
  }
};

struct TpchDatabase {
  Table region{"region"};
  Table nation{"nation"};
  Table supplier{"supplier"};
  Table customer{"customer"};
  Table part{"part"};
  Table partsupp{"partsupp"};
  Table orders{"orders"};
  Table lineitem{"lineitem"};

  std::vector<Table*> tables() {
    return {&region,   &nation, &supplier, &customer,
            &part,     &partsupp, &orders, &lineitem};
  }
  std::vector<const Table*> tables() const {
    return {&region,   &nation, &supplier, &customer,
            &part,     &partsupp, &orders, &lineitem};
  }

  /// Every string column of every table, pinned.
  TpchSnapshot Snapshot() const {
    return {region.Snapshot(),   nation.Snapshot(), supplier.Snapshot(),
            customer.Snapshot(), part.Snapshot(),   partsupp.Snapshot(),
            orders.Snapshot(),   lineitem.Snapshot()};
  }

  /// Total memory of all tables (column vectors + dictionaries + numerics).
  size_t MemoryBytes() const;
  /// Memory of the string columns only (dictionaries + their vectors).
  size_t StringColumnBytes() const;
  /// Publishes every string column rebuilt in `format` (a fixed-format
  /// configuration in the paper's sense).
  void ApplyFormat(DictFormat format);
  /// Restarts the usage window of every string column.
  void ResetUsage();
};

/// Generates a database. Cost is roughly linear in the scale factor;
/// SF 0.01 takes well under a second.
TpchDatabase GenerateTpch(const TpchOptions& options);

/// The VARCHAR(10) rendering of an integer key, e.g. 42 -> "0000000042".
std::string KeyString(uint64_t key);

}  // namespace adict

#endif  // ADICT_TPCH_DBGEN_H_
