// TPC-H queries 1-11 (standard substitution parameters).
//
// Every lineitem loop runs morsel-parallel on the process-wide pool through
// the morsel driver (engine/parallel.h), in one of two shapes; both use the
// same morsels at every parallelism (morsel boundaries depend only on the
// row count and the grain), so results are bit-identical whether
// ADICT_THREADS is 1 or 64.
// - Q1 and Q6 aggregate per morsel (ForEachMorsel) and combine the partials
//   in morsel order.
// - The others map rows to compact hits on the pool (CollectRows: filters,
//   foreign-key probes, per-row values) and then fold the hits serially, in
//   row order, with the same operations as a serial loop.
// Q3's orders pre-filter is mapped the same way; the other loops over the
// smaller tables stay serial.
#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "engine/parallel.h"
#include "tpch/queries.h"
#include "tpch/query_helpers.h"
#include "util/check.h"

namespace adict {
namespace tpch_internal {

// Q1: pricing summary report.
// Filter: l_shipdate <= '1998-12-01' - 90 days. Group: returnflag, linestatus.
QueryResult Q1(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const StringColumn& flag = l.strings("L_RETURNFLAG");
  const StringColumn& status = l.strings("L_LINESTATUS");
  const auto& shipdate = l.dates("L_SHIPDATE");
  const auto& qty = l.doubles("L_QUANTITY");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const auto& tax = l.doubles("L_TAX");
  const int32_t cutoff = ParseDate("1998-12-01") - 90;

  struct Agg {
    double sum_qty = 0, sum_base = 0, sum_disc_price = 0, sum_charge = 0;
    double sum_disc = 0;
    uint64_t count = 0;
  };
  // Per-morsel partial aggregates, combined in morsel order below: the same
  // decomposition at every thread count, so the sums (and their rounding)
  // never depend on ADICT_THREADS.
  const std::vector<std::map<uint64_t, Agg>> partials = ForEachMorsel(
      l.num_rows(), kMorselRows, [&](uint64_t begin, uint64_t end) {
        std::map<uint64_t, Agg> local;
        for (uint64_t row = begin; row < end; ++row) {
          if (shipdate[row] > cutoff) continue;
          Agg& g =
              local[GroupKey(flag.GetValueId(row), status.GetValueId(row))];
          g.sum_qty += qty[row];
          g.sum_base += price[row];
          g.sum_disc_price += price[row] * (1 - disc[row]);
          g.sum_charge += price[row] * (1 - disc[row]) * (1 + tax[row]);
          g.sum_disc += disc[row];
          ++g.count;
        }
        return local;
      });
  std::map<uint64_t, Agg> groups;  // ordered by (flag id, status id)
  for (const auto& partial : partials) {
    for (const auto& [key, p] : partial) {
      Agg& g = groups[key];
      g.sum_qty += p.sum_qty;
      g.sum_base += p.sum_base;
      g.sum_disc_price += p.sum_disc_price;
      g.sum_charge += p.sum_charge;
      g.sum_disc += p.sum_disc;
      g.count += p.count;
    }
  }

  QueryResult result;
  result.column_names = {"l_returnflag", "l_linestatus", "sum_qty",
                         "sum_base_price", "sum_disc_price", "sum_charge",
                         "avg_qty", "avg_price", "avg_disc", "count_order"};
  for (const auto& [key, g] : groups) {
    const uint32_t flag_id = static_cast<uint32_t>(key >> 42);
    const uint32_t status_id = static_cast<uint32_t>((key >> 21) & 0x1fffff);
    result.AddRow({flag.ExtractId(flag_id), status.ExtractId(status_id),
                   Cell(g.sum_qty), Cell(g.sum_base), Cell(g.sum_disc_price),
                   Cell(g.sum_charge), Cell(g.sum_qty / g.count),
                   Cell(g.sum_base / g.count), Cell(g.sum_disc / g.count),
                   Cell(g.count)});
  }
  return result;
}

// Q2: minimum cost supplier. size = 15, type LIKE '%BRASS', region EUROPE.
QueryResult Q2(const TpchSnapshot& db) {
  const TableSnapshot& ps = db.partsupp;
  const auto& ps_cost = ps.doubles("PS_SUPPLYCOST");

  // European nations: nation rows whose region key is EUROPE's key.
  const TableSnapshot& nation = db.nation;
  const IdRange europe = EqIds(db.region.strings("R_NAME"), "EUROPE");
  std::vector<uint32_t> europe_key_id(1, kNoMatch);
  std::string europe_region_key;
  if (!europe.empty()) {
    const IdIndex region_index(db.region.strings("R_NAME"));
    const uint32_t region_row = region_index.UniqueRow(europe.begin);
    europe_region_key = db.region.strings("R_REGIONKEY").GetValue(region_row);
  }
  const StringColumn& n_regionkey = nation.strings("N_REGIONKEY");
  const IdRange europe_nk = EqIds(n_regionkey, europe_region_key);
  std::vector<bool> nation_in_europe(nation.num_rows(), false);
  for (uint64_t row = 0; row < nation.num_rows(); ++row) {
    nation_in_europe[row] = europe_nk.Contains(n_regionkey.GetValueId(row));
  }

  const TableSnapshot& part = db.part;
  const auto& p_size = part.int64s("P_SIZE");
  const StringColumn& p_type = part.strings("P_TYPE");
  const std::vector<bool> brass = ContainsIds(p_type, "BRASS");

  const TableSnapshot& supp = db.supplier;
  const FkJoin ps_to_part(ps.strings("PS_PARTKEY"), part.strings("P_PARTKEY"));
  const FkJoin ps_to_supp(ps.strings("PS_SUPPKEY"), supp.strings("S_SUPPKEY"));
  const FkJoin supp_to_nation(supp.strings("S_NATIONKEY"),
                              nation.strings("N_NATIONKEY"));

  // Pass 1: min supply cost per part (European suppliers only).
  std::unordered_map<uint32_t, double> min_cost;  // part row -> min cost
  std::vector<uint32_t> part_row_of(ps.num_rows(), kNoMatch);
  std::vector<uint32_t> supp_row_of(ps.num_rows(), kNoMatch);
  std::vector<uint32_t> nation_row_of(ps.num_rows(), kNoMatch);
  for (uint64_t row = 0; row < ps.num_rows(); ++row) {
    const uint32_t part_row = ps_to_part.Row(row);
    if (part_row == kNoMatch || p_size[part_row] != 15 ||
        !brass[p_type.GetValueId(part_row)]) {
      continue;
    }
    const uint32_t supp_row = ps_to_supp.Row(row);
    if (supp_row == kNoMatch) continue;
    const uint32_t nation_row = supp_to_nation.Row(supp_row);
    if (nation_row == kNoMatch || !nation_in_europe[nation_row]) continue;
    part_row_of[row] = part_row;
    supp_row_of[row] = supp_row;
    nation_row_of[row] = nation_row;
    const auto [it, inserted] = min_cost.try_emplace(part_row, ps_cost[row]);
    if (!inserted) it->second = std::min(it->second, ps_cost[row]);
  }

  // Pass 2: emit rows matching the minimum.
  struct OutRow {
    double acctbal;
    std::string name, nation, partkey, mfgr, address, phone, comment;
  };
  std::vector<OutRow> out;
  const auto& s_acctbal = supp.doubles("S_ACCTBAL");
  const StringColumn& s_name = supp.strings("S_NAME");
  const StringColumn& n_name = nation.strings("N_NAME");
  const StringColumn& p_partkey = part.strings("P_PARTKEY");
  const StringColumn& p_mfgr = part.strings("P_MFGR");
  const StringColumn& s_address = supp.strings("S_ADDRESS");
  const StringColumn& s_phone = supp.strings("S_PHONE");
  const StringColumn& s_comment = supp.strings("S_COMMENT");
  for (uint64_t row = 0; row < ps.num_rows(); ++row) {
    const uint32_t part_row = part_row_of[row];
    if (part_row == kNoMatch || ps_cost[row] != min_cost[part_row]) continue;
    const uint32_t supp_row = supp_row_of[row];
    out.push_back({s_acctbal[supp_row], s_name.GetValue(supp_row),
                   n_name.GetValue(nation_row_of[row]),
                   p_partkey.GetValue(part_row), p_mfgr.GetValue(part_row),
                   s_address.GetValue(supp_row), s_phone.GetValue(supp_row),
                   s_comment.GetValue(supp_row)});
  }
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    if (a.acctbal != b.acctbal) return a.acctbal > b.acctbal;
    if (a.nation != b.nation) return a.nation < b.nation;
    if (a.name != b.name) return a.name < b.name;
    return a.partkey < b.partkey;
  });
  if (out.size() > 100) out.resize(100);

  QueryResult result;
  result.column_names = {"s_acctbal", "s_name",  "n_name", "p_partkey",
                         "p_mfgr",    "s_address", "s_phone", "s_comment"};
  for (const OutRow& r : out) {
    result.AddRow({Cell(r.acctbal), r.name, r.nation, r.partkey, r.mfgr,
                   r.address, r.phone, r.comment});
  }
  return result;
}

// Q3: shipping priority. segment BUILDING, date 1995-03-15.
QueryResult Q3(const TpchSnapshot& db) {
  const int32_t date = ParseDate("1995-03-15");
  const TableSnapshot& c = db.customer;
  const TableSnapshot& o = db.orders;
  const TableSnapshot& l = db.lineitem;

  const StringColumn& mktsegment = c.strings("C_MKTSEGMENT");
  const IdRange building = EqIds(mktsegment, "BUILDING");
  const FkJoin o_to_c(o.strings("O_CUSTKEY"), c.strings("C_CUSTKEY"));
  const auto& orderdate = o.dates("O_ORDERDATE");
  std::vector<bool> order_ok(o.num_rows(), false);
  for (uint32_t row : CollectRows<uint32_t>(
           o.num_rows(), [&](uint64_t row, std::vector<uint32_t>* out) {
             if (orderdate[row] >= date) return;
             const uint32_t c_row = o_to_c.Row(row);
             if (c_row != kNoMatch &&
                 building.Contains(mktsegment.GetValueId(c_row))) {
               out->push_back(static_cast<uint32_t>(row));
             }
           })) {
    order_ok[row] = true;
  }

  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const auto& shipdate = l.dates("L_SHIPDATE");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const std::vector<RowValue> hits = CollectRows<RowValue>(
      l.num_rows(), [&](uint64_t row, std::vector<RowValue>* out) {
        if (shipdate[row] <= date) return;
        const uint32_t o_row = l_to_o.Row(row);
        if (o_row == kNoMatch || !order_ok[o_row]) return;
        out->push_back({o_row, price[row] * (1 - disc[row])});
      });
  std::unordered_map<uint32_t, double> revenue;  // order row -> revenue
  for (const auto& [o_row, value] : hits) revenue[o_row] += value;

  std::vector<std::pair<uint32_t, double>> top(revenue.begin(), revenue.end());
  std::sort(top.begin(), top.end(), [&](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return orderdate[a.first] < orderdate[b.first];
  });
  if (top.size() > 10) top.resize(10);

  QueryResult result;
  result.column_names = {"l_orderkey", "revenue", "o_orderdate",
                         "o_shippriority"};
  const StringColumn& orderkey = o.strings("O_ORDERKEY");
  const auto& shippriority = o.int64s("O_SHIPPRIORITY");
  for (const auto& [o_row, rev] : top) {
    result.AddRow({orderkey.GetValue(o_row), Cell(rev),
                   FormatDate(orderdate[o_row]), Cell(shippriority[o_row])});
  }
  return result;
}

// Q4: order priority checking. Quarter starting 1993-07-01.
QueryResult Q4(const TpchSnapshot& db) {
  const TableSnapshot& o = db.orders;
  const TableSnapshot& l = db.lineitem;
  const int32_t lo = ParseDate("1993-07-01");
  const int32_t hi = AddMonths(lo, 3);

  // Orders with at least one late lineitem (commit < receipt).
  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const auto& commitdate = l.dates("L_COMMITDATE");
  const auto& receiptdate = l.dates("L_RECEIPTDATE");
  std::vector<bool> has_late(o.num_rows(), false);
  for (uint32_t o_row : CollectRows<uint32_t>(
           l.num_rows(), [&](uint64_t row, std::vector<uint32_t>* out) {
             if (commitdate[row] >= receiptdate[row]) return;
             const uint32_t o_row = l_to_o.Row(row);
             if (o_row != kNoMatch) out->push_back(o_row);
           })) {
    has_late[o_row] = true;
  }

  const auto& orderdate = o.dates("O_ORDERDATE");
  const StringColumn& priority = o.strings("O_ORDERPRIORITY");
  std::map<uint32_t, uint64_t> counts;  // priority id -> count (ordered)
  for (uint64_t row = 0; row < o.num_rows(); ++row) {
    if (orderdate[row] < lo || orderdate[row] >= hi || !has_late[row]) continue;
    ++counts[priority.GetValueId(row)];
  }

  QueryResult result;
  result.column_names = {"o_orderpriority", "order_count"};
  for (const auto& [id, count] : counts) {
    result.AddRow({priority.ExtractId(id), Cell(count)});
  }
  return result;
}

// Q5: local supplier volume. Region ASIA, orders in 1994.
QueryResult Q5(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& o = db.orders;
  const TableSnapshot& c = db.customer;
  const TableSnapshot& s = db.supplier;
  const TableSnapshot& n = db.nation;
  const int32_t lo = ParseDate("1994-01-01");
  const int32_t hi = AddMonths(lo, 12);

  // Asian nation rows.
  const IdRange asia = EqIds(db.region.strings("R_NAME"), "ASIA");
  std::string asia_key;
  if (!asia.empty()) {
    const IdIndex region_index(db.region.strings("R_NAME"));
    asia_key = db.region.strings("R_REGIONKEY")
                   .GetValue(region_index.UniqueRow(asia.begin));
  }
  const StringColumn& n_regionkey = n.strings("N_REGIONKEY");
  const IdRange asia_nk = EqIds(n_regionkey, asia_key);
  std::vector<bool> nation_in_asia(n.num_rows(), false);
  for (uint64_t row = 0; row < n.num_rows(); ++row) {
    nation_in_asia[row] = asia_nk.Contains(n_regionkey.GetValueId(row));
  }

  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const FkJoin l_to_s(l.strings("L_SUPPKEY"), s.strings("S_SUPPKEY"));
  const FkJoin o_to_c(o.strings("O_CUSTKEY"), c.strings("C_CUSTKEY"));
  const FkJoin s_to_n(s.strings("S_NATIONKEY"), n.strings("N_NATIONKEY"));
  // Customer and supplier nation keys live in different dictionaries; map
  // both into the nation table's ID space for the equality check.
  const StringColumn& c_nationkey = c.strings("C_NATIONKEY");
  const StringColumn& n_nationkey = n.strings("N_NATIONKEY");
  const std::vector<uint32_t> c_nation_map =
      MapDictionary(c_nationkey, n_nationkey);

  const auto& orderdate = o.dates("O_ORDERDATE");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const std::vector<RowValue> hits = CollectRows<RowValue>(
      l.num_rows(), [&](uint64_t row, std::vector<RowValue>* out) {
        const uint32_t o_row = l_to_o.Row(row);
        if (o_row == kNoMatch || orderdate[o_row] < lo ||
            orderdate[o_row] >= hi) {
          return;
        }
        const uint32_t s_row = l_to_s.Row(row);
        if (s_row == kNoMatch) return;
        const uint32_t n_row = s_to_n.Row(s_row);
        if (n_row == kNoMatch || !nation_in_asia[n_row]) return;
        const uint32_t c_row = o_to_c.Row(o_row);
        if (c_row == kNoMatch) return;
        // Local supplier: customer and supplier share the nation.
        const uint32_t c_nation_id =
            c_nation_map[c_nationkey.GetValueId(c_row)];
        if (c_nation_id != n_nationkey.GetValueId(n_row)) return;
        out->push_back({n_row, price[row] * (1 - disc[row])});
      });
  std::unordered_map<uint32_t, double> revenue;  // nation row -> revenue
  for (const auto& [n_row, value] : hits) revenue[n_row] += value;

  std::vector<std::pair<uint32_t, double>> rows(revenue.begin(), revenue.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  QueryResult result;
  result.column_names = {"n_name", "revenue"};
  const StringColumn& n_name = n.strings("N_NAME");
  for (const auto& [n_row, rev] : rows) {
    result.AddRow({n_name.GetValue(n_row), Cell(rev)});
  }
  return result;
}

// Q6: forecasting revenue change. 1994, discount 0.06 +/- 0.01, qty < 24.
QueryResult Q6(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const auto& shipdate = l.dates("L_SHIPDATE");
  const auto& qty = l.doubles("L_QUANTITY");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const int32_t lo = ParseDate("1994-01-01");
  const int32_t hi = AddMonths(lo, 12);

  // Per-morsel partial sums combined in morsel order: bit-identical revenue
  // at every ADICT_THREADS (see the file comment).
  const std::vector<double> partials = ForEachMorsel(
      l.num_rows(), kMorselRows, [&](uint64_t begin, uint64_t end) {
        double local = 0;
        for (uint64_t row = begin; row < end; ++row) {
          if (shipdate[row] >= lo && shipdate[row] < hi &&
              disc[row] >= 0.05 - 1e-9 && disc[row] <= 0.07 + 1e-9 &&
              qty[row] < 24) {
            local += price[row] * disc[row];
          }
        }
        return local;
      });
  double revenue = 0;
  for (double partial : partials) revenue += partial;
  QueryResult result;
  result.column_names = {"revenue"};
  result.AddRow({Cell(revenue)});
  return result;
}

// Q7: volume shipping between FRANCE and GERMANY, 1995-1996.
QueryResult Q7(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& o = db.orders;
  const TableSnapshot& c = db.customer;
  const TableSnapshot& s = db.supplier;
  const TableSnapshot& n = db.nation;

  const StringColumn& n_name = n.strings("N_NAME");
  const IdRange france = EqIds(n_name, "FRANCE");
  const IdRange germany = EqIds(n_name, "GERMANY");
  const IdIndex nation_by_name(n_name);
  const uint32_t france_row =
      france.empty() ? kNoMatch : nation_by_name.UniqueRow(france.begin);
  const uint32_t germany_row =
      germany.empty() ? kNoMatch : nation_by_name.UniqueRow(germany.begin);

  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const FkJoin l_to_s(l.strings("L_SUPPKEY"), s.strings("S_SUPPKEY"));
  const FkJoin o_to_c(o.strings("O_CUSTKEY"), c.strings("C_CUSTKEY"));
  const FkJoin s_to_n(s.strings("S_NATIONKEY"), n.strings("N_NATIONKEY"));
  const FkJoin c_to_n(c.strings("C_NATIONKEY"), n.strings("N_NATIONKEY"));

  const auto& shipdate = l.dates("L_SHIPDATE");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const int32_t lo = ParseDate("1995-01-01");
  const int32_t hi = ParseDate("1996-12-31");

  struct Hit {
    uint32_t sn, cn;  // supplier and customer nation rows
    int year;
    double volume;
  };
  const std::vector<Hit> hits = CollectRows<Hit>(
      l.num_rows(), [&](uint64_t row, std::vector<Hit>* out) {
        if (shipdate[row] < lo || shipdate[row] > hi) return;
        const uint32_t s_row = l_to_s.Row(row);
        if (s_row == kNoMatch) return;
        const uint32_t sn = s_to_n.Row(s_row);
        if (sn != france_row && sn != germany_row) return;
        const uint32_t o_row = l_to_o.Row(row);
        if (o_row == kNoMatch) return;
        const uint32_t c_row = o_to_c.Row(o_row);
        if (c_row == kNoMatch) return;
        const uint32_t cn = c_to_n.Row(c_row);
        const bool pair = (sn == france_row && cn == germany_row) ||
                          (sn == germany_row && cn == france_row);
        if (!pair) return;
        out->push_back(
            {sn, cn, YearOf(shipdate[row]), price[row] * (1 - disc[row])});
      });
  // Group: (supp nation row, cust nation row, year).
  std::map<std::tuple<uint32_t, uint32_t, int>, double> volume;
  for (const Hit& hit : hits) volume[{hit.sn, hit.cn, hit.year}] += hit.volume;

  QueryResult result;
  result.column_names = {"supp_nation", "cust_nation", "l_year", "revenue"};
  std::vector<std::pair<std::tuple<std::string, std::string, int>, double>> rows;
  for (const auto& [key, rev] : volume) {
    rows.push_back({{n_name.GetValue(std::get<0>(key)),
                     n_name.GetValue(std::get<1>(key)), std::get<2>(key)},
                    rev});
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& [key, rev] : rows) {
    result.AddRow({std::get<0>(key), std::get<1>(key), Cell(std::get<2>(key)),
                   Cell(rev)});
  }
  return result;
}

// Q8: national market share. BRAZIL, AMERICA, ECONOMY ANODIZED STEEL.
QueryResult Q8(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& o = db.orders;
  const TableSnapshot& c = db.customer;
  const TableSnapshot& s = db.supplier;
  const TableSnapshot& n = db.nation;
  const TableSnapshot& p = db.part;

  const StringColumn& p_type = p.strings("P_TYPE");
  const IdRange steel = EqIds(p_type, "ECONOMY ANODIZED STEEL");
  const IdRange brazil = EqIds(n.strings("N_NAME"), "BRAZIL");
  const IdIndex nation_by_name(n.strings("N_NAME"));
  const uint32_t brazil_row =
      brazil.empty() ? kNoMatch : nation_by_name.UniqueRow(brazil.begin);

  const IdRange america = EqIds(db.region.strings("R_NAME"), "AMERICA");
  std::string america_key;
  if (!america.empty()) {
    const IdIndex region_index(db.region.strings("R_NAME"));
    america_key = db.region.strings("R_REGIONKEY")
                      .GetValue(region_index.UniqueRow(america.begin));
  }
  const StringColumn& n_regionkey = n.strings("N_REGIONKEY");
  const IdRange america_nk = EqIds(n_regionkey, america_key);
  std::vector<bool> nation_in_america(n.num_rows(), false);
  for (uint64_t row = 0; row < n.num_rows(); ++row) {
    nation_in_america[row] = america_nk.Contains(n_regionkey.GetValueId(row));
  }

  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const FkJoin l_to_s(l.strings("L_SUPPKEY"), s.strings("S_SUPPKEY"));
  const FkJoin l_to_p(l.strings("L_PARTKEY"), p.strings("P_PARTKEY"));
  const FkJoin o_to_c(o.strings("O_CUSTKEY"), c.strings("C_CUSTKEY"));
  const FkJoin s_to_n(s.strings("S_NATIONKEY"), n.strings("N_NATIONKEY"));
  const FkJoin c_to_n(c.strings("C_NATIONKEY"), n.strings("N_NATIONKEY"));

  const auto& orderdate = o.dates("O_ORDERDATE");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const int32_t lo = ParseDate("1995-01-01");
  const int32_t hi = ParseDate("1996-12-31");

  struct Hit {
    int year;
    bool brazil;  // the supplier is Brazilian
    double volume;
  };
  const std::vector<Hit> hits = CollectRows<Hit>(
      l.num_rows(), [&](uint64_t row, std::vector<Hit>* out) {
        const uint32_t p_row = l_to_p.Row(row);
        if (p_row == kNoMatch || !steel.Contains(p_type.GetValueId(p_row))) {
          return;
        }
        const uint32_t o_row = l_to_o.Row(row);
        if (o_row == kNoMatch || orderdate[o_row] < lo ||
            orderdate[o_row] > hi) {
          return;
        }
        const uint32_t c_row = o_to_c.Row(o_row);
        if (c_row == kNoMatch) return;
        const uint32_t cn = c_to_n.Row(c_row);
        if (cn == kNoMatch || !nation_in_america[cn]) return;
        const uint32_t s_row = l_to_s.Row(row);
        if (s_row == kNoMatch) return;
        out->push_back({YearOf(orderdate[o_row]),
                        s_to_n.Row(s_row) == brazil_row,
                        price[row] * (1 - disc[row])});
      });
  std::map<int, std::pair<double, double>> by_year;  // year -> (brazil, total)
  for (const Hit& hit : hits) {
    auto& [brazil_vol, total] = by_year[hit.year];
    total += hit.volume;
    if (hit.brazil) brazil_vol += hit.volume;
  }

  QueryResult result;
  result.column_names = {"o_year", "mkt_share"};
  for (const auto& [year, vols] : by_year) {
    result.AddRow(
        {Cell(year), Cell(vols.second > 0 ? vols.first / vols.second : 0.0)});
  }
  return result;
}

// Q9: product type profit measure. Parts LIKE '%green%'.
QueryResult Q9(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& o = db.orders;
  const TableSnapshot& s = db.supplier;
  const TableSnapshot& n = db.nation;
  const TableSnapshot& p = db.part;
  const TableSnapshot& ps = db.partsupp;

  const StringColumn& p_name = p.strings("P_NAME");
  const std::vector<bool> green = ContainsIds(p_name, "green");

  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const FkJoin l_to_s(l.strings("L_SUPPKEY"), s.strings("S_SUPPKEY"));
  const FkJoin l_to_p(l.strings("L_PARTKEY"), p.strings("P_PARTKEY"));
  const FkJoin s_to_n(s.strings("S_NATIONKEY"), n.strings("N_NATIONKEY"));

  // (ps part id, ps supp id) -> partsupp row, with lineitem keys mapped into
  // partsupp's dictionaries: the part's partsupp rows come from an index on
  // PS_PARTKEY, and the first of them (in row order) with the supplier wins.
  const StringColumn& l_partkey = l.strings("L_PARTKEY");
  const StringColumn& l_suppkey = l.strings("L_SUPPKEY");
  const StringColumn& ps_partkey = ps.strings("PS_PARTKEY");
  const StringColumn& ps_suppkey = ps.strings("PS_SUPPKEY");
  const std::vector<uint32_t> l_part_to_ps =
      MapDictionary(l_partkey, ps_partkey);
  const std::vector<uint32_t> l_supp_to_ps =
      MapDictionary(l_suppkey, ps_suppkey);
  const IdIndex ps_by_part(ps_partkey);
  const auto ps_row_of = [&](uint32_t ps_part, uint32_t ps_supp) {
    for (uint32_t ps_row : ps_by_part.Rows(ps_part)) {
      if (ps_suppkey.GetValueId(ps_row) == ps_supp) return ps_row;
    }
    return kNoMatch;
  };

  const auto& orderdate = o.dates("O_ORDERDATE");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const auto& qty = l.doubles("L_QUANTITY");
  const auto& supplycost = ps.doubles("PS_SUPPLYCOST");

  struct Hit {
    uint32_t n_row;
    int year;
    double amount;
  };
  const std::vector<Hit> hits = CollectRows<Hit>(
      l.num_rows(), [&](uint64_t row, std::vector<Hit>* out) {
        const uint32_t p_row = l_to_p.Row(row);
        if (p_row == kNoMatch || !green[p_name.GetValueId(p_row)]) return;
        const uint32_t ps_part = l_part_to_ps[l_partkey.GetValueId(row)];
        const uint32_t ps_supp = l_supp_to_ps[l_suppkey.GetValueId(row)];
        if (ps_part == kNoMatch || ps_supp == kNoMatch) return;
        const uint32_t ps_row = ps_row_of(ps_part, ps_supp);
        if (ps_row == kNoMatch) return;
        const uint32_t s_row = l_to_s.Row(row);
        const uint32_t o_row = l_to_o.Row(row);
        if (s_row == kNoMatch || o_row == kNoMatch) return;
        const uint32_t n_row = s_to_n.Row(s_row);
        if (n_row == kNoMatch) return;
        out->push_back(
            {n_row, YearOf(orderdate[o_row]),
             price[row] * (1 - disc[row]) - supplycost[ps_row] * qty[row]});
      });
  std::map<std::pair<uint32_t, int>, double> profit;  // (nation row, year)
  for (const Hit& hit : hits) profit[{hit.n_row, hit.year}] += hit.amount;

  // Order by nation name asc, year desc.
  std::vector<std::tuple<std::string, int, double>> rows;
  const StringColumn& n_name = n.strings("N_NAME");
  for (const auto& [key, amount] : profit) {
    rows.push_back({n_name.GetValue(key.first), key.second, amount});
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
    return std::get<1>(a) > std::get<1>(b);
  });

  QueryResult result;
  result.column_names = {"nation", "o_year", "sum_profit"};
  for (const auto& [nation, year, amount] : rows) {
    result.AddRow({nation, Cell(year), Cell(amount)});
  }
  return result;
}

// Q10: returned item reporting. Quarter starting 1993-10-01.
QueryResult Q10(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& o = db.orders;
  const TableSnapshot& c = db.customer;
  const TableSnapshot& n = db.nation;
  const int32_t lo = ParseDate("1993-10-01");
  const int32_t hi = AddMonths(lo, 3);

  const StringColumn& returnflag = l.strings("L_RETURNFLAG");
  const IdRange returned = EqIds(returnflag, "R");
  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const FkJoin o_to_c(o.strings("O_CUSTKEY"), c.strings("C_CUSTKEY"));
  const FkJoin c_to_n(c.strings("C_NATIONKEY"), n.strings("N_NATIONKEY"));

  const auto& orderdate = o.dates("O_ORDERDATE");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const std::vector<RowValue> hits = CollectRows<RowValue>(
      l.num_rows(), [&](uint64_t row, std::vector<RowValue>* out) {
        if (!returned.Contains(returnflag.GetValueId(row))) return;
        const uint32_t o_row = l_to_o.Row(row);
        if (o_row == kNoMatch || orderdate[o_row] < lo ||
            orderdate[o_row] >= hi) {
          return;
        }
        const uint32_t c_row = o_to_c.Row(o_row);
        if (c_row == kNoMatch) return;
        out->push_back({c_row, price[row] * (1 - disc[row])});
      });
  std::unordered_map<uint32_t, double> revenue;  // customer row
  for (const auto& [c_row, value] : hits) revenue[c_row] += value;

  std::vector<std::pair<uint32_t, double>> top(revenue.begin(), revenue.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (top.size() > 20) top.resize(20);

  QueryResult result;
  result.column_names = {"c_custkey", "c_name",   "revenue", "c_acctbal",
                         "n_name",    "c_address", "c_phone", "c_comment"};
  const auto& acctbal = c.doubles("C_ACCTBAL");
  const StringColumn& c_custkey = c.strings("C_CUSTKEY");
  const StringColumn& c_name = c.strings("C_NAME");
  const StringColumn& n_name = n.strings("N_NAME");
  const StringColumn& c_address = c.strings("C_ADDRESS");
  const StringColumn& c_phone = c.strings("C_PHONE");
  const StringColumn& c_comment = c.strings("C_COMMENT");
  for (const auto& [c_row, rev] : top) {
    const uint32_t n_row = c_to_n.Row(c_row);
    result.AddRow({c_custkey.GetValue(c_row), c_name.GetValue(c_row),
                   Cell(rev), Cell(acctbal[c_row]),
                   n_row == kNoMatch ? "" : n_name.GetValue(n_row),
                   c_address.GetValue(c_row), c_phone.GetValue(c_row),
                   c_comment.GetValue(c_row)});
  }
  return result;
}

// Q11: important stock identification. GERMANY, scaled fraction.
QueryResult Q11(const TpchSnapshot& db) {
  const TableSnapshot& ps = db.partsupp;
  const TableSnapshot& s = db.supplier;
  const TableSnapshot& n = db.nation;

  const IdRange germany = EqIds(n.strings("N_NAME"), "GERMANY");
  const IdIndex nation_by_name(n.strings("N_NAME"));
  const uint32_t germany_row =
      germany.empty() ? kNoMatch : nation_by_name.UniqueRow(germany.begin);

  const FkJoin ps_to_s(ps.strings("PS_SUPPKEY"), s.strings("S_SUPPKEY"));
  const FkJoin s_to_n(s.strings("S_NATIONKEY"), n.strings("N_NATIONKEY"));

  const StringColumn& ps_partkey = ps.strings("PS_PARTKEY");
  const auto& cost = ps.doubles("PS_SUPPLYCOST");
  const auto& avail = ps.int64s("PS_AVAILQTY");
  std::unordered_map<uint32_t, double> value;  // ps part value id -> value
  double total = 0;
  for (uint64_t row = 0; row < ps.num_rows(); ++row) {
    const uint32_t s_row = ps_to_s.Row(row);
    if (s_row == kNoMatch) continue;
    if (s_to_n.Row(s_row) != germany_row) continue;
    const double v = cost[row] * static_cast<double>(avail[row]);
    value[ps_partkey.GetValueId(row)] += v;
    total += v;
  }
  // The spec's fraction is 0.0001 at SF 1 and scales inversely with SF;
  // estimate SF from the supplier count (10000 per unit).
  const double sf = static_cast<double>(s.num_rows()) / 10000.0;
  const double threshold = total * 0.0001 / std::max(sf, 1e-9);

  std::vector<std::pair<uint32_t, double>> rows;
  for (const auto& [part_id, v] : value) {
    if (v > threshold) rows.push_back({part_id, v});
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  QueryResult result;
  result.column_names = {"ps_partkey", "value"};
  for (const auto& [part_id, v] : rows) {
    result.AddRow({ps_partkey.ExtractId(part_id), Cell(v)});
  }
  return result;
}

}  // namespace tpch_internal
}  // namespace adict
