// TPC-H queries 12-22 (standard substitution parameters) and the dispatcher.
//
// The lineitem loops run on the process-wide pool as a parallel map to
// compact hits (CollectRows) and a serial fold in row order, as in
// queries_q01_q11.cc; Q21's per-order supplier state is merged by the
// morsels (ForEachMorsel) with compare-and-swap. The loops over the smaller
// tables stay serial.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "engine/parallel.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "tpch/queries.h"
#include "tpch/query_helpers.h"
#include "util/check.h"

namespace adict {
namespace tpch_internal {

// Implemented in queries_q01_q11.cc.
QueryResult Q1(const TpchSnapshot& db);
QueryResult Q2(const TpchSnapshot& db);
QueryResult Q3(const TpchSnapshot& db);
QueryResult Q4(const TpchSnapshot& db);
QueryResult Q5(const TpchSnapshot& db);
QueryResult Q6(const TpchSnapshot& db);
QueryResult Q7(const TpchSnapshot& db);
QueryResult Q8(const TpchSnapshot& db);
QueryResult Q9(const TpchSnapshot& db);
QueryResult Q10(const TpchSnapshot& db);
QueryResult Q11(const TpchSnapshot& db);

// Q12: shipping modes and order priority. MAIL/SHIP, 1994.
QueryResult Q12(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& o = db.orders;
  const int32_t lo = ParseDate("1994-01-01");
  const int32_t hi = AddMonths(lo, 12);

  const std::string_view modes[] = {"MAIL", "SHIP"};
  const StringColumn& shipmode = l.strings("L_SHIPMODE");
  const std::vector<bool> mode_ok = InIds(shipmode, modes);
  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const StringColumn& priority = o.strings("O_ORDERPRIORITY");
  const LocateResult urgent = priority.Locate("1-URGENT");
  const LocateResult high = priority.Locate("2-HIGH");

  const auto& ship = l.dates("L_SHIPDATE");
  const auto& commit = l.dates("L_COMMITDATE");
  const auto& receipt = l.dates("L_RECEIPTDATE");

  struct Hit {
    uint32_t mode_id;
    bool is_high;  // the order's priority is 1-URGENT or 2-HIGH
  };
  const std::vector<Hit> hits = CollectRows<Hit>(
      l.num_rows(), [&](uint64_t row, std::vector<Hit>* out) {
        const uint32_t mode_id = shipmode.GetValueId(row);
        if (!mode_ok[mode_id]) return;
        if (receipt[row] < lo || receipt[row] >= hi) return;
        if (commit[row] >= receipt[row] || ship[row] >= commit[row]) return;
        const uint32_t o_row = l_to_o.Row(row);
        if (o_row == kNoMatch) return;
        const uint32_t prio = priority.GetValueId(o_row);
        out->push_back({mode_id, (urgent.found && prio == urgent.id) ||
                                     (high.found && prio == high.id)});
      });
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> counts;  // mode id
  for (const Hit& hit : hits) {
    auto& [high_count, low_count] = counts[hit.mode_id];
    (hit.is_high ? high_count : low_count) += 1;
  }

  QueryResult result;
  result.column_names = {"l_shipmode", "high_line_count", "low_line_count"};
  for (const auto& [mode_id, c] : counts) {
    result.AddRow({shipmode.ExtractId(mode_id), Cell(c.first), Cell(c.second)});
  }
  return result;
}

// Q13: customer distribution. o_comment NOT LIKE '%special%requests%'.
QueryResult Q13(const TpchSnapshot& db) {
  const TableSnapshot& o = db.orders;
  const TableSnapshot& c = db.customer;

  const std::string_view needles[] = {"special", "requests"};
  const StringColumn& o_comment = o.strings("O_COMMENT");
  const StringColumn& o_custkey = o.strings("O_CUSTKEY");
  const std::vector<bool> excluded = ContainsAllIds(o_comment, needles);

  // Orders per customer key (in the orders dictionary's ID space).
  std::vector<uint64_t> orders_per_cust(o_custkey.num_distinct(), 0);
  for (uint64_t row = 0; row < o.num_rows(); ++row) {
    if (excluded[o_comment.GetValueId(row)]) continue;
    ++orders_per_cust[o_custkey.GetValueId(row)];
  }

  // Every customer contributes, including those without orders.
  const StringColumn& c_custkey = c.strings("C_CUSTKEY");
  const std::vector<uint32_t> c_to_o = MapDictionary(c_custkey, o_custkey);
  std::map<uint64_t, uint64_t> dist;  // c_count -> customers
  for (uint64_t row = 0; row < c.num_rows(); ++row) {
    const uint32_t o_cust_id = c_to_o[c_custkey.GetValueId(row)];
    const uint64_t count = o_cust_id == kNoMatch ? 0 : orders_per_cust[o_cust_id];
    ++dist[count];
  }

  std::vector<std::pair<uint64_t, uint64_t>> rows(dist.begin(), dist.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first > b.first;
  });

  QueryResult result;
  result.column_names = {"c_count", "custdist"};
  for (const auto& [count, custdist] : rows) {
    result.AddRow({Cell(count), Cell(custdist)});
  }
  return result;
}

// Q14: promotion effect. September 1995.
QueryResult Q14(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& p = db.part;
  const int32_t lo = ParseDate("1995-09-01");
  const int32_t hi = AddMonths(lo, 1);

  const StringColumn& p_type = p.strings("P_TYPE");
  const IdRange promo = PrefixIds(p_type, "PROMO");
  const FkJoin l_to_p(l.strings("L_PARTKEY"), p.strings("P_PARTKEY"));
  const auto& shipdate = l.dates("L_SHIPDATE");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");

  struct Hit {
    bool promo;  // the part's type starts with PROMO
    double revenue;
  };
  const std::vector<Hit> hits = CollectRows<Hit>(
      l.num_rows(), [&](uint64_t row, std::vector<Hit>* out) {
        if (shipdate[row] < lo || shipdate[row] >= hi) return;
        const uint32_t p_row = l_to_p.Row(row);
        if (p_row == kNoMatch) return;
        out->push_back({promo.Contains(p_type.GetValueId(p_row)),
                        price[row] * (1 - disc[row])});
      });
  double promo_revenue = 0, total_revenue = 0;
  for (const Hit& hit : hits) {
    total_revenue += hit.revenue;
    if (hit.promo) promo_revenue += hit.revenue;
  }

  QueryResult result;
  result.column_names = {"promo_revenue"};
  result.AddRow(
      {Cell(total_revenue > 0 ? 100.0 * promo_revenue / total_revenue : 0.0)});
  return result;
}

// Q15: top supplier. Quarter starting 1996-01-01.
QueryResult Q15(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& s = db.supplier;
  const int32_t lo = ParseDate("1996-01-01");
  const int32_t hi = AddMonths(lo, 3);

  const FkJoin l_to_s(l.strings("L_SUPPKEY"), s.strings("S_SUPPKEY"));
  const auto& shipdate = l.dates("L_SHIPDATE");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");

  const std::vector<RowValue> hits = CollectRows<RowValue>(
      l.num_rows(), [&](uint64_t row, std::vector<RowValue>* out) {
        if (shipdate[row] < lo || shipdate[row] >= hi) return;
        const uint32_t s_row = l_to_s.Row(row);
        if (s_row != kNoMatch) {
          out->push_back({s_row, price[row] * (1 - disc[row])});
        }
      });
  std::unordered_map<uint32_t, double> revenue;  // supplier row
  for (const auto& [s_row, value] : hits) revenue[s_row] += value;
  double max_revenue = 0;
  for (const auto& [s_row, rev] : revenue) {
    max_revenue = std::max(max_revenue, rev);
  }

  std::vector<uint32_t> top;
  for (const auto& [s_row, rev] : revenue) {
    if (rev == max_revenue) top.push_back(s_row);
  }
  const StringColumn& suppkey = s.strings("S_SUPPKEY");
  std::sort(top.begin(), top.end(), [&](uint32_t a, uint32_t b) {
    return suppkey.GetValue(a) < suppkey.GetValue(b);
  });

  QueryResult result;
  result.column_names = {"s_suppkey", "s_name", "s_address", "s_phone",
                         "total_revenue"};
  const StringColumn& s_name = s.strings("S_NAME");
  const StringColumn& s_address = s.strings("S_ADDRESS");
  const StringColumn& s_phone = s.strings("S_PHONE");
  for (uint32_t s_row : top) {
    result.AddRow({suppkey.GetValue(s_row), s_name.GetValue(s_row),
                   s_address.GetValue(s_row), s_phone.GetValue(s_row),
                   Cell(max_revenue)});
  }
  return result;
}

// Q16: parts/supplier relationship. Brand#45 excluded, MEDIUM POLISHED
// excluded, 8 sizes, complaint suppliers excluded.
QueryResult Q16(const TpchSnapshot& db) {
  const TableSnapshot& ps = db.partsupp;
  const TableSnapshot& p = db.part;
  const TableSnapshot& s = db.supplier;

  const StringColumn& p_brand = p.strings("P_BRAND");
  const StringColumn& p_type = p.strings("P_TYPE");
  const IdRange bad_brand = EqIds(p_brand, "Brand#45");
  const IdRange bad_type = PrefixIds(p_type, "MEDIUM POLISHED");
  const std::unordered_set<int64_t> sizes = {49, 14, 23, 45, 19, 3, 36, 9};

  const std::string_view complaint_needles[] = {"Customer", "Complaints"};
  const StringColumn& s_comment = s.strings("S_COMMENT");
  const std::vector<bool> complained =
      ContainsAllIds(s_comment, complaint_needles);

  const StringColumn& ps_suppkey = ps.strings("PS_SUPPKEY");
  const FkJoin ps_to_p(ps.strings("PS_PARTKEY"), p.strings("P_PARTKEY"));
  const FkJoin ps_to_s(ps_suppkey, s.strings("S_SUPPKEY"));
  const auto& p_size = p.int64s("P_SIZE");

  struct GroupHash {
    size_t operator()(const std::tuple<uint32_t, uint32_t, int64_t>& k) const {
      return std::get<0>(k) * 1000003u + std::get<1>(k) * 10007u +
             static_cast<size_t>(std::get<2>(k));
    }
  };
  std::unordered_map<std::tuple<uint32_t, uint32_t, int64_t>,
                     std::unordered_set<uint32_t>, GroupHash>
      suppliers;  // (brand id, type id, size) -> supplier key ids
  for (uint64_t row = 0; row < ps.num_rows(); ++row) {
    const uint32_t p_row = ps_to_p.Row(row);
    if (p_row == kNoMatch) continue;
    const uint32_t brand_id = p_brand.GetValueId(p_row);
    const uint32_t type_id = p_type.GetValueId(p_row);
    if (bad_brand.Contains(brand_id) || bad_type.Contains(type_id)) continue;
    if (!sizes.contains(p_size[p_row])) continue;
    const uint32_t s_row = ps_to_s.Row(row);
    if (s_row == kNoMatch || complained[s_comment.GetValueId(s_row)]) continue;
    suppliers[{brand_id, type_id, p_size[p_row]}].insert(
        ps_suppkey.GetValueId(row));
  }

  std::vector<std::tuple<uint64_t, std::string, std::string, int64_t>> rows;
  for (const auto& [key, supps] : suppliers) {
    rows.push_back({supps.size(), p_brand.ExtractId(std::get<0>(key)),
                    p_type.ExtractId(std::get<1>(key)), std::get<2>(key)});
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) > std::get<0>(b);
    if (std::get<1>(a) != std::get<1>(b)) return std::get<1>(a) < std::get<1>(b);
    if (std::get<2>(a) != std::get<2>(b)) return std::get<2>(a) < std::get<2>(b);
    return std::get<3>(a) < std::get<3>(b);
  });

  QueryResult result;
  result.column_names = {"p_brand", "p_type", "p_size", "supplier_cnt"};
  for (const auto& [count, brand, type, size] : rows) {
    result.AddRow({brand, type, Cell(size), Cell(count)});
  }
  return result;
}

// Q17: small-quantity-order revenue. Brand#23, MED BOX.
QueryResult Q17(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& p = db.part;

  const StringColumn& p_brand = p.strings("P_BRAND");
  const StringColumn& p_container = p.strings("P_CONTAINER");
  const IdRange brand = EqIds(p_brand, "Brand#23");
  const IdRange container = EqIds(p_container, "MED BOX");
  const FkJoin l_to_p(l.strings("L_PARTKEY"), p.strings("P_PARTKEY"));
  const auto& qty = l.doubles("L_QUANTITY");
  const auto& price = l.doubles("L_EXTENDEDPRICE");

  // Lineitems of qualifying parts, with their part rows.
  struct Hit {
    uint32_t row, p_row;
  };
  const std::vector<Hit> hits = CollectRows<Hit>(
      l.num_rows(), [&](uint64_t row, std::vector<Hit>* out) {
        const uint32_t p_row = l_to_p.Row(row);
        if (p_row == kNoMatch || !brand.Contains(p_brand.GetValueId(p_row)) ||
            !container.Contains(p_container.GetValueId(p_row))) {
          return;
        }
        out->push_back({static_cast<uint32_t>(row), p_row});
      });

  // Pass 1: average quantity per qualifying part.
  std::unordered_map<uint32_t, std::pair<double, uint64_t>> qty_stats;
  for (const auto& [row, p_row] : hits) {
    auto& [sum, count] = qty_stats[p_row];
    sum += qty[row];
    ++count;
  }

  // Pass 2: lineitems below 20% of their part's average quantity.
  double revenue = 0;
  for (const auto& [row, p_row] : hits) {
    const auto& [sum, count] = qty_stats[p_row];
    if (qty[row] < 0.2 * sum / static_cast<double>(count)) {
      revenue += price[row];
    }
  }

  QueryResult result;
  result.column_names = {"avg_yearly"};
  result.AddRow({Cell(revenue / 7.0)});
  return result;
}

// Q18: large volume customers. sum(l_quantity) > 300.
QueryResult Q18(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& o = db.orders;
  const TableSnapshot& c = db.customer;

  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const auto& qty = l.doubles("L_QUANTITY");
  // The order row of every lineitem row (kNoMatch if none).
  const std::vector<uint32_t> o_row_of = CollectRows<uint32_t>(
      l.num_rows(), [&](uint64_t row, std::vector<uint32_t>* out) {
        out->push_back(l_to_o.Row(row));
      });
  std::vector<double> order_qty(o.num_rows(), 0.0);  // order row -> sum(qty)
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    if (o_row_of[row] != kNoMatch) order_qty[o_row_of[row]] += qty[row];
  }

  const FkJoin o_to_c(o.strings("O_CUSTKEY"), c.strings("C_CUSTKEY"));
  const auto& totalprice = o.doubles("O_TOTALPRICE");
  const auto& orderdate = o.dates("O_ORDERDATE");
  std::vector<std::pair<uint32_t, double>> rows;  // (order row, qty sum)
  for (uint32_t o_row = 0; o_row < order_qty.size(); ++o_row) {
    if (order_qty[o_row] > 300.0) rows.push_back({o_row, order_qty[o_row]});
  }
  std::sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    if (totalprice[a.first] != totalprice[b.first]) {
      return totalprice[a.first] > totalprice[b.first];
    }
    return orderdate[a.first] < orderdate[b.first];
  });
  if (rows.size() > 100) rows.resize(100);

  QueryResult result;
  result.column_names = {"c_name",     "c_custkey",   "o_orderkey",
                         "o_orderdate", "o_totalprice", "sum_qty"};
  const StringColumn& c_name = c.strings("C_NAME");
  const StringColumn& c_custkey = c.strings("C_CUSTKEY");
  const StringColumn& o_orderkey = o.strings("O_ORDERKEY");
  for (const auto& [o_row, sum] : rows) {
    const uint32_t c_row = o_to_c.Row(o_row);
    result.AddRow({c_row == kNoMatch ? "" : c_name.GetValue(c_row),
                   c_row == kNoMatch ? "" : c_custkey.GetValue(c_row),
                   o_orderkey.GetValue(o_row),
                   FormatDate(orderdate[o_row]), Cell(totalprice[o_row]),
                   Cell(sum)});
  }
  return result;
}

// Q19: discounted revenue, three disjunctive brand/container/quantity arms.
QueryResult Q19(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& p = db.part;

  const FkJoin l_to_p(l.strings("L_PARTKEY"), p.strings("P_PARTKEY"));
  const StringColumn& p_brand = p.strings("P_BRAND");
  const StringColumn& p_container = p.strings("P_CONTAINER");
  const IdRange brand12 = EqIds(p_brand, "Brand#12");
  const IdRange brand23 = EqIds(p_brand, "Brand#23");
  const IdRange brand34 = EqIds(p_brand, "Brand#34");
  const std::string_view small_containers[] = {"SM CASE", "SM BOX", "SM PACK",
                                               "SM PKG"};
  const std::string_view med_containers[] = {"MED BAG", "MED BOX", "MED PKG",
                                             "MED PACK"};
  const std::string_view large_containers[] = {"LG CASE", "LG BOX", "LG PACK",
                                               "LG PKG"};
  const std::vector<bool> sm = InIds(p_container, small_containers);
  const std::vector<bool> med = InIds(p_container, med_containers);
  const std::vector<bool> lg = InIds(p_container, large_containers);

  const std::string_view modes[] = {"AIR", "REG AIR"};
  const StringColumn& shipmode = l.strings("L_SHIPMODE");
  const StringColumn& shipinstruct = l.strings("L_SHIPINSTRUCT");
  const std::vector<bool> air = InIds(shipmode, modes);
  const IdRange in_person = EqIds(shipinstruct, "DELIVER IN PERSON");

  const auto& qty = l.doubles("L_QUANTITY");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const auto& p_size = p.int64s("P_SIZE");

  const std::vector<double> hits = CollectRows<double>(
      l.num_rows(), [&](uint64_t row, std::vector<double>* out) {
        if (!air[shipmode.GetValueId(row)]) return;
        if (!in_person.Contains(shipinstruct.GetValueId(row))) return;
        const uint32_t p_row = l_to_p.Row(row);
        if (p_row == kNoMatch) return;
        const uint32_t brand_id = p_brand.GetValueId(p_row);
        const uint32_t cont_id = p_container.GetValueId(p_row);
        const int64_t size = p_size[p_row];
        const double q = qty[row];
        const bool arm1 = brand12.Contains(brand_id) && sm[cont_id] &&
                          q >= 1 && q <= 11 && size >= 1 && size <= 5;
        const bool arm2 = brand23.Contains(brand_id) && med[cont_id] &&
                          q >= 10 && q <= 20 && size >= 1 && size <= 10;
        const bool arm3 = brand34.Contains(brand_id) && lg[cont_id] &&
                          q >= 20 && q <= 30 && size >= 1 && size <= 15;
        if (arm1 || arm2 || arm3) out->push_back(price[row] * (1 - disc[row]));
      });
  double revenue = 0;
  for (double value : hits) revenue += value;

  QueryResult result;
  result.column_names = {"revenue"};
  result.AddRow({Cell(revenue)});
  return result;
}

// Q20: potential part promotion. forest%, CANADA, 1994.
QueryResult Q20(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& p = db.part;
  const TableSnapshot& ps = db.partsupp;
  const TableSnapshot& s = db.supplier;
  const TableSnapshot& n = db.nation;
  const int32_t lo = ParseDate("1994-01-01");
  const int32_t hi = AddMonths(lo, 12);

  const StringColumn& p_name = p.strings("P_NAME");
  const StringColumn& l_partkey = l.strings("L_PARTKEY");
  const StringColumn& l_suppkey = l.strings("L_SUPPKEY");
  const StringColumn& ps_partkey = ps.strings("PS_PARTKEY");
  const StringColumn& ps_suppkey = ps.strings("PS_SUPPKEY");
  const IdRange forest = PrefixIds(p_name, "forest");
  const FkJoin l_to_p(l_partkey, p.strings("P_PARTKEY"));
  const std::vector<uint32_t> l_part_to_ps =
      MapDictionary(l_partkey, ps_partkey);
  const std::vector<uint32_t> l_supp_to_ps =
      MapDictionary(l_suppkey, ps_suppkey);

  // Quantity shipped in 1994 per (ps part id, ps supp id), forest parts only.
  const auto& shipdate = l.dates("L_SHIPDATE");
  const auto& qty = l.doubles("L_QUANTITY");
  struct Hit {
    uint64_t key;  // ps part id << 32 | ps supp id
    double qty;
  };
  const std::vector<Hit> hits = CollectRows<Hit>(
      l.num_rows(), [&](uint64_t row, std::vector<Hit>* out) {
        if (shipdate[row] < lo || shipdate[row] >= hi) return;
        const uint32_t p_row = l_to_p.Row(row);
        if (p_row == kNoMatch || !forest.Contains(p_name.GetValueId(p_row))) {
          return;
        }
        const uint32_t ps_part = l_part_to_ps[l_partkey.GetValueId(row)];
        const uint32_t ps_supp = l_supp_to_ps[l_suppkey.GetValueId(row)];
        if (ps_part == kNoMatch || ps_supp == kNoMatch) return;
        out->push_back(
            {(static_cast<uint64_t>(ps_part) << 32) | ps_supp, qty[row]});
      });
  std::unordered_map<uint64_t, double> shipped;
  for (const Hit& hit : hits) shipped[hit.key] += hit.qty;

  // Suppliers with availqty > 0.5 * shipped, in CANADA.
  const IdRange canada = EqIds(n.strings("N_NAME"), "CANADA");
  const IdIndex nation_by_name(n.strings("N_NAME"));
  const uint32_t canada_row =
      canada.empty() ? kNoMatch : nation_by_name.UniqueRow(canada.begin);
  const FkJoin ps_to_s(ps_suppkey, s.strings("S_SUPPKEY"));
  const FkJoin s_to_n(s.strings("S_NATIONKEY"), n.strings("N_NATIONKEY"));

  const auto& avail = ps.int64s("PS_AVAILQTY");
  std::unordered_set<uint32_t> supplier_rows;
  for (uint64_t row = 0; row < ps.num_rows(); ++row) {
    const uint64_t key =
        (static_cast<uint64_t>(ps_partkey.GetValueId(row)) << 32) |
        ps_suppkey.GetValueId(row);
    const auto it = shipped.find(key);
    if (it == shipped.end()) continue;
    if (static_cast<double>(avail[row]) <= 0.5 * it->second) continue;
    const uint32_t s_row = ps_to_s.Row(row);
    if (s_row == kNoMatch) continue;
    if (s_to_n.Row(s_row) != canada_row) continue;
    supplier_rows.insert(s_row);
  }

  std::vector<std::pair<std::string, std::string>> rows;
  const StringColumn& s_name = s.strings("S_NAME");
  const StringColumn& s_address = s.strings("S_ADDRESS");
  for (uint32_t s_row : supplier_rows) {
    rows.push_back({s_name.GetValue(s_row), s_address.GetValue(s_row)});
  }
  std::sort(rows.begin(), rows.end());

  QueryResult result;
  result.column_names = {"s_name", "s_address"};
  for (const auto& [name, address] : rows) result.AddRow({name, address});
  return result;
}

// Q21: suppliers who kept orders waiting. SAUDI ARABIA.
QueryResult Q21(const TpchSnapshot& db) {
  const TableSnapshot& l = db.lineitem;
  const TableSnapshot& o = db.orders;
  const TableSnapshot& s = db.supplier;
  const TableSnapshot& n = db.nation;

  const StringColumn& orderstatus = o.strings("O_ORDERSTATUS");
  const StringColumn& l_orderkey = l.strings("L_ORDERKEY");
  const StringColumn& l_suppkey = l.strings("L_SUPPKEY");
  const IdRange failed = EqIds(orderstatus, "F");
  const FkJoin s_to_n(s.strings("S_NATIONKEY"), n.strings("N_NATIONKEY"));

  const IdRange saudi = EqIds(n.strings("N_NAME"), "SAUDI ARABIA");
  const IdIndex nation_by_name(n.strings("N_NAME"));
  const uint32_t saudi_row =
      saudi.empty() ? kNoMatch : nation_by_name.UniqueRow(saudi.begin);

  // Per order (value id of L_ORDERKEY): distinct-supplier bookkeeping with
  // O(1) state, enough to evaluate the exists / not-exists pair. A slot only
  // moves up kNone -> one supplier -> kMany, and the final state depends
  // only on the set of suppliers noted, not on their order, so the morsels
  // merge into shared slots with a relaxed compare-and-swap per update.
  const uint32_t num_orders = l_orderkey.num_distinct();
  constexpr uint32_t kNone = kNoMatch;
  constexpr uint32_t kMany = kNoMatch - 1;
  const auto any_supp =  // kMany: >= 2 distinct
      std::make_unique<std::atomic<uint32_t>[]>(num_orders);
  const auto late_supp =  // kMany: >= 2 distinct
      std::make_unique<std::atomic<uint32_t>[]>(num_orders);
  for (uint32_t order = 0; order < num_orders; ++order) {
    any_supp[order].store(kNone, std::memory_order_relaxed);
    late_supp[order].store(kNone, std::memory_order_relaxed);
  }

  const auto& commit = l.dates("L_COMMITDATE");
  const auto& receipt = l.dates("L_RECEIPTDATE");
  ForEachMorsel(
      l.num_rows(), kMorselRows, [&](uint64_t begin, uint64_t end) {
        for (uint64_t row = begin; row < end; ++row) {
          const uint32_t order = l_orderkey.GetValueId(row);
          const uint32_t supp = l_suppkey.GetValueId(row);
          auto note = [supp](std::atomic<uint32_t>& slot) {
            uint32_t seen = slot.load(std::memory_order_relaxed);
            while (seen != kMany && seen != supp &&
                   !slot.compare_exchange_weak(seen,
                                               seen == kNone ? supp : kMany,
                                               std::memory_order_relaxed)) {
            }
          };
          note(any_supp[order]);
          if (receipt[row] > commit[row]) note(late_supp[order]);
        }
      });

  // A supplier qualifies in an order iff it is the *only* late supplier and
  // at least one other supplier participated; count per supplier.
  std::unordered_map<uint32_t, uint64_t> waiting;  // supplier row -> count
  const StringColumn& o_orderkey = o.strings("O_ORDERKEY");
  const StringColumn& s_suppkey = s.strings("S_SUPPKEY");
  const IdIndex order_index(o_orderkey);
  const IdIndex supp_index(s_suppkey);
  const std::vector<uint32_t> l_order_to_o =
      MapDictionary(l_orderkey, o_orderkey);
  const std::vector<uint32_t> l_supp_to_s = MapDictionary(l_suppkey, s_suppkey);
  for (uint32_t order = 0; order < num_orders; ++order) {
    const uint32_t late = late_supp[order].load(std::memory_order_relaxed);
    if (late == kNone || late == kMany) continue;
    // Needs another supplier.
    if (any_supp[order].load(std::memory_order_relaxed) != kMany) continue;
    // Order status must be 'F'.
    const uint32_t o_id = l_order_to_o[order];
    if (o_id == kNoMatch) continue;
    const uint32_t o_row = order_index.UniqueRow(o_id);
    if (o_row == kNoMatch || !failed.Contains(orderstatus.GetValueId(o_row))) {
      continue;
    }
    // Supplier must be Saudi.
    const uint32_t s_id = l_supp_to_s[late];
    if (s_id == kNoMatch) continue;
    const uint32_t s_row = supp_index.UniqueRow(s_id);
    if (s_row == kNoMatch ||
        s_to_n.Row(s_row) != saudi_row) {
      continue;
    }
    ++waiting[s_row];
  }

  std::vector<std::pair<uint32_t, uint64_t>> rows(waiting.begin(),
                                                  waiting.end());
  const StringColumn& s_name = s.strings("S_NAME");
  std::sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return s_name.GetValue(a.first) < s_name.GetValue(b.first);
  });
  if (rows.size() > 100) rows.resize(100);

  QueryResult result;
  result.column_names = {"s_name", "numwait"};
  for (const auto& [s_row, count] : rows) {
    result.AddRow({s_name.GetValue(s_row), Cell(count)});
  }
  return result;
}

// Q22: global sales opportunity. Country codes 13,31,23,29,30,18,17.
QueryResult Q22(const TpchSnapshot& db) {
  const TableSnapshot& c = db.customer;
  const TableSnapshot& o = db.orders;
  const std::string_view codes[] = {"13", "31", "23", "29", "30", "18", "17"};

  // Customers whose phone starts with one of the codes, via dictionary
  // prefix ranges on C_PHONE.
  const StringColumn& phone = c.strings("C_PHONE");
  std::vector<IdRange> ranges;
  for (std::string_view code : codes) ranges.push_back(PrefixIds(phone, code));
  const auto code_of = [&ranges, &codes](uint32_t phone_id) -> int {
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (ranges[i].Contains(phone_id)) return static_cast<int>(i);
    }
    return -1;
  };

  // Average positive account balance over the code set.
  const auto& acctbal = c.doubles("C_ACCTBAL");
  double sum = 0;
  uint64_t count = 0;
  for (uint64_t row = 0; row < c.num_rows(); ++row) {
    if (acctbal[row] <= 0.0) continue;
    if (code_of(phone.GetValueId(row)) < 0) continue;
    sum += acctbal[row];
    ++count;
  }
  const double avg = count > 0 ? sum / count : 0.0;

  // Customers above average without orders.
  const StringColumn& c_custkey = c.strings("C_CUSTKEY");
  const std::vector<uint32_t> c_to_o =
      MapDictionary(c_custkey, o.strings("O_CUSTKEY"));
  std::map<int, std::pair<uint64_t, double>> groups;  // code idx
  for (uint64_t row = 0; row < c.num_rows(); ++row) {
    if (acctbal[row] <= avg) continue;
    const int code = code_of(phone.GetValueId(row));
    if (code < 0) continue;
    if (c_to_o[c_custkey.GetValueId(row)] != kNoMatch) continue;
    auto& [numcust, total] = groups[code];
    ++numcust;
    total += acctbal[row];
  }

  QueryResult result;
  result.column_names = {"cntrycode", "numcust", "totacctbal"};
  std::vector<std::pair<std::string, std::pair<uint64_t, double>>> rows;
  for (const auto& [code, g] : groups) {
    rows.push_back({std::string(codes[code]), g});
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& [code, g] : rows) {
    result.AddRow({code, Cell(g.first), Cell(g.second)});
  }
  return result;
}

}  // namespace tpch_internal

QueryResult RunTpchQuery(const TpchSnapshot& db, int query) {
  using namespace tpch_internal;
  // Span names are string literals because TraceEvent stores the pointer.
  // The marker comments register the whole array with tools/adict_lint.py,
  // which cross-checks every name against the span catalog in
  // docs/observability.md (spans opened through a variable are invisible
  // to its ADICT_TRACE_SPAN / ScopedSpan literal extraction).
  // adict-lint: span-names-begin
  static constexpr const char* kQuerySpans[kNumTpchQueries] = {
      "tpch.q01", "tpch.q02", "tpch.q03", "tpch.q04", "tpch.q05", "tpch.q06",
      "tpch.q07", "tpch.q08", "tpch.q09", "tpch.q10", "tpch.q11", "tpch.q12",
      "tpch.q13", "tpch.q14", "tpch.q15", "tpch.q16", "tpch.q17", "tpch.q18",
      "tpch.q19", "tpch.q20", "tpch.q21", "tpch.q22"};
  // adict-lint: span-names-end
  static constexpr QueryResult (*kQueries[kNumTpchQueries])(
      const TpchSnapshot&) = {Q1,  Q2,  Q3,  Q4,  Q5,  Q6,  Q7,  Q8,
                              Q9,  Q10, Q11, Q12, Q13, Q14, Q15, Q16,
                              Q17, Q18, Q19, Q20, Q21, Q22};
  ADICT_CHECK_MSG(query >= 1 && query <= kNumTpchQueries,
                  "TPC-H query number must be 1..22");
  obs::ScopedSpan span(kQuerySpans[query - 1]);
  // Per-query latency attribution: diff every column's heat slot across the
  // query and push the result into the profiler ring (/profile.json).
  obs::ScopedQueryProfile profile(kQuerySpans[query - 1]);
  return kQueries[query - 1](db);
}

}  // namespace adict
