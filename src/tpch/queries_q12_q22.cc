// TPC-H queries 12-22 (standard substitution parameters) and the dispatcher.
#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

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
  const std::vector<bool> mode_ok = InIds(l.strings("L_SHIPMODE"), modes);
  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const StringColumn& priority = o.strings("O_ORDERPRIORITY");
  const LocateResult urgent = priority.Locate("1-URGENT");
  const LocateResult high = priority.Locate("2-HIGH");

  const auto& ship = l.dates("L_SHIPDATE");
  const auto& commit = l.dates("L_COMMITDATE");
  const auto& receipt = l.dates("L_RECEIPTDATE");

  std::map<uint32_t, std::pair<uint64_t, uint64_t>> counts;  // mode id
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    const uint32_t mode_id = l.strings("L_SHIPMODE").GetValueId(row);
    if (!mode_ok[mode_id]) continue;
    if (receipt[row] < lo || receipt[row] >= hi) continue;
    if (commit[row] >= receipt[row] || ship[row] >= commit[row]) continue;
    const uint32_t o_row = l_to_o.Row(row);
    if (o_row == kNoMatch) continue;
    const uint32_t prio = priority.GetValueId(o_row);
    const bool is_high =
        (urgent.found && prio == urgent.id) || (high.found && prio == high.id);
    auto& [high_count, low_count] = counts[mode_id];
    (is_high ? high_count : low_count) += 1;
  }

  QueryResult result;
  result.column_names = {"l_shipmode", "high_line_count", "low_line_count"};
  for (const auto& [mode_id, c] : counts) {
    result.AddRow({l.strings("L_SHIPMODE").ExtractId(mode_id), Cell(c.first),
                   Cell(c.second)});
  }
  return result;
}

// Q13: customer distribution. o_comment NOT LIKE '%special%requests%'.
QueryResult Q13(const TpchSnapshot& db) {
  const TableSnapshot& o = db.orders;
  const TableSnapshot& c = db.customer;

  const std::string_view needles[] = {"special", "requests"};
  const std::vector<bool> excluded =
      ContainsAllIds(o.strings("O_COMMENT"), needles);

  // Orders per customer key (in the orders dictionary's ID space).
  std::vector<uint64_t> orders_per_cust(o.strings("O_CUSTKEY").num_distinct(),
                                        0);
  for (uint64_t row = 0; row < o.num_rows(); ++row) {
    if (excluded[o.strings("O_COMMENT").GetValueId(row)]) continue;
    ++orders_per_cust[o.strings("O_CUSTKEY").GetValueId(row)];
  }

  // Every customer contributes, including those without orders.
  const std::vector<uint32_t> c_to_o =
      MapDictionary(c.strings("C_CUSTKEY"), o.strings("O_CUSTKEY"));
  std::map<uint64_t, uint64_t> dist;  // c_count -> customers
  for (uint64_t row = 0; row < c.num_rows(); ++row) {
    const uint32_t o_cust_id = c_to_o[c.strings("C_CUSTKEY").GetValueId(row)];
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

  const IdRange promo = PrefixIds(p.strings("P_TYPE"), "PROMO");
  const FkJoin l_to_p(l.strings("L_PARTKEY"), p.strings("P_PARTKEY"));
  const auto& shipdate = l.dates("L_SHIPDATE");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");

  double promo_revenue = 0, total_revenue = 0;
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    if (shipdate[row] < lo || shipdate[row] >= hi) continue;
    const uint32_t p_row = l_to_p.Row(row);
    if (p_row == kNoMatch) continue;
    const double revenue = price[row] * (1 - disc[row]);
    total_revenue += revenue;
    if (promo.Contains(p.strings("P_TYPE").GetValueId(p_row))) {
      promo_revenue += revenue;
    }
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

  std::unordered_map<uint32_t, double> revenue;  // supplier row
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    if (shipdate[row] < lo || shipdate[row] >= hi) continue;
    const uint32_t s_row = l_to_s.Row(row);
    if (s_row != kNoMatch) revenue[s_row] += price[row] * (1 - disc[row]);
  }
  double max_revenue = 0;
  for (const auto& [s_row, rev] : revenue) {
    max_revenue = std::max(max_revenue, rev);
  }

  std::vector<uint32_t> top;
  for (const auto& [s_row, rev] : revenue) {
    if (rev == max_revenue) top.push_back(s_row);
  }
  std::sort(top.begin(), top.end(), [&](uint32_t a, uint32_t b) {
    return s.strings("S_SUPPKEY").GetValue(a) < s.strings("S_SUPPKEY").GetValue(b);
  });

  QueryResult result;
  result.column_names = {"s_suppkey", "s_name", "s_address", "s_phone",
                         "total_revenue"};
  for (uint32_t s_row : top) {
    result.AddRow({s.strings("S_SUPPKEY").GetValue(s_row),
                   s.strings("S_NAME").GetValue(s_row),
                   s.strings("S_ADDRESS").GetValue(s_row),
                   s.strings("S_PHONE").GetValue(s_row), Cell(max_revenue)});
  }
  return result;
}

// Q16: parts/supplier relationship. Brand#45 excluded, MEDIUM POLISHED
// excluded, 8 sizes, complaint suppliers excluded.
QueryResult Q16(const TpchSnapshot& db) {
  const TableSnapshot& ps = db.partsupp;
  const TableSnapshot& p = db.part;
  const TableSnapshot& s = db.supplier;

  const IdRange bad_brand = EqIds(p.strings("P_BRAND"), "Brand#45");
  const IdRange bad_type = PrefixIds(p.strings("P_TYPE"), "MEDIUM POLISHED");
  const std::unordered_set<int64_t> sizes = {49, 14, 23, 45, 19, 3, 36, 9};

  const std::string_view complaint_needles[] = {"Customer", "Complaints"};
  const std::vector<bool> complained =
      ContainsAllIds(s.strings("S_COMMENT"), complaint_needles);

  const FkJoin ps_to_p(ps.strings("PS_PARTKEY"), p.strings("P_PARTKEY"));
  const FkJoin ps_to_s(ps.strings("PS_SUPPKEY"), s.strings("S_SUPPKEY"));
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
    const uint32_t brand_id = p.strings("P_BRAND").GetValueId(p_row);
    const uint32_t type_id = p.strings("P_TYPE").GetValueId(p_row);
    if (bad_brand.Contains(brand_id) || bad_type.Contains(type_id)) continue;
    if (!sizes.contains(p_size[p_row])) continue;
    const uint32_t s_row = ps_to_s.Row(row);
    if (s_row == kNoMatch ||
        complained[s.strings("S_COMMENT").GetValueId(s_row)]) {
      continue;
    }
    suppliers[{brand_id, type_id, p_size[p_row]}].insert(
        ps.strings("PS_SUPPKEY").GetValueId(row));
  }

  std::vector<std::tuple<uint64_t, std::string, std::string, int64_t>> rows;
  for (const auto& [key, supps] : suppliers) {
    rows.push_back({supps.size(), p.strings("P_BRAND").ExtractId(std::get<0>(key)),
                    p.strings("P_TYPE").ExtractId(std::get<1>(key)),
                    std::get<2>(key)});
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

  const IdRange brand = EqIds(p.strings("P_BRAND"), "Brand#23");
  const IdRange container = EqIds(p.strings("P_CONTAINER"), "MED BOX");
  const FkJoin l_to_p(l.strings("L_PARTKEY"), p.strings("P_PARTKEY"));
  const auto& qty = l.doubles("L_QUANTITY");
  const auto& price = l.doubles("L_EXTENDEDPRICE");

  // Pass 1: average quantity per qualifying part.
  std::unordered_map<uint32_t, std::pair<double, uint64_t>> qty_stats;
  std::vector<uint32_t> part_row_of(l.num_rows(), kNoMatch);
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    const uint32_t p_row = l_to_p.Row(row);
    if (p_row == kNoMatch ||
        !brand.Contains(p.strings("P_BRAND").GetValueId(p_row)) ||
        !container.Contains(p.strings("P_CONTAINER").GetValueId(p_row))) {
      continue;
    }
    part_row_of[row] = p_row;
    auto& [sum, count] = qty_stats[p_row];
    sum += qty[row];
    ++count;
  }

  // Pass 2: lineitems below 20% of their part's average quantity.
  double revenue = 0;
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    const uint32_t p_row = part_row_of[row];
    if (p_row == kNoMatch) continue;
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
  std::unordered_map<uint32_t, double> order_qty;  // order row -> sum(qty)
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    const uint32_t o_row = l_to_o.Row(row);
    if (o_row != kNoMatch) order_qty[o_row] += qty[row];
  }

  const FkJoin o_to_c(o.strings("O_CUSTKEY"), c.strings("C_CUSTKEY"));
  const auto& totalprice = o.doubles("O_TOTALPRICE");
  const auto& orderdate = o.dates("O_ORDERDATE");
  std::vector<std::pair<uint32_t, double>> rows;  // (order row, qty sum)
  for (const auto& [o_row, sum] : order_qty) {
    if (sum > 300.0) rows.push_back({o_row, sum});
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
  for (const auto& [o_row, sum] : rows) {
    const uint32_t c_row = o_to_c.Row(o_row);
    result.AddRow({c_row == kNoMatch ? "" : c.strings("C_NAME").GetValue(c_row),
                   c_row == kNoMatch ? ""
                                     : c.strings("C_CUSTKEY").GetValue(c_row),
                   o.strings("O_ORDERKEY").GetValue(o_row),
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
  const IdRange brand12 = EqIds(p.strings("P_BRAND"), "Brand#12");
  const IdRange brand23 = EqIds(p.strings("P_BRAND"), "Brand#23");
  const IdRange brand34 = EqIds(p.strings("P_BRAND"), "Brand#34");
  const std::string_view small_containers[] = {"SM CASE", "SM BOX", "SM PACK",
                                               "SM PKG"};
  const std::string_view med_containers[] = {"MED BAG", "MED BOX", "MED PKG",
                                             "MED PACK"};
  const std::string_view large_containers[] = {"LG CASE", "LG BOX", "LG PACK",
                                               "LG PKG"};
  const std::vector<bool> sm = InIds(p.strings("P_CONTAINER"), small_containers);
  const std::vector<bool> med = InIds(p.strings("P_CONTAINER"), med_containers);
  const std::vector<bool> lg = InIds(p.strings("P_CONTAINER"), large_containers);

  const std::string_view modes[] = {"AIR", "REG AIR"};
  const std::vector<bool> air = InIds(l.strings("L_SHIPMODE"), modes);
  const IdRange in_person =
      EqIds(l.strings("L_SHIPINSTRUCT"), "DELIVER IN PERSON");

  const auto& qty = l.doubles("L_QUANTITY");
  const auto& price = l.doubles("L_EXTENDEDPRICE");
  const auto& disc = l.doubles("L_DISCOUNT");
  const auto& p_size = p.int64s("P_SIZE");

  double revenue = 0;
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    if (!air[l.strings("L_SHIPMODE").GetValueId(row)]) continue;
    if (!in_person.Contains(l.strings("L_SHIPINSTRUCT").GetValueId(row))) {
      continue;
    }
    const uint32_t p_row = l_to_p.Row(row);
    if (p_row == kNoMatch) continue;
    const uint32_t brand_id = p.strings("P_BRAND").GetValueId(p_row);
    const uint32_t cont_id = p.strings("P_CONTAINER").GetValueId(p_row);
    const int64_t size = p_size[p_row];
    const double q = qty[row];
    const bool arm1 = brand12.Contains(brand_id) && sm[cont_id] && q >= 1 &&
                      q <= 11 && size >= 1 && size <= 5;
    const bool arm2 = brand23.Contains(brand_id) && med[cont_id] && q >= 10 &&
                      q <= 20 && size >= 1 && size <= 10;
    const bool arm3 = brand34.Contains(brand_id) && lg[cont_id] && q >= 20 &&
                      q <= 30 && size >= 1 && size <= 15;
    if (arm1 || arm2 || arm3) revenue += price[row] * (1 - disc[row]);
  }

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

  const IdRange forest = PrefixIds(p.strings("P_NAME"), "forest");
  const FkJoin l_to_p(l.strings("L_PARTKEY"), p.strings("P_PARTKEY"));
  const std::vector<uint32_t> l_part_to_ps =
      MapDictionary(l.strings("L_PARTKEY"), ps.strings("PS_PARTKEY"));
  const std::vector<uint32_t> l_supp_to_ps =
      MapDictionary(l.strings("L_SUPPKEY"), ps.strings("PS_SUPPKEY"));

  // Quantity shipped in 1994 per (ps part id, ps supp id), forest parts only.
  const auto& shipdate = l.dates("L_SHIPDATE");
  const auto& qty = l.doubles("L_QUANTITY");
  std::unordered_map<uint64_t, double> shipped;
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    if (shipdate[row] < lo || shipdate[row] >= hi) continue;
    const uint32_t p_row = l_to_p.Row(row);
    if (p_row == kNoMatch ||
        !forest.Contains(p.strings("P_NAME").GetValueId(p_row))) {
      continue;
    }
    const uint32_t ps_part = l_part_to_ps[l.strings("L_PARTKEY").GetValueId(row)];
    const uint32_t ps_supp = l_supp_to_ps[l.strings("L_SUPPKEY").GetValueId(row)];
    if (ps_part == kNoMatch || ps_supp == kNoMatch) continue;
    shipped[(static_cast<uint64_t>(ps_part) << 32) | ps_supp] += qty[row];
  }

  // Suppliers with availqty > 0.5 * shipped, in CANADA.
  const IdRange canada = EqIds(n.strings("N_NAME"), "CANADA");
  const IdIndex nation_by_name(n.strings("N_NAME"));
  const uint32_t canada_row =
      canada.empty() ? kNoMatch : nation_by_name.UniqueRow(canada.begin);
  const FkJoin ps_to_s(ps.strings("PS_SUPPKEY"), s.strings("S_SUPPKEY"));
  const FkJoin s_to_n(s.strings("S_NATIONKEY"), n.strings("N_NATIONKEY"));

  const auto& avail = ps.int64s("PS_AVAILQTY");
  std::unordered_set<uint32_t> supplier_rows;
  for (uint64_t row = 0; row < ps.num_rows(); ++row) {
    const uint64_t key =
        (static_cast<uint64_t>(ps.strings("PS_PARTKEY").GetValueId(row)) << 32) |
        ps.strings("PS_SUPPKEY").GetValueId(row);
    const auto it = shipped.find(key);
    if (it == shipped.end()) continue;
    if (static_cast<double>(avail[row]) <= 0.5 * it->second) continue;
    const uint32_t s_row = ps_to_s.Row(row);
    if (s_row == kNoMatch) continue;
    if (s_to_n.Row(s_row) != canada_row) continue;
    supplier_rows.insert(s_row);
  }

  std::vector<std::pair<std::string, std::string>> rows;
  for (uint32_t s_row : supplier_rows) {
    rows.push_back({s.strings("S_NAME").GetValue(s_row),
                    s.strings("S_ADDRESS").GetValue(s_row)});
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

  const IdRange failed = EqIds(o.strings("O_ORDERSTATUS"), "F");
  const FkJoin l_to_o(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const FkJoin l_to_s(l.strings("L_SUPPKEY"), s.strings("S_SUPPKEY"));
  const FkJoin s_to_n(s.strings("S_NATIONKEY"), n.strings("N_NATIONKEY"));

  const IdRange saudi = EqIds(n.strings("N_NAME"), "SAUDI ARABIA");
  const IdIndex nation_by_name(n.strings("N_NAME"));
  const uint32_t saudi_row =
      saudi.empty() ? kNoMatch : nation_by_name.UniqueRow(saudi.begin);

  // Per order (value id of L_ORDERKEY): distinct-supplier bookkeeping with
  // O(1) state, enough to evaluate the exists / not-exists pair.
  const uint32_t num_orders = l.strings("L_ORDERKEY").num_distinct();
  constexpr uint32_t kNone = kNoMatch;
  constexpr uint32_t kMany = kNoMatch - 1;
  std::vector<uint32_t> any_supp(num_orders, kNone);   // kMany: >= 2 distinct
  std::vector<uint32_t> late_supp(num_orders, kNone);  // kMany: >= 2 distinct

  const auto& commit = l.dates("L_COMMITDATE");
  const auto& receipt = l.dates("L_RECEIPTDATE");
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    const uint32_t order = l.strings("L_ORDERKEY").GetValueId(row);
    const uint32_t supp = l.strings("L_SUPPKEY").GetValueId(row);
    auto note = [supp](uint32_t& slot) {
      if (slot == kNone) {
        slot = supp;
      } else if (slot != supp) {
        slot = kMany;
      }
    };
    note(any_supp[order]);
    if (receipt[row] > commit[row]) note(late_supp[order]);
  }

  // A supplier qualifies in an order iff it is the *only* late supplier and
  // at least one other supplier participated; count per supplier.
  std::unordered_map<uint32_t, uint64_t> waiting;  // supplier row -> count
  const IdIndex order_index(o.strings("O_ORDERKEY"));
  const IdIndex supp_index(s.strings("S_SUPPKEY"));
  const std::vector<uint32_t> l_order_to_o =
      MapDictionary(l.strings("L_ORDERKEY"), o.strings("O_ORDERKEY"));
  const std::vector<uint32_t> l_supp_to_s =
      MapDictionary(l.strings("L_SUPPKEY"), s.strings("S_SUPPKEY"));
  for (uint32_t order = 0; order < num_orders; ++order) {
    const uint32_t late = late_supp[order];
    if (late == kNone || late == kMany) continue;
    if (any_supp[order] != kMany) continue;  // needs another supplier
    // Order status must be 'F'.
    const uint32_t o_id = l_order_to_o[order];
    if (o_id == kNoMatch) continue;
    const uint32_t o_row = order_index.UniqueRow(o_id);
    if (o_row == kNoMatch ||
        !failed.Contains(o.strings("O_ORDERSTATUS").GetValueId(o_row))) {
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
  std::sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return s.strings("S_NAME").GetValue(a.first) <
           s.strings("S_NAME").GetValue(b.first);
  });
  if (rows.size() > 100) rows.resize(100);

  QueryResult result;
  result.column_names = {"s_name", "numwait"};
  for (const auto& [s_row, count] : rows) {
    result.AddRow({s.strings("S_NAME").GetValue(s_row), Cell(count)});
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
  const std::vector<uint32_t> c_to_o =
      MapDictionary(c.strings("C_CUSTKEY"), o.strings("O_CUSTKEY"));
  std::map<int, std::pair<uint64_t, double>> groups;  // code idx
  for (uint64_t row = 0; row < c.num_rows(); ++row) {
    if (acctbal[row] <= avg) continue;
    const int code = code_of(phone.GetValueId(row));
    if (code < 0) continue;
    if (c_to_o[c.strings("C_CUSTKEY").GetValueId(row)] != kNoMatch) continue;
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
