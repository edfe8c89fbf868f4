#include "tpch/dbgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.h"
#include "util/date.h"
#include "util/rng.h"

namespace adict {
namespace {

// ---------------------------------------------------------------------------
// TPC-H value lists (per the specification).
// ---------------------------------------------------------------------------

constexpr std::string_view kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                         "MIDDLE EAST"};

struct NationSpec {
  std::string_view name;
  int region;
};
constexpr NationSpec kNations[] = {
    {"ALGERIA", 0},  {"ARGENTINA", 1}, {"BRAZIL", 1},        {"CANADA", 1},
    {"EGYPT", 4},    {"ETHIOPIA", 0},  {"FRANCE", 3},        {"GERMANY", 3},
    {"INDIA", 2},    {"INDONESIA", 2}, {"IRAN", 4},          {"IRAQ", 4},
    {"JAPAN", 2},    {"JORDAN", 4},    {"KENYA", 0},         {"MOROCCO", 0},
    {"MOZAMBIQUE", 0},{"PERU", 1},     {"CHINA", 2},         {"ROMANIA", 3},
    {"SAUDI ARABIA", 4},{"VIETNAM", 2},{"RUSSIA", 3},        {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1},
};
constexpr int kNumNations = 25;

// The 92 color words of P_NAME.
constexpr std::string_view kColors[] = {
    "almond",     "antique",   "aquamarine", "azure",     "beige",
    "bisque",     "black",     "blanched",   "blue",      "blush",
    "brown",      "burlywood", "burnished",  "chartreuse","chiffon",
    "chocolate",  "coral",     "cornflower", "cornsilk",  "cream",
    "cyan",       "dark",      "deep",       "dim",       "dodger",
    "drab",       "firebrick", "floral",     "forest",    "frosted",
    "gainsboro",  "ghost",     "goldenrod",  "green",     "grey",
    "honeydew",   "hot",       "indian",     "ivory",     "khaki",
    "lace",       "lavender",  "lawn",       "lemon",     "light",
    "lime",       "linen",     "magenta",    "maroon",    "medium",
    "metallic",   "midnight",  "mint",       "misty",     "moccasin",
    "navajo",     "navy",      "olive",      "orange",    "orchid",
    "pale",       "papaya",    "peach",      "peru",      "pink",
    "plum",       "powder",    "puff",       "purple",    "red",
    "rose",       "rosy",      "royal",      "saddle",    "salmon",
    "sandy",      "seashell",  "sienna",     "sky",       "slate",
    "smoke",      "snow",      "spring",     "steel",     "tan",
    "thistle",    "tomato",    "turquoise",  "violet",    "wheat",
    "white",      "yellow",
};

constexpr std::string_view kTypeSyllable1[] = {"STANDARD", "SMALL",   "MEDIUM",
                                               "LARGE",    "ECONOMY", "PROMO"};
constexpr std::string_view kTypeSyllable2[] = {"ANODIZED", "BURNISHED",
                                               "PLATED", "POLISHED", "BRUSHED"};
constexpr std::string_view kTypeSyllable3[] = {"TIN", "NICKEL", "BRASS",
                                               "STEEL", "COPPER"};
constexpr std::string_view kContainerSyllable1[] = {"SM", "LG", "MED", "JUMBO",
                                                    "WRAP"};
constexpr std::string_view kContainerSyllable2[] = {"CASE", "BOX", "BAG", "JAR",
                                                    "PKG", "PACK", "CAN", "DRUM"};
constexpr std::string_view kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                          "MACHINERY", "HOUSEHOLD"};
constexpr std::string_view kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                            "4-NOT SPECIFIED", "5-LOW"};
constexpr std::string_view kShipModes[] = {"REG AIR", "AIR",   "RAIL", "SHIP",
                                           "TRUCK",   "MAIL", "FOB"};
constexpr std::string_view kShipInstructs[] = {"DELIVER IN PERSON", "COLLECT COD",
                                               "NONE", "TAKE BACK RETURN"};

// Pseudo-text vocabulary for comments (includes the words the query
// predicates of Q13 et al. look for).
constexpr std::string_view kTextWords[] = {
    "carefully",  "quickly",   "blithely",  "furiously", "slyly",
    "final",      "special",   "pending",   "express",   "regular",
    "ironic",     "even",      "bold",      "silent",    "daring",
    "requests",   "accounts",  "packages",  "deposits",  "instructions",
    "theodolites","pinto",     "beans",     "foxes",     "dependencies",
    "platelets",  "ideas",     "excuses",   "asymptotes","dolphins",
    "sleep",      "haggle",    "nag",       "wake",      "cajole",
    "integrate",  "detect",    "boost",     "breach",    "among",
    "across",     "above",     "against",   "along",     "the",
};

constexpr int32_t kStartDate = DaysFromCivil(1992, 1, 1);
constexpr int32_t kEndDate = DaysFromCivil(1998, 12, 31);
constexpr int32_t kCurrentDate = DaysFromCivil(1995, 6, 17);
// Orders span [1992-01-01, 1998-08-02] so all lineitem dates fit.
constexpr int32_t kLastOrderDate = DaysFromCivil(1998, 8, 2);

std::string PseudoText(Rng* rng, int min_words, int max_words) {
  std::string text;
  const int words =
      min_words + static_cast<int>(rng->Uniform(max_words - min_words + 1));
  for (int w = 0; w < words; ++w) {
    if (w) text += ' ';
    text += kTextWords[rng->Uniform(std::size(kTextWords))];
  }
  return text;
}

std::string Address(Rng* rng) {
  static constexpr std::string_view kChars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,";
  const size_t len = 10 + rng->Uniform(31);
  std::string address;
  address.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    address.push_back(kChars[rng->Uniform(kChars.size())]);
  }
  return address;
}

std::string Phone(Rng* rng, int nation) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d", 10 + nation,
                100 + static_cast<int>(rng->Uniform(900)),
                100 + static_cast<int>(rng->Uniform(900)),
                1000 + static_cast<int>(rng->Uniform(9000)));
  return buf;
}

double Money(Rng* rng, double lo, double hi) {
  return std::round((lo + rng->NextDouble() * (hi - lo)) * 100.0) / 100.0;
}

/// Part retail price per the spec formula.
double RetailPrice(uint64_t partkey) {
  return (90000.0 + (partkey / 10) % 20001 + 100.0 * (partkey % 1000)) / 100.0;
}

}  // namespace

std::string KeyString(uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%010llu",
                static_cast<unsigned long long>(key));
  return buf;
}

size_t TpchDatabase::MemoryBytes() const {
  size_t bytes = 0;
  for (const Table* table : tables()) bytes += table->MemoryBytes();
  return bytes;
}

size_t TpchDatabase::StringColumnBytes() const {
  size_t bytes = 0;
  for (const Table* table : tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      const auto column = table->string_column(i).Snapshot();
      bytes += column->DictionaryBytes() + column->VectorBytes();
    }
  }
  return bytes;
}

void TpchDatabase::ApplyFormat(DictFormat format) {
  for (Table* table : tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      table->string_column(i).PublishFormat(format);
    }
  }
}

void TpchDatabase::ResetUsage() {
  for (Table* table : tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      table->string_column(i).ResetUsage();
    }
  }
}

TpchDatabase GenerateTpch(const TpchOptions& options) {
  ADICT_CHECK(options.scale_factor > 0);
  const double sf = options.scale_factor;
  const uint64_t num_suppliers = std::max<uint64_t>(10, 10000 * sf);
  const uint64_t num_customers = std::max<uint64_t>(15, 150000 * sf);
  const uint64_t num_parts = std::max<uint64_t>(20, 200000 * sf);
  const uint64_t num_orders = std::max<uint64_t>(150, 1500000 * sf);

  TpchDatabase db;
  Rng rng(options.seed);
  const DictFormat fmt = options.format;

  // ----- region ----------------------------------------------------------
  {
    std::vector<std::string> key, name, comment;
    for (int r = 0; r < 5; ++r) {
      key.push_back(KeyString(r));
      name.emplace_back(kRegions[r]);
      comment.push_back(PseudoText(&rng, 4, 12));
    }
    db.region.AddStringColumn("R_REGIONKEY", StringColumn::FromValues(key, fmt));
    db.region.AddStringColumn("R_NAME", StringColumn::FromValues(name, fmt));
    db.region.AddStringColumn("R_COMMENT", StringColumn::FromValues(comment, fmt));
  }

  // ----- nation ----------------------------------------------------------
  {
    std::vector<std::string> key, name, regionkey, comment;
    for (int n = 0; n < kNumNations; ++n) {
      key.push_back(KeyString(n));
      name.emplace_back(kNations[n].name);
      regionkey.push_back(KeyString(kNations[n].region));
      comment.push_back(PseudoText(&rng, 4, 12));
    }
    db.nation.AddStringColumn("N_NATIONKEY", StringColumn::FromValues(key, fmt));
    db.nation.AddStringColumn("N_NAME", StringColumn::FromValues(name, fmt));
    db.nation.AddStringColumn("N_REGIONKEY",
                              StringColumn::FromValues(regionkey, fmt));
    db.nation.AddStringColumn("N_COMMENT", StringColumn::FromValues(comment, fmt));
  }

  // ----- supplier ---------------------------------------------------------
  std::vector<int> supplier_nation(num_suppliers);
  {
    std::vector<std::string> key, name, address, nationkey, phone, comment;
    std::vector<double> acctbal;
    for (uint64_t s = 1; s <= num_suppliers; ++s) {
      const int nation = static_cast<int>(rng.Uniform(kNumNations));
      supplier_nation[s - 1] = nation;
      key.push_back(KeyString(s));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Supplier#%09llu",
                    static_cast<unsigned long long>(s));
      name.emplace_back(buf);
      address.push_back(Address(&rng));
      nationkey.push_back(KeyString(nation));
      phone.push_back(Phone(&rng, nation));
      acctbal.push_back(Money(&rng, -999.99, 9999.99));
      // A small fraction of supplier comments mention customer complaints
      // (Q16's exclusion predicate), mirroring dbgen's injection.
      std::string text = PseudoText(&rng, 6, 20);
      if (rng.NextDouble() < 0.01) text += " Customer Complaints";
      comment.push_back(std::move(text));
    }
    db.supplier.AddStringColumn("S_SUPPKEY", StringColumn::FromValues(key, fmt));
    db.supplier.AddStringColumn("S_NAME", StringColumn::FromValues(name, fmt));
    db.supplier.AddStringColumn("S_ADDRESS", StringColumn::FromValues(address, fmt));
    db.supplier.AddStringColumn("S_NATIONKEY",
                                StringColumn::FromValues(nationkey, fmt));
    db.supplier.AddStringColumn("S_PHONE", StringColumn::FromValues(phone, fmt));
    db.supplier.AddDoubleColumn("S_ACCTBAL", std::move(acctbal));
    db.supplier.AddStringColumn("S_COMMENT", StringColumn::FromValues(comment, fmt));
  }

  // ----- customer ---------------------------------------------------------
  {
    std::vector<std::string> key, name, address, nationkey, phone, segment,
        comment;
    std::vector<double> acctbal;
    for (uint64_t c = 1; c <= num_customers; ++c) {
      const int nation = static_cast<int>(rng.Uniform(kNumNations));
      key.push_back(KeyString(c));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Customer#%09llu",
                    static_cast<unsigned long long>(c));
      name.emplace_back(buf);
      address.push_back(Address(&rng));
      nationkey.push_back(KeyString(nation));
      phone.push_back(Phone(&rng, nation));
      acctbal.push_back(Money(&rng, -999.99, 9999.99));
      segment.emplace_back(kSegments[rng.Uniform(std::size(kSegments))]);
      comment.push_back(PseudoText(&rng, 6, 20));
    }
    db.customer.AddStringColumn("C_CUSTKEY", StringColumn::FromValues(key, fmt));
    db.customer.AddStringColumn("C_NAME", StringColumn::FromValues(name, fmt));
    db.customer.AddStringColumn("C_ADDRESS", StringColumn::FromValues(address, fmt));
    db.customer.AddStringColumn("C_NATIONKEY",
                                StringColumn::FromValues(nationkey, fmt));
    db.customer.AddStringColumn("C_PHONE", StringColumn::FromValues(phone, fmt));
    db.customer.AddDoubleColumn("C_ACCTBAL", std::move(acctbal));
    db.customer.AddStringColumn("C_MKTSEGMENT",
                                StringColumn::FromValues(segment, fmt));
    db.customer.AddStringColumn("C_COMMENT", StringColumn::FromValues(comment, fmt));
  }

  // ----- part -------------------------------------------------------------
  {
    std::vector<std::string> key, name, mfgr, brand, type, container, comment;
    std::vector<int64_t> size;
    std::vector<double> price;
    for (uint64_t p = 1; p <= num_parts; ++p) {
      key.push_back(KeyString(p));
      // P_NAME: five distinct color words.
      std::string part_name;
      uint64_t picked[5];
      for (int w = 0; w < 5; ++w) {
        bool fresh;
        do {
          picked[w] = rng.Uniform(std::size(kColors));
          fresh = true;
          for (int v = 0; v < w; ++v) fresh &= picked[v] != picked[w];
        } while (!fresh);
        if (w) part_name += ' ';
        part_name += kColors[picked[w]];
      }
      name.push_back(std::move(part_name));
      const int m = 1 + static_cast<int>(rng.Uniform(5));
      mfgr.push_back("Manufacturer#" + std::to_string(m));
      brand.push_back("Brand#" + std::to_string(m) +
                      std::to_string(1 + rng.Uniform(5)));
      type.push_back(std::string(kTypeSyllable1[rng.Uniform(6)]) + " " +
                     std::string(kTypeSyllable2[rng.Uniform(5)]) + " " +
                     std::string(kTypeSyllable3[rng.Uniform(5)]));
      size.push_back(1 + static_cast<int64_t>(rng.Uniform(50)));
      container.push_back(std::string(kContainerSyllable1[rng.Uniform(5)]) + " " +
                          std::string(kContainerSyllable2[rng.Uniform(8)]));
      price.push_back(RetailPrice(p));
      comment.push_back(PseudoText(&rng, 2, 8));
    }
    db.part.AddStringColumn("P_PARTKEY", StringColumn::FromValues(key, fmt));
    db.part.AddStringColumn("P_NAME", StringColumn::FromValues(name, fmt));
    db.part.AddStringColumn("P_MFGR", StringColumn::FromValues(mfgr, fmt));
    db.part.AddStringColumn("P_BRAND", StringColumn::FromValues(brand, fmt));
    db.part.AddStringColumn("P_TYPE", StringColumn::FromValues(type, fmt));
    db.part.AddInt64Column("P_SIZE", std::move(size));
    db.part.AddStringColumn("P_CONTAINER",
                            StringColumn::FromValues(container, fmt));
    db.part.AddDoubleColumn("P_RETAILPRICE", std::move(price));
    db.part.AddStringColumn("P_COMMENT", StringColumn::FromValues(comment, fmt));
  }

  // ----- partsupp: 4 suppliers per part ------------------------------------
  // ps_supplycost is remembered for the lineitem generator (Q9 consistency
  // does not require it, but extendedprice should correlate with the part).
  {
    std::vector<std::string> partkey, suppkey, comment;
    std::vector<int64_t> availqty;
    std::vector<double> supplycost;
    for (uint64_t p = 1; p <= num_parts; ++p) {
      for (int s = 0; s < 4; ++s) {
        // Spread the 4 suppliers over the supplier space (spec formula).
        const uint64_t supp =
            (p + s * (num_suppliers / 4 + (p - 1) / num_suppliers)) %
                num_suppliers +
            1;
        partkey.push_back(KeyString(p));
        suppkey.push_back(KeyString(supp));
        availqty.push_back(1 + static_cast<int64_t>(rng.Uniform(9999)));
        supplycost.push_back(Money(&rng, 1.0, 1000.0));
        comment.push_back(PseudoText(&rng, 8, 30));
      }
    }
    db.partsupp.AddStringColumn("PS_PARTKEY",
                                StringColumn::FromValues(partkey, fmt));
    db.partsupp.AddStringColumn("PS_SUPPKEY",
                                StringColumn::FromValues(suppkey, fmt));
    db.partsupp.AddInt64Column("PS_AVAILQTY", std::move(availqty));
    db.partsupp.AddDoubleColumn("PS_SUPPLYCOST", std::move(supplycost));
    db.partsupp.AddStringColumn("PS_COMMENT",
                                StringColumn::FromValues(comment, fmt));
  }

  // ----- orders + lineitem --------------------------------------------------
  {
    std::vector<std::string> o_key, o_cust, o_status, o_priority, o_clerk,
        o_comment;
    std::vector<double> o_total;
    std::vector<int32_t> o_date;
    std::vector<int64_t> o_shippriority;

    std::vector<std::string> l_okey, l_part, l_supp, l_returnflag, l_linestatus,
        l_shipinstruct, l_shipmode, l_comment;
    std::vector<int64_t> l_linenumber;
    std::vector<double> l_quantity, l_extendedprice, l_discount, l_tax;
    std::vector<int32_t> l_ship, l_commit, l_receipt;

    const uint64_t num_clerks = std::max<uint64_t>(1, num_orders / 1000);
    for (uint64_t o = 1; o <= num_orders; ++o) {
      // dbgen never assigns orders to custkeys divisible by 3, leaving a
      // third of the customers without orders (relevant for Q13 and Q22).
      uint64_t cust;
      do {
        cust = 1 + rng.Uniform(num_customers);
      } while (cust % 3 == 0);
      const int32_t orderdate =
          kStartDate + static_cast<int32_t>(rng.Uniform(kLastOrderDate - kStartDate + 1));
      const int lines = 1 + static_cast<int>(rng.Uniform(7));
      double total = 0;
      int f_count = 0;
      for (int l = 1; l <= lines; ++l) {
        const uint64_t p = 1 + rng.Uniform(num_parts);
        const uint64_t supp = 1 + rng.Uniform(num_suppliers);
        const double quantity = 1 + static_cast<double>(rng.Uniform(50));
        const double extended = quantity * RetailPrice(p);
        const double discount = rng.Uniform(11) / 100.0;  // 0.00 .. 0.10
        const double tax = rng.Uniform(9) / 100.0;        // 0.00 .. 0.08
        const int32_t ship = orderdate + 1 + static_cast<int32_t>(rng.Uniform(121));
        const int32_t commit = orderdate + 30 + static_cast<int32_t>(rng.Uniform(61));
        const int32_t receipt = ship + 1 + static_cast<int32_t>(rng.Uniform(30));

        l_okey.push_back(KeyString(o));
        l_part.push_back(KeyString(p));
        l_supp.push_back(KeyString(supp));
        l_linenumber.push_back(l);
        l_quantity.push_back(quantity);
        l_extendedprice.push_back(extended);
        l_discount.push_back(discount);
        l_tax.push_back(tax);
        if (receipt <= kCurrentDate) {
          l_returnflag.emplace_back(rng.NextDouble() < 0.5 ? "R" : "A");
        } else {
          l_returnflag.emplace_back("N");
        }
        const bool filled = ship <= kCurrentDate;
        f_count += filled;
        l_linestatus.emplace_back(filled ? "F" : "O");
        l_ship.push_back(ship);
        l_commit.push_back(commit);
        l_receipt.push_back(receipt);
        l_shipinstruct.emplace_back(
            kShipInstructs[rng.Uniform(std::size(kShipInstructs))]);
        l_shipmode.emplace_back(kShipModes[rng.Uniform(std::size(kShipModes))]);
        l_comment.push_back(PseudoText(&rng, 2, 8));
        total += extended * (1.0 + tax) * (1.0 - discount);
      }
      o_key.push_back(KeyString(o));
      o_cust.push_back(KeyString(cust));
      o_status.emplace_back(f_count == lines ? "F"
                            : f_count == 0   ? "O"
                                             : "P");
      o_total.push_back(total);
      o_date.push_back(orderdate);
      o_priority.emplace_back(kPriorities[rng.Uniform(std::size(kPriorities))]);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Clerk#%09llu",
                    static_cast<unsigned long long>(1 + rng.Uniform(num_clerks)));
      o_clerk.emplace_back(buf);
      o_shippriority.push_back(0);
      o_comment.push_back(PseudoText(&rng, 6, 20));
    }

    db.orders.AddStringColumn("O_ORDERKEY", StringColumn::FromValues(o_key, fmt));
    db.orders.AddStringColumn("O_CUSTKEY", StringColumn::FromValues(o_cust, fmt));
    db.orders.AddStringColumn("O_ORDERSTATUS",
                              StringColumn::FromValues(o_status, fmt));
    db.orders.AddDoubleColumn("O_TOTALPRICE", std::move(o_total));
    db.orders.AddDateColumn("O_ORDERDATE", std::move(o_date));
    db.orders.AddStringColumn("O_ORDERPRIORITY",
                              StringColumn::FromValues(o_priority, fmt));
    db.orders.AddStringColumn("O_CLERK", StringColumn::FromValues(o_clerk, fmt));
    db.orders.AddInt64Column("O_SHIPPRIORITY", std::move(o_shippriority));
    db.orders.AddStringColumn("O_COMMENT",
                              StringColumn::FromValues(o_comment, fmt));

    db.lineitem.AddStringColumn("L_ORDERKEY",
                                StringColumn::FromValues(l_okey, fmt));
    db.lineitem.AddStringColumn("L_PARTKEY",
                                StringColumn::FromValues(l_part, fmt));
    db.lineitem.AddStringColumn("L_SUPPKEY",
                                StringColumn::FromValues(l_supp, fmt));
    db.lineitem.AddInt64Column("L_LINENUMBER", std::move(l_linenumber));
    db.lineitem.AddDoubleColumn("L_QUANTITY", std::move(l_quantity));
    db.lineitem.AddDoubleColumn("L_EXTENDEDPRICE", std::move(l_extendedprice));
    db.lineitem.AddDoubleColumn("L_DISCOUNT", std::move(l_discount));
    db.lineitem.AddDoubleColumn("L_TAX", std::move(l_tax));
    db.lineitem.AddStringColumn("L_RETURNFLAG",
                                StringColumn::FromValues(l_returnflag, fmt));
    db.lineitem.AddStringColumn("L_LINESTATUS",
                                StringColumn::FromValues(l_linestatus, fmt));
    db.lineitem.AddDateColumn("L_SHIPDATE", std::move(l_ship));
    db.lineitem.AddDateColumn("L_COMMITDATE", std::move(l_commit));
    db.lineitem.AddDateColumn("L_RECEIPTDATE", std::move(l_receipt));
    db.lineitem.AddStringColumn("L_SHIPINSTRUCT",
                                StringColumn::FromValues(l_shipinstruct, fmt));
    db.lineitem.AddStringColumn("L_SHIPMODE",
                                StringColumn::FromValues(l_shipmode, fmt));
    db.lineitem.AddStringColumn("L_COMMENT",
                                StringColumn::FromValues(l_comment, fmt));
  }
  (void)kEndDate;
  return db;
}

}  // namespace adict
