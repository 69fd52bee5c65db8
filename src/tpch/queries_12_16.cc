// TPC-H queries 12-16. Fact-table pipelines run through the parallel
// helpers of queries.h (per-worker states, slot-order merges); see the
// note in queries_1_6.cc.

#include <algorithm>
#include <array>
#include <map>

#include "exec/dict_memo.h"
#include "tpch/queries.h"
#include "util/date.h"
#include "util/like.h"

namespace datablocks::tpch {

using namespace detail;
namespace li = col::lineitem;
namespace ord = col::orders;
namespace cust = col::customer;
namespace prt = col::part;
namespace ps = col::partsupp;
namespace sup = col::supplier;

// --- Q12: shipping modes and order priority -----------------------------------

QueryResult Q12(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1994, 1, 1), hi = MakeDate(1995, 1, 1);

  // orderkey -> is high priority (1-URGENT / 2-HIGH); dense, one writer
  // per element.
  std::vector<uint8_t> high = ParDenseStore<uint8_t>(
      db.orders, opt, {ord::orderkey, ord::orderpriority}, {},
      size_t(db.NumOrders()), [](auto& sink, const Batch& b) {
        // o_orderpriority has five distinct values: on coded batches the
        // membership test runs once per dictionary code, not per row.
        DictFilter high_pri(b.cols[1], [](std::string_view p) {
          return p == "1-URGENT" || p == "2-HIGH";
        });
        for (uint32_t i = 0; i < b.count; ++i) {
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])),
                     high_pri(i) ? 1 : 0);
        }
      });

  // (MAIL, SHIP) x (high count, low count). The shipmode membership is
  // pushed into the scan as an IN predicate — on frozen blocks it becomes a
  // dictionary code set (or code range), so non-matching rows never touch
  // the dictionary; the pipeline only disambiguates MAIL vs SHIP among
  // survivors.
  struct ModeCounts {
    std::array<std::pair<int64_t, int64_t>, 2> counts{};  // 0=MAIL, 1=SHIP
  };
  ModeCounts counts = ParAgg<ModeCounts>(
      db.lineitem, opt,
      {li::orderkey, li::shipdate, li::commitdate, li::receiptdate,
       li::shipmode},
      {Predicate::Between(li::receiptdate, Value::Int(lo), Value::Int(hi - 1)),
       Predicate::In(li::shipmode,
                     {Value::Str("MAIL"), Value::Str("SHIP")})},
      [] { return ModeCounts{}; },
      [&high](ModeCounts& mc, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          std::string_view mode = b.cols[4].Str(i);
          if (b.cols[2].i32[i] >= b.cols[3].i32[i]) continue;  // commit<recpt
          if (b.cols[1].i32[i] >= b.cols[2].i32[i]) continue;  // ship<commit
          auto& c = mc.counts[mode == "MAIL" ? 0 : 1];
          if (high[size_t(OrderIdx(b.cols[0].i64[i]))])
            ++c.first;
          else
            ++c.second;
        }
      },
      [](ModeCounts& dst, const ModeCounts& src) {
        for (size_t m = 0; m < 2; ++m) {
          dst.counts[m].first += src.counts[m].first;
          dst.counts[m].second += src.counts[m].second;
        }
      });

  QueryResult result;
  static const char* kModes[2] = {"MAIL", "SHIP"};  // output in mode order
  for (size_t m = 0; m < 2; ++m)
    result.rows.push_back(std::string(kModes[m]) + "|" +
                          std::to_string(counts.counts[m].first) + "|" +
                          std::to_string(counts.counts[m].second));
  return result;
}

// --- Q13: customer distribution ------------------------------------------------

QueryResult Q13(const TpchDatabase& db, const ScanOptions& opt) {
  // Dense custkey domain: one shared count vector via the partitioned
  // engine instead of a rows-sized replica per worker slot.
  using CountVec = std::vector<int32_t>;
  CountVec order_count = ParDenseAgg<int32_t, int32_t>(
      db.orders, opt, {ord::custkey, ord::comment}, {},
      size_t(db.NumCustomers()) + 1,
      [](auto& sink, const Batch& b) {
        // o_comment is near-unique, so DictFilter's cardinality guard keeps
        // this a direct evaluation; the wrapper still routes coded batches
        // through the dictionary accessor.
        DictFilter special(b.cols[1], [](std::string_view c) {
          return LikeMatch(c, "%special%requests%");
        });
        for (uint32_t i = 0; i < b.count; ++i) {
          if (special(i)) continue;
          sink.Add(size_t(b.cols[0].i32[i]), 1);
        }
      },
      ApplyAdd{});

  // c_count -> number of customers (left join keeps 0-order customers).
  auto dist = ParHashAgg<int64_t>(
      db.customer, opt, {cust::custkey}, {},
      [&order_count](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          ++t.Ref(uint64_t(order_count[size_t(b.cols[0].i32[i])]));
      },
      ApplyAdd{});

  struct OutRow {
    int32_t c_count;
    int64_t custdist;
  };
  std::vector<OutRow> out;
  dist.ForEach([&](uint64_t cc, const int64_t& cd) {
    out.push_back({int32_t(cc), cd});
  });
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    return a.custdist != b.custdist ? a.custdist > b.custdist
                                    : a.c_count > b.c_count;
  });
  QueryResult result;
  for (const OutRow& r : out)
    result.rows.push_back(std::to_string(r.c_count) + "|" +
                          std::to_string(r.custdist));
  return result;
}

// --- Q14: promotion effect ------------------------------------------------------

QueryResult Q14(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1995, 9, 1), hi = MakeDate(1995, 10, 1);

  // LIKE 'PROMO%' is a pure prefix, so it pushes into the scan as a SARGable
  // Prefix predicate: on frozen blocks the order-preserving dictionary turns
  // it into a code-range comparison and p_type itself need not be read.
  const std::vector<uint8_t> promo_parts = KeyFlags(
      db.part, opt, prt::partkey,
      {Predicate::Prefix(prt::type, Value::Str("PROMO"))},
      size_t(db.NumParts()) + 1);

  struct Revenue {
    int64_t promo = 0;
    int64_t total = 0;
  };
  Revenue rev = ParAgg<Revenue>(
      db.lineitem, opt, {li::partkey, li::extendedprice, li::discount},
      {Predicate::Between(li::shipdate, Value::Int(lo), Value::Int(hi - 1))},
      [] { return Revenue{}; },
      [&promo_parts](Revenue& r, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int64_t v = b.cols[1].i64[i] * (100 - b.cols[2].i32[i]);
          r.total += v;
          if (promo_parts[size_t(b.cols[0].i32[i])]) r.promo += v;
        }
      },
      [](Revenue& dst, const Revenue& src) {
        dst.promo += src.promo;
        dst.total += src.total;
      });

  QueryResult result;
  char row[64];
  std::snprintf(row, sizeof(row), "%.4f",
                rev.total == 0
                    ? 0.0
                    : 100.0 * double(rev.promo) / double(rev.total));
  result.rows.push_back(row);
  return result;
}

// --- Q15: top supplier -----------------------------------------------------------

QueryResult Q15(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1996, 1, 1), hi = MakeDate(1996, 4, 1);

  using RevVec = std::vector<int64_t>;
  RevVec revenue = ParDenseAgg<int64_t, int64_t>(
      db.lineitem, opt, {li::suppkey, li::extendedprice, li::discount},
      {Predicate::Between(li::shipdate, Value::Int(lo), Value::Int(hi - 1))},
      size_t(db.NumSuppliers()) + 1,
      [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Add(size_t(b.cols[0].i32[i]),
                   b.cols[1].i64[i] * (100 - b.cols[2].i32[i]));
      },
      ApplyAdd{});

  int64_t max_rev = 0;
  for (int64_t r : revenue) max_rev = std::max(max_rev, r);

  QueryResult result;
  DimScan(db.supplier, opt,
          {sup::suppkey, sup::name, sup::address, sup::phone},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i) {
              int32_t sk = b.cols[0].i32[i];
              if (revenue[size_t(sk)] != max_rev || max_rev == 0) continue;
              result.rows.push_back(
                  std::to_string(sk) + "|" + std::string(b.cols[1].Str(i)) +
                  "|" + std::string(b.cols[2].Str(i)) + "|" +
                  std::string(b.cols[3].Str(i)) + "|" +
                  F2(double(max_rev) / 1e4));
            }
          });
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

// --- Q16: parts/supplier relationship ----------------------------------------------

QueryResult Q16(const TpchDatabase& db, const ScanOptions& opt) {
  static const int kSizes[8] = {49, 14, 23, 45, 19, 3, 36, 9};

  struct PartRow {
    int32_t partkey;
    std::string group;  // "brand|type|size"
  };
  using PartRows = std::vector<PartRow>;
  PartRows part_rows = ParAgg<PartRows>(
      db.part, opt, {prt::partkey, prt::brand, prt::type, prt::size},
      {Predicate::Ne(prt::brand, Value::Str("Brand#45"))},
      [] { return PartRows{}; },
      [](PartRows& rows, const Batch& b) {
        // NOT LIKE 'MEDIUM POLISHED%' cannot push into the scan, but on
        // coded batches the prefix test runs once per p_type dictionary
        // code instead of per row.
        DictFilter polished(b.cols[2], [](std::string_view t) {
          return LikeMatch(t, "MEDIUM POLISHED%");
        });
        for (uint32_t i = 0; i < b.count; ++i) {
          if (polished(i)) continue;
          int32_t size = b.cols[3].i32[i];
          bool size_ok = false;
          for (int s : kSizes) size_ok |= (size == s);
          if (!size_ok) continue;
          rows.push_back({b.cols[0].i32[i],
                          std::string(b.cols[1].Str(i)) + "|" +
                              std::string(b.cols[2].Str(i)) + "|" +
                              std::to_string(size)});
        }
      },
      MergeConcat<PartRow>);

  // Group ids: the partsupp pipeline groups on integers, names join in at
  // output. partkey -> group id, -1 for parts that do not qualify.
  std::vector<std::string> group_names;
  std::vector<int32_t> part_group(size_t(db.NumParts()) + 1, -1);
  {
    std::map<std::string, int32_t> ids;
    for (PartRow& r : part_rows) {
      auto [it, fresh] = ids.emplace(r.group, int32_t(group_names.size()));
      if (fresh) group_names.push_back(std::move(r.group));
      part_group[size_t(r.partkey)] = it->second;
    }
  }

  std::vector<uint8_t> excluded_supp(size_t(db.NumSuppliers()) + 1);
  DimScan(db.supplier, opt, {sup::suppkey, sup::comment},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              if (LikeMatch(b.cols[1].Str(i), "%Customer%Complaints%"))
                excluded_supp[size_t(b.cols[0].i32[i])] = 1;
          });

  // Distinct (group, suppkey) pairs in one flat table.
  const int64_t supp_span = db.NumSuppliers() + 1;
  auto group_supps = ParHashAgg<uint8_t>(
      db.partsupp, opt, {ps::partkey, ps::suppkey}, {},
      [&part_group, &excluded_supp, supp_span](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t group = part_group[size_t(b.cols[0].i32[i])];
          int32_t sk = b.cols[1].i32[i];
          if (group < 0 || excluded_supp[size_t(sk)]) continue;
          t.Ref(uint64_t(group * supp_span + sk)) = 1;
        }
      },
      [](uint8_t& dst, const uint8_t& src) { dst |= src; });
  std::vector<int64_t> supp_count(group_names.size());
  group_supps.ForEach([&](uint64_t key, const uint8_t&) {
    ++supp_count[size_t(int64_t(key) / supp_span)];
  });

  struct OutRow {
    std::string key;
    int64_t cnt;
  };
  std::vector<OutRow> out;
  for (size_t g = 0; g < group_names.size(); ++g)
    if (supp_count[g] != 0) out.push_back({group_names[g], supp_count[g]});
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    return a.cnt != b.cnt ? a.cnt > b.cnt : a.key < b.key;
  });
  QueryResult result;
  for (const OutRow& r : out)
    result.rows.push_back(r.key + "|" + std::to_string(r.cnt));
  return result;
}

}  // namespace datablocks::tpch
