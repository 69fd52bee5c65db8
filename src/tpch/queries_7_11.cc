// TPC-H queries 7-11. Fact-table pipelines run through the parallel
// helpers of queries.h (per-worker states, slot-order merges); see the
// note in queries_1_6.cc. Dense per-order sinks (one writer per element)
// are filled through ParScan with a shared vector.

#include <algorithm>
#include <map>

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
namespace nat = col::nation;
namespace reg = col::region;

namespace {

/// nationkey -> name for all 25 nations.
std::vector<std::string> AllNations(const TpchDatabase& db,
                                    const ScanOptions& opt) {
  std::vector<std::string> names(db.nation.num_rows());
  DimScan(db.nation, opt, {nat::nationkey, nat::name},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              names[size_t(b.cols[0].i32[i])] = std::string(b.cols[1].Str(i));
          });
  return names;
}

int32_t NationKeyOf(const TpchDatabase& db, const ScanOptions& opt,
                    const std::string& name) {
  int32_t key = -1;
  DimScan(db.nation, opt, {nat::nationkey},
          {Predicate::Eq(nat::name, Value::Str(name))},
          [&](const Batch& b) { key = b.cols[0].i32[0]; });
  return key;
}

/// Dense orderkey -> custkey vector (order keys are 4*ordinal). Each order
/// appears exactly once, so parallel workers write disjoint elements of
/// one shared store-dense vector.
std::vector<int32_t> OrderCustVector(const TpchDatabase& db,
                                     const ScanOptions& opt) {
  return ParDenseStore<int32_t>(
      db.orders, opt, {ord::orderkey, ord::custkey}, {},
      size_t(db.NumOrders()), [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])), b.cols[1].i32[i]);
      });
}

}  // namespace

// --- Q7: volume shipping -----------------------------------------------------

QueryResult Q7(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t france = NationKeyOf(db, opt, "FRANCE");
  const int32_t germany = NationKeyOf(db, opt, "GERMANY");
  const int32_t lo = MakeDate(1995, 1, 1), hi = MakeDate(1996, 12, 31);

  // nationkey of FRANCE / GERMANY suppliers and customers, -1 otherwise.
  auto pair_nation = [france, germany](int32_t nk) -> int8_t {
    return nk == france || nk == germany ? int8_t(nk) : int8_t{-1};
  };
  std::vector<int8_t> supp_nation(size_t(db.NumSuppliers()) + 1, -1);
  DimScan(db.supplier, opt, {sup::suppkey, sup::nationkey},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              supp_nation[size_t(b.cols[0].i32[i])] =
                  pair_nation(b.cols[1].i32[i]);
          });
  const std::vector<int8_t> cust_nation = ParDenseStore<int8_t>(
      db.customer, opt, {cust::custkey, cust::nationkey}, {},
      size_t(db.NumCustomers()) + 1,
      [&pair_nation](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(b.cols[0].i32[i]), pair_nation(b.cols[1].i32[i]));
      },
      int8_t{-1});
  std::vector<int32_t> order_cust = OrderCustVector(db, opt);

  // (supp_nation, cust_nation, year) -> volume.
  auto volume = ParHashAgg<int64_t>(
      db.lineitem, opt,
      {li::orderkey, li::suppkey, li::extendedprice, li::discount,
       li::shipdate},
      {Predicate::Between(li::shipdate, Value::Int(lo), Value::Int(hi))},
      [&](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t sn = supp_nation[size_t(b.cols[1].i32[i])];
          if (sn < 0) continue;
          int32_t cn = cust_nation[size_t(
              order_cust[size_t(OrderIdx(b.cols[0].i64[i]))])];
          if (cn < 0 || cn == sn) continue;
          t.Ref(uint64_t(sn) << 40 | uint64_t(cn) << 20 |
                uint64_t(DateYear(b.cols[4].i32[i]))) +=
              b.cols[2].i64[i] * (100 - b.cols[3].i32[i]);
        }
      },
      ApplyAdd{});

  auto nation_of = [&](uint64_t nk) {
    return int32_t(nk) == france ? std::string("FRANCE")
                                 : std::string("GERMANY");
  };
  QueryResult result;
  volume.ForEach([&](uint64_t key, const int64_t& vol) {
    result.rows.push_back(nation_of(key >> 40) + "|" +
                          nation_of((key >> 20) & 0xFFFFF) + "|" +
                          std::to_string(key & 0xFFFFF) + "|" +
                          F2(double(vol) / 1e4));
  });
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

// --- Q8: national market share ----------------------------------------------

QueryResult Q8(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1995, 1, 1), hi = MakeDate(1996, 12, 31);
  const int32_t brazil = NationKeyOf(db, opt, "BRAZIL");

  int32_t america = -1;
  DimScan(db.region, opt, {reg::regionkey},
          {Predicate::Eq(reg::name, Value::Str("AMERICA"))},
          [&](const Batch& b) { america = b.cols[0].i32[0]; });
  std::vector<uint8_t> american_nation(db.nation.num_rows());
  DimScan(db.nation, opt, {nat::nationkey},
          {Predicate::Eq(nat::regionkey, Value::Int(america))},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              american_nation[size_t(b.cols[0].i32[i])] = 1;
          });

  const std::vector<uint8_t> parts = KeyFlags(
      db.part, opt, prt::partkey,
      {Predicate::Eq(prt::type, Value::Str("ECONOMY ANODIZED STEEL"))},
      size_t(db.NumParts()) + 1);

  const std::vector<uint8_t> american_cust = ParDenseStore<uint8_t>(
      db.customer, opt, {cust::custkey, cust::nationkey}, {},
      size_t(db.NumCustomers()) + 1,
      [&american_nation](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (american_nation[size_t(b.cols[1].i32[i])])
            sink.Store(size_t(b.cols[0].i32[i]), 1);
      });

  // Order index -> order year of American orders in the window, 0 for
  // every other order.
  const std::vector<int16_t> order_year = ParDenseStore<int16_t>(
      db.orders, opt, {ord::orderkey, ord::custkey, ord::orderdate},
      {Predicate::Between(ord::orderdate, Value::Int(lo), Value::Int(hi))},
      size_t(db.NumOrders()),
      [&american_cust](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (american_cust[size_t(b.cols[1].i32[i])])
            sink.Store(size_t(OrderIdx(b.cols[0].i64[i])),
                       int16_t(DateYear(b.cols[2].i32[i])));
      });

  std::vector<uint8_t> supp_is_brazil(size_t(db.NumSuppliers()) + 1);
  DimScan(db.supplier, opt, {sup::suppkey, sup::nationkey},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              supp_is_brazil[size_t(b.cols[0].i32[i])] =
                  b.cols[1].i32[i] == brazil;
          });

  // year -> (brazil volume, total volume), accumulated exactly in cents *
  // percent so the parallel merge is bit-identical to the sequential sum.
  struct Share {
    int64_t brazil = 0;
    int64_t total = 0;
  };
  using ShareMap = std::map<int32_t, Share>;
  ShareMap share = ParAgg<ShareMap>(
      db.lineitem, opt,
      {li::orderkey, li::partkey, li::suppkey, li::extendedprice,
       li::discount},
      {},
      [] { return ShareMap{}; },
      [&](ShareMap& m, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!parts[size_t(b.cols[1].i32[i])]) continue;
          int32_t year = order_year[size_t(OrderIdx(b.cols[0].i64[i]))];
          if (year == 0) continue;
          int64_t vol = b.cols[3].i64[i] * (100 - b.cols[4].i32[i]);
          Share& s = m[year];
          s.total += vol;
          if (supp_is_brazil[size_t(b.cols[2].i32[i])]) s.brazil += vol;
        }
      },
      [](ShareMap& dst, const ShareMap& src) {
        for (const auto& [year, s] : src) {
          dst[year].brazil += s.brazil;
          dst[year].total += s.total;
        }
      });

  QueryResult result;
  for (auto& [year, s] : share) {
    double mkt = s.total == 0 ? 0 : double(s.brazil) / double(s.total);
    char row[64];
    std::snprintf(row, sizeof(row), "%d|%.4f", year, mkt);
    result.rows.push_back(row);
  }
  return result;
}

// --- Q9: product type profit measure -----------------------------------------

QueryResult Q9(const TpchDatabase& db, const ScanOptions& opt) {
  auto nations = AllNations(db, opt);

  const std::vector<uint8_t> green_parts = ParDenseStore<uint8_t>(
      db.part, opt, {prt::partkey, prt::name}, {},
      size_t(db.NumParts()) + 1, [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (b.cols[1].Str(i).find("green") != std::string_view::npos)
            sink.Store(size_t(b.cols[0].i32[i]), 1);
      });

  std::vector<int32_t> supp_nation(size_t(db.NumSuppliers()) + 1);
  DimScan(db.supplier, opt, {sup::suppkey, sup::nationkey},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              supp_nation[size_t(b.cols[0].i32[i])] = b.cols[1].i32[i];
          });

  // (partkey, suppkey) -> supplycost, keys encoded densely. Keys are
  // unique per partsupp row, so the partition-wise fold is an overwrite.
  const int64_t supp_span = db.NumSuppliers() + 1;
  auto ps_cost = ParHashAgg<int64_t>(
      db.partsupp, opt, {ps::partkey, ps::suppkey, ps::supplycost}, {},
      [&green_parts, supp_span](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!green_parts[size_t(b.cols[0].i32[i])]) continue;
          t.Ref(uint64_t(int64_t(b.cols[0].i32[i]) * supp_span +
                         b.cols[1].i32[i])) = b.cols[2].i64[i];
        }
      },
      [](int64_t& dst, const int64_t& src) { dst = src; });

  // orderkey -> year (dense, one writer per element).
  std::vector<int32_t> order_year = ParDenseStore<int32_t>(
      db.orders, opt, {ord::orderkey, ord::orderdate}, {},
      size_t(db.NumOrders()), [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])),
                     DateYear(b.cols[1].i32[i]));
      });

  // (nationkey, order year) -> profit in units of 1e-4 dollars:
  // ext*(100-disc) and cost*qty*100 are both exact in that scale, so the
  // sum is an int64. Grouped on integer keys; names join in at output.
  auto profit = ParHashAgg<int64_t>(
      db.lineitem, opt,
      {li::orderkey, li::partkey, li::suppkey, li::quantity,
       li::extendedprice, li::discount},
      {},
      [&](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t pk = b.cols[1].i32[i];
          if (!green_parts[size_t(pk)]) continue;
          int32_t sk = b.cols[2].i32[i];
          const int64_t* c =
              ps_cost.Find(uint64_t(int64_t(pk) * supp_span + sk));
          int64_t cost = c == nullptr ? 0 : *c;
          int64_t amount = b.cols[4].i64[i] * (100 - b.cols[5].i32[i]) -
                           cost * b.cols[3].i32[i] * 100;
          int32_t year = order_year[size_t(OrderIdx(b.cols[0].i64[i]))];
          t.Ref(uint64_t(supp_nation[size_t(sk)]) << 32 | uint64_t(year)) +=
              amount;
        }
      },
      ApplyAdd{});

  struct OutRow {
    const std::string* nation;
    int64_t year, amount;
  };
  std::vector<OutRow> out;
  profit.ForEach([&](uint64_t key, const int64_t& amount) {
    out.push_back({&nations[size_t(key >> 32)], int64_t(key & 0xFFFFFFFF),
                   amount});
  });
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    if (*a.nation != *b.nation) return *a.nation < *b.nation;
    return a.year > b.year;
  });
  QueryResult result;
  for (const OutRow& r : out) {
    result.rows.push_back(*r.nation + "|" + std::to_string(r.year) + "|" +
                          F2(double(r.amount) / 1e4));
  }
  return result;
}

// --- Q10: returned item reporting --------------------------------------------

QueryResult Q10(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1993, 10, 1), hi = MakeDate(1994, 1, 1);
  auto nations = AllNations(db, opt);

  // Order index -> custkey of the quarter's orders, 0 for every other
  // order (custkeys start at 1). One writer per element.
  const std::vector<int32_t> order_cust = ParDenseStore<int32_t>(
      db.orders, opt, {ord::orderkey, ord::custkey},
      {Predicate::Between(ord::orderdate, Value::Int(lo),
                          Value::Int(hi - 1))},
      size_t(db.NumOrders()), [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])), b.cols[1].i32[i]);
      });

  auto revenue = ParHashAgg<int64_t>(
      db.lineitem, opt, {li::orderkey, li::extendedprice, li::discount},
      {Predicate::Eq(li::returnflag, Value::Int('R'))},
      [&order_cust](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t ck = order_cust[size_t(OrderIdx(b.cols[0].i64[i]))];
          if (ck == 0) continue;
          t.Ref(uint64_t(ck)) += b.cols[1].i64[i] * (100 - b.cols[2].i32[i]);
        }
      },
      ApplyAdd{});

  struct OutRow {
    int32_t custkey;
    int64_t rev;
    std::string name, address, phone, comment, nation;
    int64_t acctbal;
  };
  using OutVec = std::vector<OutRow>;
  OutVec out = ParAgg<OutVec>(
      db.customer, opt,
      {cust::custkey, cust::name, cust::acctbal, cust::phone, cust::nationkey,
       cust::address, cust::comment},
      {},
      [] { return OutVec{}; },
      [&](OutVec& rows, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          const int64_t* rev = revenue.Find(uint64_t(b.cols[0].i32[i]));
          if (rev == nullptr) continue;
          rows.push_back({b.cols[0].i32[i], *rev,
                          std::string(b.cols[1].Str(i)),
                          std::string(b.cols[5].Str(i)),
                          std::string(b.cols[3].Str(i)),
                          std::string(b.cols[6].Str(i)),
                          nations[size_t(b.cols[4].i32[i])],
                          b.cols[2].i64[i]});
        }
      },
      MergeConcat<OutRow>);
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    return a.rev != b.rev ? a.rev > b.rev : a.custkey < b.custkey;
  });
  if (out.size() > 20) out.resize(20);

  QueryResult result;
  for (const OutRow& r : out) {
    result.rows.push_back(std::to_string(r.custkey) + "|" + r.name + "|" +
                          F2(double(r.rev) / 1e4) + "|" + Money(r.acctbal) +
                          "|" + r.nation + "|" + r.address + "|" + r.phone +
                          "|" + r.comment);
  }
  return result;
}

// --- Q11: important stock identification --------------------------------------

QueryResult Q11(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t germany = NationKeyOf(db, opt, "GERMANY");

  std::vector<uint8_t> german_supp(size_t(db.NumSuppliers()) + 1);
  DimScan(db.supplier, opt, {sup::suppkey},
          {Predicate::Eq(sup::nationkey, Value::Int(germany))},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              german_supp[size_t(b.cols[0].i32[i])] = 1;
          });

  // partkey -> sum of cost*qty over German suppliers.
  auto value = ParHashAgg<int64_t>(
      db.partsupp, opt,
      {ps::partkey, ps::suppkey, ps::availqty, ps::supplycost}, {},
      [&german_supp](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!german_supp[size_t(b.cols[1].i32[i])]) continue;
          t.Ref(uint64_t(b.cols[0].i32[i])) +=
              b.cols[3].i64[i] * b.cols[2].i32[i];
        }
      },
      ApplyAdd{});
  int64_t total = 0;
  value.ForEach([&total](uint64_t, const int64_t& v) { total += v; });

  const double threshold = double(total) * 0.0001 / db.config.scale_factor;
  struct OutRow {
    int32_t partkey;
    int64_t value;
  };
  std::vector<OutRow> out;
  value.ForEach([&](uint64_t pk, const int64_t& v) {
    if (double(v) > threshold) out.push_back({int32_t(pk), v});
  });
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    return a.value != b.value ? a.value > b.value : a.partkey < b.partkey;
  });

  QueryResult result;
  for (const OutRow& r : out)
    result.rows.push_back(std::to_string(r.partkey) + "|" + Money(r.value));
  return result;
}

}  // namespace datablocks::tpch
