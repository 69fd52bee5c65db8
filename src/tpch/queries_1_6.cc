// TPC-H queries 1-6, hand-fused against the vectorized scan interface (the
// role of the JIT-compiled pipelines in HyPer; see DESIGN.md substitution 1).
//
// Every fact-table scan+aggregate pipeline runs through the helpers of
// queries.h: detail::ParAgg / detail::ParScan (per-worker states with a
// slot-order merge), detail::ParDenseAgg (ONE partitioned dense vector for
// dense key spaces — no per-slot replica, no merge) and detail::ParHashAgg
// (per-worker hash-partitioned group-by tables, merged partition-wise).
// Each is one MorselScan (exec/morsel_scan.h) on ctx.threads slots. Tiny
// dimension scans (region, nation, supplier lookups) go through
// detail::DimScan: the same driver on one slot, profiled like the rest —
// there is nothing to win from parallelism on a handful of rows. All
// accumulations are exact (integer), so the parallel results are
// identical to the one-slot ones.
//
// Lookups probed per fact row are flat: dbgen ordinals (orderkey via
// OrderIdx, partkey, suppkey, custkey, nationkey) index dense vectors —
// detail::ParDenseStore with an "absent" sentinel, detail::KeyFlags for
// semi-joins — and composite keys go through detail::ParHashAgg. A
// node-based hash container costs a hash, a bucket walk and a pointer
// chase per probe, which dominated the operator bodies.

#include <algorithm>
#include <cstdint>
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
namespace nat = col::nation;
namespace reg = col::region;

// --- Q1: pricing summary report ------------------------------------------

QueryResult Q1(const TpchDatabase& db, const ScanOptions& opt) {
  struct Agg {
    int64_t sum_qty = 0;
    int64_t sum_base = 0;        // cents
    int64_t sum_disc_price = 0;  // cents * 1e-2  (ext * (100-d))
    int64_t sum_charge = 0;      // cents * 1e-4  (ext * (100-d) * (100+t))
    int64_t sum_disc = 0;        // percent units
    int64_t count = 0;
  };
  // (returnflag, linestatus) are upper-case letters: a 26 x 26 compact
  // key gives each slot its own small array (the four live groups stay in
  // that slot's cache), merged element-wise.
  constexpr size_t kLetters = 26;
  using Groups = std::vector<Agg>;
  const int32_t cutoff = MakeDate(1998, 9, 2);

  Groups groups = ParAgg<Groups>(
      db.lineitem, opt,
      {li::quantity, li::extendedprice, li::discount, li::tax, li::returnflag,
       li::linestatus},
      {Predicate::Le(li::shipdate, Value::Int(cutoff))},
      [] { return Groups(kLetters * kLetters); },
      [](Groups& g, const Batch& b) {
        const int32_t* qty = b.cols[0].i32.data();
        const int64_t* ext = b.cols[1].i64.data();
        const int32_t* disc = b.cols[2].i32.data();
        const int32_t* tax = b.cols[3].i32.data();
        const int32_t* rf = b.cols[4].i32.data();
        const int32_t* ls = b.cols[5].i32.data();
        for (uint32_t i = 0; i < b.count; ++i) {
          Agg& a = g[size_t(rf[i] - 'A') * kLetters + size_t(ls[i] - 'A')];
          int64_t dp = ext[i] * (100 - disc[i]);
          a.sum_qty += qty[i];
          a.sum_base += ext[i];
          a.sum_disc_price += dp;
          a.sum_charge += dp * (100 + tax[i]) / 100;
          a.sum_disc += disc[i];
          ++a.count;
        }
      },
      [](Groups& dst, const Groups& src) {
        for (size_t k = 0; k < dst.size(); ++k) {
          dst[k].sum_qty += src[k].sum_qty;
          dst[k].sum_base += src[k].sum_base;
          dst[k].sum_disc_price += src[k].sum_disc_price;
          dst[k].sum_charge += src[k].sum_charge;
          dst[k].sum_disc += src[k].sum_disc;
          dst[k].count += src[k].count;
        }
      });

  QueryResult result;
  for (size_t k = 0; k < groups.size(); ++k) {
    const Agg& g = groups[k];
    if (g.count == 0) continue;
    char row[256];
    std::snprintf(
        row, sizeof(row), "%c|%c|%lld|%.2f|%.2f|%.2f|%.2f|%.2f|%.4f|%lld",
        char('A' + k / kLetters), char('A' + k % kLetters),
        (long long)g.sum_qty, double(g.sum_base) / 100,
        double(g.sum_disc_price) / 1e4, double(g.sum_charge) / 1e4,
        double(g.sum_qty) / double(g.count),
        double(g.sum_base) / 100 / double(g.count),
        double(g.sum_disc) / 100 / double(g.count), (long long)g.count);
    result.rows.push_back(row);
  }
  return result;  // array iteration order == (returnflag, linestatus) order
}

// --- Q2: minimum cost supplier --------------------------------------------

QueryResult Q2(const TpchDatabase& db, const ScanOptions& opt) {
  // Region EUROPE -> nations.
  int32_t europe = -1;
  DimScan(db.region, opt, {reg::regionkey},
          {Predicate::Eq(reg::name, Value::Str("EUROPE"))},
          [&](const Batch& b) { europe = b.cols[0].i32[0]; });
  // nationkey -> name, empty outside Europe.
  std::vector<std::string> nation_name(db.nation.num_rows());
  DimScan(db.nation, opt, {nat::nationkey, nat::name},
          {Predicate::Eq(nat::regionkey, Value::Int(europe))},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              nation_name[size_t(b.cols[0].i32[i])] =
                  std::string(b.cols[1].Str(i));
          });

  struct SuppInfo {
    std::string name, address, phone, comment, nation;
    int64_t acctbal;
  };
  // suppkey -> details of a European supplier (empty nation otherwise).
  std::vector<SuppInfo> supp(size_t(db.NumSuppliers()) + 1);
  DimScan(db.supplier, opt,
          {sup::suppkey, sup::name, sup::address, sup::nationkey,
           sup::phone, sup::acctbal, sup::comment},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i) {
              const std::string& nation =
                  nation_name[size_t(b.cols[3].i32[i])];
              if (nation.empty()) continue;
              supp[size_t(b.cols[0].i32[i])] =
                  SuppInfo{std::string(b.cols[1].Str(i)),
                           std::string(b.cols[2].Str(i)),
                           std::string(b.cols[4].Str(i)),
                           std::string(b.cols[6].Str(i)), nation,
                           b.cols[5].i64[i]};
            }
          });

  // Qualifying parts: size = 15, type like '%BRASS'; partkey -> p_mfgr,
  // empty for every other part.
  using MfgrRows = std::vector<std::pair<int32_t, std::string>>;
  MfgrRows mfgr_rows = ParAgg<MfgrRows>(
      db.part, opt, {prt::partkey, prt::mfgr, prt::type},
      {Predicate::Eq(prt::size, Value::Int(15))},
      [] { return MfgrRows{}; },
      [](MfgrRows& rows, const Batch& b) {
        // LIKE '%BRASS' is a suffix match — not SARGable — but on coded
        // batches it runs once per p_type dictionary code, not per row.
        DictFilter brass(b.cols[2], [](std::string_view t) {
          return LikeMatch(t, "%BRASS");
        });
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!brass(i)) continue;
          rows.emplace_back(b.cols[0].i32[i], std::string(b.cols[1].Str(i)));
        }
      },
      MergeConcat<std::pair<int32_t, std::string>>);
  std::vector<std::string> part_mfgr(size_t(db.NumParts()) + 1);
  for (auto& [pk, mfgr] : mfgr_rows) part_mfgr[size_t(pk)] = std::move(mfgr);

  // partsupp rows of qualifying parts and European suppliers; the minimum
  // cost per part is taken over exactly these rows.
  struct PsRow {
    int32_t partkey, suppkey;
    int64_t cost;
  };
  using PsRows = std::vector<PsRow>;
  PsRows ps_rows = ParAgg<PsRows>(
      db.partsupp, opt, {ps::partkey, ps::suppkey, ps::supplycost}, {},
      [] { return PsRows{}; },
      [&](PsRows& rows, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t pk = b.cols[0].i32[i];
          int32_t sk = b.cols[1].i32[i];
          if (part_mfgr[size_t(pk)].empty() || supp[size_t(sk)].nation.empty())
            continue;
          rows.push_back({pk, sk, b.cols[2].i64[i]});
        }
      },
      MergeConcat<PsRow>);
  std::vector<int64_t> min_cost(part_mfgr.size(), INT64_MAX);
  for (const PsRow& r : ps_rows)
    min_cost[size_t(r.partkey)] = std::min(min_cost[size_t(r.partkey)], r.cost);

  struct OutRow {
    int64_t acctbal;
    std::string s_name, n_name;
    int32_t partkey;
    std::string mfgr, address, phone, comment;
  };
  std::vector<OutRow> out;
  for (const PsRow& r : ps_rows) {
    if (r.cost != min_cost[size_t(r.partkey)]) continue;
    const SuppInfo& s = supp[size_t(r.suppkey)];
    out.push_back({s.acctbal, s.name, s.nation, r.partkey,
                   part_mfgr[size_t(r.partkey)], s.address, s.phone,
                   s.comment});
  }
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    if (a.acctbal != b.acctbal) return a.acctbal > b.acctbal;
    if (a.n_name != b.n_name) return a.n_name < b.n_name;
    if (a.s_name != b.s_name) return a.s_name < b.s_name;
    return a.partkey < b.partkey;
  });
  if (out.size() > 100) out.resize(100);

  QueryResult result;
  for (const OutRow& r : out) {
    result.rows.push_back(Money(r.acctbal) + "|" + r.s_name + "|" + r.n_name +
                          "|" + std::to_string(r.partkey) + "|" + r.mfgr +
                          "|" + r.address + "|" + r.phone + "|" + r.comment);
  }
  return result;
}

// --- Q3: shipping priority -------------------------------------------------

QueryResult Q3(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t date = MakeDate(1995, 3, 15);

  const std::vector<uint8_t> building = KeyFlags(
      db.customer, opt, cust::custkey,
      {Predicate::Eq(cust::mktsegment, Value::Str("BUILDING"))},
      size_t(db.NumCustomers()) + 1);

  // Order index -> (orderdate, shippriority) of early BUILDING orders;
  // kAbsent marks every other order. One writer per element.
  struct alignas(8) OrdInfo {
    int32_t orderdate;
    int32_t shippriority;
  };
  constexpr int32_t kAbsent = INT32_MIN;
  const std::vector<OrdInfo> ord_info = ParDenseStore<OrdInfo>(
      db.orders, opt,
      {ord::orderkey, ord::custkey, ord::orderdate, ord::shippriority},
      {Predicate::Lt(ord::orderdate, Value::Int(date))},
      size_t(db.NumOrders()),
      [&building](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!building[size_t(b.cols[1].i32[i])]) continue;
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])),
                     OrdInfo{b.cols[2].i32[i], b.cols[3].i32[i]});
        }
      },
      OrdInfo{kAbsent, 0});

  auto revenue = ParHashAgg<int64_t>(
      db.lineitem, opt, {li::orderkey, li::extendedprice, li::discount},
      {Predicate::Gt(li::shipdate, Value::Int(date))},
      [&ord_info](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int64_t ok = b.cols[0].i64[i];
          if (ord_info[size_t(OrderIdx(ok))].orderdate == kAbsent) continue;
          t.Ref(uint64_t(ok)) += b.cols[1].i64[i] * (100 - b.cols[2].i32[i]);
        }
      },
      ApplyAdd{});

  struct OutRow {
    int64_t orderkey, rev;
    int32_t orderdate, shippriority;
  };
  std::vector<OutRow> out;
  out.reserve(revenue.size());
  revenue.ForEach([&](uint64_t key, const int64_t& rev) {
    const int64_t ok = int64_t(key);
    const OrdInfo& oi = ord_info[size_t(OrderIdx(ok))];
    out.push_back({ok, rev, oi.orderdate, oi.shippriority});
  });
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    if (a.rev != b.rev) return a.rev > b.rev;
    if (a.orderdate != b.orderdate) return a.orderdate < b.orderdate;
    return a.orderkey < b.orderkey;
  });
  if (out.size() > 10) out.resize(10);

  QueryResult result;
  for (const OutRow& r : out) {
    result.rows.push_back(std::to_string(r.orderkey) + "|" +
                          F2(double(r.rev) / 1e4) + "|" +
                          DateToString(r.orderdate) + "|" +
                          std::to_string(r.shippriority));
  }
  return result;
}

// --- Q4: order priority checking -------------------------------------------

QueryResult Q4(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1993, 7, 1);
  const int32_t hi = MakeDate(1993, 10, 1);

  // Orders with at least one late lineitem: an idempotent flag per order.
  const std::vector<uint8_t> late = ParDenseStore<uint8_t>(
      db.lineitem, opt, {li::orderkey, li::commitdate, li::receiptdate}, {},
      size_t(db.NumOrders()), [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (b.cols[1].i32[i] >= b.cols[2].i32[i]) continue;
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])), 1);
        }
      });

  // Quarter orders per priority, keyed through a per-worker string
  // interner: on coded batches each distinct o_orderpriority dictionary
  // code resolves to a dense id once per batch. Worker-local id spaces are
  // reconciled by NAME in the merge — dictionary codes are block-local and
  // interner ids are worker-local, so the string value is the only key
  // that is stable across both. Priorities present in the quarter appear
  // in the output even with a zero count.
  struct Quarter {
    StringKeyInterner prios;
    std::vector<int64_t> late_orders;  // by interner id
  };
  Quarter quarter = ParAgg<Quarter>(
      db.orders, opt, {ord::orderkey, ord::orderpriority},
      {Predicate::Between(ord::orderdate, Value::Int(lo),
                          Value::Int(hi - 1))},
      [] { return Quarter{}; },
      [&late](Quarter& q, const Batch& b) {
        StringKeyInterner::BatchKeys prio(q.prios, b.cols[1]);
        for (uint32_t i = 0; i < b.count; ++i) {
          const uint32_t id = prio(i);
          if (id >= q.late_orders.size()) q.late_orders.resize(id + 1);
          q.late_orders[id] += late[size_t(OrderIdx(b.cols[0].i64[i]))];
        }
      },
      [](Quarter& dst, Quarter& src) {
        for (uint32_t id = 0; id < src.prios.size(); ++id) {
          const uint32_t to = dst.prios.Intern(src.prios.name(id));
          if (to >= dst.late_orders.size()) dst.late_orders.resize(to + 1);
          dst.late_orders[to] += src.late_orders[id];
        }
      });

  std::map<std::string, int64_t> counts;
  for (uint32_t id = 0; id < quarter.prios.size(); ++id)
    counts[quarter.prios.name(id)] = quarter.late_orders[id];

  QueryResult result;
  for (auto& [p, c] : counts)
    result.rows.push_back(p + "|" + std::to_string(c));
  return result;
}

// --- Q5: local supplier volume ---------------------------------------------

QueryResult Q5(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1994, 1, 1);
  const int32_t hi = MakeDate(1995, 1, 1);

  int32_t asia = -1;
  DimScan(db.region, opt, {reg::regionkey},
          {Predicate::Eq(reg::name, Value::Str("ASIA"))},
          [&](const Batch& b) { asia = b.cols[0].i32[0]; });
  // nationkey -> name, empty outside Asia.
  std::vector<std::string> nation_name(db.nation.num_rows());
  DimScan(db.nation, opt, {nat::nationkey, nat::name},
          {Predicate::Eq(nat::regionkey, Value::Int(asia))},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              nation_name[size_t(b.cols[0].i32[i])] =
                  std::string(b.cols[1].Str(i));
          });
  auto asian = [&nation_name](int32_t nk) {
    return !nation_name[size_t(nk)].empty();
  };

  // custkey -> nationkey of Asian customers, -1 otherwise.
  const std::vector<int8_t> cust_nation = ParDenseStore<int8_t>(
      db.customer, opt, {cust::custkey, cust::nationkey}, {},
      size_t(db.NumCustomers()) + 1,
      [&asian](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (asian(b.cols[1].i32[i]))
            sink.Store(size_t(b.cols[0].i32[i]), int8_t(b.cols[1].i32[i]));
      },
      int8_t{-1});

  // Order index -> customer nation of the year's Asian orders, -1 otherwise.
  const std::vector<int8_t> order_nation = ParDenseStore<int8_t>(
      db.orders, opt, {ord::orderkey, ord::custkey},
      {Predicate::Between(ord::orderdate, Value::Int(lo),
                          Value::Int(hi - 1))},
      size_t(db.NumOrders()),
      [&cust_nation](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int8_t nk = cust_nation[size_t(b.cols[1].i32[i])];
          if (nk >= 0) sink.Store(size_t(OrderIdx(b.cols[0].i64[i])), nk);
        }
      },
      int8_t{-1});

  std::vector<int32_t> supp_nation(size_t(db.NumSuppliers()) + 1, -1);
  DimScan(db.supplier, opt, {sup::suppkey, sup::nationkey},
          [&](const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i)
              if (asian(b.cols[1].i32[i]))
                supp_nation[size_t(b.cols[0].i32[i])] = b.cols[1].i32[i];
          });

  auto revenue = ParHashAgg<int64_t>(  // nationkey -> revenue
      db.lineitem, opt,
      {li::orderkey, li::suppkey, li::extendedprice, li::discount}, {},
      [&order_nation, &supp_nation](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t nk = order_nation[size_t(OrderIdx(b.cols[0].i64[i]))];
          if (nk < 0 || supp_nation[size_t(b.cols[1].i32[i])] != nk) continue;
          t.Ref(uint64_t(nk)) += b.cols[2].i64[i] * (100 - b.cols[3].i32[i]);
        }
      },
      ApplyAdd{});

  std::vector<std::pair<int64_t, std::string>> out;
  revenue.ForEach([&](uint64_t nk, const int64_t& rev) {
    out.emplace_back(rev, nation_name[size_t(nk)]);
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  QueryResult result;
  for (auto& [rev, name] : out)
    result.rows.push_back(name + "|" + F2(double(rev) / 1e4));
  return result;
}

// --- Q6: forecasting revenue change ----------------------------------------

QueryResult Q6(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1994, 1, 1);
  const int32_t hi = MakeDate(1995, 1, 1);

  int64_t revenue = ParAgg<int64_t>(  // cents * percent
      db.lineitem, opt, {li::extendedprice, li::discount},
      {Predicate::Between(li::shipdate, Value::Int(lo), Value::Int(hi - 1)),
       Predicate::Between(li::discount, Value::Int(5), Value::Int(7)),
       Predicate::Lt(li::quantity, Value::Int(24))},
      [] { return int64_t{0}; },
      [](int64_t& rev, const Batch& b) {
        const int64_t* ext = b.cols[0].i64.data();
        const int32_t* disc = b.cols[1].i32.data();
        for (uint32_t i = 0; i < b.count; ++i) rev += ext[i] * disc[i];
      },
      [](int64_t& dst, const int64_t& src) { dst += src; });

  QueryResult result;
  result.rows.push_back(F2(double(revenue) / 1e4));
  return result;
}

}  // namespace datablocks::tpch
