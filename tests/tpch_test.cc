// TPC-H substrate: generator shape checks, referential integrity, and the
// paper's core correctness claim — identical query results across every
// scan configuration of Tables 2/4.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_set>

#include "tpch/queries.h"
#include "util/date.h"

namespace datablocks::tpch {
namespace {

class TpchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.chunk_capacity = 4096;
    db_ = MakeTpch(cfg).release();
    frozen_ = MakeTpch(cfg).release();
    frozen_->FreezeAll();
  }
  static void TearDownTestSuite() {
    delete db_;
    delete frozen_;
    db_ = nullptr;
    frozen_ = nullptr;
  }
  static TpchDatabase* db_;       // hot
  static TpchDatabase* frozen_;   // fully compressed
};

TpchDatabase* TpchFixture::db_ = nullptr;
TpchDatabase* TpchFixture::frozen_ = nullptr;

TEST_F(TpchFixture, Cardinalities) {
  EXPECT_EQ(db_->region.num_rows(), 5u);
  EXPECT_EQ(db_->nation.num_rows(), 25u);
  EXPECT_EQ(db_->orders.num_rows(), uint64_t(db_->NumOrders()));
  EXPECT_EQ(db_->partsupp.num_rows(), uint64_t(db_->NumParts()) * 4);
  // lineitem ~ 4 per order on average (1..7 uniform).
  double lines_per_order =
      double(db_->lineitem.num_rows()) / double(db_->orders.num_rows());
  EXPECT_GT(lines_per_order, 3.5);
  EXPECT_LT(lines_per_order, 4.5);
}

TEST_F(TpchFixture, DateDomains) {
  namespace li = col::lineitem;
  const int32_t lo = MakeDate(1992, 1, 1);
  const int32_t hi = MakeDate(1998, 12, 31);
  ScanOptions opt;
  opt.mode = ScanMode::kJit;
  TableScanner scan = opt.Scan(db_->lineitem,
                               {li::shipdate, li::commitdate,
                                li::receiptdate});
  Batch b;
  while (scan.Next(&b)) {
    for (uint32_t i = 0; i < b.count; ++i) {
      EXPECT_GE(b.cols[0].i32[i], lo);
      EXPECT_LE(b.cols[0].i32[i], hi);
      EXPECT_GT(b.cols[2].i32[i], b.cols[0].i32[i]);  // receipt after ship
    }
  }
}

TEST_F(TpchFixture, LineitemJoinsPartsupp) {
  // Every (l_partkey, l_suppkey) must exist in partsupp (Q9 correctness).
  namespace li = col::lineitem;
  namespace ps = col::partsupp;
  std::unordered_set<int64_t> ps_keys;
  ScanOptions opt;
  opt.mode = ScanMode::kJit;
  {
    TableScanner scan = opt.Scan(db_->partsupp, {ps::partkey, ps::suppkey});
    Batch b;
    while (scan.Next(&b))
      for (uint32_t i = 0; i < b.count; ++i)
        ps_keys.insert(int64_t(b.cols[0].i32[i]) * 1000000 +
                       b.cols[1].i32[i]);
  }
  TableScanner scan = opt.Scan(db_->lineitem, {li::partkey, li::suppkey});
  Batch b;
  while (scan.Next(&b))
    for (uint32_t i = 0; i < b.count; ++i)
      ASSERT_TRUE(ps_keys.count(int64_t(b.cols[0].i32[i]) * 1000000 +
                                b.cols[1].i32[i]));
}

TEST_F(TpchFixture, CompressionShrinksDatabase) {
  EXPECT_LT(frozen_->TotalBytes(), db_->TotalBytes());
  // Lineitem compresses well (narrow int domains, small dictionaries).
  EXPECT_LT(double(frozen_->lineitem.MemoryBytes()),
            0.7 * double(db_->lineitem.MemoryBytes()));
}

TEST_F(TpchFixture, Q1MatchesBruteForce) {
  // Independent recomputation of Q1's counts from raw point accesses.
  namespace li = col::lineitem;
  const int32_t cutoff = MakeDate(1998, 9, 2);
  int64_t count = 0, sum_qty = 0;
  for (size_t c = 0; c < db_->lineitem.num_chunks(); ++c) {
    for (uint32_t r = 0; r < db_->lineitem.chunk_rows(c); ++r) {
      RowId id = MakeRowId(c, r);
      if (db_->lineitem.GetInt(id, li::shipdate) > cutoff) continue;
      ++count;
      sum_qty += db_->lineitem.GetInt(id, li::quantity);
    }
  }
  ScanOptions opt;
  opt.mode = ScanMode::kJit;
  QueryResult q1 = Q1(*db_, opt);
  int64_t q1_count = 0, q1_qty = 0;
  for (const std::string& row : q1.rows) {
    q1_count += std::stoll(row.substr(row.rfind('|') + 1));
    size_t p = row.find('|', 4);
    q1_qty += std::stoll(row.substr(4, p - 4));
  }
  EXPECT_EQ(q1_count, count);
  EXPECT_EQ(q1_qty, sum_qty);
}

TEST_F(TpchFixture, Q6MatchesBruteForce) {
  namespace li = col::lineitem;
  const int32_t lo = MakeDate(1994, 1, 1), hi = MakeDate(1995, 1, 1);
  int64_t revenue = 0;
  for (size_t c = 0; c < db_->lineitem.num_chunks(); ++c) {
    for (uint32_t r = 0; r < db_->lineitem.chunk_rows(c); ++r) {
      RowId id = MakeRowId(c, r);
      int64_t ship = db_->lineitem.GetInt(id, li::shipdate);
      int64_t disc = db_->lineitem.GetInt(id, li::discount);
      int64_t qty = db_->lineitem.GetInt(id, li::quantity);
      if (ship < lo || ship >= hi || disc < 5 || disc > 7 || qty >= 24)
        continue;
      revenue += db_->lineitem.GetInt(id, li::extendedprice) * disc;
    }
  }
  ScanOptions opt;
  QueryResult q6 = Q6(*frozen_, opt);
  char expect[64];
  std::snprintf(expect, sizeof(expect), "%.2f", double(revenue) / 1e4);
  EXPECT_EQ(q6.rows[0], expect);
}

// Brute-force references for the queries whose lookups are dense key
// stores: rows read one by one through Table::GetInt / GetStringView,
// joined with std::map / std::set, no exec code involved.

template <typename Fn>
void ForEachRow(const Table& table, Fn fn) {
  for (size_t c = 0; c < table.num_chunks(); ++c)
    for (uint32_t r = 0; r < table.chunk_rows(c); ++r) fn(MakeRowId(c, r));
}

std::string Fixed2(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::vector<std::string> ReferenceQ3(const TpchDatabase& db) {
  namespace li = col::lineitem;
  namespace ord = col::orders;
  namespace cust = col::customer;
  const int32_t date = MakeDate(1995, 3, 15);
  std::set<int64_t> building;
  ForEachRow(db.customer, [&](RowId id) {
    if (db.customer.GetStringView(id, cust::mktsegment) == "BUILDING")
      building.insert(db.customer.GetInt(id, cust::custkey));
  });
  std::map<int64_t, std::pair<int64_t, int64_t>> orders;  // date, priority
  ForEachRow(db.orders, [&](RowId id) {
    if (db.orders.GetInt(id, ord::orderdate) >= date) return;
    if (!building.count(db.orders.GetInt(id, ord::custkey))) return;
    orders[db.orders.GetInt(id, ord::orderkey)] = {
        db.orders.GetInt(id, ord::orderdate),
        db.orders.GetInt(id, ord::shippriority)};
  });
  std::map<int64_t, int64_t> revenue;
  ForEachRow(db.lineitem, [&](RowId id) {
    if (db.lineitem.GetInt(id, li::shipdate) <= date) return;
    int64_t ok = db.lineitem.GetInt(id, li::orderkey);
    if (!orders.count(ok)) return;
    revenue[ok] += db.lineitem.GetInt(id, li::extendedprice) *
                   (100 - db.lineitem.GetInt(id, li::discount));
  });
  std::vector<std::pair<int64_t, int64_t>> ranked(revenue.begin(),
                                                   revenue.end());
  std::sort(ranked.begin(), ranked.end(), [&](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    if (orders[a.first].first != orders[b.first].first)
      return orders[a.first].first < orders[b.first].first;
    return a.first < b.first;
  });
  if (ranked.size() > 10) ranked.resize(10);
  std::vector<std::string> rows;
  for (const auto& [ok, rev] : ranked) {
    rows.push_back(std::to_string(ok) + "|" + Fixed2(double(rev) / 1e4) +
                   "|" + DateToString(int32_t(orders[ok].first)) + "|" +
                   std::to_string(orders[ok].second));
  }
  return rows;
}

std::vector<std::string> ReferenceQ10(const TpchDatabase& db) {
  namespace li = col::lineitem;
  namespace ord = col::orders;
  namespace cust = col::customer;
  namespace nat = col::nation;
  const int32_t lo = MakeDate(1993, 10, 1), hi = MakeDate(1994, 1, 1);
  std::map<int64_t, std::string> nations;
  ForEachRow(db.nation, [&](RowId id) {
    nations[db.nation.GetInt(id, nat::nationkey)] =
        std::string(db.nation.GetStringView(id, nat::name));
  });
  std::map<int64_t, int64_t> order_cust;
  ForEachRow(db.orders, [&](RowId id) {
    int64_t date = db.orders.GetInt(id, ord::orderdate);
    if (date < lo || date >= hi) return;
    order_cust[db.orders.GetInt(id, ord::orderkey)] =
        db.orders.GetInt(id, ord::custkey);
  });
  std::map<int64_t, int64_t> revenue;  // custkey -> cents * percent
  ForEachRow(db.lineitem, [&](RowId id) {
    if (db.lineitem.GetInt(id, li::returnflag) != 'R') return;
    auto it = order_cust.find(db.lineitem.GetInt(id, li::orderkey));
    if (it == order_cust.end()) return;
    revenue[it->second] += db.lineitem.GetInt(id, li::extendedprice) *
                           (100 - db.lineitem.GetInt(id, li::discount));
  });
  struct Row {
    int64_t custkey, rev;
    std::string text;
  };
  std::vector<Row> ranked;
  ForEachRow(db.customer, [&](RowId id) {
    int64_t ck = db.customer.GetInt(id, cust::custkey);
    auto it = revenue.find(ck);
    if (it == revenue.end()) return;
    auto str = [&](uint32_t c) {
      return std::string(db.customer.GetStringView(id, c));
    };
    ranked.push_back(
        {ck, it->second,
         std::to_string(ck) + "|" + str(cust::name) + "|" +
             Fixed2(double(it->second) / 1e4) + "|" +
             Fixed2(double(db.customer.GetInt(id, cust::acctbal)) / 100.0) +
             "|" + nations[db.customer.GetInt(id, cust::nationkey)] + "|" +
             str(cust::address) + "|" + str(cust::phone) + "|" +
             str(cust::comment)});
  });
  std::sort(ranked.begin(), ranked.end(), [](const Row& a, const Row& b) {
    return a.rev != b.rev ? a.rev > b.rev : a.custkey < b.custkey;
  });
  if (ranked.size() > 20) ranked.resize(20);
  std::vector<std::string> rows;
  for (const Row& r : ranked) rows.push_back(r.text);
  return rows;
}

std::vector<std::string> ReferenceQ17(const TpchDatabase& db) {
  namespace li = col::lineitem;
  namespace prt = col::part;
  std::set<int64_t> parts;
  ForEachRow(db.part, [&](RowId id) {
    if (db.part.GetStringView(id, prt::brand) == "Brand#23" &&
        db.part.GetStringView(id, prt::container) == "MED BOX")
      parts.insert(db.part.GetInt(id, prt::partkey));
  });
  std::map<int64_t, std::pair<int64_t, int64_t>> qty;  // sum, count
  ForEachRow(db.lineitem, [&](RowId id) {
    int64_t pk = db.lineitem.GetInt(id, li::partkey);
    if (!parts.count(pk)) return;
    qty[pk].first += db.lineitem.GetInt(id, li::quantity);
    ++qty[pk].second;
  });
  int64_t total = 0;  // cents
  ForEachRow(db.lineitem, [&](RowId id) {
    auto it = qty.find(db.lineitem.GetInt(id, li::partkey));
    if (it == qty.end()) return;
    double avg = double(it->second.first) / double(it->second.second);
    if (double(db.lineitem.GetInt(id, li::quantity)) < 0.2 * avg)
      total += db.lineitem.GetInt(id, li::extendedprice);
  });
  return {Fixed2(double(total) / 100.0 / 7.0)};
}

TEST_F(TpchFixture, DenseLookupQueriesMatchBruteForce) {
  const std::map<int, std::vector<std::string>> expected = {
      {3, ReferenceQ3(*db_)}, {10, ReferenceQ10(*db_)},
      {17, ReferenceQ17(*db_)}};
  EXPECT_FALSE(expected.at(3).empty());
  EXPECT_FALSE(expected.at(10).empty());
  EXPECT_NE(expected.at(17), std::vector<std::string>{"0.00"});
  for (unsigned threads : {1u, 4u}) {
    for (const TpchDatabase* db : {db_, frozen_}) {
      ScanOptions o;
      o.ctx.threads = threads;
      for (const auto& [q, rows] : expected) {
        EXPECT_EQ(RunQuery(q, *db, o).rows, rows)
            << "Q" << q << " threads=" << threads
            << (db == frozen_ ? " frozen" : " hot");
      }
    }
  }
}

// Every query must return identical results across all scan configurations,
// on hot storage and on Data Blocks.
class TpchQueryParity : public TpchFixture,
                        public ::testing::WithParamInterface<int> {};

TEST_P(TpchQueryParity, AllScanConfigurationsAgree) {
  const int q = GetParam();
  ScanOptions jit;
  jit.mode = ScanMode::kJit;
  QueryResult ref = RunQuery(q, *db_, jit);
  // Q2/Q18/Q21 select rare events and can be legitimately empty at SF 0.01.
  bool may_be_empty = q == 2 || q == 15 || q == 18 || q == 21;
  EXPECT_FALSE(ref.rows.empty() && !may_be_empty)
      << "query returned nothing; generator shapes may be off";

  for (ScanMode mode : {ScanMode::kVectorized, ScanMode::kVectorizedSarg}) {
    ScanOptions o;
    o.mode = mode;
    EXPECT_EQ(RunQuery(q, *db_, o).rows, ref.rows)
        << "hot " << ScanModeName(mode);
  }
  for (ScanMode mode :
       {ScanMode::kJit, ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma,
        ScanMode::kDecompressAll}) {
    ScanOptions o;
    o.mode = mode;
    EXPECT_EQ(RunQuery(q, *frozen_, o).rows, ref.rows)
        << "frozen " << ScanModeName(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryParity,
                         ::testing::Range(1, 23));

TEST_F(TpchFixture, VectorSizeInvariance) {
  for (uint32_t vs : {256u, 1024u, 16384u}) {
    ScanOptions o;
    o.vector_size = vs;
    EXPECT_EQ(Q6(*frozen_, o).rows, Q6(*db_, ScanOptions{}).rows) << vs;
  }
}

TEST_F(TpchFixture, SortedFreezeKeepsResults) {
  TpchConfig cfg;
  cfg.scale_factor = 0.005;
  cfg.chunk_capacity = 2048;
  auto sorted = MakeTpch(cfg);
  auto plain = MakeTpch(cfg);
  sorted->FreezeAll(/*sort_lineitem_by_shipdate=*/true);
  plain->FreezeAll(false);
  ScanOptions o;
  for (int q : {1, 6, 14}) {
    EXPECT_EQ(RunQuery(q, *sorted, o).rows, RunQuery(q, *plain, o).rows) << q;
  }
  // Within each sorted block, shipdate must be non-decreasing.
  const Table& li_table = sorted->lineitem;
  for (size_t c = 0; c < li_table.num_chunks(); ++c) {
    const DataBlock* b = li_table.frozen_block(c);
    ASSERT_NE(b, nullptr);
    for (uint32_t r = 1; r < b->num_rows(); ++r)
      ASSERT_LE(b->GetInt(col::lineitem::shipdate, r - 1),
                b->GetInt(col::lineitem::shipdate, r));
  }
}

}  // namespace
}  // namespace datablocks::tpch
