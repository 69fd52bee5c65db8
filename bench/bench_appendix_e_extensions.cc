// Appendix E ("Further optimizations") ablations:
//  (1) eager aggregation inside the vectorized scan vs. the tuple-at-a-time
//      pipeline hand-off, on the TPC-H Q6 shape;
//  (2) morsel-parallel scans (the mechanism behind the paper's
//      multi-threaded numbers) — scaling of Q6 with worker count;
//  (3) micro-adaptive early probing: the FlavorChooser picks between
//      "early probe in scan" and "probe in pipeline" per vector, which must
//      track the better flavor for both a selective and a non-selective
//      join build side.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "exec/eager_agg.h"
#include "exec/hash_table.h"
#include "exec/micro_adaptive.h"
#include "exec/morsel_scan.h"
#include "tpch/queries.h"
#include "util/date.h"
#include "util/timer.h"

#include "bench_common.h"

using namespace datablocks;
using namespace datablocks::tpch;

namespace li = datablocks::tpch::col::lineitem;
namespace ord = datablocks::tpch::col::orders;

namespace {

std::vector<Predicate> Q6Preds() {
  return {Predicate::Between(li::shipdate, Value::Int(MakeDate(1994, 1, 1)),
                             Value::Int(MakeDate(1994, 12, 31))),
          Predicate::Between(li::discount, Value::Int(5), Value::Int(7)),
          Predicate::Lt(li::quantity, Value::Int(24))};
}

double Best(int reps, const std::function<void()>& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  TpchConfig cfg;
  cfg.scale_factor = argc > 1 ? atof(argv[1]) : (quick ? 0.02 : 0.3);
  std::printf("generating TPC-H SF %.2f (frozen)...\n", cfg.scale_factor);
  auto db = MakeTpch(cfg);
  db->FreezeAll();

  // --- (1) Eager aggregation --------------------------------------------
  int64_t pipeline_rev = 0, eager_rev = 0;
  double pipeline_s = Best(5, [&] {
    QueryResult r = Q6(*db, ScanOptions{});
    pipeline_rev = int64_t(atof(r.rows[0].c_str()) * 100);
  });
  double eager_s = Best(5, [&] {
    EagerAggResult r =
        EagerAggregate(db->lineitem, li::extendedprice, li::discount,
                       Q6Preds(), ScanMode::kDataBlocksPsma);
    eager_rev = r.sum_product / 100;
  });
  std::printf("\n=== (1) eager aggregation in the scan (Q6 shape) ===\n");
  std::printf("%-34s %10.2fms\n", "pipeline aggregation", pipeline_s * 1e3);
  std::printf("%-34s %10.2fms (%.2fx)\n", "eager (in-scan) aggregation",
              eager_s * 1e3, pipeline_s / eager_s);
  std::printf("revenue check: %s\n",
              std::llabs(pipeline_rev - eager_rev) <= 1 ? "identical"
                                                        : "MISMATCH");

  // --- (2) Morsel-parallel scan scaling -----------------------------------
  std::printf("\n=== (2) morsel-parallel Q6 aggregation ===\n");
  double base_s = 0;
  for (unsigned threads : {1u, 2u, 4u}) {
    double s = Best(3, [&] {
      ScanSpec spec;
      spec.columns = {li::extendedprice, li::discount};
      spec.predicates = Q6Preds();
      spec.slots = threads;
      std::vector<EagerAggResult> states(threads);
      MorselScan({&db->lineitem}, spec,
                 [&](unsigned slot, const Batch& b, unsigned) {
                   EagerAggResult& st = states[slot];
                   for (uint32_t i = 0; i < b.count; ++i)
                     st.sum_product += b.cols[0].i64[i] * b.cols[1].i32[i];
                 });
      int64_t total = 0;
      for (auto& st : states) total += st.sum_product;
      if (total / 100 != eager_rev) std::abort();
    });
    if (threads == 1) base_s = s;
    std::printf("%u thread(s): %8.2fms (%.2fx)\n", threads, s * 1e3,
                base_s / s);
  }

  // --- (3) Micro-adaptive early probing -----------------------------------
  std::printf("\n=== (3) micro-adaptive early join probing ===\n");
  for (int wide_build : {0, 1}) {
    JoinHashTable ht(size_t(db->NumOrders()));
    int32_t hi_date = wide_build ? MakeDate(1998, 12, 31)
                                 : MakeDate(1994, 3, 31);
    TableScanner build(db->orders, {ord::orderkey},
                       {Predicate::Between(ord::orderdate,
                                           Value::Int(MakeDate(1994, 1, 1)),
                                           Value::Int(hi_date))},
                       ScanMode::kDataBlocksPsma);
    Batch bb;
    while (build.Next(&bb))
      for (uint32_t i = 0; i < bb.count; ++i)
        ht.Insert(uint64_t(bb.cols[0].i64[i]), 1);

    // Adaptive loop over manually driven block scans. Flavor 0 unpacks the
    // payload columns for every tuple and probes in the pipeline; flavor 1
    // early-probes the key vector first and only unpacks survivors
    // (Figure 14 steps 1-4). Early probing pays off iff the join is
    // selective — exactly what the chooser has to discover.
    FlavorChooser chooser(2);
    uint64_t flavor_calls[2] = {0, 0};
    int64_t joined = 0;
    std::vector<uint32_t> positions(8192 + 8);
    std::vector<uint64_t> keys(8192);
    for (size_t c = 0; c < db->lineitem.num_chunks(); ++c) {
      const DataBlock* block = db->lineitem.frozen_block(c);
      if (block == nullptr) continue;
      for (uint32_t from = 0; from < block->num_rows(); from += 8192) {
        uint32_t to = std::min(from + 8192u, block->num_rows());
        uint32_t n = to - from;
        for (uint32_t i = 0; i < n; ++i) positions[i] = from + i;
        uint32_t flavor = chooser.Choose();
        ++flavor_calls[flavor];
        uint64_t t0 = ReadTsc();
        ColumnVector key_col;
        key_col.Init(TypeId::kInt64);
        UnpackColumn(*block, li::orderkey, positions.data(), n, &key_col);
        uint32_t kept = n;
        if (flavor == 1) {
          for (uint32_t i = 0; i < n; ++i)
            keys[i] = uint64_t(key_col.i64[i]);
          kept = ht.EarlyProbe(keys.data(), positions.data(), n,
                               positions.data());
          key_col.Init(TypeId::kInt64);
          UnpackColumn(*block, li::orderkey, positions.data(), kept,
                       &key_col);
        }
        ColumnVector price, disc, tax, ship;
        price.Init(TypeId::kInt64);
        disc.Init(TypeId::kInt32);
        tax.Init(TypeId::kInt32);
        ship.Init(TypeId::kDate);
        UnpackColumn(*block, li::extendedprice, positions.data(), kept,
                     &price);
        UnpackColumn(*block, li::discount, positions.data(), kept, &disc);
        UnpackColumn(*block, li::tax, positions.data(), kept, &tax);
        UnpackColumn(*block, li::shipdate, positions.data(), kept, &ship);
        for (uint32_t i = 0; i < kept; ++i) {
          ht.Probe(uint64_t(key_col.i64[i]), [&](uint64_t) {
            joined += price.i64[i] * (100 - disc.i32[i]) + tax.i32[i] +
                      ship.i32[i];
          });
        }
        chooser.Report(flavor, double(ReadTsc() - t0) / n);
      }
    }
    std::printf(
        "build side %-10s -> winner: %-18s (pipeline %llu / early %llu "
        "vectors; joined=%lld)\n",
        wide_build ? "all years" : "one quarter",
        chooser.Best() == 1 ? "early probe" : "probe in pipeline",
        (unsigned long long)flavor_calls[0],
        (unsigned long long)flavor_calls[1], (long long)joined);
  }
  std::printf(
      "\n(Expected: the selective build side favors early probing; the\n"
      " all-years build side makes early probing pure overhead, and the\n"
      " adaptive chooser must flip accordingly — Appendix E.)\n");
  return 0;
}
