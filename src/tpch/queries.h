#ifndef DATABLOCKS_TPCH_QUERIES_H_
#define DATABLOCKS_TPCH_QUERIES_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exec/morsel_scan.h"
#include "exec/partitioned_agg.h"
#include "exec/shard.h"
#include "exec/table_scanner.h"
#include "obs/query_profile.h"
#include "tpch/tpch_db.h"

namespace datablocks::tpch {

/// Execution knobs of one query run. `threads` is the number of
/// parallelism slots every fact-table scan+aggregate pipeline runs on
/// (exec/morsel_scan.h): 1 runs it inline on the caller — the sequential
/// reference — and more fan it out over the shared worker pool with one
/// state per slot and a deterministic merge (results are identical to the
/// one-slot run by construction — every accumulation is exact and merged in
/// slot order). `threads == 0` means "all hardware threads".
struct QueryContext {
  unsigned threads = 1;
  /// Worker pool for the parallel pipelines; nullptr = the process-wide
  /// Scheduler::Default().
  Scheduler* scheduler = nullptr;
  /// When set, every scan+aggregate pipeline the query runs records an
  /// execution profile (obs/query_profile.h) into it: wall time, rows
  /// in/out, morsel/batch counts, block pruning, pins, archive reloads,
  /// per-worker slices. nullptr = profiling off (one branch per pipeline).
  obs::QueryProfile* profile = nullptr;
  /// When set, fact-table pipelines whose table has a sharded view in the
  /// set run shard-parallel (exec/shard.h): shard-affine scans over the
  /// per-shard engine instances, aggregation repartitioned to owning
  /// shards through the Exchange. Results stay bit-identical to the
  /// unsharded engine (exact accumulation, order-independent merges).
  /// nullptr = single-table execution.
  const ShardSet* shards = nullptr;
};

/// Scan configuration under which a query runs; every paper configuration
/// (Table 2 / Table 4 columns) is one ScanOptions value.
struct ScanOptions {
  ScanMode mode = ScanMode::kDataBlocksPsma;
  uint32_t vector_size = TableScanner::kDefaultVectorSize;
  Isa isa = BestIsa();
  QueryContext ctx{};

  TableScanner Scan(const Table& table, std::vector<uint32_t> cols,
                    std::vector<Predicate> preds = {}) const {
    return TableScanner(table, std::move(cols), std::move(preds), mode,
                        vector_size, isa);
  }
};

/// Result rows, already formatted and ordered like the SQL output; equal
/// results across scan modes must compare equal.
struct QueryResult {
  std::vector<std::string> rows;

  bool operator==(const QueryResult& o) const { return rows == o.rows; }
  std::string ToString() const {
    std::string s;
    for (const auto& r : rows) {
      s += r;
      s += '\n';
    }
    return s;
  }
};

// The 22 TPC-H queries (validation parameters), hand-fused against the
// vectorized scan interface. SARGable restrictions are pushed into the
// scans — including IN lists and prefix LIKE patterns, which code-space
// scans on frozen blocks translate to dictionary codes / code ranges.
// Non-prefix LIKE and cross-column predicates run in the pipeline,
// memoized per dictionary code where the column is code-carrying
// (exec/dict_memo.h).
QueryResult Q1(const TpchDatabase& db, const ScanOptions& opt);   // pricing summary report
QueryResult Q2(const TpchDatabase& db, const ScanOptions& opt);   // minimum cost supplier
QueryResult Q3(const TpchDatabase& db, const ScanOptions& opt);   // shipping priority (top 10)
QueryResult Q4(const TpchDatabase& db, const ScanOptions& opt);   // order priority checking
QueryResult Q5(const TpchDatabase& db, const ScanOptions& opt);   // local supplier volume
QueryResult Q6(const TpchDatabase& db, const ScanOptions& opt);   // forecasting revenue change
QueryResult Q7(const TpchDatabase& db, const ScanOptions& opt);   // volume shipping
QueryResult Q8(const TpchDatabase& db, const ScanOptions& opt);   // national market share
QueryResult Q9(const TpchDatabase& db, const ScanOptions& opt);   // product type profit
QueryResult Q10(const TpchDatabase& db, const ScanOptions& opt);  // returned items (top 20)
QueryResult Q11(const TpchDatabase& db, const ScanOptions& opt);  // important stock
QueryResult Q12(const TpchDatabase& db, const ScanOptions& opt);  // shipping modes / priority
QueryResult Q13(const TpchDatabase& db, const ScanOptions& opt);  // customer distribution
QueryResult Q14(const TpchDatabase& db, const ScanOptions& opt);  // promotion effect
QueryResult Q15(const TpchDatabase& db, const ScanOptions& opt);  // top supplier
QueryResult Q16(const TpchDatabase& db, const ScanOptions& opt);  // parts/supplier relationship
QueryResult Q17(const TpchDatabase& db, const ScanOptions& opt);  // small-quantity revenue
QueryResult Q18(const TpchDatabase& db, const ScanOptions& opt);  // large volume customers
QueryResult Q19(const TpchDatabase& db, const ScanOptions& opt);  // discounted revenue (OR clauses)
QueryResult Q20(const TpchDatabase& db, const ScanOptions& opt);  // potential part promotion
QueryResult Q21(const TpchDatabase& db, const ScanOptions& opt);  // suppliers who kept orders waiting
QueryResult Q22(const TpchDatabase& db, const ScanOptions& opt);  // global sales opportunity

/// Runs TPC-H query `q` (1-based). Aborts on out-of-range q.
QueryResult RunQuery(int q, const TpchDatabase& db, const ScanOptions& opt);

namespace detail {

/// One scan pipeline of a query: the MorselScan partition list (the
/// context's shard tables when `table` is sharded there, else `table`
/// alone) and spec, whose `pipeline` is the entry on the context's profile
/// (nullptr when profiling is off); its wall time is stamped on scope exit.
class PipelineScope {
 public:
  PipelineScope(const ScanOptions& opt, const Table& table,
                std::vector<uint32_t> cols, std::vector<Predicate> preds,
                unsigned slots)
      : shards_(opt.ctx.shards != nullptr ? opt.ctx.shards->Find(table)
                                          : nullptr),
        partitions_(shards_ != nullptr ? shards_->partitions()
                                       : std::vector<const Table*>{&table}),
        spec_{std::move(cols),
              std::move(preds),
              opt.mode,
              EffectiveThreads(slots, opt.ctx.scheduler),
              opt.vector_size,
              opt.isa,
              opt.ctx.scheduler,
              opt.ctx.profile != nullptr
                  ? opt.ctx.profile->AddPipeline(table.name())
                  : nullptr},
        start_ns_(spec_.pipeline != nullptr ? obs::MonotonicNs() : 0) {}
  ~PipelineScope() {
    if (spec_.pipeline != nullptr)
      spec_.pipeline->set_wall_ns(obs::MonotonicNs() - start_ns_);
  }

  PipelineScope(const PipelineScope&) = delete;
  PipelineScope& operator=(const PipelineScope&) = delete;

  /// The sharded view being scanned, nullptr for a plain table.
  const ShardedTable* shards() const { return shards_; }
  const std::vector<const Table*>& partitions() const { return partitions_; }
  const ScanSpec& spec() const { return spec_; }
  /// Parallelism slots (resolved: always >= 1).
  unsigned slots() const { return spec_.slots; }

  /// Times `fn()` as the pipeline's merge step.
  template <typename Fn>
  void Merge(Fn fn) {
    if (spec_.pipeline == nullptr) {
      fn();
      return;
    }
    const uint64_t t0 = obs::MonotonicNs();
    fn();
    spec_.pipeline->set_merge_ns(obs::MonotonicNs() - t0);
  }

 private:
  const ShardedTable* shards_;
  std::vector<const Table*> partitions_;
  ScanSpec spec_;
  uint64_t start_ns_;
};

// ---------------------------------------------------------------------------
// Pipeline helpers. Every query pipeline is written once against these,
// and each is one MorselScan call: on ctx.threads slots (one slot runs
// inline on the caller), over the table or its shards, with a State per
// parallelism slot that `merge` folds in slot order. Determinism contract:
// consume bodies only perform exact accumulations (integer sums/counts,
// container inserts), so the merged result equals the one-slot result no
// matter which worker claimed which morsel.
// ---------------------------------------------------------------------------

/// Scans a small dimension table (region, nation, supplier lookups) on one
/// slot, inline on the caller — there is nothing to win on a handful of
/// rows, and `fn` may fill unsynchronized state. Profiled like every other
/// pipeline. `fn`: (const Batch&).
template <typename Fn>
void DimScan(const Table& table, const ScanOptions& opt,
             std::vector<uint32_t> cols, std::vector<Predicate> preds,
             Fn fn) {
  PipelineScope pipeline(opt, table, std::move(cols), std::move(preds),
                         /*slots=*/1);
  MorselScan(pipeline.partitions(), pipeline.spec(),
             [&fn](unsigned, const Batch& b, unsigned) { fn(b); });
}

template <typename Fn>
void DimScan(const Table& table, const ScanOptions& opt,
             std::vector<uint32_t> cols, Fn fn) {
  DimScan(table, opt, std::move(cols), {}, std::move(fn));
}

/// Scan+aggregate with per-worker states and a merge step.
/// `make_state`: () -> State; `consume`: (State&, const Batch&);
/// `merge`: (State& dst, State& src) folds src into dst.
template <typename State, typename MakeState, typename Consume,
          typename Merge>
State ParAgg(const Table& table, const ScanOptions& opt,
             std::vector<uint32_t> cols, std::vector<Predicate> preds,
             MakeState make_state, Consume consume, Merge merge) {
  PipelineScope pipeline(opt, table, std::move(cols), std::move(preds),
                         opt.ctx.threads);
  std::vector<State> states;
  states.reserve(pipeline.slots());
  for (unsigned t = 0; t < pipeline.slots(); ++t) {
    states.push_back(make_state());
  }
  MorselScan(pipeline.partitions(), pipeline.spec(),
             [&](unsigned slot, const Batch& b, unsigned) {
               consume(states[slot], b);
             });
  State merged = std::move(states[0]);
  if (states.size() > 1) {
    pipeline.Merge([&] {
      for (size_t i = 1; i < states.size(); ++i) merge(merged, states[i]);
    });
  }
  return merged;
}

/// Dense-keyed scan+aggregate through the partitioned-aggregation engine
/// (exec/partitioned_agg.h): ONE T vector over [0, domain) total — not one
/// per slot — with each slot routing foreign-partition rows through
/// bounded spill buffers (PartitionedDense), or, on a sharded table,
/// through the Exchange to the owning shard (ExchangeDenseScan,
/// exec/shard.h).
/// No merge step. Use when the group key is dense by construction
/// (orderkey / custkey / suppkey ordinals) and rows touching any element
/// are many.
/// `produce`: (Sink&, const Batch&) calling sink.Add(key, U);
/// `apply`: (T&, const U&), exact + commutative + associative, so results
/// stay bit-identical to the one-slot path.
///
/// `route_key_of` (optional): when the dense domain is derived from the
/// scanned table's shard key (e.g. order ordinals from l_orderkey), pass
/// the inverse map (dense index -> routing key) and the sharded path
/// elides the exchange entirely — every element is owned by the shard
/// whose rows produce it, so updates apply in place under the producing
/// shard's lock (KeyOwner, exec/shard.h) instead of shipping to generic
/// contiguous spans. CONTRACT: the map must truly invert the dense index
/// to the row's routing key (debug-asserted); results are then identical
/// to every other routing.
template <typename T, typename U, typename Produce, typename Apply>
std::vector<T> ParDenseAgg(const Table& table, const ScanOptions& opt,
                           std::vector<uint32_t> cols,
                           std::vector<Predicate> preds, size_t domain,
                           Produce produce, Apply apply, T init = T{},
                           int64_t (*route_key_of)(size_t) = nullptr) {
  PipelineScope pipeline(opt, table, std::move(cols), std::move(preds),
                         opt.ctx.threads);
  if (pipeline.shards() != nullptr) {
    return ExchangeDenseScan<T, U>(pipeline.partitions(), pipeline.spec(),
                                   domain, produce, std::move(apply), init,
                                   route_key_of);
  }
  PartitionedDense<T, U, Apply> state(domain, pipeline.slots(),
                                      std::move(apply), init);
  MorselScan(
      pipeline.partitions(), pipeline.spec(),
      [&](unsigned slot, const Batch& b, unsigned) {
        produce(state.sink(slot), b);
      },
      [&](unsigned slot) { state.sink(slot).Flush(); });
  return state.Take();
}

/// Sparse group-by through the partitioned-aggregation engine: per-worker
/// hash-partitioned AggHashTables merged partition-wise (disjoint
/// partitions, parallel merge).
/// Use when the group key is sparse or the group count is small relative
/// to the scanned rows. `produce`: (PartitionedAggTable<V>&, const Batch&)
/// calling t.Ref(key); `fold`: (V& dst, const V& src), exact +
/// commutative (dst of a fresh key is value-initialized).
template <typename V, typename Produce, typename Fold>
PartitionedAggTable<V> ParHashAgg(const Table& table, const ScanOptions& opt,
                                  std::vector<uint32_t> cols,
                                  std::vector<Predicate> preds,
                                  Produce produce, Fold fold) {
  PipelineScope pipeline(opt, table, std::move(cols), std::move(preds),
                         opt.ctx.threads);
  const ShardedTable* st = pipeline.shards();
  // On a sharded table, shard-affine scanning keeps each worker-local
  // table's keys within (mostly) one shard, so the exchange-merge folds
  // each group from few locals — the work saving that makes shards beat
  // per-worker replicas even without extra cores. The partition count
  // covers max(slots, shards) so every shard owns >= 1 partition.
  const unsigned shards = st != nullptr ? st->num_shards() : 1;
  const unsigned parts = std::max(pipeline.slots(), shards);
  std::vector<PartitionedAggTable<V>> locals;
  locals.reserve(pipeline.slots());
  for (unsigned t = 0; t < pipeline.slots(); ++t) locals.emplace_back(parts);
  MorselScan(pipeline.partitions(), pipeline.spec(),
             [&](unsigned slot, const Batch& b, unsigned) {
               produce(locals[slot], b);
             });
  if (locals.size() == 1) return std::move(locals[0]);
  PartitionedAggTable<V> merged(0);
  pipeline.Merge([&] {
    merged = st != nullptr ? ExchangeMergeAggTables(locals, fold, shards,
                                                    opt.ctx.scheduler)
                           : MergeAggTables(locals, fold, opt.ctx.scheduler);
  });
  return merged;
}

/// Parallel scan into shared sinks, for consumers whose writes are
/// per-element disjoint (dense per-order/per-customer vectors where each
/// element is written by exactly one row — a data-race-free pattern) or
/// that only read. `consume`: (const Batch&).
template <typename Consume>
void ParScan(const Table& table, const ScanOptions& opt,
             std::vector<uint32_t> cols, std::vector<Predicate> preds,
             Consume consume) {
  ParAgg<char>(
      table, opt, std::move(cols), std::move(preds), [] { return char{0}; },
      [&consume](char&, const Batch& b) { consume(b); },
      [](char&, const char&) {});
}

/// Dense vector filled by scatter stores through the engine's
/// SharedStoreDense: ONE shared O(domain) vector, valid whenever every
/// row writing an element stores the same value — unique writers (dense
/// per-order sinks) or idempotent flags. No replicas, no locks, no merge.
/// `produce`: (SharedStoreDense<T>&, const Batch&) calling
/// sink.Store(key, value).
template <typename T, typename Produce>
std::vector<T> ParDenseStore(const Table& table, const ScanOptions& opt,
                             std::vector<uint32_t> cols,
                             std::vector<Predicate> preds, size_t domain,
                             Produce produce, T init = T{}) {
  SharedStoreDense<T> sink(domain, init);
  ParScan(table, opt, std::move(cols), std::move(preds),
          [&](const Batch& b) { produce(sink, b); });
  return sink.Take();
}

/// Semi-join build side over a dense key domain: one 1-byte flag per key
/// in [0, domain), set for every row passing `preds` at its int32 column
/// `key_col`. The stores are idempotent, so all slots share one vector.
inline std::vector<uint8_t> KeyFlags(const Table& table,
                                     const ScanOptions& opt, uint32_t key_col,
                                     std::vector<Predicate> preds,
                                     size_t domain) {
  return ParDenseStore<uint8_t>(
      table, opt, {key_col}, std::move(preds), domain,
      [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(b.cols[0].i32[i]), 1);
      });
}

/// Slot-order merge of per-worker row lists.
template <typename T>
void MergeConcat(std::vector<T>& dst, std::vector<T>& src) {
  dst.insert(dst.end(), std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.end()));
}

inline std::string Money(int64_t cents) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", double(cents) / 100.0);
  return buf;
}

inline std::string F2(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Dense index of an order key (order keys are 4 * ordinal).
inline int64_t OrderIdx(int64_t orderkey) { return orderkey / 4 - 1; }

/// Inverse of OrderIdx — the ParDenseAgg `route_key_of` hint for
/// OrderIdx-indexed dense domains on orderkey-sharded fact tables
/// (co-partitioned exchange routing; see exec/shard.h KeyOwner).
inline int64_t OrderKeyOf(size_t idx) { return int64_t(idx + 1) * 4; }

}  // namespace detail

}  // namespace datablocks::tpch

#endif  // DATABLOCKS_TPCH_QUERIES_H_
