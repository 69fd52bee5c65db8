#ifndef DATABLOCKS_EXEC_SHARD_H_
#define DATABLOCKS_EXEC_SHARD_H_

// Shard-parallel execution: N independent engine instances per table plus
// the state shapes that aggregate across them.
//
//  * ShardedTable — hash-shards the visible rows of a source Table across
//    `num_shards` fully independent Tables (own chunks, own lifecycle, own
//    block summaries). Routing key = one int64 column; shard =
//    Hash64(key) % num_shards, so co-sharded tables (lineitem + orders on
//    orderkey) keep matching keys on the same shard.
//  * ShardSet — the shard configuration a QueryContext carries: sharded
//    views keyed by source-table address, so query code asks "is this
//    table sharded here?" and falls back to the single-table path when not.
//  * Scans need nothing shard-specific: a ShardedTable's partitions() is
//    the partition list MorselScan (exec/morsel_scan.h) drains with
//    shard-affine slots, exactly as it drains a plain table's one entry.
//  * ExchangeDenseScan — the PartitionedDense counterpart: ONE dense
//    vector whose elements are owned per shard; scan-side updates ship
//    through an Exchange to the owning shard ("flush your partition to the
//    owning shard" — exec/exchange.h), or apply in place when the dense
//    domain is co-partitioned with the shard key.
//  * ExchangeMergeAggTables — the MergeAggTables equivalent: hash
//    partitions are owned shard-wise (partition p -> shard p % S) and each
//    shard's merge task folds its owned partitions across the worker-local
//    tables in slot order, metering shipped partitions/bytes.
//
// Determinism: both shapes preserve the PR 4/5 contract — exact integer
// accumulation, commutative/associative applies and folds, merges in slot
// order — so sharded results are bit-identical to the single-shard
// engine. A sharded scan presents the same multiset of rows to the same
// consume bodies, merely in a different interleaving, and the existing
// t1-vs-t4 checksum guard already proves interleaving-independence.

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/exchange.h"
#include "exec/hash_table.h"  // Hash64
#include "exec/morsel_scan.h"
#include "exec/partitioned_agg.h"
#include "exec/scheduler.h"
#include "obs/query_profile.h"
#include "storage/table.h"

namespace datablocks {

/// A source table hash-partitioned into independent engine instances.
/// Built once (snapshot of the source's visible rows at build time); the
/// shard tables then live their own hot/frozen/evicted lifecycles.
class ShardedTable {
 public:
  /// Copies every visible source row into shard Hash64(row[route_col]) %
  /// num_shards. `route_col` must be an int64 column. Shard tables are
  /// named "<source>.s<i>" and inherit schema + chunk capacity. The source
  /// should be hot or frozen-resident (evicted chunks would fault in
  /// through the fetcher row by row).
  ShardedTable(const Table& source, unsigned num_shards, uint32_t route_col);

  ShardedTable(const ShardedTable&) = delete;
  ShardedTable& operator=(const ShardedTable&) = delete;

  static unsigned ShardOf(int64_t key, unsigned num_shards) {
    return unsigned(Hash64(uint64_t(key)) % num_shards);
  }

  const Table* source() const { return source_; }
  uint32_t route_col() const { return route_col_; }
  unsigned num_shards() const { return unsigned(shards_.size()); }
  const Table& shard(unsigned i) const { return *shards_[i]; }
  Table& shard_mut(unsigned i) { return *shards_[i]; }
  /// The shard tables in shard order: the partition list a MorselScan
  /// over this table drains.
  std::vector<const Table*> partitions() const;

  uint64_t num_rows() const;
  uint64_t num_visible() const;

  /// Freezes every shard's chunks into Data Blocks.
  void FreezeAll(int sort_col = -1, bool build_psma = true);

 private:
  const Table* source_;
  uint32_t route_col_;
  // unique_ptr: shard Table addresses must be stable (lifecycle managers
  // and scanners bind to them).
  std::vector<std::unique_ptr<Table>> shards_;
};

/// The shard configuration of one execution context: sharded views of some
/// tables, looked up by source-table address. Tables without an entry run
/// the ordinary single-table pipelines.
class ShardSet {
 public:
  ShardSet() = default;
  ShardSet(ShardSet&&) = default;
  ShardSet& operator=(ShardSet&&) = default;

  ShardedTable& Add(const Table& source, unsigned num_shards,
                    uint32_t route_col) {
    tables_.push_back(
        std::make_unique<ShardedTable>(source, num_shards, route_col));
    return *tables_.back();
  }

  /// The sharded view of `source`, nullptr when it is not sharded here.
  const ShardedTable* Find(const Table& source) const {
    for (const auto& t : tables_) {
      if (t->source() == &source) return t.get();
    }
    return nullptr;
  }

  size_t size() const { return tables_.size(); }
  const ShardedTable& at(size_t i) const { return *tables_[i]; }
  ShardedTable& at(size_t i) { return *tables_[i]; }

  /// Max shard count across the set (1 when empty) — the "shards" knob a
  /// profile or bench header reports.
  unsigned num_shards() const {
    unsigned n = 1;
    for (const auto& t : tables_) n = std::max(n, t->num_shards());
    return n;
  }

  void FreezeAll(int sort_col = -1, bool build_psma = true) {
    for (auto& t : tables_) t->FreezeAll(sort_col, build_psma);
  }

 private:
  std::vector<std::unique_ptr<ShardedTable>> tables_;
};

/// Dense-key ownership routings for ExchangeDenseScan. Any deterministic
/// key -> destination function is correct (each element is delivered and
/// applied under exactly one destination's lock); the choice only decides
/// how much traffic crosses shards.
///
/// SpanOwner — contiguous ranges, the generic default: shard s owns
/// [s*span, (s+1)*span). Works for every dense domain but, with
/// hash-sharded sources, nearly every update lands on a foreign shard.
struct SpanOwner {
  size_t span;
  unsigned operator()(size_t key) const { return unsigned(key / span); }
};

/// KeyOwner — co-partitioned routing for dense domains DERIVED FROM the
/// shard key (e.g. order ordinals on an orderkey-sharded fact table):
/// element k is owned by the shard whose rows produce it, so every update
/// is self-destined by construction and the exchange is ELIDED — updates
/// apply in place under the producing shard's lock, the co-partitioned
/// plan optimization. `route_key_of` must truly invert the dense index
/// back to the row's routing key (CONTRACT, assert-checked in debug
/// builds): a domain not derived from the shard key routed this way would
/// race two shards onto one element.
struct KeyOwner {
  int64_t (*route_key_of)(size_t key);
  unsigned num_shards;
  unsigned operator()(size_t key) const {
    return ShardedTable::ShardOf(route_key_of(key), num_shards);
  }
};

/// MorselScan over `shards` into ONE dense T vector over [0, domain) whose
/// elements are owned per shard: the sharded counterpart of a
/// PartitionedDense scan. `produce` is (Sink&, const Batch&) calling
/// sink.Add(key, U) — the same bodies a PartitionedDense::Sink takes.
/// Without `route_key_of`, element k is owned by SpanOwner and updates
/// ship through an Exchange to the owning shard; with it, by KeyOwner, and
/// the exchange is elided. Apply must be exact + commutative +
/// associative, which makes the result bit-identical to the single-shard
/// path.
template <typename T, typename U, typename Apply, typename Produce>
std::vector<T> ExchangeDenseScan(const std::vector<const Table*>& shards,
                                 const ScanSpec& spec, size_t domain,
                                 Produce& produce, Apply apply, T init,
                                 int64_t (*route_key_of)(size_t)) {
  const unsigned S = unsigned(shards.size());
  std::vector<T> dense(domain, init);
  aggstate::Add(aggstate::Kind::kDense, dense.size() * sizeof(T));
  struct Update {
    uint64_t key;
    U u;
  };
  Exchange<Update> ex(S, EffectiveThreads(spec.slots, spec.scheduler),
                      [&](unsigned, Update* items, size_t n) {
                        for (size_t i = 0; i < n; ++i) {
                          apply(dense[size_t(items[i].key)], items[i].u);
                        }
                      });
  // A failed scan (a slot threw) releases the accounting too.
  try {
    if (route_key_of != nullptr) {
      // Exchange elision: with a truthful route_key_of, EVERY update a
      // shard's rows produce is owned by that same shard (owner(idx) =
      // ShardOf(route_key(idx)) = the shard the row hashed to, which the
      // debug assert re-derives per update), so it applies IN PLACE under
      // that shard's dest lock — zero copies through the exchange. The lock
      // still matters: two slots can drain the same shard (work stealing).
      struct DirectSink {
        std::vector<T>& dense;
        Apply& apply;
        KeyOwner owner;
        unsigned shard;
        void Add(size_t key, const U& u) {
          assert(owner(key) == shard);
          apply(dense[key], u);
        }
      };
      MorselScan(shards, spec, [&](unsigned, const Batch& b, unsigned s) {
        std::lock_guard<std::mutex> lock(ex.dest_lock(s));
        DirectSink sink{dense, apply, KeyOwner{route_key_of, S}, s};
        produce(sink, b);
      });
    } else {
      struct PortSink {
        typename Exchange<Update>::Port& port;
        SpanOwner owner;
        void Add(size_t key, const U& u) {
          port.Send(owner(key), Update{uint64_t(key), u});
        }
      };
      const SpanOwner owner{domain == 0 ? 1 : (domain + S - 1) / S};
      // Each slot flushes its port before the join: afterwards every update
      // has been applied exactly once.
      MorselScan(
          shards, spec,
          [&](unsigned slot, const Batch& b, unsigned) {
            PortSink sink{ex.port(slot), owner};
            produce(sink, b);
          },
          [&](unsigned slot) { ex.port(slot).Flush(); });
    }
  } catch (...) {
    aggstate::Sub(aggstate::Kind::kDense, dense.size() * sizeof(T));
    throw;
  }
  aggstate::Sub(aggstate::Kind::kDense, dense.size() * sizeof(T));
  return dense;
}

/// Exchange-then-merge of per-worker PartitionedAggTables (all built with
/// the same partition count): hash partition p is owned by shard p % S;
/// one merge task per shard folds its owned partitions across the locals
/// in slot order — the same per-partition fold order as MergeAggTables, so
/// the merged content is identical; only the task decomposition changes.
/// Each non-empty (local, partition) pair handed to an owner counts as one
/// shipped exchange partition; per-shard merge time lands in
/// `exchange.merge_ns`.
template <typename V, typename Fold>
PartitionedAggTable<V> ExchangeMergeAggTables(
    std::vector<PartitionedAggTable<V>>& locals, Fold fold,
    unsigned num_shards, Scheduler* scheduler = nullptr) {
  const unsigned partitions = locals.empty() ? 1 : locals.front().partitions();
  if (num_shards == 0) num_shards = 1;
  PartitionedAggTable<V> merged(partitions);
  const ExchangeMetrics& m = GetExchangeMetrics();
  auto merge_shard = [&](unsigned shard) {
    const uint64_t t0 = obs::MonotonicNs();
    uint64_t shipped = 0, bytes = 0;
    for (unsigned p = shard; p < partitions; p += num_shards) {
      AggHashTable<V>& dst = merged.partition(p);
      for (PartitionedAggTable<V>& src : locals) {
        AggHashTable<V>& sp = src.partition(p);
        if (sp.size() == 0) continue;
        sp.ForEach([&](uint64_t key, const V& v) { fold(dst.Ref(key), v); });
        ++shipped;
        bytes += sp.size() * (sizeof(uint64_t) + sizeof(V));
      }
    }
    m.partitions_shipped->Add(shipped);
    m.bytes_shipped->Add(bytes);
    m.merge_ns->Observe(obs::MonotonicNs() - t0);
  };
  RunOnSlots(num_shards, merge_shard, scheduler);
  return merged;
}

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_SHARD_H_
