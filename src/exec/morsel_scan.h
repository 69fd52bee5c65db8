#ifndef DATABLOCKS_EXEC_MORSEL_SCAN_H_
#define DATABLOCKS_EXEC_MORSEL_SCAN_H_

// The morsel-driven scan driver (Leis et al. [20]): the one loop every scan
// pipeline runs through. A scan covers a list of partitions — a plain
// Table is a one-entry list, a ShardedTable (exec/shard.h) its N shard
// tables. Each partition hands out single-chunk morsels through its own
// NodeMorselDispatcher (own NUMA node first). Slot t drains partition
// t mod P first, then steals from the others in wrap-around order. One
// slot runs inline on the caller, so its callback may touch
// unsynchronized state.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "exec/scheduler.h"
#include "exec/table_scanner.h"
#include "obs/query_profile.h"
#include "storage/table.h"

namespace datablocks {

/// What a morsel scan reads and how it runs.
struct ScanSpec {
  std::vector<uint32_t> columns;
  std::vector<Predicate> predicates;
  ScanMode mode = ScanMode::kDataBlocksPsma;
  /// 0 = all hardware threads (EffectiveThreads), 1 = inline on the caller.
  unsigned slots = 0;
  uint32_t vector_size = TableScanner::kDefaultVectorSize;
  Isa isa = BestIsa();
  Scheduler* scheduler = nullptr;  // nullptr = Scheduler::Default()
  /// Per-slot profiles, plus per-partition slices when P > 1; nullptr = off.
  obs::PipelineProfile* pipeline = nullptr;
};

/// The default end-of-slot callback: nothing to release.
struct NoSlotEnd {
  void operator()(unsigned) const {}
};

/// Scans `partitions` on spec.slots slots, calling
/// `on_batch(slot, batch, partition)` per non-empty batch; one slot's calls
/// are sequential, on one thread. `on_slot_end(slot)` runs on the slot's
/// thread after its last morsel — also when the slot throws, so a slot
/// always flushes its buffers and drops its locks. The first exception is
/// rethrown on the caller after every slot finished (RunOnSlots). Scanners
/// are built lazily per (slot, partition) and pin only the chunk being
/// scanned, so the lifecycle can freeze and evict unclaimed chunks.
template <typename OnBatch, typename OnSlotEnd = NoSlotEnd>
void MorselScan(const std::vector<const Table*>& partitions,
                const ScanSpec& spec, OnBatch&& on_batch,
                OnSlotEnd&& on_slot_end = {}) {
  const unsigned slots = EffectiveThreads(spec.slots, spec.scheduler);
  const unsigned P = unsigned(partitions.size());
  std::vector<std::unique_ptr<NodeMorselDispatcher>> morsels;
  morsels.reserve(P);
  for (const Table* t : partitions) {
    std::vector<int> nodes(t->num_chunks());
    for (size_t c = 0; c < nodes.size(); ++c) nodes[c] = t->chunk_node(c);
    morsels.push_back(std::make_unique<NodeMorselDispatcher>(nodes));
  }

  auto run_slot = [&](unsigned slot) {
    obs::WorkerScope scope(spec.pipeline, slot);
    try {
      const int node = Scheduler::CurrentWorkerNode();
      Batch batch;
      for (unsigned k = 0; k < P; ++k) {
        const unsigned p = (slot + k) % P;
        uint64_t p_morsels = 0, p_batches = 0, p_rows = 0;
        std::optional<TableScanner> scanner;
        size_t begin, end;
        while (morsels[p]->Next(node, &begin, &end)) {
          if (!scanner) {
            scanner.emplace(*partitions[p], spec.columns, spec.predicates,
                            spec.mode, spec.vector_size, spec.isa);
          }
          scope.OnMorsel();
          ++p_morsels;
          scanner->RestrictChunks(begin, end);
          while (scanner->Next(&batch)) {
            scope.OnBatch(batch.count, batch.AnyCoded());
            ++p_batches;
            p_rows += batch.count;
            on_batch(slot, batch, p);
          }
          // RestrictChunks reset the counters: these are the morsel's.
          scope.OnScanTotals(
              scanner->chunks_scanned(), scanner->rows_considered(),
              scanner->chunks_skipped(), scanner->evicted_chunks_skipped(),
              scanner->pins_taken(), scanner->archive_reloads());
        }
        if (P > 1 && spec.pipeline != nullptr && p_morsels != 0) {
          spec.pipeline->AddShardSlice(p, p_morsels, p_batches, p_rows);
        }
      }
    } catch (...) {
      on_slot_end(slot);
      throw;
    }
    on_slot_end(slot);
  };
  RunOnSlots(slots, run_slot, spec.scheduler);
}

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_MORSEL_SCAN_H_
