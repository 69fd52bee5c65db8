#ifndef DATABLOCKS_EXEC_EXCHANGE_H_
#define DATABLOCKS_EXEC_EXCHANGE_H_

// Exchange: intra-process repartitioning between pipeline phases — the
// PartitionedDense spill-buffer idiom (exec/partitioned_agg.h) lifted one
// level, from "route this key to its owning partition" to "route this item
// to its owning shard".
//
// Producers (pipeline workers) each own a Port holding one bounded spill
// buffer per destination: Send(dest, item) appends to the destination's
// buffer, so items arrive pre-grouped (the radix step of the
// PartitionedDense flush, amortized into the append) and a full buffer
// ships as one destination-contiguous run to the deliver callback under
// that destination's lock (so deliver bodies mutate per-destination state
// without their own synchronization). End-of-phase, every port flushes its
// remainders before the phase's TaskGroup barrier — after the barrier each
// item has been delivered exactly once.
//
// Observability: every delivered run counts on `exchange.partitions_shipped`
// / `exchange.bytes_shipped`, every flush observes
// `exchange.flush_ns`; downstream merges time themselves into
// `exchange.merge_ns` (see shard.h). Counters resolve once per process
// (exchange.cc), so the per-flush cost is a few relaxed fetch_adds.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/query_profile.h"  // MonotonicNs

namespace datablocks {

/// Process-wide "exchange.*" metric handles, resolved once (exchange.cc).
struct ExchangeMetrics {
  obs::Counter* partitions_shipped;  ///< delivered destination runs
  obs::Counter* bytes_shipped;       ///< items * sizeof(Item) delivered
  obs::Histogram* flush_ns;          ///< per Port flush (group + deliver)
  obs::Histogram* merge_ns;          ///< downstream per-shard merge tasks
};
const ExchangeMetrics& GetExchangeMetrics();

template <typename Item>
class Exchange {
 public:
  /// Mirrors PartitionedDense::kSpillCapacity: large enough to amortize
  /// the per-flush grouping, small enough to stay cache-resident.
  static constexpr size_t kDefaultCapacity = 4096;

  /// Applies one destination-contiguous run; invoked under the
  /// destination's lock, so it may mutate dest-owned state freely. Items
  /// are passed by mutable pointer: deliver may move them out.
  using Deliver = std::function<void(unsigned dest, Item* items, size_t n)>;

  Exchange(unsigned num_dests, unsigned num_ports, Deliver deliver,
           size_t capacity = kDefaultCapacity)
      : num_dests_(num_dests == 0 ? 1 : num_dests),
        capacity_(capacity == 0 ? 1 : capacity),
        deliver_(std::move(deliver)),
        locks_(std::make_unique<std::mutex[]>(num_dests_)) {
    ports_.reserve(num_ports);
    for (unsigned p = 0; p < num_ports; ++p) {
      ports_.push_back(std::unique_ptr<Port>(new Port(this)));
    }
  }

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  /// One producer-side set of per-destination spill buffers.
  /// Single-threaded: exactly one worker uses a given port (ports are per
  /// parallelism slot). Appending into the owning destination's buffer IS
  /// the radix grouping — one bucket per destination, filled a row at a
  /// time — so a flush ships each buffer as an already-contiguous run with
  /// no counting or scatter pass.
  class Port {
   public:
    void Send(unsigned dest, Item item) {
      assert(dest < ex_->num_dests_);
      std::vector<Item>& buf = bufs_[dest];
      if (buf.size() >= ex_->capacity_) FlushDest(dest);
      buf.push_back(std::move(item));
    }

    /// Delivers every destination's remainder. Must be called at
    /// end-of-phase (before the barrier) so each item lands exactly once.
    void Flush() {
      for (unsigned d = 0; d < ex_->num_dests_; ++d) {
        if (!bufs_[d].empty()) FlushDest(d);
      }
    }

   private:
    friend class Exchange;
    explicit Port(Exchange* ex) : ex_(ex), bufs_(ex->num_dests_) {}

    void FlushDest(unsigned dest) {
      std::vector<Item>& buf = bufs_[dest];
      const uint64_t t0 = obs::MonotonicNs();
      ex_->DeliverRun(dest, buf.data(), buf.size());
      buf.clear();
      GetExchangeMetrics().flush_ns->Observe(obs::MonotonicNs() - t0);
    }

    Exchange* ex_;
    std::vector<std::vector<Item>> bufs_;
  };

  Port& port(unsigned i) { return *ports_[i]; }
  unsigned num_ports() const { return unsigned(ports_.size()); }
  unsigned num_dests() const { return num_dests_; }

  /// The lock DeliverRun takes for `dest` — exposed so a co-partitioned
  /// consumer can hold it and mutate dest-owned state directly, bypassing
  /// the buffer (exchange elision; see ExchangeDenseScan). While holding it,
  /// the caller must not flush any port (a delivery to another destination
  /// would nest two dest locks and invert order against a peer doing the
  /// mirror image).
  std::mutex& dest_lock(unsigned dest) { return locks_[dest]; }

  /// Flushes every port. Only safe when no producer is concurrently using
  /// its port — i.e. after the phase barrier (normally each worker flushed
  /// its own port already and this is a no-op safety net).
  void FlushAll() {
    for (auto& p : ports_) p->Flush();
  }

  /// Destination runs delivered / items delivered, for tests asserting
  /// exactly-once shipment.
  uint64_t runs_delivered() const {
    return runs_.load(std::memory_order_relaxed);
  }
  uint64_t items_delivered() const {
    return items_.load(std::memory_order_relaxed);
  }

 private:
  void DeliverRun(unsigned dest, Item* items, size_t n) {
    {
      std::lock_guard<std::mutex> lock(locks_[dest]);
      deliver_(dest, items, n);
    }
    runs_.fetch_add(1, std::memory_order_relaxed);
    items_.fetch_add(n, std::memory_order_relaxed);
    const ExchangeMetrics& m = GetExchangeMetrics();
    m.partitions_shipped->Add();
    m.bytes_shipped->Add(uint64_t(n) * sizeof(Item));
  }

  const unsigned num_dests_;
  const size_t capacity_;
  Deliver deliver_;
  std::unique_ptr<std::mutex[]> locks_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::atomic<uint64_t> runs_{0};
  std::atomic<uint64_t> items_{0};
};

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_EXCHANGE_H_
