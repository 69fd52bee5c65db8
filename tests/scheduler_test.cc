// Morsel-driven execution engine: worker pool + work stealing, the morsel
// scan driver's contract, periodic tasks, the pool's exit order,
// scheduler-backed lifecycle ticks, parallel TPC-H result equality, and the
// parallel-query-vs-eviction/compaction stress the TSan CI leg leans on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/morsel_scan.h"
#include "exec/partitioned_agg.h"
#include "exec/scheduler.h"
#include "lifecycle/lifecycle_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_table_util.h"
#include "tpch/queries.h"
#include "util/cpu.h"

namespace datablocks {
namespace {

/// Spin-waits (with yields) until `pred` holds or ~5s elapsed.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A ScanMode::kDataBlocks scan spec over `columns` on `slots` slots.
ScanSpec DataBlocksSpec(std::vector<uint32_t> columns, unsigned slots,
                        Scheduler* sched) {
  ScanSpec spec;
  spec.columns = std::move(columns);
  spec.mode = ScanMode::kDataBlocks;
  spec.slots = slots;
  spec.scheduler = sched;
  return spec;
}

TEST(Topology, HardwareThreadsGuardAndShape) {
  // The one hardware_concurrency()==0 guard of the codebase: always >= 1.
  EXPECT_GE(cpu::HardwareThreads(), 1u);
  const cpu::Topology& topo = cpu::HostTopology();
  EXPECT_EQ(topo.cpus.size(), topo.node_of.size());
  EXPECT_GE(topo.num_nodes, 1u);
  if (!topo.cpus.empty()) {
    EXPECT_EQ(topo.hardware_threads, unsigned(topo.cpus.size()));
    // Node-major order: nodes never decrease along the cpu list.
    for (size_t i = 1; i < topo.node_of.size(); ++i)
      EXPECT_LE(topo.node_of[i - 1], topo.node_of[i]) << i;
  }
  EXPECT_GE(EffectiveThreads(0), 1u);
  EXPECT_EQ(EffectiveThreads(5), 5u);
}

TEST(Scheduler, TaskGroupRunsEveryTask) {
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  EXPECT_EQ(sched.num_workers(), 3u);
  std::atomic<int> count{0};
  TaskGroup group(&sched);
  for (int i = 0; i < 64; ++i) {
    group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(Scheduler, WorkStealingDrainsABlockedWorkersQueue) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  // Park one worker on a latch; its queued tasks can then only complete by
  // being stolen from the sibling.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  sched.Submit([released] { released.wait(); });
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    sched.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_TRUE(WaitFor([&] { return done.load() == 16; }));
  EXPECT_GE(sched.steals(), 1u);
  release.set_value();
}

TEST(Scheduler, UrgentSubmitOvertakesQueuedTasks) {
  // One worker, no stealing: queue order is execution order. An urgent
  // task enqueued last must still run before the earlier normal tasks —
  // this is what lets OLTP point ops overtake queued scan morsels.
  Scheduler sched(Scheduler::Options{.num_workers = 1});
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> started{false};
  sched.Submit([&] {
    started = true;
    released.wait();
  });
  ASSERT_TRUE(WaitFor([&] { return started.load(); }));
  std::vector<int> order;
  std::mutex order_mu;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(tag);
  };
  sched.Submit([&, tag = 1] { record(tag); });
  sched.Submit([&, tag = 2] { record(tag); });
  sched.SubmitUrgent([&, tag = 0] { record(tag); });
  release.set_value();
  EXPECT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size() == 3;
  }));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// The MorselScan contract, for one- and multi-partition lists on one slot
// and on more slots than pool workers: every chunk of every partition is
// claimed by exactly one slot, one slot runs inline on the caller, and
// each slot's end hook runs on that slot's own thread before the call
// returns.
TEST(MorselScan, DriverContract) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  std::vector<Table> tables;
  tables.reserve(3);
  for (int p = 0; p < 3; ++p) {
    // Rows [0, 5000) split over chunks of 512: ten chunks per partition,
    // the last one partial; partition 1 is frozen.
    tables.push_back(MakeTestTable(5000, 512, /*delete_every=*/0,
                                   /*freeze=*/p == 1));
  }
  for (unsigned num_parts : {1u, 3u}) {
    std::vector<const Table*> parts;
    for (unsigned p = 0; p < num_parts; ++p) parts.push_back(&tables[p]);
    for (unsigned slots : {1u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << num_parts << " partitions, " << slots << " slots");
      const std::thread::id caller = std::this_thread::get_id();
      const uint64_t tasks_before = sched.tasks_run();
      // claims[p][id] = times row `id` was produced, owner[p][id] = the
      // slot that produced it (the id column holds the insert index, so
      // id / 512 is the row's chunk).
      std::mutex mu;
      std::vector<std::vector<int>> claims(num_parts,
                                           std::vector<int>(5000, 0));
      std::vector<std::vector<unsigned>> owner(num_parts,
                                               std::vector<unsigned>(5000));
      std::vector<std::set<std::thread::id>> batch_threads(slots);
      std::vector<std::thread::id> end_thread(slots);
      std::vector<int> ends(slots, 0);
      MorselScan(
          parts,
          DataBlocksSpec({0}, slots, &sched),
          [&](unsigned slot, const Batch& b, unsigned p) {
            std::lock_guard<std::mutex> lock(mu);
            batch_threads[slot].insert(std::this_thread::get_id());
            EXPECT_EQ(ends[slot], 0) << "batch after the slot ended";
            for (uint32_t i = 0; i < b.count; ++i) {
              const size_t id = size_t(b.cols[0].i64[i]);
              ++claims[p][id];
              owner[p][id] = slot;
            }
          },
          [&](unsigned slot) {
            std::lock_guard<std::mutex> lock(mu);
            ++ends[slot];
            end_thread[slot] = std::this_thread::get_id();
          });
      for (unsigned p = 0; p < num_parts; ++p) {
        for (size_t id = 0; id < 5000; ++id) {
          ASSERT_EQ(claims[p][id], 1) << "partition " << p << " row " << id;
          ASSERT_EQ(owner[p][id], owner[p][id / 512 * 512])
              << "partition " << p << " chunk " << id / 512
              << " split across slots";
        }
      }
      for (unsigned slot = 0; slot < slots; ++slot) {
        EXPECT_EQ(ends[slot], 1) << "slot " << slot;
        EXPECT_LE(batch_threads[slot].size(), 1u) << "slot " << slot;
        if (!batch_threads[slot].empty()) {
          EXPECT_EQ(*batch_threads[slot].begin(), end_thread[slot]);
        }
      }
      // Slot 0 always runs on the caller.
      EXPECT_EQ(end_thread[0], caller);
      if (slots == 1) {
        EXPECT_EQ(sched.tasks_run(), tasks_before);
      }
    }
  }
}

TEST(MorselScan, SlotExceptionRethrownAfterAllSlotsJoin) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  Table t = MakeTestTable(20000, 1024);
  for (unsigned slots : {1u, 8u}) {
    std::atomic<int> ended{0};
    bool thrown = false;
    try {
      MorselScan(
          {&t},
          DataBlocksSpec({0}, slots, &sched),
          [&](unsigned, const Batch& b, unsigned) {
            // Exactly one slot scans chunk 5.
            if (b.cols[0].i64[0] == 5 * 1024) {
              throw std::runtime_error("scan fault");
            }
          },
          [&](unsigned) { ended.fetch_add(1); });
    } catch (const std::runtime_error& e) {
      thrown = true;
      EXPECT_STREQ(e.what(), "scan fault");
    }
    EXPECT_TRUE(thrown) << slots << " slots";
    // Every slot ended — the thrower too — before the call returned.
    EXPECT_EQ(ended.load(), int(slots)) << slots << " slots";
  }
}

TEST(MorselScan, ThrowingSlotReleasesItsDenseRunLock) {
  // A slot that throws while its PartitionedDense sink holds a partition's
  // run lock must release it in its end hook: otherwise a sibling flushing
  // into that partition would wait forever and the call never return.
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  Table t = MakeTestTable(64 * 1024, 1024);
  const size_t kDomain = 64;  // one lock partition: every sink run-locks it
  const unsigned kSlots = 4;
  for (int round = 0; round < 10; ++round) {
    PartitionedDense<int64_t, int64_t, ApplyAdd> state(kDomain, kSlots);
    auto produce = [&](auto& sink, const Batch& b) {
      for (uint32_t i = 0; i < b.count; ++i) sink.Add(size_t(i) % kDomain, 1);
    };
    // Six 1024-row batches overflow the 4096-entry spill buffer once, so
    // the throwing slot holds the run lock when it throws.
    std::vector<int> batches(kSlots, 0);
    std::atomic<bool> fired{false};
    EXPECT_THROW(
        MorselScan(
            {&t},
            DataBlocksSpec({0}, kSlots, &sched),
            [&](unsigned slot, const Batch& b, unsigned) {
              produce(state.sink(slot), b);
              if (++batches[slot] == 6 && !fired.exchange(true)) {
                throw std::runtime_error("scan fault");
              }
            },
            [&](unsigned slot) { state.sink(slot).Flush(); }),
        std::runtime_error);
    EXPECT_TRUE(fired.load());
  }
}

TEST(MorselScan, MoreSlotsThanWorkers) {
  Table t = MakeTestTable(20000, 1024, /*delete_every=*/7, /*freeze=*/true);
  ScanResult expect = FullScan(t);
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  std::vector<ScanResult> states(8);
  MorselScan({&t},
             DataBlocksSpec({0, 1, 2}, 8, &sched),
             [&](unsigned slot, const Batch& b, unsigned) {
               for (uint32_t i = 0; i < b.count; ++i) {
                 ++states[slot].count;
                 states[slot].sum += b.cols[0].i64[i] + b.cols[1].i32[i];
               }
             });
  int64_t count = 0, sum = 0;
  for (const ScanResult& s : states) {
    count += s.count;
    sum += s.sum;
  }
  EXPECT_EQ(count, expect.count);
  EXPECT_EQ(sum, expect.sum);
}

// A program that starts the process-wide pool before it first touches the
// metrics registry, with a task still running when main returns: the
// static destructors at exit must join the pool's workers before the
// registry and the trace ring they write to are destroyed. The child
// re-executes this binary ("threadsafe" style), so the statics start
// unconstructed there regardless of what earlier tests did.
TEST(SchedulerDeathTest, DefaultPoolExitsCleanlyWithTaskInFlight) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        Scheduler& pool = Scheduler::Default();
        TaskGroup warmup(&pool);
        for (int i = 0; i < 8; ++i) warmup.Run([] {});
        warmup.Wait();
        obs::MetricsRegistry::Default().GetCounter("test.exit_order");
        std::promise<void> started;
        pool.Submit([&started] {
          started.set_value();
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          obs::TraceRing::Default().Publish("test", "exit_order", 0, 0);
        });
        started.get_future().wait();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Scheduler, PeriodicTasksFireUntilRemoved) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  std::atomic<int> fired{0};
  uint64_t id = sched.AddPeriodic(
      std::chrono::milliseconds(2),
      [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(WaitFor([&] { return fired.load() >= 3; }));
  sched.RemovePeriodic(id);
  const int after_remove = fired.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired.load(), after_remove);  // never fires again
  sched.RemovePeriodic(id);               // idempotent
}

TEST(Scheduler, LifecycleTicksRunOnTheSharedPool) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  Table t = MakeTestTable(1024, 256);
  const std::string path = "/tmp/datablocks_scheduler_lifecycle.dbar";
  {
    LifecycleConfig cfg;
    cfg.cold_threshold = 0;
    cfg.freeze_after_cold_epochs = 2;
    cfg.decay_shift = 32;
    cfg.tick_interval = std::chrono::milliseconds(1);
    cfg.scheduler = &sched;
    LifecycleManager mgr(&t, path, cfg);
    EXPECT_FALSE(mgr.running());
    mgr.Start();
    EXPECT_TRUE(mgr.running());
    // Ticks advance (on pool workers — no dedicated thread) and the policy
    // still freezes cooled-down chunks.
    EXPECT_TRUE(WaitFor([&] { return mgr.stats().epochs >= 4; }));
    EXPECT_TRUE(WaitFor([&] { return mgr.stats().freezes >= 3; }));
    mgr.Stop();
    EXPECT_FALSE(mgr.running());
    const uint64_t epochs = mgr.stats().epochs;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(mgr.stats().epochs, epochs);  // no tick after Stop
  }
  std::remove(path.c_str());
}

// Every TPC-H query must produce identical results through the parallel
// pipelines (per-worker states merged in slot order) as through the
// sequential reference path — on hot chunks and on Data Blocks.
class ParallelTpch : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.chunk_capacity = 4096;  // several morsels per table
    db_ = tpch::MakeTpch(cfg).release();
    frozen_ = tpch::MakeTpch(cfg).release();
    frozen_->FreezeAll();
    sched_ = new Scheduler(Scheduler::Options{.num_workers = 3});
  }
  static void TearDownTestSuite() {
    delete db_;
    delete frozen_;
    delete sched_;
    db_ = nullptr;
    frozen_ = nullptr;
    sched_ = nullptr;
  }
  static tpch::TpchDatabase* db_;
  static tpch::TpchDatabase* frozen_;
  static Scheduler* sched_;
};

tpch::TpchDatabase* ParallelTpch::db_ = nullptr;
tpch::TpchDatabase* ParallelTpch::frozen_ = nullptr;
Scheduler* ParallelTpch::sched_ = nullptr;

TEST_P(ParallelTpch, MatchesSequentialResults) {
  const int q = GetParam();
  struct Config {
    const tpch::TpchDatabase* db;
    ScanMode mode;
    const char* label;
  };
  const Config configs[2] = {
      {db_, ScanMode::kVectorizedSarg, "hot +SARG"},
      {frozen_, ScanMode::kDataBlocksPsma, "frozen +PSMA"},
  };
  for (const Config& c : configs) {
    tpch::ScanOptions seq;
    seq.mode = c.mode;
    tpch::QueryResult ref = tpch::RunQuery(q, *c.db, seq);
    for (unsigned threads : {3u, 8u}) {
      tpch::ScanOptions par = seq;
      par.ctx.threads = threads;
      par.ctx.scheduler = sched_;
      EXPECT_EQ(tpch::RunQuery(q, *c.db, par).rows, ref.rows)
          << c.label << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ParallelTpch, ::testing::Range(1, 23));

// Parallel queries racing the block lifecycle: scans through the worker
// pool while scheduler-backed ticks freeze, evict, compact and tombstone
// underneath them. Results must stay exact throughout, and the fully
// deleted chunks must eventually be reclaimed from the archive.
TEST(Scheduler, ParallelQueriesVsEvictionAndCompactionStress) {
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  Table t = MakeTestTable(12288, 1024);  // 12 chunks
  t.FreezeAll();
  const std::string path = "/tmp/datablocks_scheduler_stress.dbar";
  {
    LifecycleConfig cfg;
    cfg.cold_threshold = 0;
    cfg.freeze_after_cold_epochs = 2;
    cfg.decay_shift = 32;
    cfg.memory_budget_bytes = (t.FrozenBytes() / 12) * 3;
    cfg.tick_interval = std::chrono::milliseconds(1);
    cfg.compact_garbage_ratio = 0.25;
    cfg.scheduler = &sched;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // adopt every frozen chunk, evict down to ~3 resident
    // Fully delete 5 of 12 chunks: ticks will tombstone them and compact
    // the archive while the parallel scans below are in flight.
    for (size_t c = 0; c < 5; ++c)
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r) t.Delete(MakeRowId(c, r));
    const int64_t expect_count = 7 * 1024;
    mgr.Start();

    std::atomic<bool> failed{false};
    auto parallel_scan_count = [&] {
      std::atomic<int64_t> total{0};
      MorselScan({&t},
                 DataBlocksSpec({0, 1}, 3, &sched),
                 [&](unsigned, const Batch& b, unsigned) {
                   total.fetch_add(b.count, std::memory_order_relaxed);
                 });
      return total.load();
    };
    // The scan slots, the point reader and the lifecycle ticks all share
    // the 3-worker pool (plus this thread and the reader thread).
    std::thread point_reader([&] {
      Rng rng(23);
      for (int i = 0; i < 1500; ++i) {
        uint64_t chunk = uint64_t(rng.Uniform(5, 11));
        uint32_t row = uint32_t(rng.Uniform(0, 1023));
        if (t.GetInt(MakeRowId(chunk, row), 0) !=
            int64_t(chunk) * 1024 + row) {
          failed = true;
        }
      }
    });
    for (int i = 0; i < 8; ++i) {
      if (parallel_scan_count() != expect_count) failed = true;
    }
    point_reader.join();
    mgr.Stop();
    EXPECT_FALSE(failed.load());

    // Quiesced now: whatever the racing ticks could not tombstone (chunks
    // transiently pinned by the scans) is reclaimed by one explicit pass.
    mgr.CompactArchive();
    LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.tombstoned, 5u);
    EXPECT_EQ(s.reclaimed_blocks, 5u);
    EXPECT_GE(s.compactions, 1u);
    EXPECT_EQ(parallel_scan_count(), expect_count);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datablocks
