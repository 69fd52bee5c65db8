// Repository benchmark program. Runs one workload against the engine's public
// API and writes the raw measurements (latency samples, counters, memory,
// result checksums) as one JSON object to --out; perfbench/run.py turns
// them into the reported metrics. With --trace 1 the timed phase alternates
// untraced and traced slices; the traced slices record a span around every
// call this file makes into an engine layer, and the spans are written to
// --trace-out once, at exit. Nothing inside the engine is instrumented for
// this: the per-layer counters come from what the engine already exports
// (obs::QueryProfile, obs::MetricsRegistry, LifecycleStats, serve::Response,
// obs::TraceRing).
//
// Workloads (perfbench/NOTES.md records why each exists):
//   tpch_frozen   SF 0.2, all tables frozen, one closed-loop client running
//                 seed-permuted streams of the 22 queries; between queries
//                 the same client runs order lookups (point access).
//   tpch_evicted  the same, with lineitem and orders under a lifecycle
//                 manager whose budget is 25% of the table's frozen bytes;
//                 the client ticks both managers after every step.
//   htap_serve    serve::Server with 2 TPC-C terminals (tpcc.mixed, kOltp,
//                 2 warehouses, lifecycle on) and 2 TPC-H streams (tpch.qN,
//                 kOlap) against a frozen SF 0.2 instance.
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  --tmpdir DIR --out FILE [--trace-out FILE]

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/partitioned_agg.h"
#include "exec/scheduler.h"
#include "lifecycle/lifecycle_manager.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "tpcc/tpcc_db.h"
#include "tpch/queries.h"
#include "util/rng.h"

using namespace datablocks;

namespace {

constexpr int kQueries = 22;
constexpr double kScaleFactor = 0.2;
constexpr int kWarehouses = 2;
constexpr int kLookupsPerStep = 2;  // order lookups after each query
constexpr double kEvictBudgetShare = 0.25;
constexpr int kSetups = 3;  // set-ups per run; setup_s is their median

uint64_t NowNs() { return obs::MonotonicNs(); }

/// Distinct, seed-determined sub-seeds for each generated input.
uint64_t Derive(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + tag * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) h = (h ^ uint8_t(c)) * 1099511628211ull;
  return h;
}

uint64_t RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? uint64_t(resident) * 4096 : 0;
}

/// Returns freed heap pages to the kernel, so RSS after a discarded
/// set-up reflects only what the run still holds.
void TrimHeap() { malloc_trim(0); }

/// Summed stats of several lifecycle managers (the fields this file reads).
LifecycleStats SumStats(const std::vector<LifecycleManager*>& managers) {
  LifecycleStats s;
  for (const LifecycleManager* m : managers) {
    const LifecycleStats st = m->stats();
    s.freezes += st.freezes;
    s.evictions += st.evictions;
    s.reloads += st.reloads;
    s.archive_reads += st.archive_reads;
    s.resident_bytes += st.resident_bytes;
    s.archive_bytes += st.archive_bytes;
    s.summary_bytes += st.summary_bytes;
  }
  return s;
}

/// Hot and resident frozen bytes of `tables`.
void TableBytes(const std::vector<const Table*>& tables, uint64_t* hot,
                uint64_t* frozen) {
  *hot = *frozen = 0;
  for (const Table* t : tables) {
    *hot += t->HotBytes();
    *frozen += t->FrozenBytes();
  }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint64_t req = 0;     // request id shared by one request's spans
  std::string name;     // "<layer>.<what>"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// In-memory span store. Recording is on only while `enabled()`; spans are
/// kept until WriteJsonl at exit.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(SpanRecord s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"req\":%" PRIu64
                   ",\"name\":\"%s\",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 "}\n",
                   s.id, s.parent, s.req, s.name.c_str(), s.start_ns,
                   s.end_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;

/// Records one span from construction to destruction when `on`.
class ScopedSpan {
 public:
  ScopedSpan(bool on, const char* name, uint32_t parent, uint64_t req)
      : on_(on), name_(name), parent_(parent), req_(req) {
    if (on_) {
      id_ = g_tracer.NextId();
      start_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (on_) g_tracer.Add({id_, parent_, req_, name_, start_ns_, NowNs()});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }
  uint64_t start_ns() const { return start_ns_; }

 private:
  const bool on_;
  const char* name_;
  uint32_t parent_;
  uint64_t req_;
  uint32_t id_ = 0;
  uint64_t start_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

/// Per-query sums over the QueryProfiles of traced RunQuery calls.
struct ProfileSums {
  uint64_t queries = 0;
  uint64_t wall_ns = 0;        // sum of pipeline wall times
  uint64_t slot_wall_ns = 0;   // sum of slots x pipeline wall
  uint64_t busy_ns = 0;        // sum of worker busy time
  uint64_t merge_ns = 0;
  uint64_t morsels = 0, batches = 0, code_batches = 0;
  uint64_t rows_in = 0, rows_out = 0;
  uint64_t chunks_scanned = 0, chunks_pruned = 0, evicted_pruned = 0;
  uint64_t archive_reloads = 0;
};

/// Everything a run measures; guarded by `mu` where clients run
/// concurrently.
struct Results {
  std::mutex mu;
  std::vector<double> setup_s, dbgen_s, freeze_s, load_s, archive_s;
  double timed_s = 0;
  // OLAP: one entry per completed query.
  std::vector<int> olap_q;
  std::vector<uint64_t> olap_ns;        // client-observed latency
  std::vector<uint64_t> olap_queue_ns;  // htap_serve only
  std::vector<uint8_t> olap_traced;
  std::vector<int> runquery_q;          // RunQuery wall time per query
  std::vector<uint64_t> runquery_ns;
  std::vector<uint8_t> runquery_traced;
  uint64_t olap_busy_ns = 0;  // single-client workloads: time in queries
  // OLTP: one entry per completed transaction.
  std::vector<uint64_t> oltp_ns;
  std::vector<uint64_t> oltp_queue_ns, oltp_exec_ns;  // htap_serve only
  std::vector<uint8_t> oltp_traced;
  uint64_t oltp_busy_ns = 0;  // single-client workloads: time in lookups
  std::vector<uint64_t> txn_ns[5];      // by TPC-C transaction type
  std::vector<uint64_t> lock_wait_ns;
  std::vector<uint64_t> tick_ns;
  // Sampled during the timed phase; the medians are reported.
  std::vector<double> data_bytes, rss_bytes;
  // Outcome of every attempted operation and check, by kind: "ok",
  // "wrong", "error", "rejected", "timed_out", "shutdown", "inconsistent".
  std::map<std::string, uint64_t> outcomes;
  std::vector<std::string> failures;  // first few messages
  std::map<int, ProfileSums> profile;
  std::map<int, uint64_t> checksums;
  // Counters and sizes at the end of the timed phase.
  std::map<std::string, double> values;

  void Ok() { ++outcomes["ok"]; }
  void Fail(const std::string& kind, const std::string& msg) {
    ++outcomes[kind];
    if (failures.size() < 8) failures.push_back(kind + ": " + msg);
  }
  bool AllOk() const {
    for (const auto& [kind, n] : outcomes)
      if (kind != "ok" && n > 0) return false;
    return true;
  }
};

void AddProfile(const obs::QueryProfile& profile, unsigned slots,
                ProfileSums* sums) {
  ++sums->queries;
  for (size_t i = 0; i < profile.num_pipelines(); ++i) {
    const obs::PipelineProfile* p = profile.pipeline(i);
    const obs::PipelineProfile::Totals t = p->totals();
    sums->wall_ns += t.wall_ns;
    sums->slot_wall_ns += t.wall_ns * slots;
    for (const obs::WorkerProfile& w : p->workers()) sums->busy_ns += w.busy_ns;
    sums->merge_ns += t.merge_ns;
    sums->morsels += t.morsels;
    sums->batches += t.batches;
    sums->code_batches += t.code_batches;
    sums->rows_in += t.rows_in;
    sums->rows_out += t.rows_out;
    sums->chunks_scanned += t.chunks_scanned;
    sums->chunks_pruned += t.chunks_pruned;
    sums->evicted_pruned += t.evicted_chunks_pruned;
    sums->archive_reloads += t.archive_reloads;
  }
}

/// Adds the profile's pipelines (and their merge steps) as child spans of
/// the RunQuery span `parent`. QueryProfile exports each pipeline's
/// duration but not its start, so the pipelines are laid out back to back
/// from the query's start in creation order. A query's pipelines run one
/// after another on the calling thread, so durations and containment —
/// all that self time depends on — are preserved.
void AddPipelineSpans(const obs::QueryProfile& profile, uint32_t parent,
                      uint64_t req, uint64_t start_ns) {
  uint64_t cursor = start_ns;
  for (size_t i = 0; i < profile.num_pipelines(); ++i) {
    const obs::PipelineProfile::Totals t = profile.pipeline(i)->totals();
    const uint32_t id = g_tracer.NextId();
    g_tracer.Add({id, parent, req, "exec.pipeline", cursor,
                  cursor + t.wall_ns});
    if (t.merge_ns > 0) {
      g_tracer.Add({g_tracer.NextId(), id, req, "exec.merge",
                    cursor + t.wall_ns - t.merge_ns, cursor + t.wall_ns});
    }
    cursor += t.wall_ns;
  }
}

struct QueryRun {
  std::string result;
  uint64_t wall_ns = 0;
};

/// One RunQuery call; when `traced`, records a tpch.query span with its
/// profile's pipelines as children and folds the profile into `results`.
QueryRun RunTpchQuery(int q, const tpch::TpchDatabase& db, bool traced,
                      uint32_t parent, uint64_t req, Results* results) {
  tpch::ScanOptions opt;
  opt.mode = ScanMode::kDataBlocksPsma;
  opt.ctx.threads = 0;  // one slot per scheduler worker
  std::unique_ptr<obs::QueryProfile> profile;
  if (traced) {
    profile = std::make_unique<obs::QueryProfile>("Q" + std::to_string(q));
    opt.ctx.profile = profile.get();
  }
  QueryRun run;
  uint32_t span_id = 0;
  uint64_t span_start = 0;
  {
    ScopedSpan span(traced, "tpch.query", parent, req);
    span_id = span.id();
    span_start = span.start_ns();
    const uint64_t t0 = NowNs();
    run.result = tpch::RunQuery(q, db, opt).ToString();
    run.wall_ns = NowNs() - t0;
  }
  const unsigned slots = EffectiveThreads(0, nullptr);
  std::lock_guard<std::mutex> lock(results->mu);
  results->runquery_q.push_back(q);
  results->runquery_ns.push_back(run.wall_ns);
  results->runquery_traced.push_back(traced ? 1 : 0);
  if (traced) {
    profile->Finish();
    AddPipelineSpans(*profile, span_id, req, span_start);
    AddProfile(*profile, slots, &results->profile[q]);
  }
  return run;
}

/// Seed-permuted order of the 22 queries for one stream.
std::vector<int> StreamOrder(Rng& rng) {
  std::vector<int> order(kQueries);
  std::iota(order.begin(), order.end(), 1);
  for (int i = kQueries - 1; i > 0; --i)
    std::swap(order[size_t(i)], order[size_t(rng.Uniform(0, i))]);
  return order;
}

// ---------------------------------------------------------------------------
// TPC-H worlds (tpch_frozen, tpch_evicted)
// ---------------------------------------------------------------------------

std::vector<const Table*> TpchTables(const tpch::TpchDatabase& db) {
  return {&db.region,   &db.nation,   &db.supplier, &db.customer,
          &db.part,     &db.partsupp, &db.orders,   &db.lineitem};
}

struct TpchWorld {
  explicit TpchWorld(std::string archive_dir) : dir(std::move(archive_dir)) {}
  /// Restores and detaches the tables, then deletes this world's archives.
  ~TpchWorld() {
    managers.clear();
    std::filesystem::remove_all(dir);
  }
  TpchWorld(const TpchWorld&) = delete;
  TpchWorld& operator=(const TpchWorld&) = delete;

  const std::string dir;
  std::unique_ptr<tpch::TpchDatabase> db;
  std::vector<uint32_t> lineitem_start;  // orders ordinal -> first lineitem
  uint64_t uncompressed_bytes = 0;
  uint64_t frozen_bytes = 0;
  uint64_t managed_frozen_bytes = 0;  // lineitem + orders, before eviction
  std::vector<std::unique_ptr<LifecycleManager>> managers;

  std::vector<LifecycleManager*> manager_ptrs() const {
    std::vector<LifecycleManager*> out;
    for (const auto& m : managers) out.push_back(m.get());
    return out;
  }
  /// Hot + resident frozen + resident summary bytes of all tables.
  uint64_t DataBytes(uint64_t* hot, uint64_t* frozen) const {
    TableBytes(TpchTables(*db), hot, frozen);
    return *hot + *frozen + SumStats(manager_ptrs()).summary_bytes;
  }
};

RowId RowOf(const Table& t, uint64_t row) {
  return MakeRowId(row / t.chunk_capacity(), uint32_t(row % t.chunk_capacity()));
}

/// Point access to one order and its lineitems. Checks them against each
/// other: the generator sets o_totalprice from the order's lineitems.
bool OrderLookup(const TpchWorld& w, int64_t ordinal, std::string* why) {
  namespace oc = tpch::col::orders;
  namespace lc = tpch::col::lineitem;
  const tpch::TpchDatabase& db = *w.db;
  const RowId orow = RowOf(db.orders, uint64_t(ordinal));
  const int64_t okey = db.orders.GetInt(orow, oc::orderkey);
  const int64_t total = db.orders.GetInt(orow, oc::totalprice);
  int64_t sum = 0;
  const uint32_t begin = w.lineitem_start[size_t(ordinal)];
  const uint32_t end = w.lineitem_start[size_t(ordinal) + 1];
  for (uint32_t r = begin; r < end; ++r) {
    const RowId lrow = RowOf(db.lineitem, r);
    if (db.lineitem.GetInt(lrow, lc::orderkey) != okey ||
        db.lineitem.GetInt(lrow, lc::linenumber) != int64_t(r - begin + 1)) {
      *why = "lineitem row does not belong to order " + std::to_string(okey);
      return false;
    }
    sum += db.lineitem.GetInt(lrow, lc::extendedprice) *
           (100 - db.lineitem.GetInt(lrow, lc::discount)) *
           (100 + db.lineitem.GetInt(lrow, lc::tax)) / 10000;
  }
  if (okey != 4 * (ordinal + 1) || sum != total || begin == end) {
    *why = "order " + std::to_string(okey) + " totalprice mismatch";
    return false;
  }
  return true;
}

/// Generates, indexes and freezes SF 0.2; with `evict`, attaches the
/// lifecycle managers and evicts down to the budget.
std::unique_ptr<TpchWorld> SetupTpch(uint64_t seed, bool evict,
                                     const std::string& tmpdir, int setup_no,
                                     Results* results) {
  auto w = std::make_unique<TpchWorld>(tmpdir + "/setup" +
                                       std::to_string(setup_no));
  std::filesystem::create_directories(w->dir);
  const bool traced = g_tracer.enabled();
  tpch::TpchConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.seed = Derive(seed, 1);
  uint64_t t0 = NowNs();
  {
    ScopedSpan span(traced, "storage.dbgen", 0, 0);
    w->db = tpch::MakeTpch(cfg);
  }
  results->dbgen_s.push_back(double(NowNs() - t0) / 1e9);
  w->uncompressed_bytes = w->db->TotalBytes();
  {
    // Orders ordinal o owns lineitem rows [start[o], start[o + 1]).
    const Table& li = w->db->lineitem;
    w->lineitem_start.assign(size_t(w->db->NumOrders()) + 1, 0);
    for (uint64_t r = 0; r < li.num_rows(); ++r) {
      const int64_t o = tpch::detail::OrderIdx(
          li.GetInt(RowOf(li, r), tpch::col::lineitem::orderkey));
      ++w->lineitem_start[size_t(o) + 1];
    }
    std::partial_sum(w->lineitem_start.begin(), w->lineitem_start.end(),
                     w->lineitem_start.begin());
  }
  t0 = NowNs();
  {
    ScopedSpan span(traced, "storage.freeze", 0, 0);
    w->db->FreezeAll();
  }
  results->freeze_s.push_back(double(NowNs() - t0) / 1e9);
  uint64_t hot;
  w->DataBytes(&hot, &w->frozen_bytes);
  w->managed_frozen_bytes =
      w->db->lineitem.FrozenBytes() + w->db->orders.FrozenBytes();
  if (evict) {
    t0 = NowNs();
    ScopedSpan span(traced, "lifecycle.archive", 0, 0);
    for (Table* t : {&w->db->lineitem, &w->db->orders}) {
      LifecycleConfig lc;
      lc.memory_budget_bytes =
          uint64_t(double(t->FrozenBytes()) * kEvictBudgetShare);
      w->managers.push_back(std::make_unique<LifecycleManager>(
          t, w->dir + "/" + t->name() + ".dbar", lc));
    }
    for (auto& m : w->managers) m->Tick();
    results->archive_s.push_back(double(NowNs() - t0) / 1e9);
  }
  return w;
}

/// Tpch workloads: one closed-loop client. Each step runs one query, checks
/// it, runs kLookupsPerStep order lookups and, when evicting, ticks the
/// managers so the next query starts at the budget.
class TpchBench {
 public:
  TpchBench(uint64_t seed, bool evict, const std::string& tmpdir,
            Results* results)
      : seed_(seed), evict_(evict), tmpdir_(tmpdir), r_(results) {}

  /// Set-up `setups` times (each timed, each warmed up); keeps the last.
  bool Setup(int setups, bool trace) {
    for (int i = 0; i < setups; ++i) {
      world_.reset();
      TrimHeap();
      g_tracer.set_enabled(trace && i == setups - 1);
      const uint64_t t0 = NowNs();
      world_ = SetupTpch(seed_, evict_, tmpdir_, i, r_);
      // Warm-up: the scheduler's lazy start and every query's first pass.
      for (int q = 1; q <= kQueries; ++q) {
        const QueryRun run = RunTpchQuery(q, *world_->db, false, 0, 0, r_);
        const uint64_t sum = Fnv1a(run.result);
        if (i == 0) r_->checksums[q] = sum;
        if (r_->checksums[q] != sum) {
          r_->Fail("wrong", "Q" + std::to_string(q) + " differs between set-ups");
          return false;
        }
        Tick();
      }
      r_->setup_s.push_back(double(NowNs() - t0) / 1e9);
      g_tracer.set_enabled(false);
    }
    r_->runquery_q.clear();
    r_->runquery_ns.clear();
    r_->runquery_traced.clear();
    r_->tick_ns.clear();
    return true;
  }

  void Run(double seconds, bool trace) {
    Rng order_rng(Derive(seed_, 2));
    Rng lookup_rng(Derive(seed_, 3));
    const int64_t orders = world_->db->NumOrders();
    const LifecycleStats before = SumStats(world_->manager_ptrs());
    const uint64_t steals0 = Scheduler::Default().steals();
    aggstate::ResetPeaks();
    const uint64_t start = NowNs();
    const uint64_t deadline = start + uint64_t(seconds * 1e9);
    uint64_t req = 0;
    for (int stream = 0; NowNs() < deadline; ++stream) {
      // --trace 1 alternates untraced and traced streams.
      const bool traced = trace && (stream % 2 == 1);
      g_tracer.set_enabled(traced);
      for (int q : StreamOrder(order_rng)) {
        if (NowNs() >= deadline) break;
        ++req;
        const QueryRun run = RunTpchQuery(q, *world_->db, traced, 0, req, r_);
        r_->olap_q.push_back(q);
        r_->olap_ns.push_back(run.wall_ns);
        r_->olap_traced.push_back(traced ? 1 : 0);
        r_->olap_busy_ns += run.wall_ns;
        if (Fnv1a(run.result) == r_->checksums[q]) {
          r_->Ok();
        } else {
          r_->Fail("wrong", "Q" + std::to_string(q) + " result changed");
        }
        for (int l = 0; l < kLookupsPerStep; ++l) {
          ++req;
          const int64_t ordinal = lookup_rng.Uniform(0, orders - 1);
          std::string why;
          bool ok;
          const uint64_t t0 = NowNs();
          {
            ScopedSpan span(traced, "storage.lookup", 0, req);
            ok = OrderLookup(*world_, ordinal, &why);
          }
          const uint64_t ns = NowNs() - t0;
          r_->oltp_ns.push_back(ns);
          r_->oltp_traced.push_back(traced ? 1 : 0);
          r_->oltp_busy_ns += ns;
          if (ok) {
            r_->Ok();
          } else {
            r_->Fail("wrong", why);
          }
        }
        Tick(traced, req);
      }
      SampleMemory();
    }
    r_->timed_s = double(NowNs() - start) / 1e9;
    g_tracer.set_enabled(false);
    r_->values["scheduler_steals"] =
        double(Scheduler::Default().steals() - steals0);
    r_->values["agg_peak_bytes"] =
        double(aggstate::GetStats().peak_total_bytes);
    RecordEndState(before);
  }

 private:
  void SampleMemory() {
    uint64_t hot, frozen;
    r_->data_bytes.push_back(double(world_->DataBytes(&hot, &frozen)));
    r_->rss_bytes.push_back(double(RssBytes()));
  }

  void Tick(bool traced = false, uint64_t req = 0) {
    if (world_->managers.empty()) return;
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(traced, "lifecycle.tick", 0, req);
      for (auto& m : world_->managers) m->Tick();
    }
    r_->tick_ns.push_back(NowNs() - t0);
  }

  void RecordEndState(const LifecycleStats& before) {
    uint64_t hot, frozen;
    world_->DataBytes(&hot, &frozen);
    const LifecycleStats after = SumStats(world_->manager_ptrs());
    auto& v = r_->values;
    v["hot_bytes"] = double(hot);
    v["frozen_bytes"] = double(frozen);
    v["summary_bytes"] = double(after.summary_bytes);
    v["uncompressed_bytes"] = double(world_->uncompressed_bytes);
    v["frozen_after_freeze_bytes"] = double(world_->frozen_bytes);
    v["lifecycle_resident_bytes"] = double(after.resident_bytes);
    v["lifecycle_archive_bytes"] = double(after.archive_bytes);
    v["lifecycle_frozen_bytes"] =
        double(world_->managers.empty() ? 0 : world_->managed_frozen_bytes);
    v["lifecycle_evictions"] = double(after.evictions - before.evictions);
    v["lifecycle_reloads"] = double(after.reloads - before.reloads);
    v["lifecycle_archive_reads"] =
        double(after.archive_reads - before.archive_reads);
    v["lifecycle_freezes"] = double(after.freezes - before.freezes);
  }

  const uint64_t seed_;
  const bool evict_;
  const std::string tmpdir_;
  Results* const r_;
  std::unique_ptr<TpchWorld> world_;
};

// ---------------------------------------------------------------------------
// htap_serve
// ---------------------------------------------------------------------------

/// Request args: "<request id> <parent span id>"; parent 0 = untraced.
std::string CallArgs(uint64_t req, uint32_t parent) {
  return std::to_string(req) + " " + std::to_string(parent);
}

void ParseArgs(std::string_view args, uint64_t* req, uint32_t* parent) {
  *req = 0;
  *parent = 0;
  std::sscanf(std::string(args).c_str(), "%" SCNu64 " %u", req, parent);
}

struct HtapWorld {
  explicit HtapWorld(std::string archive_dir) : dir(std::move(archive_dir)) {}
  /// Stops the background ticks and the server, restores and detaches the
  /// TPC-C tables, then deletes this world's archives.
  ~HtapWorld() {
    if (oltp != nullptr) oltp->StopLifecycle();
    if (server != nullptr) server->Shutdown();
    oltp.reset();
    std::filesystem::remove_all(dir);
  }
  HtapWorld(const HtapWorld&) = delete;
  HtapWorld& operator=(const HtapWorld&) = delete;

  const std::string dir;
  // Declared before `oltp` so it outlives the lifecycle managers publishing
  // to it.
  std::unique_ptr<obs::TraceRing> ring;
  std::unique_ptr<tpcc::TpccDatabase> oltp;
  std::unique_ptr<tpch::TpchDatabase> olap;
  uint64_t uncompressed_bytes = 0;
  uint64_t frozen_bytes = 0;
  std::unique_ptr<serve::Server> server;
  // The OLTP lane: TPC-C transactions are single-threaded, so requests
  // serialize on one commit lock inside the handler, as in bench_serve.
  std::mutex commit_mu;
  std::unique_ptr<Rng> oltp_rng;
};

class HtapBench {
 public:
  HtapBench(uint64_t seed, const std::string& tmpdir, Results* results)
      : seed_(seed), tmpdir_(tmpdir), r_(results) {}

  bool Setup(int setups, bool trace) {
    for (int i = 0; i < setups; ++i) {
      world_.reset();
      TrimHeap();
      g_tracer.set_enabled(trace && i == setups - 1);
      const uint64_t t0 = NowNs();
      if (!SetupOnce(i)) return false;
      r_->setup_s.push_back(double(NowNs() - t0) / 1e9);
      g_tracer.set_enabled(false);
    }
    r_->runquery_q.clear();
    r_->runquery_ns.clear();
    r_->runquery_traced.clear();
    for (auto& v : r_->txn_ns) v.clear();
    r_->lock_wait_ns.clear();
    return true;
  }

  void Run(double seconds, bool trace) {
    HtapWorld& w = *world_;
    auto counter = [](const char* name) {
      return obs::MetricsRegistry::Default().GetCounter(name)->Value();
    };
    const uint64_t refused0 =
        counter("serve.rejected") + counter("serve.timed_out");
    const uint64_t steals0 = Scheduler::Default().steals();
    const uint64_t ring0 = w.ring->published();
    const LifecycleStats lc0 = SumStats(w.oltp->lifecycle_managers());
    aggstate::ResetPeaks();
    w.oltp->StartLifecycle();

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> next_req{1};
    std::vector<std::thread> clients;
    const uint64_t start = NowNs();
    for (int c = 0; c < 4; ++c) {
      const bool oltp = c < 2;
      clients.emplace_back([&, c, oltp] {
        auto session = w.server->OpenSession(
            (oltp ? "oltp" : "olap") + std::to_string(c),
            oltp ? serve::Priority::kOltp : serve::Priority::kOlap);
        Rng order_rng(Derive(seed_, 10 + uint64_t(c)));
        std::vector<int> order;
        size_t next = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const bool traced = g_tracer.enabled();
          const uint64_t req = next_req.fetch_add(1);
          int q = 0;
          std::string verb = "tpcc.mixed";
          if (!oltp) {
            if (next == order.size()) {
              order = StreamOrder(order_rng);
              next = 0;
            }
            q = order[next++];
            verb = "tpch.q" + std::to_string(q);
          }
          serve::Response resp;
          {
            ScopedSpan span(traced, "serve.call", 0, req);
            resp = session
                       ->Call(std::move(verb), CallArgs(req, span.id()),
                              oltp ? serve::Priority::kOltp
                                   : serve::Priority::kOlap)
                       .Get();
          }
          Record(oltp, q, traced, resp);
        }
        session->Close();
      });
    }
    // --trace 1 alternates untraced and traced half-second slices.
    const uint64_t deadline = start + uint64_t(seconds * 1e9);
    for (int slice = 0;; ++slice) {
      g_tracer.set_enabled(trace && slice % 2 == 1);
      const uint64_t now = NowNs();
      if (now >= deadline) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<uint64_t>(deadline - now, 500'000'000)));
      r_->rss_bytes.push_back(double(RssBytes()));
    }
    g_tracer.set_enabled(false);
    stop.store(true);
    for (auto& t : clients) t.join();
    r_->timed_s = double(NowNs() - start) / 1e9;
    w.oltp->StopLifecycle();

    auto& v = r_->values;
    v["serve_refused"] = double(counter("serve.rejected") +
                                counter("serve.timed_out") - refused0);
    v["scheduler_steals"] = double(Scheduler::Default().steals() - steals0);
    v["agg_peak_bytes"] = double(aggstate::GetStats().peak_total_bytes);
    const LifecycleStats lc1 = SumStats(w.oltp->lifecycle_managers());
    v["lifecycle_freezes"] = double(lc1.freezes - lc0.freezes);
    v["lifecycle_evictions"] = double(lc1.evictions - lc0.evictions);
    v["lifecycle_reloads"] = double(lc1.reloads - lc0.reloads);
    v["lifecycle_archive_reads"] =
        double(lc1.archive_reads - lc0.archive_reads);
    v["lifecycle_resident_bytes"] = double(lc1.resident_bytes);
    v["lifecycle_archive_bytes"] = double(lc1.archive_bytes);
    v["summary_bytes"] = double(lc1.summary_bytes);
    double managed_frozen = 0;
    for (LifecycleManager* m : w.oltp->lifecycle_managers())
      managed_frozen += double(m->table()->FrozenBytes());
    v["lifecycle_frozen_bytes"] = managed_frozen;
    for (const obs::TraceEvent& e : w.ring->Snapshot()) {
      if (e.seq >= ring0 && std::strcmp(e.name, "tick") == 0)
        r_->tick_ns.push_back(uint64_t(e.b));
    }
    RecordEndState();

    std::string msg;
    if (w.oltp->CheckConsistency(&msg)) {
      r_->Ok();
    } else {
      r_->Fail("inconsistent", "TPC-C consistency: " + msg);
    }
  }

 private:
  bool SetupOnce(int setup_no) {
    world_ = std::make_unique<HtapWorld>(tmpdir_ + "/setup" +
                                         std::to_string(setup_no));
    std::filesystem::create_directories(world_->dir);
    HtapWorld& w = *world_;
    const bool traced = g_tracer.enabled();
    tpcc::TpccConfig cc;
    cc.num_warehouses = kWarehouses;
    cc.seed = Derive(seed_, 4);
    w.oltp = std::make_unique<tpcc::TpccDatabase>(cc);
    uint64_t t0 = NowNs();
    {
      ScopedSpan span(traced, "tpcc.load", 0, 0);
      w.oltp->Load();
    }
    r_->load_s.push_back(double(NowNs() - t0) / 1e9);

    tpch::TpchConfig hc;
    hc.scale_factor = kScaleFactor;
    hc.seed = Derive(seed_, 1);
    t0 = NowNs();
    {
      ScopedSpan span(traced, "storage.dbgen", 0, 0);
      w.olap = tpch::MakeTpch(hc);
    }
    r_->dbgen_s.push_back(double(NowNs() - t0) / 1e9);
    w.uncompressed_bytes = w.olap->TotalBytes();
    t0 = NowNs();
    {
      ScopedSpan span(traced, "storage.freeze", 0, 0);
      w.olap->FreezeAll();
    }
    r_->freeze_s.push_back(double(NowNs() - t0) / 1e9);
    uint64_t hot;
    TableBytes(TpchTables(*w.olap), &hot, &w.frozen_bytes);

    w.server = std::make_unique<serve::Server>();
    // Lifecycle on the four append-mostly TPC-C tables, ticking on the
    // server's scheduler; unlimited budget, so blocks freeze and archive
    // but never evict. The first ticks freeze the loaded cold chunks here,
    // in set-up.
    t0 = NowNs();
    {
      ScopedSpan span(traced, "lifecycle.archive", 0, 0);
      w.ring = std::make_unique<obs::TraceRing>(1 << 16);
      LifecycleConfig lc;
      lc.scheduler = &w.server->scheduler();
      lc.trace = w.ring.get();
      w.oltp->EnableLifecycle(lc, w.dir);
      // Enough epochs for any load-time access clock to decay, so the
      // loaded cold chunks freeze here rather than in the timed phase.
      for (int i = 0; i < 40; ++i) w.oltp->LifecycleTick();
    }
    r_->archive_s.push_back(double(NowNs() - t0) / 1e9);

    w.oltp_rng = std::make_unique<Rng>(Derive(seed_, 5));
    w.server->RegisterHandler("tpcc.mixed", [this](std::string_view args) {
      return Transaction(args);
    });
    for (int q = 1; q <= kQueries; ++q) {
      w.server->RegisterHandler(
          "tpch.q" + std::to_string(q), [this, q](std::string_view args) {
            uint64_t req;
            uint32_t parent;
            ParseArgs(args, &req, &parent);
            return RunTpchQuery(q, *world_->olap, parent != 0, parent, req,
                                r_)
                .result;
          });
    }

    // Warm-up: every query through the server and directly (the results
    // must match), then a few hundred transactions.
    auto session = w.server->OpenSession("warmup", serve::Priority::kOlap);
    for (int q = 1; q <= kQueries; ++q) {
      const serve::Response resp =
          session->Call("tpch.q" + std::to_string(q), CallArgs(0, 0)).Get();
      const QueryRun direct = RunTpchQuery(q, *w.olap, false, 0, 0, r_);
      if (resp.status != serve::Status::kOk || resp.payload != direct.result) {
        r_->Fail("wrong", "Q" + std::to_string(q) + " served differs from direct");
        return false;
      }
      const uint64_t sum = Fnv1a(direct.result);
      if (setup_no == 0) r_->checksums[q] = sum;
      if (r_->checksums[q] != sum) {
        r_->Fail("wrong", "Q" + std::to_string(q) + " differs between set-ups");
        return false;
      }
    }
    for (int i = 0; i < 300; ++i) {
      const serve::Response resp =
          session->Call("tpcc.mixed", CallArgs(0, 0), serve::Priority::kOltp)
              .Get();
      if (resp.status != serve::Status::kOk) {
        r_->Fail(serve::StatusName(resp.status),
                 "warm-up transaction failed: " + resp.payload);
        return false;
      }
    }
    session->Close();
    return true;
  }

  std::string Transaction(std::string_view args) {
    uint64_t req;
    uint32_t parent;
    ParseArgs(args, &req, &parent);
    const bool traced = parent != 0;
    HtapWorld& w = *world_;
    const uint64_t t0 = NowNs();
    std::unique_lock<std::mutex> lock(w.commit_mu, std::defer_lock);
    {
      ScopedSpan span(traced, "tpcc.lock_wait", parent, req);
      lock.lock();
    }
    const uint64_t t1 = NowNs();
    int type;
    {
      ScopedSpan span(traced, "tpcc.txn", parent, req);
      type = w.oltp->RunMixedTransaction(*w.oltp_rng);
    }
    const uint64_t t2 = NowNs();
    // Recorded under the commit lock, which serializes all writers here.
    r_->lock_wait_ns.push_back(t1 - t0);
    if (type >= 0 && type < 5) r_->txn_ns[type].push_back(t2 - t1);
    return std::string(1, char('0' + type));
  }

  void Record(bool oltp, int q, bool traced, const serve::Response& resp) {
    std::lock_guard<std::mutex> lock(r_->mu);
    if (resp.status != serve::Status::kOk) {
      r_->Fail(serve::StatusName(resp.status),
               (oltp ? "tpcc.mixed " : "tpch.q" + std::to_string(q) + " ") +
                   resp.payload);
      return;
    }
    if (oltp) {
      if (resp.payload.size() != 1 || resp.payload[0] < '0' ||
          resp.payload[0] > '4') {
        r_->Fail("wrong", "unexpected tpcc.mixed reply: " + resp.payload);
        return;
      }
      r_->Ok();
      r_->oltp_ns.push_back(resp.total_ns);
      r_->oltp_queue_ns.push_back(resp.queue_ns);
      r_->oltp_exec_ns.push_back(resp.exec_ns);
      r_->oltp_traced.push_back(traced ? 1 : 0);
      return;
    }
    if (Fnv1a(resp.payload) != r_->checksums[q]) {
      r_->Fail("wrong", "Q" + std::to_string(q) + " served result changed");
      return;
    }
    r_->Ok();
    r_->olap_q.push_back(q);
    r_->olap_ns.push_back(resp.total_ns);
    r_->olap_queue_ns.push_back(resp.queue_ns);
    r_->olap_traced.push_back(traced ? 1 : 0);
  }

  void RecordEndState() {
    // Sampled once, after the clients stopped: TPC-C tables are not safe
    // to measure while transactions append to them.
    const HtapWorld& w = *world_;
    uint64_t hot, frozen;
    const tpch::TpchDatabase& h = *w.olap;
    const tpcc::TpccDatabase& c = *w.oltp;
    std::vector<const Table*> tables = TpchTables(h);
    tables.insert(tables.end(),
                  {&c.item, &c.warehouse, &c.district, &c.customer, &c.history,
                   &c.neworder, &c.order, &c.orderline, &c.stock});
    TableBytes(tables, &hot, &frozen);
    auto& v = r_->values;
    v["hot_bytes"] = double(hot);
    v["frozen_bytes"] = double(frozen);
    r_->data_bytes.push_back(double(hot + frozen) + v["summary_bytes"]);
    v["uncompressed_bytes"] = double(w.uncompressed_bytes);
    v["frozen_after_freeze_bytes"] = double(w.frozen_bytes);
  }

  const uint64_t seed_;
  const std::string tmpdir_;
  Results* const r_;
  std::unique_ptr<HtapWorld> world_;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

template <typename T>
void JsonArray(FILE* f, const char* key, const std::vector<T>& v) {
  std::fprintf(f, "\"%s\":[", key);
  for (size_t i = 0; i < v.size(); ++i)
    std::fprintf(f, i == 0 ? "%.17g" : ",%.17g", double(v[i]));
  std::fprintf(f, "],");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (uint8_t(c) < 0x20) c = ' ';
    out += c;
  }
  return out;
}

bool WriteResults(const std::string& path, const std::string& workload,
                  uint64_t seed, const Results& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",", workload.c_str(),
               seed);
  std::fprintf(f, "\"slots\":%u,", EffectiveThreads(0, nullptr));
  JsonArray(f, "setup_s", r.setup_s);
  JsonArray(f, "dbgen_s", r.dbgen_s);
  JsonArray(f, "freeze_s", r.freeze_s);
  JsonArray(f, "load_s", r.load_s);
  JsonArray(f, "archive_s", r.archive_s);
  std::fprintf(f, "\"timed_s\":%.17g,", r.timed_s);
  JsonArray(f, "olap_q", r.olap_q);
  JsonArray(f, "olap_ns", r.olap_ns);
  JsonArray(f, "olap_queue_ns", r.olap_queue_ns);
  JsonArray(f, "olap_traced", r.olap_traced);
  JsonArray(f, "runquery_q", r.runquery_q);
  JsonArray(f, "runquery_ns", r.runquery_ns);
  JsonArray(f, "runquery_traced", r.runquery_traced);
  std::fprintf(f, "\"olap_busy_ns\":%" PRIu64 ",", r.olap_busy_ns);
  JsonArray(f, "oltp_ns", r.oltp_ns);
  JsonArray(f, "oltp_queue_ns", r.oltp_queue_ns);
  JsonArray(f, "oltp_exec_ns", r.oltp_exec_ns);
  JsonArray(f, "oltp_traced", r.oltp_traced);
  std::fprintf(f, "\"oltp_busy_ns\":%" PRIu64 ",", r.oltp_busy_ns);
  static const char* kTxn[5] = {"new_order", "payment", "order_status",
                                "delivery", "stock_level"};
  std::fprintf(f, "\"txn_ns\":{");
  for (int t = 0; t < 5; ++t) {
    std::fprintf(f, "%s\"%s\":[", t == 0 ? "" : ",", kTxn[t]);
    for (size_t i = 0; i < r.txn_ns[t].size(); ++i)
      std::fprintf(f, i == 0 ? "%" PRIu64 : ",%" PRIu64, r.txn_ns[t][i]);
    std::fprintf(f, "]");
  }
  std::fprintf(f, "},");
  JsonArray(f, "lock_wait_ns", r.lock_wait_ns);
  JsonArray(f, "tick_ns", r.tick_ns);
  JsonArray(f, "data_bytes", r.data_bytes);
  JsonArray(f, "rss_bytes", r.rss_bytes);
  std::fprintf(f, "\"outcomes\":{");
  bool first = true;
  for (const auto& [kind, n] : r.outcomes) {
    std::fprintf(f, "%s\"%s\":%" PRIu64, first ? "" : ",", kind.c_str(), n);
    first = false;
  }
  std::fprintf(f, "},\"failures\":[");
  for (size_t i = 0; i < r.failures.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ",",
                 JsonEscape(r.failures[i]).c_str());
  std::fprintf(f, "],\"checksums\":{");
  first = true;
  for (const auto& [q, sum] : r.checksums) {
    std::fprintf(f, "%s\"%d\":\"%016" PRIx64 "\"", first ? "" : ",", q, sum);
    first = false;
  }
  std::fprintf(f, "},\"profile\":{");
  first = true;
  for (const auto& [q, p] : r.profile) {
    std::fprintf(
        f,
        "%s\"%d\":{\"queries\":%" PRIu64 ",\"wall_ns\":%" PRIu64 ",\"slot_wall_ns\":%" PRIu64
        ",\"busy_ns\":%" PRIu64 ",\"merge_ns\":%" PRIu64
        ",\"morsels\":%" PRIu64 ",\"batches\":%" PRIu64
        ",\"code_batches\":%" PRIu64 ",\"rows_in\":%" PRIu64
        ",\"rows_out\":%" PRIu64 ",\"chunks_scanned\":%" PRIu64
        ",\"chunks_pruned\":%" PRIu64 ",\"evicted_pruned\":%" PRIu64
        ",\"archive_reloads\":%" PRIu64 "}",
        first ? "" : ",", q, p.queries, p.wall_ns, p.slot_wall_ns,
        p.busy_ns, p.merge_ns, p.morsels, p.batches, p.code_batches,
        p.rows_in, p.rows_out, p.chunks_scanned, p.chunks_pruned,
        p.evicted_pruned, p.archive_reloads);
    first = false;
  }
  std::fprintf(f, "},\"values\":{");
  first = true;
  for (const auto& [k, val] : r.values) {
    std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", k.c_str(), val);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

const char* Flag(int argc, char** argv, const char* name, const char* dflt) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return dflt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = Flag(argc, argv, "--workload", "");
  const uint64_t seed = std::strtoull(Flag(argc, argv, "--seed", "1"), nullptr, 10);
  const double seconds = std::strtod(Flag(argc, argv, "--seconds", "10"), nullptr);
  const bool trace = std::strcmp(Flag(argc, argv, "--trace", "0"), "0") != 0;
  const std::string tmpdir = Flag(argc, argv, "--tmpdir", "");
  const std::string out = Flag(argc, argv, "--out", "");
  const std::string trace_out = Flag(argc, argv, "--trace-out", "");
  if (tmpdir.empty() || out.empty() || seconds <= 0 ||
      (workload != "tpch_frozen" && workload != "tpch_evicted" &&
       workload != "htap_serve")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload tpch_frozen|tpch_evicted|"
                 "htap_serve --seed N --seconds S --trace 0|1 --tmpdir DIR "
                 "--out FILE [--trace-out FILE]\n");
    return 2;
  }

  Results results;
  bool ok = true;
  try {
    if (workload == "htap_serve") {
      HtapBench bench(seed, tmpdir, &results);
      ok = bench.Setup(kSetups, trace);
      if (ok) bench.Run(seconds, trace);
    } else {
      TpchBench bench(seed, workload == "tpch_evicted", tmpdir, &results);
      ok = bench.Setup(kSetups, trace);
      if (ok) bench.Run(seconds, trace);
    }
  } catch (const std::exception& e) {
    results.Fail("error", std::string("exception: ") + e.what());
    ok = false;
  }
  if (!WriteResults(out, workload, seed, results)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  if (trace && !trace_out.empty() && !g_tracer.WriteJsonl(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }
  return ok && results.AllOk() ? 0 : 1;
}
