#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from the engine sources, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload tpch_frozen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one command

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset. Each run works in a fresh temporary
directory under the build directory and removes it on exit. With --trace 1
the spans are kept in <build>/perfbench_traces/.

Human-readable lines go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. The end-to-end metrics
are printed with --trace 0, the per-layer metrics with --trace 1. The exit
code is non-zero when any result is wrong or any check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("tpch_frozen", "tpch_evicted", "htap_serve")
PINNED_SEED = 1
PINNED_FILE = os.path.join(HERE, "expected_checksums.json")
TXN_TYPES = ("new_order", "payment", "order_status", "delivery", "stock_level")
LAYERS = ("serve", "tpcc", "tpch", "exec", "storage", "lifecycle")
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds perfbench; returns the binary path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError("engine sources not found: %s is missing"
                               % os.path.join(ROOT, needed))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) elsewhere."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_binary(binary, bdir, workload, seed, seconds, trace):
    """Runs one workload in a fresh temporary directory; returns the raw
    measurements and the trace path (or None)."""
    tmp_root = os.path.join(bdir, "perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    trace_path = None
    if trace:
        trace_dir = os.path.join(bdir, "perfbench_traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.jsonl" % (workload, seed))
    out = os.path.join(tmp, "raw.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmpdir", tmp, "--out", out]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    proc = None
    try:
        steal0, total0 = cpu_times()
        proc = subprocess.Popen(cmd, stdout=sys.stderr)
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
        steal1, total1 = cpu_times()
        if not os.path.exists(out):
            raise RuntimeError("perfbench exited with %d and wrote no results"
                               % code)
        with open(out) as f:
            raw = json.load(f)
        raw["exit_code"] = code
        # CPU time the hypervisor gave to other guests: the main source of
        # run-to-run drift on shared machines (see NOTES.md, "Noise").
        raw["steal_share"] = ((steal1 - steal0) / (total1 - total0)
                              if total1 > total0 else 0.0)
        return raw, trace_path
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# Result checks
# ---------------------------------------------------------------------------

def check_checksums(raw, bdir):
    """Each query's checksum must equal the pinned value (pinned seed) and the
    value earlier runs of any workload recorded for this seed in this build
    directory. Returns failure messages."""
    sums = raw["checksums"]
    problems = []
    if len(sums) != 22:
        problems.append("only %d query checksums" % len(sums))
    if raw["seed"] == PINNED_SEED:
        with open(PINNED_FILE) as f:
            pinned = json.load(f)["checksums"]
        for q, s in sorted(sums.items(), key=lambda kv: int(kv[0])):
            if pinned.get(q) != s:
                problems.append("Q%s checksum %s != pinned %s"
                                % (q, s, pinned.get(q)))
    cache_path = os.path.join(bdir, "perfbench_checksums.json")
    cache = {}
    if os.path.exists(cache_path):
        with open(cache_path) as f:
            cache = json.load(f)
    key = str(raw["seed"])
    if key in cache:
        for q, s in sums.items():
            if cache[key]["checksums"].get(q) != s:
                problems.append("Q%s checksum %s != %s recorded by %s"
                                % (q, s, cache[key]["checksums"].get(q),
                                   cache[key]["workload"]))
    elif not problems:
        cache[key] = {"workload": raw["workload"], "checksums": sums}
        tmp = cache_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(cache, f, indent=1, sort_keys=True)
        os.replace(tmp, cache_path)
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class Metrics:
    def __init__(self):
        self.values = {}
        self.notes = {}

    def add(self, name, value, unit, note=""):
        self.values[name] = {"value": float(value), "unit": unit}
        if note:
            self.notes[name] = note


def ms(ns):
    return ns / 1e6


def timing(m, prefix, samples_ns, unit_note):
    """Adds <prefix>_p50_ms and <prefix>_p99_ms. The p99 needs 10 samples
    beyond it; with fewer, the highest percentile that has them is reported
    under the same name and the note says so."""
    n = len(samples_ns)
    m.add(prefix + "_p50_ms", ms(stats.percentile(samples_ns, 50)), "ms",
          "median, n=%d %s" % (n, unit_note))
    p = 99.0 if stats.beyond(n, 99.0) >= stats.MIN_BEYOND else (
        stats.tail_percentile(n) or 50.0)
    m.add(prefix + "_p99_ms", ms(stats.percentile(samples_ns, p)), "ms",
          "p%g, n=%d, %d beyond%s" % (p, n, stats.beyond(n, p),
                                      "" if p == 99.0 else
                                      " (too few samples for p99)"))


def end_to_end(raw):
    m = Metrics()
    single_client = raw["workload"] != "htap_serve"
    m.add("setup_s", stats.median(raw["setup_s"]), "s",
          "median of %d set-ups" % len(raw["setup_s"]))
    olap = raw["olap_ns"]
    oltp = raw["oltp_ns"]
    if single_client:
        # One client alternates queries and lookups: each lane's rate is
        # over the time the client spent in that lane.
        olap_s = raw["olap_busy_ns"] / 1e9
        oltp_s = raw["oltp_busy_ns"] / 1e9
    else:
        olap_s = oltp_s = raw["timed_s"]
    lane = "order lookups" if single_client else "tpcc.mixed"
    m.add("olap_qps", len(olap) / olap_s if olap_s else 0.0, "queries/s",
          "n=%d over %.2f s" % (len(olap), olap_s))
    timing(m, "olap", olap, "TPC-H queries")
    m.add("oltp_tps", len(oltp) / oltp_s if oltp_s else 0.0, "txn/s",
          "n=%d %s over %.2f s" % (len(oltp), lane, oltp_s))
    timing(m, "oltp", oltp, lane)
    attempted, failed = stats.tally(raw["outcomes"])
    m.add("ok_ratio", 1.0 - stats.fail_ratio(raw["outcomes"]), "ratio",
          "%d of %d operations ok" % (attempted - failed, attempted))
    m.add("data_mb", stats.median(raw["data_bytes"]) / 1e6, "MB",
          "hot + resident frozen + resident summaries, median of %d samples"
          % len(raw["data_bytes"]))
    m.add("rss_mb", stats.median(raw["rss_bytes"]) / 1e6, "MB",
          "process RSS, median of %d samples" % len(raw["rss_bytes"]))
    return m


def profile_totals(raw):
    """Per-stream figures (each query's mean over its traced runs, summed
    over the 22 queries), which repeat exactly for a seed when the per-query
    counts do, and pooled sums over all traced runs for timing ratios."""
    per_stream = {}
    pooled = {}
    for p in raw["profile"].values():
        for k, v in p.items():
            pooled[k] = pooled.get(k, 0) + v
            if k != "queries":
                per_stream[k] = per_stream.get(k, 0) + v / p["queries"]
    return per_stream, pooled


def ratio(a, b):
    return a / b if b else 0.0


def spans_metrics(m, trace_path):
    spans = []
    with open(trace_path) as f:
        for line in f:
            spans.append(json.loads(line))
    selfs = stats.self_times(spans)
    timed = [s for s in spans if s["req"] > 0]
    total = sum(selfs[s["id"]] for s in timed)
    for layer in LAYERS:
        layer_self = sum(selfs[s["id"]] for s in timed
                         if s["name"].split(".")[0] == layer)
        m.add(layer + ".self_share", ratio(layer_self, total), "ratio",
              "share of traced request time spent in %s itself" % layer)
    err = stats.subtree_sum_error(spans, selfs, "tpch.query")
    m.add("obs.span_sum_error", err, "ratio",
          "max |sum of self times - wall| / wall over RunQuery spans")
    return err


def trace_overhead(raw):
    """Traced over untraced latency of the same queries, minus one: the sum
    over queries of the traced medians against that of the untraced ones."""
    by = {}
    for q, ns, traced in zip(raw["olap_q"], raw["olap_ns"], raw["olap_traced"]):
        by.setdefault((q, int(traced)), []).append(ns)
    both = [q for q in range(1, 23) if (q, 0) in by and (q, 1) in by]
    on = sum(stats.median(by[(q, 1)]) for q in both)
    off = sum(stats.median(by[(q, 0)]) for q in both)
    return on / off - 1.0 if off else 0.0


def per_layer(raw, trace_path):
    m = Metrics()
    v = raw["values"]
    n_olap = len(raw["olap_ns"])
    # serve
    overhead = [t - q - e for t, q, e in zip(
        raw["oltp_ns"], raw["oltp_queue_ns"], raw["oltp_exec_ns"])]
    m.add("serve.oltp_queue_ms_p50",
          ms(stats.percentile(raw["oltp_queue_ns"], 50)), "ms")
    m.add("serve.oltp_queue_ms_p99",
          ms(stats.percentile(raw["oltp_queue_ns"], 99)), "ms")
    m.add("serve.olap_queue_ms_p50",
          ms(stats.percentile(raw["olap_queue_ns"], 50)), "ms")
    m.add("serve.oltp_overhead_ms_p50", ms(stats.percentile(overhead, 50)),
          "ms", "total - queue - exec")
    m.add("serve.refused", v.get("serve_refused", 0), "count")
    m.add("fail_ratio", stats.fail_ratio(raw["outcomes"]), "ratio")
    # tpcc
    for t in TXN_TYPES:
        samples = raw["txn_ns"][t]
        m.add("tpcc.%s_ms_p50" % t, ms(stats.percentile(samples, 50)), "ms",
              "n=%d" % len(samples))
    m.add("tpcc.lock_wait_ms_p99",
          ms(stats.percentile(raw["lock_wait_ns"], 99)), "ms",
          "n=%d" % len(raw["lock_wait_ns"]))
    m.add("tpcc.load_s", stats.median(raw["load_s"]), "s")
    # tpch
    by_q = {}
    for q, ns, traced in zip(raw["runquery_q"], raw["runquery_ns"],
                             raw["runquery_traced"]):
        if traced:
            by_q.setdefault(q, []).append(ns)
    for q in range(1, 23):
        m.add("tpch.q%02d_ms" % q, ms(stats.median(by_q.get(q, []))), "ms",
              "n=%d" % len(by_q.get(q, [])))
    m.add("tpch.dbgen_s", stats.median(raw["dbgen_s"]), "s")
    # exec and scan, from the QueryProfiles of traced queries
    stream, pooled = profile_totals(raw)
    m.add("exec.busy_ratio", ratio(pooled.get("busy_ns", 0),
                                   pooled.get("slot_wall_ns", 0)), "ratio")
    queries = pooled.get("queries", 0)
    m.add("exec.pipeline_ms", ms(ratio(pooled.get("wall_ns", 0), queries)),
          "ms", "per query")
    m.add("exec.merge_ms", ms(ratio(pooled.get("merge_ns", 0), queries)),
          "ms", "per query")
    m.add("exec.morsels", stream.get("morsels", 0), "morsels/stream")
    m.add("exec.batches", stream.get("batches", 0), "batches/stream")
    m.add("exec.code_batch_ratio", ratio(stream.get("code_batches", 0),
                                         stream.get("batches", 0)), "ratio")
    m.add("exec.agg_peak_mb", v.get("agg_peak_bytes", 0) / 1e6, "MB")
    m.add("scheduler.steals", ratio(v.get("scheduler_steals", 0), n_olap),
          "steals/query")
    m.add("scan.rows_in", stream.get("rows_in", 0), "rows/stream")
    m.add("scan.rows_out", stream.get("rows_out", 0), "rows/stream")
    m.add("scan.match_ratio", ratio(stream.get("rows_out", 0),
                                    stream.get("rows_in", 0)), "ratio")
    m.add("scan.chunks_scanned", stream.get("chunks_scanned", 0),
          "chunks/stream")
    m.add("scan.chunks_pruned", stream.get("chunks_pruned", 0),
          "chunks/stream")
    m.add("scan.prune_ratio", ratio(
        stream.get("chunks_pruned", 0),
        stream.get("chunks_pruned", 0) + stream.get("chunks_scanned", 0)),
        "ratio")
    m.add("scan.rows_per_busy_s", ratio(pooled.get("rows_in", 0),
                                        pooled.get("busy_ns", 0) / 1e9),
          "rows/s")
    # storage
    m.add("storage.freeze_s", stats.median(raw["freeze_s"]), "s")
    m.add("storage.hot_mb", v["hot_bytes"] / 1e6, "MB")
    m.add("storage.frozen_mb", v["frozen_bytes"] / 1e6, "MB")
    m.add("storage.compression_ratio", ratio(
        v["uncompressed_bytes"], v["frozen_after_freeze_bytes"]), "ratio",
        "TPC-H bytes before / after FreezeAll")
    # lifecycle
    m.add("lifecycle.archive_s", stats.median(raw["archive_s"]), "s")
    m.add("lifecycle.tick_ms_p50", ms(stats.percentile(raw["tick_ns"], 50)),
          "ms", "n=%d" % len(raw["tick_ns"]))
    m.add("lifecycle.tick_ms_p99", ms(stats.percentile(raw["tick_ns"], 99)),
          "ms", "n=%d" % len(raw["tick_ns"]))
    for k in ("reloads", "archive_reads", "evictions"):
        m.add("lifecycle." + k, ratio(v.get("lifecycle_" + k, 0), n_olap),
              "count/query")
    m.add("lifecycle.evicted_pruned_ratio", ratio(
        pooled.get("evicted_pruned", 0),
        pooled.get("evicted_pruned", 0) + pooled.get("archive_reloads", 0)),
        "ratio", "evicted chunks pruned from their summary / touched")
    m.add("lifecycle.archive_mb", v.get("lifecycle_archive_bytes", 0) / 1e6,
          "MB")
    m.add("lifecycle.write_amp", ratio(v.get("lifecycle_archive_bytes", 0),
                                       v.get("lifecycle_frozen_bytes", 0)),
          "ratio", "archive bytes per frozen byte")
    m.add("lifecycle.resident_mb",
          v.get("lifecycle_resident_bytes", 0) / 1e6, "MB")
    m.add("lifecycle.summary_mb", v.get("summary_bytes", 0) / 1e6, "MB")
    m.add("lifecycle.freezes", v.get("lifecycle_freezes", 0), "count",
          "in the timed phase")
    # obs
    m.add("obs.trace_overhead", trace_overhead(raw), "ratio",
          "traced / untraced query latency - 1")
    err = spans_metrics(m, trace_path) if trace_path else 0.0
    return m, err


# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace, binary, bdir):
    """Returns (result dict, human-readable lines)."""
    raw, trace_path = run_binary(binary, bdir, workload, seed, seconds, trace)
    outcomes = dict(raw["outcomes"])
    problems = list(raw["failures"])
    if raw["exit_code"] != 0 and not problems:
        problems.append("perfbench exited with %d" % raw["exit_code"])
        outcomes["error"] = outcomes.get("error", 0) + 1
    checksum_problems = check_checksums(raw, bdir)
    kind = "wrong" if checksum_problems else "ok"
    outcomes[kind] = outcomes.get(kind, 0) + 1
    problems += checksum_problems
    raw["outcomes"] = outcomes
    if trace:
        m, err = per_layer(raw, trace_path)
        if err > 0.05:
            problems.append("RunQuery self times miss its wall time by %.1f%%"
                            % (err * 100))
            outcomes["trace_check"] = outcomes.get("trace_check", 0) + 1
    else:
        m = end_to_end(raw)
    problems += stats.check_metrics(m.values)
    if not trace:
        problems += ["missing %s" % n for n in stats.missing_end_to_end(m.values)]
    attempted, failed = stats.tally(outcomes)
    correct = failed == 0 and not problems
    lines = ["%s seed %d: %d slots, %.1f s timed, %.1f%% CPU stolen" % (
        workload, seed, raw["slots"], raw["timed_s"],
        100 * raw["steal_share"])]
    for name, val in m.values.items():
        note = m.notes.get(name, "")
        lines.append("  %-32s %14.6g %-14s %s" % (name, val["value"],
                                                  val["unit"], note))
    for p in problems:
        lines.append("  FAIL: " + p)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": m.values}
    return result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # SIGTERM unwinds through the finally blocks, so the child is killed and
    # the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_ok = True
    result = None
    for w in workloads:
        start = time.monotonic()
        try:
            result, lines = run(w, args.seed, args.seconds, args.trace,
                                binary, bdir)
        except (RuntimeError, subprocess.TimeoutExpired, OSError,
                ValueError, KeyError) as e:
            log("perfbench: %s failed: %s" % (w, e))
            return 1
        lines[0] += " (%.0f s wall)" % (time.monotonic() - start)
        print("\n".join(lines), flush=True)
        all_ok = all_ok and result["correct"]
    print(json.dumps(result), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
