"""Statistics and metric definitions of the repository benchmark.

run.py turns the raw measurements of one perfbench run into the reported
metrics with these functions; test_stats.py is their self-test.
"""

import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Tail percentiles tried, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# End-to-end metrics: name -> (unit, better). The bounds live in
# BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "olap_qps": ("queries/s", "higher"),
    "olap_p50_ms": ("ms", "lower"),
    "olap_p99_ms": ("ms", "lower"),
    "oltp_tps": ("txn/s", "higher"),
    "oltp_p50_ms": ("ms", "lower"),
    "oltp_p99_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "data_mb": ("MB", "lower"),
    "rss_mb": ("MB", "lower"),
}


def rank(n, p):
    """1-based nearest rank of percentile p among n sorted samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[rank(len(ordered), p) - 1])


def beyond(n, p):
    """Samples strictly above the nearest-rank percentile p of n samples."""
    return n - rank(n, p) if n else 0


def tail_percentile(n):
    """Highest candidate percentile leaving at least MIN_BEYOND samples
    beyond it; None when even the median does not."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def median(values):
    return percentile(values, 50.0)


def tally(outcomes):
    """(attempted, failed) from the per-kind outcome counts of a run. Every
    kind but "ok" is a failure: refused (rejected, timed out), errored,
    wrong-result and failed checks alike."""
    attempted = sum(outcomes.values())
    failed = attempted - outcomes.get("ok", 0)
    return attempted, failed


def fail_ratio(outcomes):
    attempted, failed = tally(outcomes)
    return failed / attempted if attempted else 1.0


def interval_union(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover. Returns {id: self_ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = []
        for c in children.get(s["id"], ()):
            start = max(c["start_ns"], s["start_ns"])
            end = min(c["end_ns"], s["end_ns"])
            if end > start:
                clipped.append((start, end))
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - interval_union(clipped)
    return out


def subtree_sum_error(spans, selfs, root_name):
    """For every span named root_name, |self(span) + self(descendants) -
    duration| / duration; returns the largest, 0.0 if there is none."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    worst = 0.0
    for s in spans:
        if s["name"] != root_name:
            continue
        total = 0
        stack = [s]
        while stack:
            cur = stack.pop()
            total += selfs[cur["id"]]
            stack.extend(children.get(cur["id"], ()))
        dur = s["end_ns"] - s["start_ns"]
        if dur > 0:
            worst = max(worst, abs(total - dur) / dur)
    return worst


def check_metrics(metrics):
    """Problems with a metrics dict {name: {"value", "unit"}}: bad names,
    bad units, missing units, non-finite values."""
    problems = []
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append("bad metric name %r" % name)
        unit = m.get("unit") if isinstance(m, dict) else None
        if not isinstance(unit, str) or not UNIT_RE.match(unit):
            problems.append("metric %s has no valid unit" % name)
        value = m.get("value") if isinstance(m, dict) else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s has no finite value" % name)
    return problems


def missing_end_to_end(metrics):
    return [n for n in END_TO_END if n not in metrics]
