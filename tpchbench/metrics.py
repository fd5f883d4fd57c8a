"""Turns the raw samples of one tpch_sweep run into the benchmark's metrics.

End-to-end metrics come from the untraced sweeps, per-layer metrics from the
traced ones, except the wall-clock figures, which come from the untraced
sweeps of a traced run (see README.md for the definitions and for why wall
time is not an end-to-end metric). Everything here is pure
arithmetic over the JSON document tpch_sweep prints, so it is unit-tested
in test_metrics.py without the engine.
"""

import math
import statistics

QUERIES = (1, 3, 4, 6, 12, 14, 18, 19)

# Phases the executors time around a whole rank / worker plan.
RANK_TOTALS = ("phase.rank_total", "phase.worker_total")
# Phases of the driver-side tail (after the ranks finished).
DRIVER_PHASES = ("phase.driver_merge", "phase.driver_sort", "phase.driver_topk")

# Rank-side phase timers, grouped into per-layer metrics. Every rank-side
# `phase.*` key falls into exactly one group; keys not named here land in
# suboperators.other_s, so the groups plus suboperators.unattributed_s
# always add up to the rank total.
RANK_PHASE_GROUPS = {
    "suboperators.local_histogram_s": ("phase.local_histogram",),
    "suboperators.local_partition_s": ("phase.local_partition",),
    "suboperators.network_partition_s": ("phase.network_partition",),
    "suboperators.global_histogram_s": ("phase.global_histogram",),
    "suboperators.build_probe_s": ("phase.build_probe",),
    "suboperators.reduce_by_key_s": ("phase.reduce_by_key",),
    "suboperators.rank_sort_s": ("phase.sort", "phase.topk"),
    "serverless.scan_s": ("phase.scan",),
    "serverless.s3_exchange_s": ("phase.s3_exchange",),
}
OTHER_GROUP = "suboperators.other_s"
UNATTRIBUTED = "suboperators.unattributed_s"


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, above=10):
    """The highest percentile of `values` with at least `above` samples
    above it (nearest rank). Returns (value, percentile, sample count)."""
    n = len(values)
    if n <= above:
        raise ValueError(f"{n} samples: a tail needs more than {above}")
    ordered = sorted(values)
    rank = n - above  # 1-based: `above` samples sit above this one
    return ordered[rank - 1], 100.0 * rank / n, n


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rank_total(times):
    return sum(times.get(k, 0.0) for k in RANK_TOTALS)


def rank_breakdown(times):
    """Splits one query's rank total into the phase groups, `other` and
    the time no rank-side timer claims (`unattributed`)."""
    parts = {group: 0.0 for group in RANK_PHASE_GROUPS}
    parts[OTHER_GROUP] = 0.0
    owner = {key: group for group, keys in RANK_PHASE_GROUPS.items()
             for key in keys}
    for key, value in times.items():
        if (not key.startswith("phase.") or key in RANK_TOTALS
                or key in DRIVER_PHASES):
            continue
        parts[owner.get(key, OTHER_GROUP)] += value
    parts[UNATTRIBUTED] = rank_total(times) - sum(parts.values())
    return parts


def check_breakdown(times, rel=1e-9):
    """Self-check: the rank-side groups plus `unattributed` reproduce the
    query's rank total. Returns an error string or None."""
    parts = rank_breakdown(times)
    total = rank_total(times)
    if abs(sum(parts.values()) - total) > rel * max(1.0, abs(total)):
        return f"breakdown sums to {sum(parts.values())}, rank total {total}"
    return None


def errors(doc):
    """(attempted, failed, first messages) over every checked execution."""
    runs = list(doc["warmup"]["queries"])
    for sweep in doc["sweeps"]:
        runs.extend(sweep["queries"])
    failed = [f"Q{q['query']}: {q['error']}" for q in runs if q["error"]]
    return len(runs), len(failed), failed[:5]


def setup_seconds(setup):
    return setup["generate_s"] + setup["prepare_s"] + setup["warmup_s"]


def modelled_seconds(sweep, spawn_per_query):
    """Modelled platform seconds of one sweep: fabric + S3 charges plus the
    Lambda spawn latency. Never part of any wall time."""
    return (_time(sweep, "net.charged_seconds") + _time(sweep, "s3.charged")
            + spawn_per_query * len(sweep["queries"]))


def query_geomean(sweeps, key):
    """Geometric mean over the queries of each query's median `key`."""
    return geomean([median([x[key] for s in sweeps for x in s["queries"]
                            if x["query"] == q])
                    for q in QUERIES])


def wall_clock(sweeps):
    """Wall-clock figures of a sample of untraced sweeps: median and tail
    sweep time (from the same sample) and the per-query geomean. Returns
    (values, notes)."""
    walls = [s["wall_s"] for s in sweeps]
    tail_value, tail_pct, tail_n = tail(walls)
    values = {
        "sweep_p50_s": median(walls),
        "sweep_tail_s": tail_value,
        "query_geomean_s": query_geomean(sweeps, "wall_s"),
    }
    notes = {"sweep_tail_percentile": tail_pct, "sweep_samples": tail_n}
    return values, notes


def end_to_end(doc):
    """The end-to-end metrics, from the untraced sweeps. Returns (metrics,
    wall), where `wall` is wall_clock() of the same sweeps: printed, but
    not an end-to-end metric."""
    sweeps = [s for s in doc["sweeps"] if not s["traced"]]
    metrics = {
        "setup_s": (median([setup_seconds(s) for s in doc["setups"]]), "s"),
        "cpu_per_sweep_s": (median([s["cpu_s"] for s in sweeps]), "s"),
        "query_cpu_geomean_s": (query_geomean(sweeps, "cpu_s"), "s"),
        "modelled_s": (modelled_seconds(doc["warmup"],
                                        doc["meta"]["spawn_s_per_query"]),
                       "s"),
        "peak_rss_mb": (doc["meta"]["peak_rss_mb"], "MB"),
    }
    return metrics, wall_clock(sweeps)


def _time(sweep, key):
    return sum(q["times"].get(key, 0.0) for q in sweep["queries"])


def _count(sweep, key):
    return sum(q["counters"].get(key, 0) for q in sweep["queries"])


def _sum_prefix(sweep, prefix):
    return sum(v for q in sweep["queries"] for k, v in q["counters"].items()
               if k.startswith(prefix))


def _overlap(sweep):
    ratios = [q["times"]["exchange.overlap_ratio"] for q in sweep["queries"]
              if "exchange.overlap_ratio" in q["times"]]
    return statistics.fmean(ratios) if ratios else 0.0


MB = float(1 << 20)


def per_sweep_layers(sweep, spawn_per_query):
    """Per-layer values of one traced sweep (sums over its 8 queries)."""
    qs = sweep["queries"]
    v = {}
    for q in qs:
        v[f"tpch.q{q['query']}_s"] = q["wall_s"]
    v["tpch.driver_s"] = sum(q["wall_s"] - rank_total(q["times"]) for q in qs)
    v["planner.plan_s"] = sum(q["plan_s"] for q in qs)
    v["planner.optimize_s"] = _time(sweep, "planner.time.optimize")
    v["planner.lower_s"] = _time(sweep, "planner.time.lower")
    v["core.cores_busy"] = sweep["cpu_s"] / sweep["wall_s"]
    v["core.serial_fallbacks"] = _sum_prefix(sweep, "parallel.serial_fallback.")
    v["core.default_adapter_uses"] = _sum_prefix(
        sweep, "vectorized.default_adapter.")
    v["core.mem_peak_mb"] = max(q["counters"].get("mem.peak_bytes", 0)
                                for q in qs) / MB
    v["core.mem_denials"] = _count(sweep, "mem.denials")
    for group in list(RANK_PHASE_GROUPS) + [OTHER_GROUP, UNATTRIBUTED]:
        v[group] = sum(rank_breakdown(q["times"])[group] for q in qs)
    v["suboperators.sort_s"] = (v["suboperators.rank_sort_s"]
                                + _time(sweep, "phase.driver_sort")
                                + _time(sweep, "phase.driver_topk"))
    v["suboperators.driver_merge_s"] = _time(sweep, "phase.driver_merge")
    v["net.bytes_sent"] = _count(sweep, "net.bytes_sent")
    v["net.msgs_sent"] = _count(sweep, "net.msgs_sent")
    v["net.charged_s"] = _time(sweep, "net.charged_seconds")
    v["net.stall_s"] = _time(sweep, "net.stall_seconds")
    v["mpi.overlap_ratio"] = _overlap(sweep)
    v["serverless.worker_total_s"] = _time(sweep, "phase.worker_total")
    v["serverless.spawn_s"] = spawn_per_query * len(qs)
    v["storage.s3_requests"] = _count(sweep, "s3.requests")
    v["storage.s3_mb"] = _count(sweep, "s3.bytes") / MB
    v["storage.s3_charged_s"] = _time(sweep, "s3.charged")
    v["storage.retained_objects"] = sweep["retained_objects"]
    v["storage.retained_mb"] = sweep["retained_bytes"] / MB
    v["storage.spill_mb"] = _count(sweep, "spill.bytes") / MB
    v["storage.spill_passes"] = _count(sweep, "spill.passes")
    v["storage.spill_chunks"] = _count(sweep, "spill.chunks")
    v["storage.spill_partitions"] = _count(sweep, "spill.partitions")
    v["storage.spill_ops.BuildProbe"] = _count(sweep, "spill.ops.BuildProbe")
    v["storage.spill_ops.ReduceByKey"] = _count(sweep, "spill.ops.ReduceByKey")
    return v


def per_layer(doc, units):
    """Medians over the traced sweeps of per_sweep_layers, plus set-up
    phases and the tracing overhead. `units` maps metric name -> unit."""
    traced = [s for s in doc["sweeps"] if s["traced"]]
    untraced = [s for s in doc["sweeps"] if not s["traced"]]
    spawn = doc["meta"]["spawn_s_per_query"]
    rows = [per_sweep_layers(s, spawn) for s in traced]
    values = {k: median([r[k] for r in rows]) for k in rows[0]}
    for phase in ("generate_s", "prepare_s", "warmup_s"):
        values[f"tpch.{phase}"] = median([s[phase] for s in doc["setups"]])
    wall, _ = wall_clock(untraced)
    for name, value in wall.items():
        values[f"wall.{name}"] = value
    values["bench.trace_overhead"] = (median([s["wall_s"] for s in traced])
                                      / wall["sweep_p50_s"])
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: (values[k], units[k]) for k in units}


def breakdown_errors(doc):
    """Runs check_breakdown over every traced query."""
    out = []
    for i, sweep in enumerate(doc["sweeps"]):
        if not sweep["traced"]:
            continue
        for q in sweep["queries"]:
            err = check_breakdown(q["times"])
            if err:
                out.append(f"sweep {i} Q{q['query']}: {err}")
    return out
