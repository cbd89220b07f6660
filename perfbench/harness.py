"""Statistics and metric definitions of the repo benchmark.

The C++ driver (driver.cpp) only measures: it prints raw samples, counts
and spans. Everything derived from them lives here, so it can be tested
without a build (test_harness.py):

* the metric catalogue: names, units, directions and bounds come from
  BENCHMARK.json; this module adds only what that file has no key for,
  the end-to-end metric each per-layer metric should move and the
  workloads with the most and the least of that layer's work;
* percentiles and the tail rule (a tail percentile exists only when at
  least ten samples lie beyond it);
* open-loop latency, measured from each event's due time, and how late
  the generator ran;
* span self time per layer, the share of the run no span covers, and
  the tracing overhead.
"""

import bisect
import json
import math
import statistics
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = SPEC["end_to_end"]
PER_LAYER = SPEC["per_layer"]
RUN_SECONDS = SPEC["run_seconds"]

RANK = ("rank_clean", "rank_overlay")

# Per-layer metric -> (end-to-end metric it should move, workload with the
# most / the least of that layer's work). Every traced run prints all of
# them; a layer that does no work on a workload reads 0 there.
LAYER_MOVES = {
    "graph.load_s": ("setup_s", "rank_clean", "search_mixed"),
    "graph.bytes_per_edge": ("peak_rss_mb", "rank_clean", "search_mixed"),
    "p2p.place_s": ("setup_s", "rank_clean", "search_mixed"),
    "pagerank.construct_s": ("setup_s", "rank_clean", "stream_ingest"),
    **{name: ("latency_p50_ms", "rank_clean", "rank_overlay") for name in (
        "pagerank.first_pass_ms", "pagerank.pass_ms_p50", "pagerank.passes",
        "pagerank.rank_messages", "pagerank.docs_recomputed",
        "pagerank.local_updates", "pagerank.busiest_peer_messages",
        "pagerank.ns_per_recompute",
        "pagerank.l1_error", "common.fold_gbps", "common.fold_gbps_scalar",
        "obs.flush_ms")},
    **{name: ("latency_p50_ms", "rank_overlay", "rank_clean") for name in (
        "pagerank.audit_repair_rounds", "pagerank.mass_ratio", "net.parked",
        "net.delivered_late", "net.ip_cache_hit_ratio", "dht.route_lookups",
        "dht.route_us", "net.hop_transmissions", "net.bytes")},
    "sim.converge_s": ("latency_p50_ms", "rank_clean", "rank_overlay"),
    "net.outbox_peak": ("peak_rss_mb", "rank_overlay", "rank_clean"),
    **{name: ("latency_p50_ms", "stream_ingest", "rank_clean") for name in (
        "stream.batch_apply_ms_p50", "stream.reconverge_ms",
        "stream.reconverge_cycles", "stream.busy_share",
        "stream.backlog_max_events", "stream.generator_late_ms",
        "stream.served_tail_ms", "stream.cascade_updates_per_event",
        "stream.staleness_mean")},
    **{name: ("throughput_ops_s", "stream_ingest", "rank_clean") for name in (
        "stream.batch_apply_ms_p95", "stream.topk_p99_us",
        "stream.topk_cache_hit_ratio", "stream.topk_recomputes")},
    "stream.seed_solve_s": ("setup_s", "stream_ingest", "rank_clean"),
    "core.build_s": ("setup_s", "search_mixed", "rank_clean"),
    "core.converge_s": ("setup_s", "search_mixed", "rank_clean"),
    **{name: ("throughput_ops_s", "search_mixed", "rank_clean") for name in (
        "core.insert_ms_p50", "core.delete_ms_p50", "core.write_messages",
        "core.doc_update_p50_ms", "search.query_p99_us")},
    **{name: ("latency_p50_ms", "search_mixed", "rank_clean") for name in (
        "search.query_p50_us_clean", "search.query_p50_us_after_write",
        "search.query_p50_us_2term", "search.query_p50_us_3term",
        "search.ids_per_query")},
    "trace.uncovered_share": ("latency_p50_ms", "rank_clean", "search_mixed"),
    "trace.overhead_ratio": ("latency_p50_ms", "search_mixed", "rank_clean"),
}

# Self time per spanned layer (the benchmark's spans wrap calls into
# these modules), the open loop's waits for its schedule ("idle") and
# the harness's own input/check/probe work.
SPANNED_LAYERS = ("graph", "p2p", "pagerank", "obs", "stream", "core",
                  "search", "idle", "harness")
_SELF_MOST = {"stream": "stream_ingest", "core": "search_mixed",
              "search": "search_mixed", "idle": "stream_ingest",
              "harness": "rank_clean"}
LAYER_MOVES.update({
    f"{layer}.self_s": (
        "setup_s" if layer in ("graph", "p2p") else "latency_p50_ms",
        _SELF_MOST.get(layer, "rank_clean"),
        "rank_clean" if layer in _SELF_MOST else "search_mixed")
    for layer in SPANNED_LAYERS})

# Each path's own metric names, printed in the human-readable summary
# next to the gated end-to-end metrics.
PATH_METRICS = {
    "rank": ["setup_s", "peak_rss_mb", "converge_s", "rank_messages",
             "sim_converge_s", "rank_l1_error"],
    "stream_ingest": ["setup_s", "peak_rss_mb", "served_p50_ms",
                      "served_tail_ms", "ingest_capacity_eps",
                      "topk_p99_us", "staleness_mean"],
    "search_mixed": ["setup_s", "peak_rss_mb", "query_p50_us",
                     "query_p99_us", "doc_update_p50_ms", "query_ids_moved"],
}
PATH_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "converge_s": "s",
    "rank_messages": "messages", "sim_converge_s": "s",
    "rank_l1_error": "ratio", "served_p50_ms": "ms", "served_tail_ms": "ms",
    "ingest_capacity_eps": "events/s", "topk_p99_us": "us",
    "staleness_mean": "rank", "query_p50_us": "us", "query_p99_us": "us",
    "doc_update_p50_ms": "ms", "query_ids_moved": "ids/query",
}

# Percentiles the tail rule may pick, lowest first.
TAIL_LADDER = (90, 95, 96, 97, 98, 99, 99.5, 99.9)
MIN_BEYOND = 10


# ---- statistics -----------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples that lie strictly above the nearest-rank p-th percentile
    of n samples."""
    return n - max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail(values, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """(p, value) at the highest ladder percentile with at least
    `min_beyond` samples beyond it, or None when even the lowest has
    fewer."""
    best = None
    for p in ladder:
        if beyond(len(values), p) >= min_beyond:
            best = p
    if best is None:
        return None
    return best, percentile(values, best)


def fixed_tail(values, p, min_beyond=MIN_BEYOND):
    """The p-th percentile, refused (ValueError) unless at least
    `min_beyond` samples lie beyond it."""
    if beyond(len(values), p) < min_beyond:
        raise ValueError(f"p{p} of {len(values)} samples has fewer than "
                         f"{min_beyond} samples beyond it")
    return percentile(values, p)


def median(values):
    return statistics.median(values)


def median_cost_rate(groups):
    """Operations per second of service when every operation is charged
    the median service time of its kind: sum(len) / sum(len * median)
    over the groups of per-kind service times. The kinds keep their share
    of the served mix; the medians keep a host noise burst, and a few
    outliers among a kind's costs, from moving the rate."""
    groups = [g for g in groups if g]
    busy = sum(len(g) * median(g) for g in groups)
    return sum(len(g) for g in groups) / busy


def windowed_rate(durations, ends):
    """Median over windows of (operations / seconds spent in them).

    durations are per-operation service times in order; ends are the
    indices after which a window closes. A noise burst on the host slows
    a few windows and leaves the median alone, where a whole-run ratio
    would move with it."""
    rates = []
    begin = 0
    for end in ends:
        busy = sum(durations[begin:end])
        if end > begin and busy > 0:
            rates.append((end - begin) / busy)
        begin = end
    return median(rates)


# ---- open loop ------------------------------------------------------------

def open_loop(due, start, end, kind):
    """Open-loop statistics of one stream run.

    due[i] is when event i was due to be offered, start[i]/end[i] when
    its offer call began and returned, kind[i] is 0 when the offer only
    queued the event, 1 when it applied a batch and 2 when it also
    reconverged. A batch is served when the offer that applied it
    returns; its latency runs from the due time of its last event, so a
    stall also charges the wait it imposes on events queued behind it.
    """
    served = [e - d for d, e, k in zip(due, end, kind) if k >= 1]
    late = [max(0.0, s - d) for d, s in zip(due, start)]
    # Backlog: events already due but not yet offered when event i starts.
    backlog = [bisect.bisect_right(due, s) - i for i, s in enumerate(start)]
    batch_apply = [e - s for s, e, k in zip(start, end, kind) if k == 1]
    reconverge = [e - s for s, e, k in zip(start, end, kind) if k == 2]
    offer_busy = sum(e - s for s, e in zip(start, end))
    # Capacity windows close at each reconvergence, so every window pays
    # for one stall.
    reconverge_ends = [i + 1 for i, k in enumerate(kind) if k == 2]
    return {
        "served_s": served,
        "late_s": late,
        "backlog_max": max(backlog) if backlog else 0,
        "batch_apply_s": batch_apply,
        "reconverge_s": reconverge,
        "offer_busy_s": offer_busy,
        "capacity_eps": len(start) / offer_busy if offer_busy > 0 else 0.0,
        "capacity_eps_windowed": windowed_rate(
            [e - s for s, e in zip(start, end)], reconverge_ends)
        if reconverge_ends else 0.0,
    }


# ---- spans ----------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the time its children cover.
    spans are [name, start, end, parent_index]; children of one parent
    never overlap (the driver is single-threaded)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [max(0.0, s[2] - s[1] - covered[i]) for i, s in enumerate(spans)]


def span_summary(spans):
    """Self time per layer, the share of the traced time no span covers,
    and the traced time: the root span (the whole measured run) less the
    windows a traced run leaves unrecorded ("harness.untraced"). Root and
    per-repetition frame spans are the harness's bookkeeping, not work:
    their self time is the uncovered remainder."""
    own = self_times(spans)
    per_layer = {layer: 0.0 for layer in SPANNED_LAYERS}
    uncovered = 0.0
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "harness.untraced":
            total -= end - start
            continue
        if name in ("harness.workload", "harness.rep"):
            uncovered += own[i]
            if parent < 0:
                total += end - start
            continue
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + own[i]
    return per_layer, (uncovered / total if total > 0 else 0.0), total


def overhead_ratio(busy, recorded):
    """Traced / untraced median service time per operation, from one
    traced run that alternates windows with and without span recording.

    busy[i] is operation i's service time and recorded[i] whether spans
    were recorded during it. Both sides share one process and the same
    minutes, so host drift hits them alike."""
    traced = [b for b, r in zip(busy, recorded) if r]
    untraced = [b for b, r in zip(busy, recorded) if not r]
    if not traced or not untraced:
        raise ValueError("overhead needs traced and untraced operations")
    return median(traced) / median(untraced)


# ---- metrics from a raw driver result -------------------------------------

def _ms(v):
    return v * 1e3


def _us(v):
    return v * 1e6


def path_metrics(workload, raw):
    """The path's own metrics of one workload, under their own names."""
    s, v = raw["samples"], raw["values"]
    out = {"setup_s": median(s["setup_s"]),
           "peak_rss_mb": raw["peak_rss_bytes"] / 1e6}
    if workload in RANK:
        out["converge_s"] = median(s["converge_s"])
        out["rank_messages"] = median(s["rank_messages"])
        out["sim_converge_s"] = median(s["sim_converge_s"])
        out["rank_l1_error"] = median(s["rank_l1_error"])
    elif workload == "stream_ingest":
        ol = stream_open_loop(raw)
        p, t = served_tail(ol)
        out["served_p50_ms"] = _ms(median(ol["served_s"]))
        out["served_tail_ms"] = _ms(t)
        out["served_tail_percentile"] = p
        out["served_batches"] = len(ol["served_s"])
        out["ingest_capacity_eps"] = ol["capacity_eps"]
        out["topk_p99_us"] = _us(fixed_tail(s["stream.topk_s"], 99))
        out["staleness_mean"] = v["staleness_mean"]
    else:
        q = s["search.query_s"]
        writes = s.get("core.insert_s", []) + s.get("core.delete_s", [])
        out["query_p50_us"] = _us(median(q))
        out["query_p99_us"] = _us(fixed_tail(q, 99))
        out["doc_update_p50_ms"] = _ms(median(writes))
        out["query_ids_moved"] = guard_ids_per_query(raw)
    return out


def served_tail(ol):
    found = tail(ol["served_s"])
    if found is None:
        raise ValueError(f"{len(ol['served_s'])} served batches are too few "
                         "for a tail percentile")
    return found


def stream_open_loop(raw):
    s = raw["samples"]
    return open_loop(s["stream.due_s"], s["stream.offer_start_s"],
                     s["stream.offer_end_s"], s["stream.offer_kind"])


def guard_ids_per_query(raw):
    s = raw["samples"]
    ids = [i for i, g in zip(s["search.query_ids"], s["search.query_in_guard"])
           if g]
    return sum(ids) / len(ids)


def e2e_metrics(workload, raw):
    """The gated end-to-end metrics (E2E) of one untraced run."""
    s, v = raw["samples"], raw["values"]
    out = {"setup_s": median(s["setup_s"]),
           "peak_rss_mb": raw["peak_rss_bytes"] / 1e6}
    if workload in RANK:
        conv = median(s["converge_s"])
        out["latency_p50_ms"] = _ms(conv)
        out["throughput_ops_s"] = v["docs"] / conv
    elif workload == "stream_ingest":
        ol = stream_open_loop(raw)
        out["latency_p50_ms"] = _ms(median(ol["served_s"]))
        out["throughput_ops_s"] = ol["capacity_eps_windowed"]
    else:
        out["latency_p50_ms"] = _ms(median(s["search.query_s"]))
        out["throughput_ops_s"] = median_cost_rate(
            [s["search.query_s"], s.get("core.insert_s", []),
             s.get("core.delete_s", [])])
    return out


def _med_or_zero(samples, name, scale=1.0):
    vals = samples.get(name)
    return median(vals) * scale if vals else 0.0


def layer_metrics(workload, raw):
    """Every PER_LAYER metric of one traced run; 0 where the workload
    does none of that layer's work."""
    s, v = raw["samples"], raw["values"]
    m = {spec["name"]: 0.0 for spec in PER_LAYER}
    m["graph.load_s"] = _med_or_zero(s, "graph.load_s")
    m["graph.bytes_per_edge"] = v.get("graph.bytes_per_edge", 0.0)
    if workload in RANK:
        m["p2p.place_s"] = _med_or_zero(s, "p2p.place_s")
        m["pagerank.construct_s"] = _med_or_zero(s, "pagerank.construct_s")
        m["pagerank.first_pass_ms"] = _med_or_zero(
            s, "pagerank.first_pass_s", 1e3)
        m["pagerank.pass_ms_p50"] = _med_or_zero(s, "pagerank.pass_s", 1e3)
        for name in ("pagerank.passes", "pagerank.docs_recomputed",
                     "pagerank.local_updates",
                     "pagerank.busiest_peer_messages",
                     "pagerank.audit_repair_rounds", "pagerank.mass_ratio",
                     "net.hop_transmissions", "net.bytes", "net.parked",
                     "net.delivered_late", "net.outbox_peak",
                     "dht.route_lookups"):
            m[name] = median(s[name])
        m["pagerank.ns_per_recompute"] = (
            median(s["converge_s"]) * 1e9 / median(s["pagerank.docs_recomputed"]))
        m["pagerank.l1_error"] = median(s["rank_l1_error"])
        m["pagerank.rank_messages"] = median(s["rank_messages"])
        m["sim.converge_s"] = median(s["sim_converge_s"])
        lookups = median(s["net.ip_cache_hits"]) + m["dht.route_lookups"]
        m["net.ip_cache_hit_ratio"] = (median(s["net.ip_cache_hits"]) / lookups
                                       if lookups else 0.0)
        m["obs.flush_ms"] = _med_or_zero(s, "obs.flush_s", 1e3)
        for name in ("common.fold_gbps", "common.fold_gbps_scalar",
                     "dht.route_us"):
            m[name] = v.get(name, 0.0)
        m["common.fold_working_set_mb"] = v.get(
            "common.fold_working_set_bytes", 0.0) / 1e6
    elif workload == "stream_ingest":
        ol = stream_open_loop(raw)
        m["stream.batch_apply_ms_p50"] = _ms(median(ol["batch_apply_s"]))
        m["stream.batch_apply_ms_p95"] = _ms(fixed_tail(ol["batch_apply_s"], 95))
        m["stream.reconverge_ms"] = _ms(median(ol["reconverge_s"]))
        m["stream.reconverge_cycles"] = v["stream.reconverge_cycles"]
        wall = v["stream.end_s"] - v["stream.start_s"]
        m["stream.busy_share"] = (ol["offer_busy_s"]
                                  + sum(s["stream.reads_s"])) / wall
        m["stream.backlog_max_events"] = ol["backlog_max"]
        m["stream.generator_late_ms"] = _ms(statistics.fmean(ol["late_s"]))
        m["stream.served_tail_ms"] = _ms(served_tail(ol)[1])
        m["stream.topk_p99_us"] = _us(fixed_tail(s["stream.topk_s"], 99))
        hits = v["stream.topk_cache_hits"]
        m["stream.topk_cache_hit_ratio"] = hits / (
            hits + v["stream.topk_recomputes"])
        m["stream.topk_recomputes"] = v["stream.topk_recomputes"]
        m["stream.staleness_mean"] = v["staleness_mean"]
        m["stream.cascade_updates_per_event"] = (
            v["stream.cascade_updates"] / v["stream.events_applied"])
        m["stream.seed_solve_s"] = median(s["stream.seed_solve_s"])
    else:
        m["core.build_s"] = median(s["core.build_s"])
        m["core.converge_s"] = median(s["core.converge_s"])
        m["core.insert_ms_p50"] = _med_or_zero(s, "core.insert_s", 1e3)
        m["core.delete_ms_p50"] = _med_or_zero(s, "core.delete_s", 1e3)
        writes = s.get("core.write_messages", [])
        m["core.write_messages"] = (statistics.fmean(writes) if writes else 0.0)
        m["core.doc_update_p50_ms"] = _ms(median(
            s.get("core.insert_s", []) + s.get("core.delete_s", [])))
        q = s["search.query_s"]
        after = s["search.query_after_write"]
        terms = s["search.query_terms"]
        m["search.query_p50_us_clean"] = _us(median(
            [t for t, w in zip(q, after) if not w]))
        m["search.query_p50_us_after_write"] = _us(median(
            [t for t, w in zip(q, after) if w]))
        m["search.query_p50_us_2term"] = _us(median(
            [t for t, k in zip(q, terms) if k == 2]))
        m["search.query_p50_us_3term"] = _us(median(
            [t for t, k in zip(q, terms) if k == 3]))
        m["search.query_p99_us"] = _us(fixed_tail(q, 99))
        m["search.ids_per_query"] = guard_ids_per_query(raw)

    per_layer, uncovered, _ = span_summary(raw["spans"])
    for layer, secs in per_layer.items():
        m[f"{layer}.self_s"] = secs
    m["trace.uncovered_share"] = uncovered
    m["trace.overhead_ratio"] = overhead_ratio(busy_by_op(workload, raw),
                                               s["trace.recorded"])
    return m


def busy_by_op(workload, raw):
    """Service time of each operation the tracing overhead is judged on:
    a run() per rank repetition, an offer plus its reads per stream event,
    a call per search operation."""
    s = raw["samples"]
    if workload in RANK:
        return s["converge_s"]
    if workload == "stream_ingest":
        return [e - b + r for b, e, r in zip(s["stream.offer_start_s"],
                                             s["stream.offer_end_s"],
                                             s["stream.reads_s"])]
    return s["search.op_s"]
