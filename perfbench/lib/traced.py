"""The traced run: per-layer numbers.

`pb trace` calls each layer's public functions on this run's generated
inputs with a span around every call (see harness/traced.cpp); a fresh
daemon then serves the same read requests so the server-side counters can
be scraped from its `stats` kind. This module turns the Chrome trace, the
tour's counters and the daemon's stats into the per-layer metrics, and
names the uncovered stretches of the tour.
"""

import json

from . import gen, params, proc, stats
from .serve import Phase

LAYERS = ("storage", "paths", "scenario", "dynamics", "serve", "bench")


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "start": e["ts"] / 1e3,
             "end": (e["ts"] + e["dur"]) / 1e3, "id": e["args"]["id"],
             "parent": e["args"]["parent"]} for e in events]


def union_ms(intervals):
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def coverage(spans, wall_ms):
    """Share of the tour's wall time under top-level spans, and the
    uncovered stretches (name, ms), largest first."""
    roots = sorted((s for s in spans if s["parent"] == 0),
                   key=lambda s: s["start"])
    gaps = []
    prev_end, prev_name = 0.0, "start"
    for s in roots + [{"start": wall_ms, "end": wall_ms, "name": "end"}]:
        if s["start"] > prev_end:
            gaps.append((f"between {prev_name} and {s['name']}",
                         s["start"] - prev_end))
        if s["end"] >= prev_end:
            prev_end, prev_name = s["end"], s["name"]
    covered = union_ms([(s["start"], s["end"]) for s in roots])
    return covered / wall_ms, sorted(gaps, key=lambda g: -g[1])


def self_times(spans):
    """Per layer (the span name's first component): span time minus the
    part of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        own = s["end"] - s["start"] - union_ms(children.get(s["id"], []))
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def mean(values):
    return sum(values) / len(values) if values else float("nan")


def stage_metrics(rows, kind):
    """p50 and the highest supported percentile of each stage of `kind`,
    plus the mean response size."""
    picked = [r for r in rows if r["kind"] == kind]
    out = {}
    n = len(picked)
    tail = stats.tail_pct(n)
    for stage in ("parse", "engine", "serialize"):
        values = [r[stage] / 1e3 for r in picked]
        out[f"serve.{kind}.{stage}_us.p50"] = (
            stats.percentile(values, 50), "us", n)
        out[f"serve.{kind}.{stage}_us.tail"] = (
            stats.percentile(values, tail), "us", n)
    out[f"serve.{kind}.response_bytes"] = (
        mean([r["bytes"] for r in picked]), "bytes", n)
    return out, tail


def run(ctx, name, result):
    tp = params.TRACE[name]
    read_spec = params.WORKLOADS["serve-read"]
    whatif_spec = params.WORKLOADS["serve-whatif"]
    pools = ctx.pools(whatif_spec["candidates"], whatif_spec["pool_seed"])
    cold = gen.cold_pool(gen.phase_rng(ctx.seed, "cold"), pools["num_ases"],
                         pools["sampled"], read_spec["cold_pool"])
    reads = gen.read_stream(gen.phase_rng(ctx.seed, "fixed"),
                            pools["sampled"], cold, read_spec["rate"],
                            tp["reads"] / read_spec["rate"],
                            read_spec["cold_share"], 1, params.CONNECTIONS)
    seconds = tp["whatifs"] / whatif_spec["rate"]
    n_fresh = tp["whatifs"] - round(tp["whatifs"] * whatif_spec["hot_share"])
    rebase_links, hot, (fresh,) = gen.split_candidates(
        gen.phase_rng(ctx.seed, "split"), pools["candidates"], 1,
        whatif_spec["hot_size"], (n_fresh,))
    whatifs = gen.whatif_stream(
        gen.phase_rng(ctx.seed, "window"), hot, fresh, rebase_links,
        whatif_spec["rate"], seconds, whatif_spec["hot_share"], seconds,
        len(reads) + 1, params.CONNECTIONS)
    stream = ctx.work / "trace.requests"
    stream.write_text("".join(
        f"{'B' if r.kind == 'rebase' else 'R'}\t{r.line}\n"
        for r in reads + whatifs))

    sharded = ctx.snapshot(True)
    plain = ctx.snapshot(False)
    out = {k: ctx.work / f"trace.{k}" for k in ("json", "counters", "tsv")}
    proc.harness(ctx.bins["pb"], "trace", "--serve-snapshot", sharded,
                 "--sweep-snapshot", plain,
                 "--open", sharded if name.startswith("serve") else plain,
                 "--sources", params.SOURCES, "--shards", params.SHARDS,
                 "--threads", ctx.threads, "--seed", ctx.seed,
                 "--rank", tp["rank"], "--fail", tp["fail"], "--samples", 8,
                 "--requests", stream, "--trace-out", out["json"],
                 "--counters-out", out["counters"],
                 "--requests-out", out["tsv"], timeout=170)
    counters = json.loads(out["counters"].read_text())
    spans = load_spans(out["json"])
    rows = [{"kind": r[0], "parse": int(r[1]), "engine": int(r[2]),
             "serialize": int(r[3]), "bytes": int(r[4]), "work": r[5],
             "status": r[6], "id": int(r[7]), "digest": r[8]}
            for r in proc.read_tsv(out["tsv"])]
    failed = sum(r["status"] != "ok" for r in rows)
    result.count(len(rows) + len(rebase_links), failed)
    result.check("in-process replay: every response ok", failed == 0)

    # The same reads against a fresh daemon: byte-identical to the replay,
    # and the load that the server-side counters are scraped after.
    phase = Phase("trace-daemon", reads)
    daemon = ctx.start_daemon()
    try:
        phase.load(ctx, daemon)
        scraped = proc.request_once(daemon.port,
                                    '{"v":1,"id":1000000000,"kind":"stats"}')
    finally:
        rc = daemon.stop()
    result.check("daemon drained and exited 0", rc == 0)
    replayed = {r["id"]: r["digest"] for r in rows}
    mismatched = 0
    for req, row in zip(reads, phase.rows):
        row["match"] = (row["status"] == "ok"
                        and replayed.get(req.id) == row["digest"])
        mismatched += row["status"] == "ok" and not row["match"]
    result.mismatches += mismatched
    result.count(len(reads), sum(not row["match"] for row in phase.rows))

    wall_ms = counters["wall_ms"]
    cov, gaps = coverage(spans, wall_ms)
    prime = durations(spans, "serve.prime")[0]
    restored = sum(durations(spans, "serve.prime_restored"))
    refresh = sum(durations(spans, "serve.refresh_baseline"))
    t1 = durations(spans, "paths.prime_t1")[0]
    tn = durations(spans, "paths.prime_tN")[0]
    evals = max(1, counters["evaluations"])
    looked = counters["cached_sources"] + counters["recomputed_sources"]
    metrics = {
        "storage.open_ms": (stats.median(durations(spans, "storage.open")),
                            "ms", 3),
        "serve.prime_restored_ms": (restored, "ms", params.SHARDS),
        "serve.refresh_baseline_ms": (refresh, "ms", 1),
        "serve.restore_copy_ms": (prime - refresh, "ms", 1),
        "paths.enumerations": (counters["enumerations"], "count", 1),
        "paths.enumerate_ms": (counters["enumerate_busy_ms"], "ms", 1),
        "paths.prime_ms_t1": (t1, "ms", 1),
        "paths.prime_ms_tN": (tn, "ms", 1),
        "paths.parallel_eff": (t1 / (ctx.threads * tn), "ratio", 1),
        "scenario.evaluate_ms": (mean(durations(spans, "scenario.evaluate")),
                                 "ms", evals),
        "scenario.ball_size": (counters["ball_size_total"] / evals, "count",
                               evals),
        "scenario.dirty_sources": (counters["recomputed_sources"] / evals,
                                   "count", evals),
        "scenario.cache_hit": (counters["cached_sources"] / looked
                               if looked else 0.0, "ratio", looked),
        "scenario.aggregate_ms": (
            mean(durations(spans, "scenario.aggregate")), "ms", evals),
        "scenario.failure_diversity_ms": (
            mean(durations(spans, "scenario.failure_diversity")), "ms",
            len(durations(spans, "scenario.failure_diversity"))),
        "dynamics.converge_ms": (mean(durations(spans, "dynamics.converge")),
                                 "ms", counters["converges"]),
        "dynamics.rounds": (counters["rounds_total"] / counters["converges"],
                            "count", counters["converges"]),
    }
    tails = {}
    for kind in ("paths", "diversity", "whatif"):
        kind_metrics, tails[kind] = stage_metrics(rows, kind)
        metrics.update(kind_metrics)
    n_whatif = sum(r["kind"] == "whatif" for r in rows)
    paths_rows = [r for r in rows if r["kind"] == "paths"]
    hist = scraped["histograms"]
    metrics.update({
        "serve.whatif_memo_hit": (counters["whatif_memo_hits"] / n_whatif,
                                  "ratio", n_whatif),
        "serve.paths_cache_hit": (
            sum(r["work"] == "cache" for r in paths_rows) / len(paths_rows),
            "ratio", len(paths_rows)),
        "serve.rebase_ms": (mean(durations(spans, "serve.rebase")), "ms",
                            len(durations(spans, "serve.rebase"))),
        "server.queue_us": (hist["serve.stage_ns.queue"]["sum"] / 1e3 /
                            hist["serve.stage_ns.queue"]["count"], "us",
                            hist["serve.stage_ns.queue"]["count"]),
        "server.send_us": (hist["serve.stage_ns.send"]["sum"] / 1e3 /
                           hist["serve.stage_ns.send"]["count"], "us",
                           hist["serve.stage_ns.send"]["count"]),
        "server.queue_depth_hwm": (scraped["gauges"]["server.queue_depth_hwm"],
                                   "count", 1),
        "server.backpressure_waits": (
            scraped["counters"]["server.backpressure_waits"], "count", 1),
        "gen.late_p99_ms": (stats.percentile(phase.late_ms(), 99), "ms",
                            len(phase.late_ms())),
        "trace.coverage": (cov, "ratio", len(spans)),
        "trace.overhead_frac": (counters["spans"] * counters["span_cost_ns"]
                                / (wall_ms * 1e6), "ratio", counters["spans"]),
    })
    result.layer = metrics

    selfs = self_times(spans)
    result.notes.append(f"traced tour: {wall_ms / 1e3:.2f} s, "
                        f"{len(spans)} spans, coverage {cov:.3f}")
    result.notes.append("self time by layer: " + ", ".join(
        f"{layer} {ms:.0f} ms ({ms / wall_ms:.0%})"
        for layer, ms in sorted(selfs.items(), key=lambda kv: -kv[1])
        if ms > 0))
    loop = sum(durations(spans, "scenario.evaluate")
               + durations(spans, "scenario.aggregate")
               + durations(spans, "scenario.overlay"))
    agg = sum(durations(spans, "scenario.aggregate"))
    result.notes.append(
        f"scenario loop ({evals} candidates): MetricsAggregator::aggregate "
        f"{agg / loop:.1%} of {loop:.0f} ms, evaluate_refs "
        f"{sum(durations(spans, 'scenario.evaluate')) / loop:.1%}")
    result.notes.append("request stage tails: " + ", ".join(
        f"{k} p{t} (n={sum(r['kind'] == k for r in rows)})"
        for k, t in tails.items()))
    if cov < params.COVERAGE_FLOOR:
        result.notes.append(
            f"FLAG: trace coverage {cov:.3f} < {params.COVERAGE_FLOOR}; "
            "uncovered: " + ", ".join(f"{g} {ms:.1f} ms" for g, ms in gaps[:5]))
    else:
        result.notes.append("largest uncovered stretches: " + ", ".join(
            f"{g} {ms:.1f} ms" for g, ms in gaps[:3]))
    result.trace_path = out["json"]
