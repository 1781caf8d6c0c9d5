#!/usr/bin/env python3
"""panagree's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Builds the tools and the harness
into .bench_build/ (the first run takes about a minute), compiles the
topology, runs one workload against the real tools (BENCHMARK.json's, or
serve-read, which BENCHMARK.json leaves out; see perfbench/README.md),
checks their outputs, prints a report and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer
ones, from the separate traced run. Every run also writes a result record
(host, all metrics, checks) to .bench_build/results/. See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lib import context, host, params, proc, serve, stats, sweep, traced  # noqa: E402


def run_workload(ctx, name, trace):
    result = context.Result()
    if trace:
        traced.run(ctx, name, result)
    elif params.WORKLOADS[name]["kind"] == "sweep":
        sweep.run(ctx, name, result)
    elif name == "serve-read":
        serve.run_read(ctx, result)
    else:
        serve.run_whatif(ctx, result)
    result.named["failed_frac"] = (result.failed / max(1, result.attempted),
                                   "1", result.attempted)
    return result


def finite(name, value, unit):
    """A failed request's latency is infinite; the output reports it as the
    request timeout, which misses every latency limit."""
    if math.isinf(value) and unit == "ms":
        return float(params.REQUEST_TIMEOUT_MS)
    if not math.isfinite(value):
        raise proc.BenchError(f"metric {name} is {value}")
    return value


def output_metrics(declared, measured):
    """Exactly the declared metrics, in declared order, with their units."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in measured:
            raise proc.BenchError(f"metric {name} was not measured")
        value, unit = measured[name][:2]
        if unit != spec["unit"]:
            raise proc.BenchError(f"metric {name}: unit {unit} is not "
                                  f"{spec['unit']}")
        out[name] = {"value": finite(name, value, unit), "unit": unit}
    return out


def report(name, args, rec, result, metrics):
    print(f"== perfbench {name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ==")
    print("host: " + " ".join(f"{k}={rec[k]}" for k in (
        "cores", "affinity", "threads", "compiler", "build_type", "obs",
        "simd", "git_describe", "source_digest", "speed_probe_ms")))
    print(f"inputs: topology {rec['topology']['ases']} ASes "
          f"(seed {rec['topology']['seed']}), {rec['sources']} sources, "
          f"{rec['shards']} shards")
    for what, passed in result.checks:
        print(f"check: {'ok  ' if passed else 'FAIL'} {what}")
    print(f"operations: {result.attempted} attempted, {result.failed} failed "
          f"({result.mismatches} output mismatches)")
    rows = result.layer if args.trace else result.named
    width = max(len(n) for n in rows)
    for metric, (value, unit, n) in rows.items():
        print(f"  {metric:<{width}}  {value:>14.6g} {unit:<6} n={n}")
    for note in result.notes:
        print(f"note: {note}")
    print("result: " + ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                                for k, v in metrics.items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(params.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    name = args.workload
    work = None
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text())
        bins = proc.build(root, jobs=min(host.cores(), params.MAX_THREADS))
        build_info = json.loads(proc.harness(bins["pb"], "info"))
        work = proc.workdir(root, f"{name}-s{args.seed}-t{args.trace}-"
                                  f"{os.getpid()}")
        ctx = context.Context(root, bins, args.seed, args.seconds,
                              host.tool_threads(), work)
        speed_before = host.speed_probe_ms()
        result = run_workload(ctx, name, args.trace)
        metrics = output_metrics(
            declared["per_layer" if args.trace else "end_to_end"],
            result.layer if args.trace else result.gated)
        rec = host.record(root, build_info, name, args.seed, args.trace,
                          [speed_before, host.speed_probe_ms()])
    except (proc.BenchError, stats.InsufficientSamples, OSError,
            ValueError, KeyError) as e:
        print(f"perfbench: {name}: {e}", file=sys.stderr)
        if work is not None:
            print(f"perfbench: run files kept in {work}", file=sys.stderr)
        return 1

    results = root / proc.BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if result.trace_path is not None:
        shutil.copyfile(result.trace_path, results / f"{stem}.trace.json")
    (results / f"{stem}.json").write_text(json.dumps({
        "host": rec, "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "mismatches": result.mismatches,
        "checks": result.checks, "metrics": metrics,
        "named": result.named, "layer": result.layer, "notes": result.notes,
    }, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    report(name, args, rec, result, metrics)
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
