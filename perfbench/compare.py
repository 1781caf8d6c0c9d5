#!/usr/bin/env python3
"""Compare two sets of perfbench result records.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result records (.bench_build/results/*.json written by
run.py) or directories of them. Records are grouped by (workload, trace);
each metric's median over a group is compared, with its quartile spread
and, for end-to-end metrics, the BENCHMARK.json bound. Refuses (exit 2)
when the two sides were measured with different core counts, and warns
when the host's speed probe moved between them.
"""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lib import host, stats  # noqa: E402

# Median speed-probe change between the two sides above which the host,
# not the code, may explain a time difference.
SPEED_DRIFT = 0.10


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        if f.name.endswith(".trace.json"):
            continue
        rec = json.loads(f.read_text())
        if "host" in rec and "metrics" in rec:
            records.append(rec)
    if not records:
        raise SystemExit(f"compare: no result records in {arg}")
    return records


def groups(records):
    out = {}
    for rec in records:
        key = (rec["host"]["workload"], rec["host"]["trace"])
        out.setdefault(key, []).append(rec)
    return out


def summary(values):
    if len(values) >= 2:
        spread = stats.quartile_spread(values)
    else:
        spread = float("nan")
    return statistics.median(values), spread


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    try:
        for a in base:
            for b in new:
                host.check_comparable(a["host"], b["host"])
    except host.IncomparableHosts as e:
        print(f"compare: refusing: {e}", file=sys.stderr)
        return 2
    bench = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    declared = {m["name"]: m for m in json.loads(bench.read_text())[
        "end_to_end"]} if bench.is_file() else {}
    speeds = [statistics.median([ms for r in side
                                 for ms in r["host"].get("speed_probe_ms", [])]
                                or [float("nan")]) for side in (base, new)]
    drift = speeds[1] / speeds[0] - 1
    print(f"host speed probe: {speeds[0]:.1f} ms -> {speeds[1]:.1f} ms "
          f"({drift:+.1%})" + ("  WARNING: the host itself changed speed; "
                               "time metrics are not comparable"
                               if abs(drift) > SPEED_DRIFT else ""))
    base_groups, new_groups = groups(base), groups(new)
    for key in sorted(set(base_groups) & set(new_groups)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(base_groups[key])} base, "
              f"{len(new_groups[key])} new runs ==")
        names = base_groups[key][0]["metrics"]
        for name in names:
            a = [r["metrics"][name]["value"] for r in base_groups[key]]
            b = [r["metrics"][name]["value"] for r in new_groups[key]]
            (ma, sa), (mb, sb) = summary(a), summary(b)
            change = (mb - ma) / ma if ma else float("nan")
            line = (f"  {name:<34} {ma:>12.6g} -> {mb:>12.6g} "
                    f"{change:+8.1%}  spread {sa:.3f}/{sb:.3f}")
            spec = declared.get(name)
            if spec and not trace:
                lower = spec["better"] == "lower"
                worse = change if lower else -change
                all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
                if worse > spec["bound"]:
                    verdict = "REGRESSION"
                elif max(sa, sb) > spec["bound"] and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                line += f"  bound {spec['bound']:.2f} {verdict}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
