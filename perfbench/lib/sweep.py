"""The sweep workloads: panagree-sweep ranking K candidates.

Per run: SETUP_REPEATS rounds of the set-up command (0 candidates: load,
prime, score the baseline, exit) followed by the K-candidate command at the
run's thread count, then the same command at --threads 1 as the reference
every ranking's stdout must equal byte for byte.
"""

from . import params, proc, stats


def command(ctx, spec, candidates, threads):
    return [str(ctx.bins["panagree-sweep"]), str(candidates), str(spec["top"]),
            str(ctx.seed), "--snapshot", str(ctx.snapshot(False)),
            "--threads", str(threads), *spec["flags"]]


def run(ctx, name, result):
    spec = params.WORKLOADS[name]
    k = spec["K"]

    def timed(tag, candidates, threads):
        out = ctx.work / f"{tag}.out"
        rc, wall, rss_kb = proc.run_timed(command(ctx, spec, candidates,
                                                  threads), ctx.env, out)
        result.count(1, rc != 0)
        result.check(f"{tag}: exit 0", rc == 0)
        return wall, rss_kb, out.read_bytes()

    # Each ranking command follows its own set-up command, and the scenario
    # time is the median of the pairwise differences: a pair runs back to
    # back, so a drift of the host's speed between rounds cancels out.
    setups, rankings = [], []
    for i in range(params.SETUP_REPEATS):
        setups.append(timed(f"setup{i}", 0, ctx.threads))
        rankings.append(timed(f"rank{i}", k, ctx.threads))
    ref_wall, _, reference = timed("reference", k, 1)
    setup = [wall for wall, _, _ in setups]
    walls = [wall for wall, _, _ in rankings]
    wall = stats.median(walls)
    scenario_s = stats.median([w - s for w, s in zip(walls, setup)])
    rss_kb = max(rss for _, rss, _ in rankings)
    # The gated memory figure is the resident state after load, prime and
    # baseline scoring: the ranking command's own peak adds the scratch of
    # its costliest candidate, which the seed picks (41 to 60 MB across
    # seeds on sweep-rank), so it is reported beside it, ungated.
    resident_kb = stats.median([rss for _, rss, _ in setups])
    for i, (_, _, ranking) in enumerate(rankings):
        identical = ranking == reference and len(ranking) > 0
        result.check(f"rank{i}: stdout at --threads {ctx.threads} == stdout "
                     "at --threads 1", identical)
        if not identical:
            result.mismatches += 1
            result.failed += 1

    setup_s = stats.median(setup)
    scenarios_per_s = k / scenario_s if scenario_s > 0 else 0.0
    result.gated.update({
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (scenarios_per_s, "1/s"),
        "latency_ms": (wall * 1e3, "ms"),
        "tail_latency_ms": (max(wall, ref_wall) * 1e3, "ms"),
        "peak_rss_mb": (resident_kb / 1024, "MB"),
    })
    result.named.update({
        "setup_s": (setup_s, "s", len(setup)),
        "sweep.scenarios_per_s": (scenarios_per_s, "1/s", len(walls)),
        "sweep.wall_s": (wall, "s", len(walls)),
        "sweep.wall_t1_s": (ref_wall, "s", 1),
        "peak_rss_mb": (resident_kb / 1024, "MB", len(setups)),
        "sweep.peak_rss_mb": (rss_kb / 1024, "MB", len(rankings)),
    })
