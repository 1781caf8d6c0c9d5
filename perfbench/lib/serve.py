"""The serve workloads: a fresh panagree-serve daemon per run, driven by
the single-process open-loop generator (`pb load`), every response checked
byte for byte against the in-process replay (`pb replay`).

The daemon is fresh per run because the what-if memo and the epoch are
process state: a daemon reused across runs would answer later runs from
memo entries and rebased topology earlier runs left behind.
"""

import math
import statistics

from . import gen, params, proc, stats


class Phase:
    """One load phase: its requests and, after `pb load`, their outcome."""

    def __init__(self, name, requests, closed=False):
        self.name = name
        self.requests = requests
        self.closed = closed
        self.rows = []

    def load(self, ctx, daemon):
        src = ctx.work / f"{self.name}.req"
        dst = ctx.work / f"{self.name}.res"
        gen.write_load_file(src, self.requests)
        args = ["load", "--port", daemon.port, "--in", src, "--out", dst,
                "--conns", params.CONNECTIONS,
                "--timeout-ms", params.REQUEST_TIMEOUT_MS]
        proc.harness(ctx.bins["pb"], *args, *(["--closed"] if self.closed
                                               else []))
        self.rows = [{"sched": int(r[1]) / 1e6, "sent": int(r[2]) / 1e6,
                      "recv": int(r[3]) / 1e6, "status": r[4],
                      "digest": r[6], "lo": 0, "hi": 0, "match": False}
                     for r in proc.read_tsv(dst)]
        return self

    def latencies(self, kind=None, lo_ms=-math.inf, hi_ms=math.inf):
        """Latency from the scheduled send time of every request of `kind`
        scheduled in [lo_ms, hi_ms); failed or mismatched requests are
        stats.FAILED."""
        return [row["recv"] - row["sched"] if row["match"] else stats.FAILED
                for req, row in zip(self.requests, self.rows)
                if (kind is None or req.kind == kind)
                and lo_ms <= row["sched"] < hi_ms]

    def late_ms(self):
        return [row["sent"] - row["sched"] for row in self.rows
                if row["sent"] >= 0]


def setup_daemons(ctx):
    """SETUP_REPEATS cold starts; the last daemon stays up for the load."""
    ready = []
    for _ in range(params.SETUP_REPEATS - 1):
        daemon = ctx.start_daemon()
        ready.append(daemon.ready_s)
        daemon.stop()
    daemon = ctx.start_daemon()
    ready.append(daemon.ready_s)
    return daemon, ready


def verify(ctx, phases, result, epochs=0):
    """Answers every distinct (request, epoch) once in process and marks
    each response that matches byte for byte (id aside). A request that
    overlapped a rebase matches if it equals the bytes of any epoch it may
    have been served at: [row lo, row hi]. Rebase k is replayed as the
    barrier between epoch k and k + 1."""
    by_epoch = [dict() for _ in range(epochs + 1)]
    rebases = []
    for phase in phases:
        for req, row in zip(phase.requests, phase.rows):
            if req.kind == "rebase":
                rebases.append((req, row))
                continue
            for e in range(row["lo"], row["hi"] + 1):
                by_epoch[e].setdefault(req.key, req.line)
    rebases.sort(key=lambda rr: rr[0].offset_us)
    lines, slots = [], []
    for e, requests in enumerate(by_epoch):
        for key, line in requests.items():
            lines.append(f"R\t{line}")
            slots.append((key, e))
        if e < len(rebases):
            lines.append(f"B\t{rebases[e][0].line}")
            slots.append((rebases[e][0].key, "rebase"))
    src = ctx.work / "replay.in"
    dst = ctx.work / "replay.out"
    src.write_text("".join(line + "\n" for line in lines))
    proc.harness(ctx.bins["pb"], "replay", "--snapshot", ctx.snapshot(True),
                 "--sources", params.SOURCES, "--shards", params.SHARDS,
                 "--threads", ctx.threads, "--in", src, "--out", dst)
    reference = {slot: row[0] for slot, row in zip(slots,
                                                   proc.read_tsv(dst))}
    for phase in phases:
        failed = 0
        for req, row in zip(phase.requests, phase.rows):
            if req.kind == "rebase":
                epochs_ok = [(req.key, "rebase")]
            else:
                epochs_ok = [(req.key, e)
                             for e in range(row["lo"], row["hi"] + 1)]
            answered = row["status"] == "ok"
            row["match"] = answered and any(
                reference.get(slot) == row["digest"] for slot in epochs_ok)
            if answered and not row["match"]:
                result.mismatches += 1
            failed += not row["match"]
        result.count(len(phase.requests), failed)


def windowed_pct(phase, kind, p, seconds, windows):
    """Median over `windows` equal sub-windows of the p-th percentile: a
    stall of the host (on a shared 4-vCPU VM, CPU steal measured 10-17%
    under this load, in bursts of a second or two) moves one sub-window,
    not the reported value."""
    width = seconds * 1e3 / windows
    return stats.median([
        stats.percentile(phase.latencies(kind, k * width, (k + 1) * width), p)
        for k in range(windows)])


# ------------------------------------------------------------ serve-read

def ramp_step_seconds(spec, rate):
    """Long enough for the 1000 requests a p99 needs."""
    return max(spec["ramp_step_s"], 1.1 * stats.min_samples(99) / rate)


def ramp_step_ok(phase, spec):
    """A ramp step passes when the p99 over both kinds meets the limit and
    the generator's backlog did not grow (its p99 lateness stays within the
    limit too, i.e. it kept sending on schedule)."""
    return (stats.meets_limit(stats.percentile(phase.latencies(), 99),
                              spec["limit_ms"])
            and stats.percentile(phase.late_ms(), 99) <= spec["limit_ms"])


def run_read(ctx, result):
    spec = params.WORKLOADS["serve-read"]
    # Every sub-window needs 1000 paths requests for its p99.
    seconds = max(ctx.seconds, 1.2 * spec["subwindows"] *
                  stats.min_samples(99) * 2 / spec["rate"])
    pools = ctx.pools(0)
    sampled = pools["sampled"]
    cold = gen.cold_pool(gen.phase_rng(ctx.seed, "cold"), pools["num_ases"],
                         sampled, spec["cold_pool"])
    next_id = [1]

    def stream(phase, rate, seconds):
        requests = gen.read_stream(gen.phase_rng(ctx.seed, phase), sampled,
                                   cold, rate, seconds, spec["cold_share"],
                                   next_id[0], params.CONNECTIONS)
        next_id[0] += len(requests)
        return Phase(phase, requests)

    daemon, ready = setup_daemons(ctx)
    try:
        warm = stream("warmup", spec["rate"], spec["warmup_s"]).load(ctx, daemon)
        fixed = stream("fixed", spec["rate"], seconds).load(ctx, daemon)
        steps = []

        def step(rate):
            """A step that misses is repeated once and fails only if the
            repeat misses too: a host stall shorter than a step must not
            end the ramp."""
            for _ in range(2):
                phase = stream(f"ramp{len(steps)}", rate,
                               ramp_step_seconds(spec, rate))
                phase.load(ctx, daemon)
                for row in phase.rows:   # provisional: status only
                    row["match"] = row["status"] == "ok"
                steps.append((rate, phase))
                if ramp_step_ok(phase, spec):
                    return True
            return False

        rate = spec["ramp_start"]
        passed, failed_at = None, None
        while rate <= spec["ramp_cap"]:
            if step(rate):
                passed = rate
                if failed_at is not None:
                    break
                rate *= spec["ramp_factor"]
            else:
                failed_at = rate
                if passed is not None:
                    break
                rate /= spec["ramp_factor"]
                if rate < spec["ramp_start"] / 64:
                    break
        if passed is not None and failed_at is not None:
            lo, hi = passed, failed_at
            for _ in range(spec["ramp_bisect"]):
                mid = math.sqrt(lo * hi)
                if step(mid):
                    lo = mid
                else:
                    hi = mid
        rss_kb = daemon.peak_rss_kb()
    finally:
        rc = daemon.stop()
    result.check("daemon drained and exited 0", rc == 0)

    verify(ctx, [warm, fixed] + [p for _, p in steps], result)
    verdicts = [(r, ramp_step_ok(p, spec)) for r, p in steps]
    passing = [r for r, ok in verdicts if ok]
    max_rps = max(passing) if passing else 0.0
    windows = spec["subwindows"]
    paths_p50 = windowed_pct(fixed, "paths", 50, seconds, windows)
    paths_p99 = windowed_pct(fixed, "paths", 99, seconds, windows)
    div_p50 = windowed_pct(fixed, "diversity", 50, seconds, windows)
    div_p99 = windowed_pct(fixed, "diversity", 99, seconds, windows)
    n_paths = len(fixed.latencies("paths"))
    n_div = len(fixed.latencies("diversity"))
    setup_s = stats.median(ready)
    result.gated.update({
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (max_rps, "1/s"),
        "latency_ms": (paths_p50, "ms"),
        "tail_latency_ms": (paths_p99, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    })
    result.named.update({
        "setup_s": (setup_s, "s", len(ready)),
        "paths.p50_ms": (paths_p50, "ms", n_paths),
        "paths.p99_ms": (paths_p99, "ms", n_paths),
        "diversity.p50_ms": (div_p50, "ms", n_div),
        "diversity.p99_ms": (div_p99, "ms", n_div),
        "max_rps": (max_rps, "1/s", len(steps)),
        "gen.late_p99_ms": (stats.percentile(fixed.late_ms(), 99), "ms",
                            len(fixed.late_ms())),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
    })
    result.notes.append(
        f"fixed rate {spec['rate']}/s for {seconds:g} s; each "
        f"percentile is the median over {windows} sub-windows")
    result.notes.append("ramp (rate: pass/fail): " + ", ".join(
        f"{r:.0f}: {'pass' if ok else 'fail'}" for r, ok in verdicts))


# ---------------------------------------------------------- serve-whatif

def run_whatif(ctx, result):
    spec = params.WORKLOADS["serve-whatif"]
    seconds = max(ctx.seconds, stats.min_samples(95) / spec["rate"])
    n = round(spec["rate"] * seconds)
    n_fresh = n - round(n * spec["hot_share"])
    n_rebases = math.ceil(seconds / spec["rebase_every_s"] - 0.5)
    # Every seed draws from one candidate pool, made with pool_seed. The
    # batches of the two closed-loop passes are drawn from it first, the
    # same for every seed, so they measure the daemon on identical work;
    # the seed then draws the rebase links, the hot set and the fresh
    # deltas of the open-loop window from the rest, stratified by cost.
    pools = ctx.pools(spec["candidates"], spec["pool_seed"])
    _, _, (probe, serial) = gen.split_candidates(
        gen.phase_rng(spec["pool_seed"], "probe"), pools["candidates"], 0, 0,
        (spec["probe"], spec["serial"]))
    rebase_links, hot, (fresh, warm_deltas) = gen.split_candidates(
        gen.phase_rng(ctx.seed, "split"), pools["candidates"], n_rebases,
        spec["hot_size"], (n_fresh, spec["warmup_whatifs"]),
        exclude=probe + serial)
    cold = gen.cold_pool(gen.phase_rng(ctx.seed, "cold"), pools["num_ases"],
                         pools["sampled"], 50)
    warm = Phase("warmup", gen.read_stream(
        gen.phase_rng(ctx.seed, "warmup"), pools["sampled"], cold,
        spec["warmup_rate"], spec["warmup_s"], 0.1, 1, params.CONNECTIONS))
    # The daemon's first what-ifs run up to three times slower than later
    # ones of the same cost, so a closed-loop batch of what-ifs, drawn
    # across the cost bands, ends the warm-up.
    warm_whatifs = Phase("warmup-whatif", gen.closed_batch(
        warm_deltas, len(warm.requests) + 1, params.CONNECTIONS), closed=True)
    first_id = len(warm.requests) + len(warm_whatifs.requests) + 1
    capacity = Phase("probe", gen.closed_batch(
        probe, first_id, params.CONNECTIONS), closed=True)
    first_id += len(capacity.requests)
    one_by_one = Phase("serial", gen.closed_batch(serial, first_id, 1),
                       closed=True)
    first_id += len(one_by_one.requests)
    window = Phase("window", gen.whatif_stream(
        gen.phase_rng(ctx.seed, "window"), hot, fresh, rebase_links,
        spec["rate"], seconds, spec["hot_share"], spec["rebase_every_s"],
        first_id, params.CONNECTIONS))

    daemon, ready = setup_daemons(ctx)
    try:
        warm.load(ctx, daemon)
        warm_whatifs.load(ctx, daemon)
        # The closed-loop passes run before the window's rebase, on the
        # snapshot's topology, so their work is the same for every seed.
        capacity.load(ctx, daemon)
        one_by_one.load(ctx, daemon)
        window.load(ctx, daemon)
        rss_kb = daemon.peak_rss_kb()
    finally:
        rc = daemon.stop()
    result.check("daemon drained and exited 0", rc == 0)

    # The epochs a what-if may have been served at: rebases acknowledged
    # before it was sent had surely applied; rebases sent before its
    # response arrived may have.
    rebases = sorted((row["sent"], row["recv"] if row["recv"] >= 0
                      else math.inf)
                     for req, row in zip(window.requests, window.rows)
                     if req.kind == "rebase")
    for req, row in zip(window.requests, window.rows):
        if req.kind == "whatif":
            end = row["recv"] if row["recv"] >= 0 else math.inf
            row["lo"] = sum(1 for _, ack in rebases if ack <= row["sent"])
            row["hi"] = sum(1 for sent, _ in rebases if sent <= end)
    verify(ctx, [warm, warm_whatifs, capacity, one_by_one, window], result,
           epochs=len(rebases))

    lat = window.latencies("whatif")
    rebase_ms = window.latencies("rebase")
    # Closed loop, no think time: throughput = connections / mean response
    # time (Little's law). Unlike count / elapsed, it is not set by which
    # heavy what-if happens to finish last while the other connections idle.
    probe_lat = capacity.latencies()
    probe_per_s = params.CONNECTIONS / (sum(probe_lat) / len(probe_lat)) * 1e3
    # The gated latencies come from the one-connection pass: each what-if
    # meets an otherwise idle daemon, so its latency is its own cost. In
    # the open-loop window a what-if's latency also holds the queue behind
    # the heavy what-ifs and the rebase that happen to precede it, which
    # the seed's order decides: across seeds its p95 spread by more than
    # half of its median. The gated figures are the mean and the mean
    # beyond the p95: what-if costs are spread thinly around the median
    # (q1 10 ms, p50 22 ms, q3 31 ms), so over ten runs the p50 of the
    # same batch spread by 0.25 of its median and the mean by 0.14.
    serial_lat = one_by_one.latencies()
    serial_mean = statistics.fmean(serial_lat)
    serial_p50 = stats.percentile(serial_lat, 50)
    serial_p95 = stats.percentile(serial_lat, 95)
    serial_tail = stats.tail_mean(serial_lat, 95)
    setup_s = stats.median(ready)
    p50, p95 = stats.percentile(lat, 50), stats.percentile(lat, 95)
    result.gated.update({
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (probe_per_s, "1/s"),
        "latency_ms": (serial_mean, "ms"),
        "tail_latency_ms": (serial_tail, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    })
    result.named.update({
        "setup_s": (setup_s, "s", len(ready)),
        "whatif.p50_ms": (p50, "ms", len(lat)),
        "whatif.p95_ms": (p95, "ms", len(lat)),
        "rebase.mean_ms": (sum(rebase_ms) / len(rebase_ms), "ms",
                           len(rebase_ms)) if rebase_ms else
        (math.nan, "ms", 0),
        "whatif.probe_per_s": (probe_per_s, "1/s", len(capacity.rows)),
        "whatif.serial_mean_ms": (serial_mean, "ms", len(serial_lat)),
        "whatif.serial_p50_ms": (serial_p50, "ms", len(serial_lat)),
        "whatif.serial_p95_ms": (serial_p95, "ms", len(serial_lat)),
        "whatif.serial_tail_ms": (serial_tail, "ms", len(serial_lat)),
        "gen.late_p95_ms": (stats.percentile(window.late_ms(), 95), "ms",
                            len(window.late_ms())),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
    })
    result.notes.append(
        f"{len(lat)} what-ifs at {spec['rate']}/s over {seconds:g} s, "
        f"{spec['hot_share']:.0%} from a hot set of {spec['hot_size']}, "
        f"{len(rebase_ms)} rebase(s); probe: {len(capacity.rows)} fresh "
        f"what-ifs closed-loop over {params.CONNECTIONS} connections; "
        f"serial: {len(serial_lat)} fresh what-ifs one at a time, "
        "whatif.serial_tail_ms = mean of the slowest 5%")
