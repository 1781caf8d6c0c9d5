"""What one benchmark invocation shares across its phases: built programs,
the compiled topology, the seed, and the result being assembled."""

import json
import os
from dataclasses import dataclass, field

from . import params, proc


@dataclass
class Result:
    """Counts, checks and metrics of one run.

    `gated` holds the BENCHMARK.json metrics; `named` the workload's own
    metrics under the names the docs use (value, unit, sample count)."""
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    checks: list = field(default_factory=list)   # (description, passed)
    gated: dict = field(default_factory=dict)    # name -> (value, unit)
    named: dict = field(default_factory=dict)    # name -> (value, unit, n)
    layer: dict = field(default_factory=dict)    # per-layer, traced runs
    notes: list = field(default_factory=list)
    trace_path: object = None

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def check(self, what, passed):
        self.checks.append((what, bool(passed)))

    @property
    def correct(self):
        return self.mismatches == 0 and all(p for _, p in self.checks)


class Context:
    def __init__(self, root, bins, seed, seconds, threads, work):
        self.root = root
        self.bins = bins
        self.seed = seed
        self.seconds = seconds
        self.threads = threads
        self.work = work
        self.env = dict(os.environ,
                        PANAGREE_SOURCES=str(params.SOURCES),
                        PANAGREE_ASES=str(params.TOPOLOGY_ASES))
        for knob in ("PANAGREE_SNAPSHOT", "PANAGREE_CAIDA", "PANAGREE_TRACE",
                     "PANAGREE_THREADS", "PANAGREE_PIN_THREADS",
                     "PANAGREE_NO_SIMD"):
            self.env.pop(knob, None)
        self._snapshots = {}

    def snapshot(self, sharded):
        """The topology compiled with panagree-compile, once per
        invocation: plain for the sweeps, with the shard plan and primed
        baseline for the daemon."""
        key = "serve" if sharded else "sweep"
        if key not in self._snapshots:
            path = self.work / f"{key}.pansnap"
            argv = [str(self.bins["panagree-compile"]), str(path),
                    "--synthetic", str(params.TOPOLOGY_ASES),
                    "--seed", str(params.TOPOLOGY_SEED)]
            if sharded:
                argv += ["--shards", str(params.SHARDS),
                         "--sources", str(params.SOURCES)]
            rc, _, _ = proc.run_timed(argv, self.env, self.work / "compile.out")
            if rc != 0:
                raise proc.BenchError(f"panagree-compile exited {rc}")
            self._snapshots[key] = path
        return self._snapshots[key]

    def start_daemon(self):
        argv = [str(self.bins["panagree-serve"]),
                "--snapshot", str(self.snapshot(True)), "--port", "0",
                "--threads", str(self.threads),
                "--shards", str(params.SHARDS),
                "--sources", str(params.SOURCES)]
        return proc.Daemon(argv, self.env, self.work / "serve.err")

    def pools(self, candidates, seed=None):
        return json.loads(proc.harness(
            self.bins["pb"], "pools", "--snapshot", self.snapshot(True),
            "--sources", params.SOURCES,
            "--seed", self.seed if seed is None else seed,
            "--candidates", candidates))
