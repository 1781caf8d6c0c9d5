"""The host record every result carries, and the rule for comparing two."""

import hashlib
import os
import platform
import statistics
import subprocess
import time

from . import params


def cpu_ranges(cpus):
    """[0, 1, 2, 5] -> "0-2,5"."""
    cpus = sorted(cpus)
    out = []
    start = prev = None
    for c in cpus + [None]:
        if start is not None and c == prev + 1:
            prev = c
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = c
    return ",".join(out)


def cores():
    """CPUs this process may run on (its affinity mask)."""
    return len(os.sched_getaffinity(0))


def tool_threads():
    return min(cores(), params.MAX_THREADS)


def source_digest(root):
    """sha256 over the files the programs are built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths = [root / "CMakeLists.txt"]
    for top in ("src", "tools", "bench"):
        paths += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for p in paths:
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_describe(root, fallback):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--tags"], cwd=root, capture_output=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return fallback
    return out.stdout.decode().strip() if out.returncode == 0 else fallback


def speed_probe_ms():
    """Median wall time of a fixed single-threaded loop. On a shared VM the
    same work has taken anywhere from 186 to 339 ms over a few minutes; a
    result records this reading at its start and end so that a comparison
    can tell a slower host from slower code."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        n = 0
        while n < 1_000_000:
            n += 1
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def record(root, build_info, workload, seed, trace, speed_ms):
    return {
        "cores": cores(),
        "affinity": cpu_ranges(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": tool_threads(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "obs": build_info["obs"],
        "simd": build_info["simd"],
        "git_describe": git_describe(root, build_info["git_describe"]),
        "source_digest": source_digest(root),
        "topology": {"ases": params.TOPOLOGY_ASES,
                     "seed": params.TOPOLOGY_SEED},
        "sources": params.SOURCES,
        "shards": params.SHARDS,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "platform": platform.platform(),
        "speed_probe_ms": speed_ms,     # [at start, at end]
    }


class IncomparableHosts(ValueError):
    """Two results were measured with different core counts."""


def check_comparable(a, b):
    """Refuses to compare results from hosts with different core counts:
    thread-count rows measured on one core measure oversubscription, not
    scaling, and a speed-up between such hosts says nothing about the
    code."""
    if a["cores"] != b["cores"]:
        raise IncomparableHosts(
            f"core counts differ: {a['cores']} vs {b['cores']}")
