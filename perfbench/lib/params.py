"""Fixed inputs and workload parameters of the benchmark.

BENCHMARK.json repeats each workload's parameters in its why-sentence;
tests/test_params.py checks that the two agree.
"""

TOPOLOGY_ASES = 3000
TOPOLOGY_SEED = 424242        # the benches' kTopologySeed
SOURCES = 300                 # sampled with the benches' kSampleSeed
SHARDS = 4                    # panagree-compile --shards / daemon --shards
MAX_THREADS = 4               # tool and daemon --threads: cores, capped
CONNECTIONS = 4               # the generator's connections, one process
REQUEST_TIMEOUT_MS = 10_000   # an unanswered request fails after this
SETUP_REPEATS = 3             # set-up is measured this many times per run

WORKLOADS = {
    "sweep-rank": {
        "kind": "sweep",
        "K": 3,               # candidates ranked per command
        "top": 10,
        "flags": [],
    },
    "sweep-failures": {
        "kind": "sweep",
        "K": 3,
        "top": 10,
        "flags": ["--fail-ases", "--samples", "8"],
    },
    "serve-read": {
        "kind": "serve",
        "rate": 2000,         # requests/s of the fixed-rate window
        "cold_share": 0.10,   # share of paths requests naming a cold source
        "cold_pool": 200,     # cold sources a run draws from
        "warmup_s": 1.0,      # untimed traffic between readiness and window
        "subwindows": 5,      # the paths p99 is the median of these
        "limit_ms": 20.0,     # p99 limit of the rate ramp
        "ramp_start": 4000,
        "ramp_factor": 1.5,   # coarse ramp step
        "ramp_bisect": 3,     # refinements between last pass and first fail
        "ramp_step_s": 0.6,
        "ramp_cap": 64000,
    },
    "serve-whatif": {
        "kind": "serve",
        "rate": 20,           # what-ifs/s of the fixed-rate window
        "hot_share": 0.25,    # share of what-ifs drawn from the hot set
        "hot_size": 8,
        "rebase_every_s": 10,  # admin rebase interval, first at half of it
        "candidates": 2000,   # seeded candidate pool the deltas come from
        "probe": 100,         # fresh what-ifs of the closed-loop probe
        "serial": 200,        # fresh what-ifs sent one at a time
        "pool_seed": 1,       # the candidate pool, the same for every seed
        "warmup_s": 1.0,
        "warmup_rate": 500,   # read requests/s during the warm-up
        "warmup_whatifs": 40,  # then fresh what-ifs, closed loop
    },
}

# The traced run: how much of each layer's work the tour does per workload.
TRACE = {
    "sweep-rank": {"rank": 3, "fail": 1, "reads": 2400, "whatifs": 100},
    "sweep-failures": {"rank": 1, "fail": 3, "reads": 2400, "whatifs": 100},
    "serve-read": {"rank": 1, "fail": 1, "reads": 6000, "whatifs": 100},
    "serve-whatif": {"rank": 1, "fail": 1, "reads": 2400, "whatifs": 100},
}
COVERAGE_FLOOR = 0.95
