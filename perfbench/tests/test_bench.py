"""Tests of the benchmark's own code (no build needed):

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from lib import gen, host, params, stats, traced  # noqa: E402

SAMPLED = list(range(0, 3000, 10))


def fake_candidates(seed, n=600):
    """A pool shaped like `pb pools` output, with reversed duplicates."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a, b = rng.randrange(3000), rng.randrange(3000)
        if a != b:
            out.append([a, b, rng.choice([0, 10, 1000, 50000, 900000])])
    out += [[b, a, cost] for a, b, cost in out[:50]]
    return out


def read_bytes(seed):
    cold = gen.cold_pool(gen.phase_rng(seed, "cold"), 3000, SAMPLED, 200)
    return gen.stream_bytes(gen.read_stream(
        gen.phase_rng(seed, "fixed"), SAMPLED, cold, 2000, 1.0, 0.1, 1, 4))


def whatif_bytes(seed):
    rebases, hot, (fresh, probe) = gen.split_candidates(
        gen.phase_rng(seed, "split"), fake_candidates(7), 2, 8, (150, 50))
    window = gen.whatif_stream(gen.phase_rng(seed, "window"), hot, fresh,
                               rebases, 20, 10, 0.25, 5, 1, 4)
    return gen.stream_bytes(window + gen.closed_batch(probe, 1000, 4))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(read_bytes(1), read_bytes(1))
        self.assertEqual(whatif_bytes(1), whatif_bytes(1))

    def test_different_seed_different_bytes(self):
        self.assertNotEqual(read_bytes(1), read_bytes(2))
        self.assertNotEqual(whatif_bytes(1), whatif_bytes(2))

    def test_requests_are_wire_json(self):
        for line in whatif_bytes(3).decode().splitlines():
            request = json.loads(line)
            self.assertEqual(request["v"], 1)
            self.assertIn(request["kind"], ("whatif", "rebase"))
        lines = read_bytes(3).decode().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        self.assertEqual(kinds.count("paths"), kinds.count("diversity"))
        ids = [json.loads(line)["id"] for line in lines]
        self.assertEqual(len(ids), len(set(ids)))

    def test_no_whatif_collides_with_rebase_link(self):
        for seed in range(20):
            # The probe batch is drawn first from the shared pool; the run's
            # split leaves it out.
            pool = fake_candidates(7)
            _, _, (probe,) = gen.split_candidates(
                gen.phase_rng(1, "probe"), pool, 0, 0, (100,))
            rebases, hot, groups = gen.split_candidates(
                gen.phase_rng(seed, "split"), pool, 3, 8, (150, 50),
                exclude=probe)
            rebased = {frozenset(link) for link in rebases}
            whatifs = [frozenset(link) for link in hot]
            for group in groups:
                whatifs += [frozenset(link) for link in group]
            self.assertFalse(rebased & set(whatifs))
            fresh = [w for w in whatifs[len(hot):]]
            self.assertEqual(len(fresh), len(set(fresh)), "fresh used twice")
            probed = {frozenset(link) for link in probe}
            self.assertFalse(probed & (rebased | set(whatifs)))

    def test_hot_share_and_rebase_schedule(self):
        rebases, hot, (fresh,) = gen.split_candidates(
            gen.phase_rng(1, "split"), fake_candidates(1), 1, 8, (150,))
        stream = gen.whatif_stream(gen.phase_rng(1, "w"), hot, fresh,
                                   rebases, 20, 10, 0.25, 10, 1, 4)
        whatifs = [r for r in stream if r.kind == "whatif"]
        hot_keys = {f"whatif:{a}-{b}" for a, b in hot}
        self.assertEqual(len(whatifs), 200)
        self.assertEqual(sum(r.key in hot_keys for r in whatifs), 50)
        self.assertEqual([r.offset_us for r in stream if r.kind == "rebase"],
                         [5_000_000])

    def test_stratified_draws_cover_every_cost_band(self):
        items = list(range(1000))
        picks = gen.stratified(random.Random(4), items, 10)
        self.assertEqual([p // 100 for p in picks], list(range(10)))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)

    def test_ten_samples_beyond(self):
        self.assertEqual(stats.min_samples(50), 20)
        self.assertEqual(stats.min_samples(95), 200)
        self.assertEqual(stats.min_samples(99), 1000)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(999)), 99)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(199)), 95)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile([], 50)
        self.assertEqual(stats.tail_pct(1000), 99)
        self.assertEqual(stats.tail_pct(999), 95)
        self.assertEqual(stats.tail_pct(100), 90)
        self.assertIsNone(stats.tail_pct(19))

    def test_failed_request_misses_every_limit(self):
        self.assertFalse(stats.meets_limit(stats.FAILED, 1e12))
        self.assertTrue(stats.meets_limit(3.0, 20.0))
        # Failures rank above every answered request: 11 failures in 1000
        # put the p99 on a failure.
        self.assertEqual(
            stats.percentile([1.0] * 989 + [stats.FAILED] * 11, 99),
            stats.FAILED)
        self.assertEqual(
            stats.percentile([1.0] * 990 + [stats.FAILED] * 10, 99), 1.0)

    def test_tail_mean(self):
        # The 10 samples beyond the p95 of 200: 191..200.
        self.assertEqual(stats.tail_mean(list(range(1, 201)), 95), 195.5)
        with self.assertRaises(stats.InsufficientSamples):
            stats.tail_mean(list(range(199)), 95)
        self.assertEqual(
            stats.tail_mean([1.0] * 199 + [stats.FAILED], 95), stats.FAILED)


class HostTest(unittest.TestCase):
    def test_refuses_different_core_counts(self):
        with self.assertRaises(host.IncomparableHosts):
            host.check_comparable({"cores": 1}, {"cores": 4})
        host.check_comparable({"cores": 4}, {"cores": 4})

    def test_speed_probe_is_a_time(self):
        self.assertGreater(host.speed_probe_ms(), 0)

    def test_cpu_ranges(self):
        self.assertEqual(host.cpu_ranges([0, 1, 2, 5, 7, 8]), "0-2,5,7-8")


class TraceTest(unittest.TestCase):
    SPANS = [
        {"name": "paths.prime_t1", "start": 0, "end": 10, "id": 1,
         "parent": 0},
        {"name": "scenario.rank", "start": 12, "end": 40, "id": 2,
         "parent": 0},
        {"name": "scenario.aggregate", "start": 15, "end": 35, "id": 3,
         "parent": 2},
    ]

    def test_coverage_names_gaps(self):
        cov, gaps = traced.coverage(self.SPANS, 50)
        self.assertAlmostEqual(cov, 38 / 50)
        self.assertEqual(gaps[0], ("between scenario.rank and end", 10))
        self.assertEqual(gaps[1][0], "between paths.prime_t1 and scenario.rank")

    def test_self_time_subtracts_children(self):
        selfs = traced.self_times(self.SPANS)
        self.assertEqual(selfs["scenario"], 28)   # 8 own + 20 aggregate
        self.assertEqual(selfs["paths"], 10)


class BenchmarkJsonTest(unittest.TestCase):
    def test_why_sentences_record_parameters(self):
        doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        why = {w["name"]: w["why"] for w in doc["workloads"]}
        # serve-read runs by hand only (README: Workloads).
        self.assertEqual(set(why), set(params.WORKLOADS) - {"serve-read"})
        for name in ("sweep-rank", "sweep-failures"):
            spec = params.WORKLOADS[name]
            self.assertIn(f"K={spec['K']}", why[name])
            self.assertIn(f"top {spec['top']}", why[name])
        self.assertIn(" ".join(params.WORKLOADS["sweep-failures"]["flags"]),
                      why["sweep-failures"])
        whatif = params.WORKLOADS["serve-whatif"]
        for token in (f"{whatif['rate']} what-ifs/s",
                      f"{whatif['hot_share']:.0%} from a hot set of "
                      f"{whatif['hot_size']}",
                      f"rebase every {whatif['rebase_every_s']} s",
                      f"{whatif['probe']}-what-if",
                      f"{whatif['serial']} serial"):
            self.assertIn(token, why["serve-whatif"])

    def test_failed_latency_is_reported_as_the_timeout(self):
        import run
        self.assertEqual(run.finite("x", stats.FAILED, "ms"),
                         params.REQUEST_TIMEOUT_MS)
        with self.assertRaises(Exception):
            run.finite("x", math.nan, "ms")


if __name__ == "__main__":
    unittest.main()
