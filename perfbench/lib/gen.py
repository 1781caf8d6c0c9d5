"""Deterministic request generation for the serve workloads.

Everything the programs receive is made here from the workload seed and
the pools `pb pools` reports (the daemon's sampled sources, a seeded pool
of single-link peering candidates). The same seed gives the same request
bytes; streams of different phases of one run use independent generators
derived from the seed, so changing one phase's length never shifts
another's requests.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    offset_us: int   # scheduled send time, from the start of the phase
    conn: int        # connection index (the generator opens at most 4)
    id: int          # wire id, unique within a run
    kind: str        # paths / diversity / whatif / rebase
    key: str         # what determines the response apart from the id
    line: str        # the request bytes, without the newline


def phase_rng(seed, phase):
    """The generator of one phase of one run."""
    return random.Random(f"perfbench:{seed}:{phase}")


def request_line(rid, kind, source=None, link=None):
    """One wire request with the protocol's field order."""
    head = f'{{"v":1,"id":{rid},"kind":"{kind}"'
    if kind in ("paths", "diversity"):
        return f'{head},"source":{source}}}'
    a, b = link
    return f'{head},"add":[{{"a":{a},"b":{b},"type":"peering"}}]}}'


def cold_pool(rng, num_ases, sampled, size):
    """`size` ASes the daemon does not cache (served cold)."""
    hot = set(sampled)
    return rng.sample([a for a in range(num_ases) if a not in hot], size)


def read_stream(rng, sampled, cold, rate, seconds, cold_share, first_id,
                conns):
    """Open-loop read traffic at a fixed rate: paths and diversity 1:1 over
    the sampled sources, with `cold_share` of the paths requests naming a
    cold source instead."""
    n = max(1, round(rate * seconds))
    kinds = ["paths"] * (n // 2) + ["diversity"] * (n - n // 2)
    rng.shuffle(kinds)
    out = []
    for i, kind in enumerate(kinds):
        if kind == "paths" and rng.random() < cold_share:
            source = rng.choice(cold)
        else:
            source = rng.choice(sampled)
        rid = first_id + i
        out.append(Request(round(i * 1e6 / rate), i % conns, rid, kind,
                           f"{kind}:{source}",
                           request_line(rid, kind, source=source)))
    return out


def stratified(rng, items, count):
    """One uniform pick from each of `count` contiguous, near-equal strata
    of `items` (which the caller sorted by cost)."""
    n = len(items)
    if count > n:
        raise ValueError("candidate pool too small for the workload")
    return [items[rng.randrange(k * n // count, (k + 1) * n // count)]
            for k in range(count)]


def split_candidates(rng, candidates, rebase_count, hot_size, groups,
                     exclude=()):
    """Splits the `pb pools` candidates ([a, b, cost] each) into rebase
    links, a what-if hot set and fresh what-if groups of the given sizes.

    Every set is drawn stratified by predicted cost, so each seed gets the
    same cost mix (what-if cost is heavy-tailed; a plain random draw of a
    few hundred deltas makes the latency percentiles swing with the seed).
    Rebase links come from the middle cost band. No what-if delta names a
    link a rebase adds, in either direction: a rebased link exists
    afterwards, and a what-if adding it again would be rejected. Links in
    `exclude` (another split's rebases) are left out altogether.
    """
    seen = {frozenset(link) for link in exclude}
    unique = []
    for a, b, cost in sorted(candidates, key=lambda c: (c[2], c[0], c[1])):
        pair = frozenset((a, b))
        if len(pair) == 2 and pair not in seen:
            seen.add(pair)
            unique.append((a, b))
    n = len(unique)
    rebases = rng.sample(unique[2 * n // 5:3 * n // 5], rebase_count)
    rest = without(unique, rebases)
    hot = stratified(rng, rest, hot_size)
    rest = without(rest, hot)
    fresh = []
    for size in groups:
        group = stratified(rng, rest, size)
        rest = without(rest, group)
        rng.shuffle(group)
        fresh.append(group)
    return rebases, hot, fresh


def without(items, taken):
    taken = set(taken)
    return [c for c in items if c not in taken]


def whatif_stream(rng, hot, fresh, rebases, rate, seconds, hot_share,
                  rebase_every_s, first_id, conns):
    """Open-loop what-if traffic at a fixed rate: `hot_share` of the
    requests repeat a delta of the hot set, the rest each use a fresh delta
    once. An admin rebase from `rebases` is due every `rebase_every_s`
    seconds, half an interval after the start."""
    n = max(1, round(rate * seconds))
    n_hot = round(n * hot_share)
    if n - n_hot > len(fresh):
        raise ValueError("not enough fresh candidates for the what-if rate")
    picks = [True] * n_hot + [False] * (n - n_hot)
    rng.shuffle(picks)
    timed = []
    unused = iter(fresh)
    for i, is_hot in enumerate(picks):
        link = rng.choice(hot) if is_hot else next(unused)
        timed.append((round(i * 1e6 / rate), "whatif", link))
    k = 0
    while (k + 0.5) * rebase_every_s < seconds:
        if k >= len(rebases):
            raise ValueError("not enough rebase links for the interval")
        timed.append((round((k + 0.5) * rebase_every_s * 1e6), "rebase",
                      rebases[k]))
        k += 1
    timed.sort(key=lambda t: (t[0], t[1] == "whatif"))
    out = []
    for i, (offset, kind, link) in enumerate(timed):
        rid = first_id + i
        out.append(Request(offset, i % conns, rid, kind,
                           f"{kind}:{link[0]}-{link[1]}",
                           request_line(rid, kind, link=link)))
    return out


def closed_batch(fresh, first_id, conns):
    """One what-if per fresh delta, for the closed-loop capacity probe."""
    out = []
    for i, link in enumerate(fresh):
        rid = first_id + i
        out.append(Request(0, i % conns, rid, "whatif",
                           f"whatif:{link[0]}-{link[1]}",
                           request_line(rid, "whatif", link=link)))
    return out


def stream_bytes(requests):
    """The exact bytes a stream puts on the wire, in schedule order."""
    return "".join(r.line + "\n" for r in requests).encode()


def write_load_file(path, requests):
    with open(path, "w") as f:
        for r in requests:
            f.write(f"{r.offset_us}\t{r.conn}\t{r.line}\n")
