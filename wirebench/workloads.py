"""The benchmark's workloads: service configs, request templates, seeded streams.

A workload is a traffic mix sent to ``python -m repro.service``.  Each one
is a finite set of distinct request *templates* (so the correctness gate
can answer every one of them in process before any timing starts) and a
seeded rule that draws an unbounded stream of template indices from it.
The service only ever sees the generated request lines.

Every workload records why it exists and which per-layer numbers a
change should move on it (``why`` / ``predicts``): a change to one layer
is judged on the workload that exercises it and on one that bypasses it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from repro.core.bounds import Variant
from repro.core.instance import Instance
from repro.experiments.scaling import service_burst, service_pool
from repro.generators import uniform_instance
from repro.service.protocol import SolveRequest, encode_time, instance_to_obj

VARIANTS = list(Variant)

#: The ``large`` fixture of ``benchmarks/run_bench.py`` (~800 jobs);
#: mixed-proc draws from its four ``service_pool`` siblings.
LARGE = dict(m=16, c=40, n_per_class=20, seed=202)

#: bounds-near: 64 near-linear instances, Zipf-popular.  With exponent 1
#: the 32 warm slots of the default config (4 shards x 8) hold ~70% of
#: the draws, so the per-shard LRUs keep evicting.
NEAR_POOL = 64
NEAR_ZIPF_S = 1.0
NEAR_EPS = Fraction(1, 1000)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: per-layer predictions: which layer metric moves which end-to-end one
    predicts: str
    #: extra ``python -m repro.service`` arguments
    service_args: tuple[str, ...]
    #: distinct requests, as SolveRequest objects (id ignored)
    templates: Callable[[], list[SolveRequest]]
    #: ``draw(rng, n_templates)`` -> endless template indices
    draw: Callable[[random.Random, int], Iterator[int]]
    #: open-phase Poisson arrival rate (requests/s).  A constant, never
    #: derived from a run: about an eighth of the closed-loop throughput
    #: measured on a quiet 2-CPU host, so that the service stays lightly
    #: loaded even when other tenants halve the host's speed (at half the
    #: throughput, such slow spells tripled the open-phase latencies).
    open_rate: float
    #: requests sent (closed loop) before any clock starts
    warmup: int
    #: outstanding requests per connection in the closed phase: enough for
    #: every shard to fill a 16-item micro-batch
    window: int


def _large_pool() -> list[Instance]:
    return service_pool(uniform_instance(**LARGE))


def near_instances() -> list[Instance]:
    return [
        uniform_instance(m=300 - i, c=300, n_per_class=2, seed=800 + i, tmax=20)
        for i in range(NEAR_POOL)
    ]


#: bounds-near request kinds, round-robin: (algorithm, ms offsets or None)
NEAR_KINDS = (
    ("three_halves", None),
    ("eps", None),
    ("three_halves", (-20, -10, 0, 10, 20)),
)


def bounds_near_templates() -> list[SolveRequest]:
    """64 instances x 3 kinds x 3 variants, bounds only."""
    out = []
    for inst in near_instances():
        for algorithm, offsets in NEAR_KINDS:
            for variant in VARIANTS:
                out.append(SolveRequest(
                    instance=inst, variant=variant, algorithm=algorithm,
                    eps=NEAR_EPS if algorithm == "eps" else Fraction(1, 100),
                    schedules=False,
                    ms=None if offsets is None
                    else tuple(inst.m + d for d in offsets),
                ))
    return out


def _bounds_near_stream(rng: random.Random, n: int) -> Iterator[int]:
    # Instance i has popularity rank i.  The ranks stay fixed across seeds
    # on purpose: instances land on shards by fingerprint, so a seeded
    # rank order would move the hot set between shards and make the hit
    # ratio (and throughput) depend on the seed.  The (algorithm kind,
    # variant) pair goes round-robin over its 9 values.
    weights = [1.0 / (r + 1) ** NEAR_ZIPF_S for r in range(NEAR_POOL)]
    total = sum(weights)
    cdf = list(itertools.accumulate(w / total for w in weights))
    for k in itertools.count():
        rank = min(bisect.bisect_left(cdf, rng.random()), NEAR_POOL - 1)
        yield rank * 9 + k % 9


def mixed_templates() -> list[SolveRequest]:
    """The S5 mixed burst over the large pool (``service_burst`` shape)."""
    return service_burst(_large_pool(), rounds=1)


def _mixed_stream(rng: random.Random, n: int) -> Iterator[int]:
    # Each block of n requests is a seeded permutation of the burst, so
    # every block carries the burst's exact full/bounds/sweep mix.
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        yield from perm


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bounds-near",
            why="bounds-only searches over 64 Zipf-popular near-linear "
                "instances (c=300) whose working set exceeds the 32-slot "
                "LRU: search and context builds dominate; encode is tiny",
            predicts="algos.search_us, algos.search_cold_us and "
                     "cache.hit_ratio move throughput_rps; construction and "
                     "encode changes should move nothing here",
            service_args=(),
            templates=bounds_near_templates,
            draw=_bounds_near_stream,
            open_rate=40.0,
            warmup=400,
            window=32,
        ),
        Workload(
            name="mixed-proc",
            why="the S5 mixed stream (full and bounds-only singles, bounds "
                "sweeps) over ~800-job instances on 2 process shards: the "
                "only path through procworker's pickled frames and "
                "child-side solves, and the workload where construction, "
                "Schedule.rows and encode of large schedules show",
            predicts="algos.construct_us, schedule.rows_us, protocol.encode_us "
                     "and shards.solve_p50_us move throughput_rps; "
                     "shards.assembly_p50_us and shards.return_us move "
                     "closed_p50_ms",
            service_args=("--workers", "process", "--shards", "2"),
            templates=mixed_templates,
            draw=_mixed_stream,
            open_rate=60.0,
            warmup=120,
            window=16,
        ),
    )
}


def template_bodies(templates: list[SolveRequest]) -> list[bytes]:
    """Each template's request line after its ``{"id":N`` prefix."""
    out = []
    for req in templates:
        obj = {
            "id": 0,
            "instance": instance_to_obj(req.instance),
            "variant": req.variant.value,
            "algorithm": req.algorithm,
            "schedules": req.schedules,
        }
        if req.algorithm == "eps":
            obj["eps"] = encode_time(req.eps)
        if req.ms is not None:
            obj["ms"] = list(req.ms)
        text = json.dumps(obj, separators=(",", ":"))
        out.append(text[len('{"id":0'):].encode())
    return out


def stream(workload: Workload, seed: int, phase: str, n: int) -> Iterator[int]:
    """Template indices of one seeded stream (``phase`` salts the RNG).

    The warm-up and the closed phase share the ``"closed"`` stream (the
    warm-up is its prefix); the open phase draws its own, so its inputs do
    not depend on how far the closed phase got.
    """
    return workload.draw(random.Random(f"{workload.name}:{seed}:{phase}"), n)


def arrivals(workload: Workload, seed: int, seconds: float) -> list[float]:
    """Seeded Poisson arrival offsets (s) at the workload's fixed rate."""
    rng = random.Random(f"{workload.name}:{seed}:arrivals")
    out, t = [], 0.0
    while True:
        t += rng.expovariate(workload.open_rate)
        if t >= seconds:
            return out
        out.append(t)
