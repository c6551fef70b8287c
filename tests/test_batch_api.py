"""Batched solve engine vs looped ``solve()`` — bit-identical outputs.

``sweep_machines``/``solve_many`` exist purely for speed: shared caches,
shared ``DualContext``, batched flip-search grids, optional bounds-only
resolution.  None of that may change a single answer, so every mode is
differential-tested here against fresh-instance ``solve()`` calls.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.algos.api import solve
from repro.algos.batch_api import (
    BatchItem,
    SweepPoint,
    solve_batch,
    solve_many,
    sweep_machines,
)
from repro.core import batchdual
from repro.core.bounds import Variant
from repro.core.instance import Instance
from repro.core.validate import validate_schedule
from repro.generators import medium_suite, small_exact_suite, uniform_instance

SWEEP_INSTANCES = [
    pytest.param(inst, id=f"{suite}:{label}")
    for suite, items in (
        ("small", small_exact_suite()),
        ("medium", medium_suite()),
    )
    for label, inst in items
]


def placements_key(schedule):
    return sorted(
        (p.machine, p.start, p.length, p.cls, p.job) for p in schedule.iter_all()
    )


def machine_counts(inst: Instance) -> list[int]:
    """A spread including the trivial endpoints (m=1, m ≥ n)."""
    ms = sorted({1, 2, max(1, inst.m // 2), inst.m, inst.m + 3, inst.n + 1})
    return [m for m in ms if m >= 1]


def fresh(inst: Instance, m: int) -> Instance:
    return Instance(m=m, setups=inst.setups, jobs=inst.jobs)


class TestSweepMachines:
    @pytest.mark.parametrize("inst", SWEEP_INSTANCES)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_full_mode_matches_looped_solve(self, inst, variant):
        ms = machine_counts(inst)
        swept = sweep_machines(inst, ms, variant)
        for m, res in zip(ms, swept):
            ref = solve(fresh(inst, m), variant)
            assert res.T == ref.T
            assert res.makespan == ref.makespan
            assert res.ratio_bound == ref.ratio_bound
            assert res.opt_lower_bound == ref.opt_lower_bound
            assert placements_key(res.schedule) == placements_key(ref.schedule)

    @pytest.mark.parametrize("inst", SWEEP_INSTANCES)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_bounds_mode_matches_solve_certificates(self, inst, variant, monkeypatch):
        from repro.core import batchdual

        ms = machine_counts(inst)
        for have_numpy in {batchdual.HAVE_NUMPY, False}:  # auto policy, scalar-only
            monkeypatch.setattr(batchdual, "HAVE_NUMPY", have_numpy)
            points = sweep_machines(inst, ms, variant, schedules=False)
            for m, point in zip(ms, points):
                ref = solve(fresh(inst, m), variant)
                assert isinstance(point, SweepPoint)
                assert point.m == m
                assert point.T == ref.T
                assert point.ratio_bound == ref.ratio_bound
                assert point.opt_lower_bound == ref.opt_lower_bound
                assert ref.makespan <= point.makespan_bound

    @pytest.mark.parametrize("variant", list(Variant))
    def test_bounds_mode_eps_algorithm(self, variant):
        inst = medium_suite()[0][1]
        ms = machine_counts(inst)
        points = sweep_machines(inst, ms, variant, algorithm="eps", schedules=False)
        for m, point in zip(ms, points):
            ref = solve(fresh(inst, m), variant, "eps")
            assert point.T == ref.T
            assert point.ratio_bound == ref.ratio_bound
            assert point.opt_lower_bound == ref.opt_lower_bound

    def test_fraction_kernel_sweep(self):
        inst = medium_suite()[0][1]
        ms = [1, inst.m, inst.m + 2]
        swept = sweep_machines(inst, ms, Variant.PREEMPTIVE, kernel="fraction")
        for m, res in zip(ms, swept):
            ref = solve(fresh(inst, m), Variant.PREEMPTIVE, kernel="fraction")
            assert res.T == ref.T
            assert placements_key(res.schedule) == placements_key(ref.schedule)

    def test_bounds_mode_rejects_non_dual_algorithms(self):
        inst = medium_suite()[0][1]
        with pytest.raises(ValueError):
            sweep_machines(inst, [inst.m], algorithm="two", schedules=False)

    def test_sweep_does_not_mutate_base_machine_count(self):
        inst = medium_suite()[0][1]
        m_before = inst.m
        sweep_machines(inst, [1, m_before + 5], Variant.SPLITTABLE)
        assert inst.m == m_before


class TestSolveMany:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_mixed_stream_matches_loop(self, variant):
        base = medium_suite()[0][1]
        other = medium_suite()[1][1]
        stream = [
            base,
            base.with_machines(max(1, base.m // 2)),
            other,
            base.with_machines(base.m + 4),
            base,  # exact duplicate
        ]
        results = solve_many(stream, variant)
        for inst, res in zip(stream, results):
            ref = solve(fresh(inst, inst.m), variant)
            assert res.T == ref.T
            assert res.makespan == ref.makespan
            assert placements_key(res.schedule) == placements_key(ref.schedule)

    def test_bounds_mode(self):
        base = medium_suite()[0][1]
        stream = [base, base.with_machines(base.m + 2)]
        points = solve_many(stream, Variant.NONPREEMPTIVE, schedules=False)
        for inst, point in zip(stream, points):
            ref = solve(fresh(inst, inst.m), Variant.NONPREEMPTIVE)
            assert point.T == ref.T
            assert point.opt_lower_bound == ref.opt_lower_bound


class TestSharedCaches:
    def test_with_machines_share_caches_is_equivalent(self):
        inst = medium_suite()[0][1]
        inst.fast_ctx()
        for i in range(inst.c):
            inst.class_jobs_frac(i)
            inst.class_jobs_sorted(i)
        shared = inst.with_machines(inst.m + 3, share_caches=True)
        plain = inst.with_machines(inst.m + 3)
        assert shared == plain
        assert shared.m == plain.m == inst.m + 3
        # caches are the same objects; the context clone carries the new m
        assert shared._jobs_frac_cache is inst._jobs_frac_cache
        assert shared.fast_ctx().m == inst.m + 3
        assert shared.fast_ctx().setups is inst.fast_ctx().setups
        assert shared.fast_ctx().batch_cache is inst.fast_ctx().batch_cache

    def test_share_caches_validates_m(self):
        inst = small_exact_suite()[0][1]
        from repro.core.errors import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            inst.with_machines(0, share_caches=True)


# --------------------------------------------------------------------------- #
# solve_batch: heterogeneous micro-batches vs looped solve()
# --------------------------------------------------------------------------- #


BIG = 10**16  # scales values past the grid tier's int64 guard


def rand_instance(rng: random.Random, *, scale: int = 1) -> Instance:
    c = rng.randint(1, 5)
    classes = [
        (rng.randint(0, 8) * scale,
         [rng.randint(1, 12) * scale for _ in range(rng.randint(1, 4))])
        for _ in range(c)
    ]
    return Instance.build(rng.randint(1, 6), classes)


def rand_pool_instance(rng: random.Random) -> Instance:
    """Small random shapes, setup-heavy ``m ≈ c`` shapes whose flip
    searches do real bracket work, and wide (``c = 64``) shapes where
    bounds-only split/pmtn flip searches take the grid tier."""
    roll = rng.random()
    if roll < 0.2:
        return uniform_instance(m=rng.randint(48, 70), c=64, n_per_class=1,
                                tmax=20, seed=rng.randint(0, 10**6))
    if roll < 0.5:
        c = rng.randint(4, 12)
        classes = [
            (rng.randint(0, 30),
             [rng.randint(1, 20) for _ in range(rng.randint(1, 5))])
            for _ in range(c)
        ]
        return Instance.build(rng.randint(max(2, c - 2), c), classes)
    return rand_instance(rng)


def rand_items(rng: random.Random, size: int) -> list[BatchItem]:
    """A heterogeneous micro-batch like a service shard would dispatch:
    mixed variants, algorithms, eps, machine counts, bounds/schedules,
    sweeps and repeated fingerprints."""
    pool = [rand_pool_instance(rng) for _ in range(max(2, size // 2))]
    items = []
    for _ in range(size):
        inst = rng.choice(pool)
        if rng.random() < 0.3:  # same fingerprint, different m
            inst = inst.with_machines(rng.randint(1, inst.n + 1))
        roll = rng.random()
        schedules = rng.random() < 0.5
        if roll < 0.6:
            algorithm = "three_halves"
        elif roll < 0.85:
            algorithm = "eps"
        else:
            algorithm = "two"
            schedules = True  # "two" is schedule-only
        ms = None
        if rng.random() < 0.15 and algorithm != "two":
            ms = tuple(sorted({rng.randint(1, 6) for _ in range(3)}))
        items.append(BatchItem(
            instance=inst,
            variant=rng.choice(list(Variant)),
            algorithm=algorithm,
            eps=Fraction(1, rng.choice([3, 10, 100])),
            schedules=schedules,
            ms=ms,
        ))
    return items


def assert_matches_looped_solve(item: BatchItem, got) -> None:
    """One solve_batch output vs fresh-instance solve() per machine count."""
    ms = item.ms if item.ms is not None else (item.instance.m,)
    outs = got if item.ms is not None else [got]
    assert len(outs) == len(ms)
    for m, out in zip(ms, outs):
        ref = solve(fresh(item.instance, m), item.variant, item.algorithm, item.eps)
        assert out.T == ref.T
        assert out.ratio_bound == ref.ratio_bound
        assert out.opt_lower_bound == ref.opt_lower_bound
        if item.schedules:
            assert out.makespan == ref.makespan
            assert placements_key(out.schedule) == placements_key(ref.schedule)
        else:
            assert isinstance(out, SweepPoint) and out.m == m


def assert_same_outputs(got: list, ref: list) -> None:
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        for a, b in zip(g if isinstance(g, list) else [g],
                        r if isinstance(r, list) else [r]):
            if isinstance(a, SweepPoint):
                assert a == b
            else:
                assert (a.T, a.ratio_bound, a.opt_lower_bound, a.makespan) == (
                    b.T, b.ratio_bound, b.opt_lower_bound, b.makespan,
                )
                assert placements_key(a.schedule) == placements_key(b.schedule)


class TestSolveBatchDifferential:
    """``solve_batch`` shares representatives and picks scalar or grid
    searches per item; none of that may change an answer."""

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzz_matches_looped_solve(self, seed):
        rng = random.Random(9000 + seed)
        items = rand_items(rng, rng.randint(2, 8))
        for item, got in zip(items, solve_batch(items)):
            assert_matches_looped_solve(item, got)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_homogeneous_variant_batches(self, variant):
        rng = random.Random(f"homogeneous-{variant.value}")
        items = [
            BatchItem(instance=rand_pool_instance(rng), variant=variant,
                      schedules=bool(i % 2))
            for i in range(6)
        ]
        for item, got in zip(items, solve_batch(items)):
            assert_matches_looped_solve(item, got)

    def test_schedules_pass_the_validator(self):
        rng = random.Random(77)
        items = [
            BatchItem(instance=rand_instance(rng), variant=v)
            for v in Variant for _ in range(2)
        ]
        for item, res in zip(items, solve_batch(items)):
            assert_matches_looped_solve(item, res)
            assert validate_schedule(res.schedule, item.variant) == res.makespan

    @pytest.mark.parametrize("seed", range(4))
    def test_without_numpy_matches_looped_solve(self, seed, monkeypatch):
        # the dispatch falls back to scalar searches everywhere
        monkeypatch.setattr(batchdual, "HAVE_NUMPY", False)
        rng = random.Random(400 + seed)
        items = rand_items(rng, 5)
        for item, got in zip(items, solve_batch(items)):
            assert_matches_looped_solve(item, got)

    def test_overflow_boundary_items(self):
        """Huge-value instances keep their searches off the grid tier."""
        rng = random.Random(31)
        items = [
            BatchItem(instance=rand_instance(rng, scale=BIG), variant=v,
                      schedules=False)
            for v in Variant
        ] + [BatchItem(instance=rand_instance(rng), variant=v) for v in Variant]
        for item, got in zip(items, solve_batch(items)):
            assert_matches_looped_solve(item, got)

    def test_fraction_kernel_batch_matches_fast(self):
        rng = random.Random(13)
        items = rand_items(rng, 4)
        assert_same_outputs(solve_batch(items), solve_batch(items, kernel="fraction"))

    def test_shared_reps_table_stays_warm(self):
        rng = random.Random(53)
        items = rand_items(rng, 5)
        reps: dict = {}
        first = solve_batch(items, reps=reps)
        assert reps  # representatives persist in the caller's table
        warm = dict(reps)
        again = solve_batch(items, reps=reps)
        assert all(reps[k] is v for k, v in warm.items())
        assert_same_outputs(again, first)
        assert_same_outputs(first, solve_batch(items))

    @pytest.mark.parametrize("knob", ["use_grid", "xbatch"])
    @pytest.mark.parametrize("entry", ["sweep_machines", "solve_many", "solve_batch"])
    def test_no_forcing_knobs(self, entry, knob):
        """Only the shape-aware policy picks the search tier: no entry
        point takes a knob that forces grids or fused dispatch."""
        inst = small_exact_suite()[1][1]
        calls = {
            "sweep_machines": lambda **kw: sweep_machines(
                inst, [inst.m], schedules=False, **kw),
            "solve_many": lambda **kw: solve_many([inst], schedules=False, **kw),
            "solve_batch": lambda **kw: solve_batch(
                [BatchItem(inst, schedules=False)], **kw),
        }
        with pytest.raises(TypeError, match=knob):
            calls[entry](**{knob: True})
