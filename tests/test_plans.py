"""Probe plans and the single ``drive_plan`` driver.

Every dual search is a probe-plan generator (:mod:`repro.algos.search`)
that one driver answers.  This suite pins the plan tier's contracts:

* **scaled-int plan tier** — the pair-native plans emit bit-identical
  probe streams (values, order, memo misses) and results on the fast
  and the fraction kernel, with and without numpy; the flip searches'
  grid mode changes the probe blocking, never the flip;
* **memo normalization** — memo keys are gcd-reduced pairs;
* **error parity** — ``solve_batch`` raises the smallest-index item's
  error, up front for invalid names and cancellation as
  :class:`~repro.core.cancel.SolveCancelled`; unfired tokens change
  nothing;
* **probe-drift regression** — the stream an item's search emits inside
  ``solve_batch`` equals the hand-driven plan's stream and does not
  depend on what else is in the batch.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from repro.algos import jumping_pmtn, jumping_split
from repro.algos.batch_api import (
    BatchItem,
    SweepPoint,
    _grid_safe_cached,
    _resolve_use_grid,
    solve_batch,
)
from repro.algos.jumping_pmtn import flip_plan_pmtn, pmtn_probe_evaluator
from repro.algos.jumping_split import flip_plan_splittable, split_probe_evaluator
from repro.algos.search import drive_plan
from repro.core import batchdual
from repro.core.bounds import Variant
from repro.core.cancel import CancelToken, SolveCancelled
from repro.core.instance import Instance

VARIANTS = list(Variant)


def rand_instance(rng: random.Random) -> Instance:
    """A small random instance."""
    c = rng.randint(1, 5)
    classes = []
    for _ in range(c):
        setup = rng.randint(0, 8)
        jobs = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        classes.append((setup, jobs))
    return Instance.build(rng.randint(1, 6), classes)


def rand_searchy_instance(rng: random.Random) -> Instance:
    """Setup-heavy, ``m`` ≈ ``c`` — the shape whose flip searches run many
    rounds (``t_min`` rejected, real bracket work) instead of accepting
    immediately."""
    c = rng.randint(4, 12)
    classes = [
        (rng.randint(0, 30),
         [rng.randint(1, 20) for _ in range(rng.randint(1, 5))])
        for _ in range(c)
    ]
    return Instance.build(rng.randint(max(2, c - 2), c), classes)


def rand_batch(rng: random.Random, size: int) -> list[BatchItem]:
    """A heterogeneous micro-batch like a service shard would dispatch."""
    items = []
    pool = [
        rand_searchy_instance(rng) if rng.random() < 0.4 else rand_instance(rng)
        for _ in range(max(2, size // 2))
    ]
    for _ in range(size):
        inst = rng.choice(pool)
        if rng.random() < 0.3:  # same fingerprint, different m
            inst = inst.with_machines(rng.randint(1, 7))
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
            variant=rng.choice(VARIANTS),
            algorithm=algorithm,
            eps=Fraction(1, rng.choice([3, 10, 100])),
            schedules=schedules,
            ms=ms,
        ))
    return items


def placements_key(schedule):
    return sorted(
        (p.machine, p.start, p.length, p.cls, p.job) for p in schedule.iter_all()
    )


def assert_same_output(got, ref):
    """One solve_batch output entry vs its reference, field for field."""
    if isinstance(got, list):
        assert isinstance(ref, list) and len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_same_output(g, r)
        return
    if isinstance(got, SweepPoint):
        assert isinstance(ref, SweepPoint)
        assert got == ref
        return
    assert got.variant == ref.variant
    assert got.algorithm == ref.algorithm
    assert got.T == ref.T
    assert got.ratio_bound == ref.ratio_bound
    assert got.opt_lower_bound == ref.opt_lower_bound
    assert got.makespan == ref.makespan
    assert placements_key(got.schedule) == placements_key(ref.schedule)


def drive_recording(plan, evaluate):
    """Drive ``plan`` to completion, returning ``(probe stream, result)``."""
    stream = []

    def spy(req):
        for tn, td in req.times:
            stream.append((req.op, req.kind, req.mode, tn, td))
        return evaluate(req)

    return stream, drive_plan(plan, spy)


# --------------------------------------------------------------------------- #
# scaled-integer plan tier: pair plans vs the Fraction kernel
# --------------------------------------------------------------------------- #


class TestScaledIntPlanTier:
    """The pair-native probe plans emit bit-identical streams on both kernels.

    The plan generators carry normalized ``(num, den)`` pairs end to end;
    the only Fractions are the ones the fraction-kernel evaluator branch
    rebuilds at its boundary.  Since normalized pairs are canonical per
    rational, the probe values, memo keys (hence hit counts and
    ``accept_calls``) and results must match the Fraction-kernel drive
    exactly — pinned here per variant, with and without numpy.
    """

    def _evaluators(self, inst, variant):
        if variant is Variant.SPLITTABLE:
            return (
                split_probe_evaluator(inst, fast=True, ctx=inst.fast_ctx(), grid=False),
                split_probe_evaluator(inst, fast=False, ctx=None, grid=False),
            )
        return (
            pmtn_probe_evaluator(inst, fast=True, ctx=inst.fast_ctx(), grid=False),
            pmtn_probe_evaluator(inst, fast=False, ctx=None, grid=False),
        )

    def _plan(self, inst, variant):
        if variant is Variant.SPLITTABLE:
            return flip_plan_splittable(inst, grid=False)
        return flip_plan_pmtn(inst, grid=False)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "variant", [Variant.SPLITTABLE, Variant.PREEMPTIVE]
    )
    def test_flip_plan_stream_identical_across_kernels(self, seed, variant):
        rng = random.Random(2100 + seed)
        inst = rand_searchy_instance(rng)
        fast_eval, frac_eval = self._evaluators(inst, variant)
        fast_stream, fast_res = drive_recording(self._plan(inst, variant), fast_eval)
        frac_stream, frac_res = drive_recording(self._plan(inst, variant), frac_eval)
        assert fast_stream == frac_stream  # probe values, order, memo misses
        assert fast_res == frac_res        # result pairs + accept_calls
        # every emitted probe pair is in lowest terms with a positive den
        for _, _, _, tn, td in fast_stream:
            assert td > 0 and gcd(tn, td) == 1

    @pytest.mark.parametrize("variant", [Variant.SPLITTABLE, Variant.PREEMPTIVE])
    def test_flip_plan_streams_without_numpy(self, variant, monkeypatch):
        monkeypatch.setattr(batchdual, "HAVE_NUMPY", False)
        rng = random.Random(2200)
        inst = rand_searchy_instance(rng)
        fast_eval, frac_eval = self._evaluators(inst, variant)
        fast_stream, fast_res = drive_recording(self._plan(inst, variant), fast_eval)
        frac_stream, frac_res = drive_recording(self._plan(inst, variant), frac_eval)
        assert fast_stream == frac_stream
        assert fast_res == frac_res

    @pytest.mark.parametrize("seed", range(4))
    def test_eps_and_integer_plan_streams(self, seed):
        """Theorem-2/Theorem-8 plans: same streams on both kernels."""
        from repro.algos.nonpreemptive import nonp_dual_test
        from repro.algos.search import eps_probe_plan, integer_probe_plan
        from repro.core.bounds import t_min
        from repro.core.fastnum import fast_nonp_test
        from repro.core.numeric import fast_fraction

        rng = random.Random(2300 + seed)
        inst = rand_searchy_instance(rng)
        ctx = inst.fast_ctx()

        fast_eval, frac_eval = self._evaluators(inst, Variant.SPLITTABLE)
        tmin = t_min(inst, Variant.SPLITTABLE)
        for eps in (Fraction(1, 3), Fraction(1, 100)):
            fast_stream, fast_res = drive_recording(
                eps_probe_plan(tmin, eps, "split", ""), fast_eval
            )
            frac_stream, frac_res = drive_recording(
                eps_probe_plan(tmin, eps, "split", ""), frac_eval
            )
            assert fast_stream == frac_stream
            assert fast_res == frac_res

        def nonp_eval(fast):
            def evaluate(req):
                if fast:
                    return [
                        fast_nonp_test(ctx, tn, td).accepted for tn, td in req.times
                    ]
                return [
                    nonp_dual_test(inst, fast_fraction(tn, td)).accepted
                    for tn, td in req.times
                ]

            return evaluate

        tmin_n = t_min(inst, Variant.NONPREEMPTIVE)
        fast_stream, fast_res = drive_recording(
            integer_probe_plan(tmin_n, "nonp"), nonp_eval(True)
        )
        frac_stream, frac_res = drive_recording(
            integer_probe_plan(tmin_n, "nonp"), nonp_eval(False)
        )
        assert fast_stream == frac_stream
        assert fast_res == frac_res

    @pytest.mark.parametrize("variant", [Variant.SPLITTABLE, Variant.PREEMPTIVE])
    def test_grid_and_scalar_plans_agree_on_results(self, variant):
        """grid=True reorders probes into blocks but never changes the flip."""
        rng = random.Random(2400)
        inst = rand_searchy_instance(rng)
        if variant is Variant.SPLITTABLE:
            scalar = drive_recording(
                flip_plan_splittable(inst, grid=False),
                split_probe_evaluator(inst, fast=True, ctx=inst.fast_ctx(), grid=False),
            )
            grid = drive_recording(
                flip_plan_splittable(inst, grid=True),
                split_probe_evaluator(inst, fast=True, ctx=inst.fast_ctx(), grid=True),
            )
        else:
            scalar = drive_recording(
                flip_plan_pmtn(inst, grid=False),
                pmtn_probe_evaluator(inst, fast=True, ctx=inst.fast_ctx(), grid=False),
            )
            grid = drive_recording(
                flip_plan_pmtn(inst, grid=True),
                pmtn_probe_evaluator(inst, fast=True, ctx=inst.fast_ctx(), grid=True),
            )
        assert scalar[1][0] == grid[1][0]  # same flip pair


class TestMemoNormalization:
    """Memo keys are gcd-reduced, so unnormalized inputs share cache
    entries with their canonical representations."""

    def test_plan_accept_normalizes_pairs(self):
        from repro.algos.search import plan_accept

        memo, counted = {}, [0]

        def run(pair):
            gen = plan_accept(memo, counted, "split", "", pair)
            try:
                req = next(gen)
            except StopIteration as stop:
                return stop.value, None
            try:
                gen.send([True])
            except StopIteration as stop:
                return stop.value, req
            pytest.fail("plan_accept yields at most once")

        verdict, req = run((6, 4))
        assert verdict is True and req is not None
        assert req.times == ((3, 2),)  # probe emitted in lowest terms
        # unnormalized and negative-denominator aliases are memo hits
        assert run((3, 2)) == (True, None)
        assert run((-6, -4)) == (True, None)
        assert counted[0] == 1

    def test_plan_accept_block_shares_normalized_memo(self):
        from repro.algos.search import plan_accept_block

        memo, counted = {(1, 2): True}, [0]  # e.g. left by a scalar probe
        gen = plan_accept_block(memo, counted, "split", "", [(2, 4), (10, 4)])
        req = next(gen)
        # only the unknown rational goes out, in lowest terms
        assert req.op == "accept_block" and req.times == ((5, 2),)
        with pytest.raises(StopIteration) as stop:
            gen.send([False])
        assert stop.value.value == [True, False]
        assert counted[0] == 1 and memo == {(1, 2): True, (5, 2): False}
        # a fully known block yields nothing
        gen = plan_accept_block(memo, counted, "split", "", [(-1, -2), (5, 2)])
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == [True, False] and counted[0] == 1


# --------------------------------------------------------------------------- #
# error parity: the first failing item's error, cancellation taxonomy
# --------------------------------------------------------------------------- #


class TestErrorParity:
    def test_bad_eps_raises_same_error(self):
        rng = random.Random(3)
        good = BatchItem(instance=rand_instance(rng))
        # non-trivial (1 < m < n) so the eps search actually starts
        nontrivial = Instance.build(3, [(2, [3, 4]), (1, [5, 2]), (4, [1, 6])])
        bad = BatchItem(instance=nontrivial, algorithm="eps", eps=Fraction(0))
        messages = set()
        for batch in ([bad], [good, bad], [good, bad, good]):
            with pytest.raises(ValueError, match="eps") as err:
                solve_batch(batch)
            messages.add(str(err.value))
        assert len(messages) == 1  # batch composition never changes the error

    def test_invalid_names_rejected_before_any_solve(self):
        rng = random.Random(19)
        solved = []
        bad_eps = BatchItem(instance=rand_instance(rng), algorithm="eps",
                            eps=Fraction(-1))
        bad_algo = BatchItem(instance=rand_instance(rng), algorithm="two",
                             schedules=False)
        # invalid algorithm/mode combos are rejected at validation, before
        # any solve starts (the hook never fires)
        with pytest.raises(ValueError, match="'two'"):
            solve_batch([bad_eps, bad_algo], before_solve=solved.append)
        assert solved == []

    def test_expired_token_raises_solvecancelled(self):
        rng = random.Random(23)
        items = [BatchItem(instance=rand_instance(rng)) for _ in range(3)]
        fired = CancelToken()
        fired.cancel()
        solved = []
        with pytest.raises(SolveCancelled):
            solve_batch(items, cancels=[None, fired, None],
                        before_solve=solved.append)
        assert solved == items[:2]  # later items never start

    def test_unfired_tokens_do_not_perturb_results(self):
        rng = random.Random(29)
        items = rand_batch(rng, 4)
        cancels = [CancelToken.after(3600.0) for _ in items]
        got = solve_batch(items, cancels=cancels)
        ref = solve_batch(items)
        for g, r in zip(got, ref):
            assert_same_output(g, r)


# --------------------------------------------------------------------------- #
# probe-drift regression: engine stream == hand-driven plan stream
# --------------------------------------------------------------------------- #


def record_engine_streams(items, monkeypatch) -> list[list]:
    """Per flip search, the probe rows ``solve_batch(items)`` drives."""
    streams: list[list] = []

    def spy_driver(plan, evaluate):
        stream: list = []
        streams.append(stream)

        def spy(req):
            stream.extend((req.kind, req.mode, tn, td) for tn, td in req.times)
            return evaluate(req)

        return drive_plan(plan, spy)

    with monkeypatch.context() as patch:
        patch.setattr(jumping_split, "drive_plan", spy_driver)
        patch.setattr(jumping_pmtn, "drive_plan", spy_driver)
        solve_batch(items)
    return streams


def is_trivial(item: BatchItem) -> bool:
    inst = item.instance
    return inst.m == 1 or (item.variant is not Variant.SPLITTABLE
                           and inst.m >= inst.n)


class TestProbeDriftRegression:
    def test_engine_stream_equals_hand_driven_plan(self, monkeypatch):
        """solve_batch drives the literal plan generators, probe for probe."""
        rng = random.Random(189)
        insts = [rand_searchy_instance(rng) for _ in range(4)]
        items = [
            BatchItem(instance=insts[0], variant=Variant.SPLITTABLE),
            BatchItem(instance=insts[1], variant=Variant.PREEMPTIVE),
            BatchItem(instance=insts[2], variant=Variant.SPLITTABLE,
                      schedules=False),
            BatchItem(instance=insts[3], variant=Variant.PREEMPTIVE,
                      schedules=False),
        ]
        items = [it for it in items if not is_trivial(it)]
        assert items
        streams = record_engine_streams(items, monkeypatch)
        assert len(streams) == len(items)
        for item, got in zip(items, streams):
            inst = item.instance
            # the same grid resolution solve_batch applies
            grid = (
                not item.schedules
                and _resolve_use_grid("fast", item.variant, inst.c)
                and _grid_safe_cached(inst, item.variant)
            )
            if item.variant is Variant.SPLITTABLE:
                plan = flip_plan_splittable(inst, grid=grid)
                evaluate = split_probe_evaluator(
                    inst, fast=True, ctx=inst.fast_ctx(), grid=grid
                )
            else:
                plan = flip_plan_pmtn(inst, use_base_jump=True, grid=grid)
                evaluate = pmtn_probe_evaluator(
                    inst, fast=True, ctx=inst.fast_ctx(), grid=grid
                )
            solo, _ = drive_recording(plan, evaluate)
            assert solo  # every non-trivial flip search probes at least once
            assert got == [row[1:] for row in solo]

    @pytest.mark.parametrize("seed", range(4))
    def test_stream_independent_of_batch_composition(self, seed, monkeypatch):
        """An item's probe stream is the same alone and inside a big batch."""
        rng = random.Random(600 + seed)
        items = [
            BatchItem(instance=rand_searchy_instance(rng),
                      variant=rng.choice([Variant.SPLITTABLE,
                                          Variant.PREEMPTIVE]),
                      schedules=rng.random() < 0.5)
            for _ in range(5)
        ]
        items = [it for it in items if not is_trivial(it)]
        batched = record_engine_streams(items, monkeypatch)
        solo = [record_engine_streams([item], monkeypatch)[0] for item in items]
        assert batched == solo

    @pytest.mark.parametrize("seed", range(6))
    def test_accept_calls_identical(self, seed):
        """Probe counts (the paper's complexity measure) never drift."""
        rng = random.Random(800 + seed)
        items = [
            BatchItem(instance=rand_instance(rng), variant=rng.choice(VARIANTS),
                      algorithm=rng.choice(["three_halves", "eps"]),
                      schedules=False)
            for _ in range(6)
        ]
        got = solve_batch(items)
        for item, g in zip(items, got):
            (r,) = solve_batch([item])
            assert g.accept_calls == r.accept_calls
            assert g == r
