"""Batched solve engine: ``solve_many`` and ``sweep_machines``.

The workloads the ROADMAP targets — machine-count sweeps
(:mod:`repro.experiments.scaling`), ratio studies, and service-shaped
request streams — call :func:`repro.solve` on many *related* instances:
the same classes and jobs, varying only the machine count (or repeating
the instance outright).  A naive loop rebuilds every per-instance cache
(Fraction job views, sorted views with prefix sums, the fast-kernel
:class:`~repro.core.fastnum.DualContext`) per call, even though all of
it is machine-count independent.

This module is the façade that exploits the sharing:

* :func:`sweep_machines` solves one instance across a list of machine
  counts.  One set of caches and one ``DualContext`` (re-``m``'d via
  :meth:`~repro.core.fastnum.DualContext.for_m`) back every point; the
  per-point instance copy is an O(c) cache-sharing
  ``with_machines(..., share_caches=True)``.
* :func:`solve_many` solves a stream of instances, transparently sharing
  caches between instances with equal ``(setups, jobs)``.
* Both offer ``schedules=False``: the dual searches still resolve the
  certified makespan ``T`` with its lower-bound certificate — the
  split/pmtn flip searches through the batched grid kernels of
  :mod:`repro.core.batchdual` where :data:`GRID_POLICY` picks them — but
  no schedule is materialized.  Sweep consumers that
  only need the ``T*``/bound curve (capacity planning: "how many
  machines until the proven bound drops below X?") skip the dominant
  construction cost entirely; :class:`SweepPoint` carries the same
  certified fields a full :class:`~repro.algos.api.SolveResult` would.

Everything returned is bit-identical to the corresponding looped
``solve()`` fields — asserted by ``tests/test_batch_api.py`` on the
generator suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, MutableMapping, Optional, Sequence, Union

from ..core import batchdual
from ..core.bounds import Variant, lower_bound, setup_plus_tmax, t_min
from ..core.cancel import CancelToken, cancel_scope
from ..core.fastnum import validate_kernel
from ..core.instance import Instance
from ..core.numeric import Time
from ..obs.trace import count as obs_count
from .api import PROBE_LABELS, Algorithm, Kernel, SolveResult, _dual_for, solve
from .jumping_pmtn import find_flip_pmtn
from .jumping_split import find_flip_splittable
from .nonpreemptive import three_halves_nonpreemptive
from .search import GRID_BLOCK, binary_search_dual

__all__ = ["BatchItem", "SweepPoint", "solve_batch", "solve_many", "sweep_machines"]

#: The three public algorithm names of :func:`repro.algos.api.solve`.
VALID_ALGORITHMS = ("two", "eps", "three_halves")


def _coerce_variant(variant) -> Variant:
    """``variant`` as a :class:`Variant` member, with a one-line error.

    ``Variant`` is a ``str`` enum, so a plain string like ``"splittable"``
    *compares* equal to a member but fails every ``is`` dispatch the
    solve paths use — silently taking wrong branches.  Coercing up front
    makes strings first-class and turns typos into one clear error.
    """
    if isinstance(variant, Variant):
        return variant
    try:
        return Variant(variant)
    except ValueError:
        valid = ", ".join(repr(v.value) for v in Variant)
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {valid} "
            f"(or a repro.core.bounds.Variant member)"
        ) from None


def _validate_request(variant, algorithm, schedules: bool) -> Variant:
    """Validate one request's names *before* any solving starts.

    The batched entry points process streams; without this, a bad
    variant or algorithm name surfaced mid-stream (or worse, after
    partial results were already computed).  Everything raised here is
    raised before the first solve.
    """
    variant = _coerce_variant(variant)
    if algorithm not in VALID_ALGORITHMS:
        valid = ", ".join(repr(a) for a in VALID_ALGORITHMS)
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {valid}")
    if not schedules and algorithm == "two":
        raise ValueError(
            "schedules=False supports the dual-search algorithms "
            "('three_halves', 'eps'), not 'two'"
        )
    return variant


@dataclass(frozen=True)
class SweepPoint:
    """Bounds-only outcome of one sweep entry (no schedule materialized).

    Field for field the certificate data of the ``SolveResult`` a full
    solve at this machine count returns: the same accepted ``T``, the
    same proven ``ratio_bound``, the same ``opt_lower_bound``.  The
    schedule itself (makespan ≤ ``makespan_bound``) can be built on
    demand with ``solve(instance.with_machines(m), ...)``.
    """

    m: int
    variant: Variant
    algorithm: str
    T: Time
    ratio_bound: Fraction
    opt_lower_bound: Time
    accept_calls: int

    @property
    def makespan_bound(self) -> Time:
        """Proven ceiling on the (buildable) schedule's makespan.

        The dual constructions guarantee makespan ≤ (3/2)·T at the
        accepted ``T``; the trivial closed forms are exact.
        """
        if self.algorithm == "trivial":
            return self.T
        return Fraction(3, 2) * self.T


def _trivial_point(instance: Instance, variant: Variant) -> Optional[SweepPoint]:
    """The m = 1 / m ≥ n closed forms of the trivial solve paths."""
    if instance.m == 1:
        total = Fraction(instance.total_load)  # serial schedule is optimal
        return SweepPoint(
            m=1, variant=variant, algorithm="trivial", T=total,
            ratio_bound=Fraction(1), opt_lower_bound=total, accept_calls=0,
        )
    if variant is not Variant.SPLITTABLE and instance.m >= instance.n:
        cmax = Fraction(setup_plus_tmax(instance))  # one job (+setup) per machine
        return SweepPoint(
            m=instance.m, variant=variant, algorithm="trivial", T=cmax,
            ratio_bound=Fraction(1), opt_lower_bound=cmax, accept_calls=0,
        )
    return None


def _bounds_point(
    instance: Instance,
    variant: Variant,
    algorithm: Algorithm,
    eps: Fraction,
    kernel: Kernel,
    grid: bool,
) -> SweepPoint:
    """One bounds-only solve: search, certify, skip the construction.

    ``grid`` (the :func:`_resolve_use_grid` verdict) only reaches the
    split/pmtn flip searches; every other search probes scalar.
    """
    trivial = _trivial_point(instance, variant)
    if trivial is not None:
        return trivial
    lb = lower_bound(instance, variant)
    fast = validate_kernel(kernel)
    ctx = instance.fast_ctx() if fast else None
    m = instance.m

    if algorithm == "eps":
        # Same accept predicate solve(..., "eps") wires up (build discarded:
        # bounds mode never constructs).
        accept, _ = _dual_for(instance, variant, kernel)
        kind, mode = PROBE_LABELS[variant]
        sr = binary_search_dual(
            instance, variant, accept, build=None, eps=eps, kind=kind, mode=mode
        )
        return SweepPoint(
            m=m, variant=variant, algorithm="eps", T=sr.T,
            ratio_bound=sr.ratio_bound,
            opt_lower_bound=max(lb, sr.certificate_lo),
            accept_calls=sr.accept_calls,
        )

    if algorithm != "three_halves":
        raise ValueError(
            f"schedules=False supports the dual-search algorithms "
            f"('three_halves', 'eps'), not {algorithm!r}"
        )

    if variant is Variant.SPLITTABLE:
        T_star, calls = find_flip_splittable(
            instance, kernel=kernel, ctx=ctx, use_grid=grid
        )
        return SweepPoint(
            m=m, variant=variant, algorithm="three_halves", T=T_star,
            ratio_bound=Fraction(3, 2), opt_lower_bound=max(lb, T_star),
            accept_calls=calls,
        )
    if variant is Variant.PREEMPTIVE:
        T_star, T_witness, calls = find_flip_pmtn(
            instance, kernel=kernel, ctx=ctx, use_grid=grid
        )
        ratio = (
            Fraction(3, 2) * T_witness / T_star if T_star else Fraction(3, 2)
        )
        return SweepPoint(
            m=m, variant=variant, algorithm="three_halves", T=T_witness,
            ratio_bound=ratio, opt_lower_bound=max(lb, T_star),
            accept_calls=calls,
        )
    sr = three_halves_nonpreemptive(
        instance, kernel=kernel, ctx=ctx, build_schedule=False
    )
    return SweepPoint(
        m=m, variant=variant, algorithm="three_halves", T=sr.T,
        ratio_bound=Fraction(3, 2),
        opt_lower_bound=max(lb, sr.certificate_lo),
        accept_calls=sr.accept_calls,
    )


#: Shape-aware grid auto-policy for the Class Jumping flip searches: per
#: probe kind a ``(block_min, work_max)`` window — the grid engages only
#: when the candidate-block size reaches ``block_min`` (vectorization
#: width to amortize the numpy call overhead) *and* the product ``block
#: × c`` stays under ``work_max`` (every grid candidate touches all
#: ``c`` classes, while a scalar probe bisects sorted prefix views in
#: O(log c); the blow-up must stay bounded).  Calibrated by Experiment
#: S3 (``python -m repro.experiments gridcross``) on the scaled-integer
#: plans:
#:
#: * ``pmtn`` flip search — grid wins 1.06–1.15× for block×c in
#:   ≈ 10k–26k, parity at 51k, loses below block ≈ 64;
#: * ``split`` flip search — parity (0.91–1.01×) in the S3 cell, but on
#:   the wire benchmark's ``bounds-near`` traffic (c = 300, where only
#:   this row engages) turning the flip-search grid off cost ≈ 14% of
#:   end-to-end throughput on a 2-vCPU host.
#:
#: The ε-bisection and the Theorem-8 integer search always probe scalar:
#: their pair-native scalar probes beat a grid at every measured shape.
GRID_POLICY: dict[str, tuple[int, int]] = {
    "split": (64, 64_000),
    "pmtn": (64, 32_000),
}


def _resolve_use_grid(
    kernel: Kernel,
    variant: Variant,
    c: int,
    algorithm: Algorithm = "three_halves",
) -> bool:
    """Does this bounds-only search run on the vectorized grid evaluators?

    A grid round evaluates a whole candidate block at once where the
    scalar search would bisect it with ~log₂(block) probes, and every
    grid candidate costs kernel work linear in the class count — the
    numpy constant-factor win has to amortize that blow-up.  Only the
    split/pmtn flip searches have a :data:`GRID_POLICY` row; they engage
    while the product of the candidate-block size (at most ``c + 2``
    jump points, capped at :data:`~repro.algos.search.GRID_BLOCK`) and
    the class count stays inside it.  Needs numpy and the fast kernel.
    """
    grid = False
    policy = GRID_POLICY.get(PROBE_LABELS[variant][0]) if algorithm != "eps" else None
    if policy is not None and batchdual.HAVE_NUMPY and kernel == "fast":
        block_min, work_max = policy
        block = min(c + 2, GRID_BLOCK)
        grid = block >= block_min and block * c <= work_max
    obs_count("dispatch.grid" if grid else "dispatch.scalar")
    return grid


def _grid_safe_for(ctx, instance: Instance, variant: Variant) -> bool:
    """Will this instance's search candidates clear the int64 precheck?

    Batched grid calls stay *correct* on overflow-prone instances (each
    call falls back to the scalar kernel), but a fallen-back grid call
    evaluates every candidate of its block sequentially, which is slower
    than the plain bisection it replaced.  This probes
    :func:`batchdual._grid_is_safe` once per sweep point with a
    representative candidate envelope (the search window ``[T_min,
    2·T_min]`` at denominators up to ``1024·2m`` — a superset of the
    class-jump denominators seen in practice) and keeps grids off when
    it does not clear.
    """
    tmin = t_min(instance, variant)
    max_td = tmin.denominator * 1024 * max(1, 2 * instance.m)
    lo = tmin.numerator * (max_td // tmin.denominator)
    return batchdual._grid_is_safe(ctx, [max(1, lo), 2 * lo], [max_td, max_td])


def sweep_machines(
    instance: Instance,
    ms: Iterable[int],
    variant: Variant = Variant.NONPREEMPTIVE,
    algorithm: Algorithm = "three_halves",
    eps: Fraction = Fraction(1, 100),
    *,
    kernel: Kernel = "fast",
    schedules: bool = True,
) -> Union[list[SolveResult], list[SweepPoint]]:
    """Solve ``instance`` across machine counts ``ms``, sharing every cache.

    The instance's job/class data is machine-count independent, so one
    set of per-class views and one fast-kernel context back the whole
    sweep (``with_machines(..., share_caches=True)`` +
    :meth:`DualContext.for_m`); only the per-``m`` search and (with
    ``schedules=True``) the per-``m`` construction remain.

    ``schedules=True`` returns full :class:`SolveResult` objects,
    bit-identical to ``[solve(instance.with_machines(m), ...) for m in
    ms]``.  ``schedules=False`` returns :class:`SweepPoint` bounds
    (same certified ``T``/ratio/lower bound, no schedule) — the fast
    path for ``T*``-curve workloads.  Bounds-only split/pmtn flip
    searches run on the vectorized grid kernel where
    :func:`_resolve_use_grid` picks it (numpy importable, ``"fast"``
    kernel, a :data:`GRID_POLICY` shape) and the instance clears the
    int64 overflow probe; every other search probes scalar.  (Even the
    non-preemptive construction is sweep-friendly: Algorithm 6 runs
    object-free on the index-based
    :class:`~repro.core.itemstore.ItemStore`, reuses the shared
    per-class prefix/Q-block caches across points, skips the already-
    decided Theorem-9 re-test, and hands schedules over lazily — the
    full-sweep ratio over the looped baseline reaches ~2× like the
    other variants.)
    """
    validate_kernel(kernel)
    variant = _validate_request(variant, algorithm, schedules)
    grid = (
        False if schedules
        else _resolve_use_grid(kernel, variant, instance.c, algorithm)
    )
    if kernel == "fast":
        ctx = instance.fast_ctx()  # ensure the shared context exists pre-sweep
        if grid and not _grid_safe_for(ctx, instance, variant):
            grid = False  # overflow-prone grids would fall back per call
    out: list = []
    for m in ms:
        inst_m = instance.with_machines(m, share_caches=True)
        if schedules:
            out.append(solve(inst_m, variant, algorithm, eps, kernel=kernel))
        else:
            out.append(
                _bounds_point(inst_m, variant, algorithm, eps, kernel, grid)
            )
    return out


def solve_many(
    instances: Sequence[Instance],
    variant: Variant = Variant.NONPREEMPTIVE,
    algorithm: Algorithm = "three_halves",
    eps: Fraction = Fraction(1, 100),
    *,
    kernel: Kernel = "fast",
    schedules: bool = True,
) -> Union[list[SolveResult], list[SweepPoint]]:
    """Solve a stream of instances, sharing caches between equal inputs.

    Instances with identical ``(setups, jobs)`` — machine-count sweeps,
    repeated service requests — are backed by one representative's
    caches and fast-kernel context; distinct inputs solve exactly as a
    plain loop would.  Output order matches the input order and every
    entry is bit-identical to the corresponding ``solve(...)`` call
    (or, with ``schedules=False``, to its certificate fields).
    """
    validate_kernel(kernel)
    variant = _validate_request(variant, algorithm, schedules)
    reps: dict[tuple, Instance] = {}
    grid_by_key: dict[tuple, bool] = {}  # overflow probe is per input, not sticky
    out: list = []
    for inst in instances:
        key = (inst.setups, inst.jobs)
        rep = reps.get(key)
        if rep is None:
            reps[key] = inst
            grid = (
                False if schedules
                else _resolve_use_grid(kernel, variant, inst.c, algorithm)
            )
            if kernel == "fast":
                ctx = inst.fast_ctx()
                if grid and not _grid_safe_for(ctx, inst, variant):
                    grid = False  # see sweep_machines
            grid_by_key[key] = grid
            shared = inst
        else:
            shared = rep.with_machines(inst.m, share_caches=True)
        if schedules:
            out.append(solve(shared, variant, algorithm, eps, kernel=kernel))
        else:
            out.append(
                _bounds_point(shared, variant, algorithm, eps, kernel, grid_by_key[key])
            )
    return out


# --------------------------------------------------------------------------- #
# heterogeneous micro-batches (the service coalescing entry point)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class BatchItem:
    """One coalesced request of :func:`solve_batch`.

    Unlike the homogeneous :func:`solve_many` stream, every item carries
    its own variant/algorithm/mode — the shape of a service micro-batch,
    where concurrent requests against the same instance data may ask for
    different things.  ``ms`` turns the item into a machine sweep
    (:func:`sweep_machines` over those counts, the instance's own ``m``
    ignored); otherwise the item is a single solve at ``instance.m``.
    ``schedules=False`` resolves certified bounds only
    (:class:`SweepPoint`), skipping construction.
    """

    instance: Instance
    variant: Variant = Variant.NONPREEMPTIVE
    algorithm: Algorithm = "three_halves"
    eps: Fraction = field(default_factory=lambda: Fraction(1, 100))
    schedules: bool = True
    ms: Optional[tuple[int, ...]] = None


def _grid_safe_cached(instance: Instance, variant: Variant) -> bool:
    """The :func:`_grid_safe_for` probe, memoized on the shared cache set.

    The probe is per ``(variant, m)`` (the candidate envelope depends on
    ``T_min``); service streams re-solve the same fingerprints for the
    same machine counts over and over, so the verdict is parked in the
    instance's shared misc cache — evicted (and re-probed) together with
    everything else on :meth:`Instance.release_caches`.
    """
    key = ("grid_safe", variant.value, instance.m)
    cached = instance._misc_cache.get(key)
    if cached is None:
        cached = _grid_safe_for(instance.fast_ctx(), instance, variant)
        instance._misc_cache[key] = cached
    return cached


def _solve_item(
    shared: Instance,
    variant: Variant,
    item: BatchItem,
    kernel: Kernel,
):
    """One item of :func:`solve_batch`."""
    if item.ms is not None:
        return sweep_machines(
            shared, item.ms, variant, item.algorithm, item.eps,
            kernel=kernel, schedules=item.schedules,
        )
    if item.schedules:
        return solve(shared, variant, item.algorithm, item.eps, kernel=kernel)
    grid = _resolve_use_grid(kernel, variant, shared.c, item.algorithm)
    if grid and not _grid_safe_cached(shared, variant):
        grid = False  # see sweep_machines
    return _bounds_point(shared, variant, item.algorithm, item.eps, kernel, grid)


def solve_batch(
    items: Sequence[BatchItem],
    *,
    kernel: Kernel = "fast",
    reps: Optional[MutableMapping[str, Instance]] = None,
    cancels: Optional[Sequence[Optional[CancelToken]]] = None,
    before_solve: Optional[Callable[[BatchItem], None]] = None,
) -> list:
    """Solve one heterogeneous micro-batch, coalescing equal instances.

    The entry point the service shards dispatch through.  Items whose
    instances share a :meth:`~repro.core.instance.Instance.fingerprint`
    are backed by one representative's cache set (Fraction/sorted views,
    ``DualContext``) exactly like :func:`solve_many`; unlike it, the
    representative table ``reps`` (fingerprint → instance) is **caller
    owned**, so warm caches persist *across* batches — pass the same
    mapping (e.g. an LRU that evicts via ``release_caches()``) on every
    call and repeated service traffic never rebuilds a hot instance's
    caches.  Passing nothing coalesces within the batch only.

    The function keeps no module state and mutates nothing but ``reps``,
    so it is reentrant: concurrent callers with *disjoint* ``reps``
    mappings (the service guarantees this by sharding on fingerprint)
    never share a lazily-filled cache across threads.

    Every name is validated before the first solve (one clear error, no
    partial results), and the output list matches ``items`` order:
    ``SolveResult`` | :class:`SweepPoint` for single solves, a list
    thereof for ``ms`` sweeps — each bit-identical to the corresponding
    fresh-instance ``solve()`` / ``sweep_machines`` call.

    ``cancels`` (aligned with ``items``) attaches a per-item
    :class:`~repro.core.cancel.CancelToken`: each item solves inside a
    ``cancel_scope`` of its token, so an expired deadline aborts that
    item's search at the next probe boundary with
    :class:`~repro.core.cancel.SolveCancelled` — and output stays
    bit-identical whenever no token fires.  ``before_solve`` is an
    instrumentation hook invoked with each item just before its solve —
    the service's fault-injection harness hangs delays/raises off it;
    production callers leave it ``None``.
    """
    validate_kernel(kernel)
    prepared = [
        (item, _validate_request(item.variant, item.algorithm, item.schedules))
        for item in items
    ]
    if cancels is not None and len(cancels) != len(items):
        raise ValueError(
            f"cancels must align with items: {len(cancels)} tokens "
            f"for {len(items)} items"
        )
    if reps is None:
        reps = {}
    out: list = []
    for idx, (item, variant) in enumerate(prepared):
        token = cancels[idx] if cancels is not None else None
        with cancel_scope(token):
            if before_solve is not None:
                before_solve(item)
            if token is not None:
                token.check()  # skip work that is already past its deadline
            inst = item.instance
            fp = inst.fingerprint()
            rep = reps.get(fp)
            if rep is None:
                reps[fp] = inst
                shared = inst
            elif rep is inst:
                shared = inst
            else:
                shared = rep.with_machines(inst.m, share_caches=True)
            out.append(_solve_item(shared, variant, item, kernel))
    return out
