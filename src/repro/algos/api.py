"""Public façade: ``repro.solve(instance, variant, algorithm=...)``.

Maps the paper's result matrix onto one entry point:

=================  =======================  ==========================
algorithm          guarantee                running time (paper)
=================  =======================  ==========================
``two``            2·OPT                    O(n)                (Thm 1)
``eps``            (3/2)(1+ε)·OPT           O(n log 1/ε)        (Thm 2)
``three_halves``   (3/2)·OPT                near-linear     (Thms 3/6/8)
=================  =======================  ==========================

For the job-constrained variants with ``m ≥ n`` the trivial one-job-per-
machine schedule is optimal (Notes 1/2) and returned directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

from ..core.bounds import Variant, lower_bound, t_min
from ..core.fastnum import fast_nonp_test, fast_pmtn_test, fast_split_test, validate_kernel
from ..core.instance import Instance
from ..core.numeric import Time
from ..core.schedule import Schedule
from .jumping_pmtn import three_halves_preemptive
from .jumping_split import three_halves_splittable
from .nonpreemptive import nonp_dual_schedule, nonp_dual_test, three_halves_nonpreemptive
from .pmtn_general import pmtn_dual_schedule, pmtn_dual_test
from .search import binary_search_dual
from .splittable import split_dual_schedule, split_dual_test
from .twoapprox import two_approx

Algorithm = Literal["two", "eps", "three_halves"]
Kernel = Literal["fast", "fraction"]

#: ``(kind, mode)`` probe-counter labels of each variant's dual test, as
#: the ε-search probes it through :func:`_dual_for` (the preemptive
#: accept runs the Theorem-5 test in its default ``alpha`` mode).
PROBE_LABELS: dict[Variant, tuple[str, str]] = {
    Variant.SPLITTABLE: ("split", ""),
    Variant.PREEMPTIVE: ("pmtn", "alpha"),
    Variant.NONPREEMPTIVE: ("nonp", ""),
}


@dataclass(frozen=True)
class SolveResult:
    """A schedule together with its proven guarantee and certificates."""

    schedule: Schedule
    variant: Variant
    algorithm: str
    #: the makespan guess the schedule was built against (T_min for "two").
    T: Time
    #: proven upper bound on makespan / OPT.
    ratio_bound: Fraction
    #: strongest known lower bound on OPT for this run (≥ input-only bound).
    opt_lower_bound: Time

    @property
    def makespan(self) -> Time:
        return self.schedule.makespan()

    def empirical_ratio(self) -> Fraction:
        """``makespan / opt_lower_bound`` — an upper bound on the true ratio."""
        return Fraction(self.makespan) / Fraction(self.opt_lower_bound)


def _trivial_single_machine(instance: Instance, variant: Variant) -> Optional[SolveResult]:
    """With m = 1 the serial schedule is exactly optimal: OPT = N (page 2)."""
    if instance.m != 1:
        return None
    schedule = Schedule(instance)
    t = Fraction(0)
    for i in range(instance.c):
        schedule.add_setup(0, t, i)
        t += instance.setups[i]
        for job, length in instance.class_jobs(i):
            schedule.add_job(0, t, job)
            t += length
    return SolveResult(
        schedule=schedule, variant=variant, algorithm="trivial",
        T=t, ratio_bound=Fraction(1), opt_lower_bound=t,
    )


def _trivial_one_per_machine(instance: Instance, variant: Variant) -> Optional[SolveResult]:
    """With m ≥ n, one job (plus setup) per machine is optimal (Notes 1/2)."""
    if variant is Variant.SPLITTABLE or instance.m < instance.n:
        return None
    schedule = Schedule(instance)
    u = 0
    for job, t in instance.iter_jobs():
        schedule.add_setup(u, 0, job.cls)
        schedule.add_job(u, instance.setups[job.cls], job)
        u += 1
    cmax = schedule.makespan()
    return SolveResult(
        schedule=schedule,
        variant=variant,
        algorithm="trivial",
        T=cmax,
        ratio_bound=Fraction(1),
        opt_lower_bound=cmax,  # == max_i(s_i + t^(i)_max) = Note-1/2 bound
    )


def solve(
    instance: Instance,
    variant: Variant = Variant.NONPREEMPTIVE,
    algorithm: Algorithm = "three_halves",
    eps: Fraction = Fraction(1, 100),
    portfolio: bool = False,
    kernel: Kernel = "fast",
) -> SolveResult:
    """Solve ``instance`` under ``variant`` with the requested guarantee.

    ``portfolio=True`` additionally runs the cheap heuristics (2-approx
    wrap/next-fit, Monma–Potts wrap, grouped LPT) and returns the best
    feasible schedule found.  The guarantee is preserved: the minimum over
    schedules that include a ρ-approximate one is itself ≤ ρ·OPT.  The
    paper's algorithms are *dual* constructions — they optimize the
    worst-case certificate, not the average case — so the portfolio often
    improves the constants while keeping the proof.

    ``kernel`` selects the numeric backend of the per-``T`` hot paths:
    ``"fast"`` (default) runs the dual tests and constructions on the
    scaled-integer kernel of :mod:`repro.core.fastnum`; ``"fraction"``
    keeps the exact-rational reference path.  Results are bit-identical —
    the differential suite asserts the same accepts, makespans and ratio
    bounds on every generator-suite instance.
    """
    validate_kernel(kernel)
    trivial = _trivial_single_machine(instance, variant) or _trivial_one_per_machine(
        instance, variant
    )
    if trivial is not None:
        return trivial
    if portfolio:
        base = solve(instance, variant, algorithm, eps, portfolio=False, kernel=kernel)
        best = _portfolio_improve(instance, variant, base)
        return best
    lb = lower_bound(instance, variant)

    if algorithm == "two":
        res = two_approx(instance, variant)
        return SolveResult(
            schedule=res.schedule, variant=variant, algorithm="two",
            T=res.t_min, ratio_bound=Fraction(2), opt_lower_bound=lb,
        )

    if algorithm == "eps":
        accept, build = _dual_for(instance, variant, kernel)
        kind, mode = PROBE_LABELS[variant]
        sr = binary_search_dual(
            instance, variant, accept, build, eps, kind=kind, mode=mode
        )
        return SolveResult(
            schedule=sr.schedule, variant=variant, algorithm="eps",
            T=sr.T, ratio_bound=sr.ratio_bound,
            opt_lower_bound=max(lb, sr.certificate_lo),
        )

    if algorithm == "three_halves":
        if variant is Variant.SPLITTABLE:
            jr = three_halves_splittable(instance, kernel=kernel)
            return SolveResult(
                schedule=jr.schedule, variant=variant, algorithm="three_halves",
                T=jr.T_star, ratio_bound=Fraction(3, 2),
                opt_lower_bound=max(lb, jr.T_star),
            )
        if variant is Variant.PREEMPTIVE:
            pr = three_halves_preemptive(instance, kernel=kernel)
            return SolveResult(
                schedule=pr.schedule, variant=variant, algorithm="three_halves",
                T=pr.T_witness, ratio_bound=pr.ratio_bound,
                opt_lower_bound=max(lb, pr.T_star),
            )
        sr = three_halves_nonpreemptive(instance, kernel=kernel)
        return SolveResult(
            schedule=sr.schedule, variant=variant, algorithm="three_halves",
            T=sr.T, ratio_bound=Fraction(3, 2),
            opt_lower_bound=max(lb, sr.certificate_lo),
        )

    raise ValueError(f"unknown algorithm {algorithm!r}")


def _portfolio_improve(instance: Instance, variant: Variant, base: SolveResult) -> SolveResult:
    """Best-of over cheap feasible heuristics; inherits ``base``'s bound."""
    from ..baselines import grouped_lpt_schedule, job_lpt_schedule, monma_potts_schedule
    from ..core.validate import validate_schedule
    from .twoapprox import two_approx

    candidates: list[Schedule] = [base.schedule]
    candidates.append(two_approx(instance, variant).schedule)
    candidates.append(grouped_lpt_schedule(instance))
    candidates.append(job_lpt_schedule(instance))
    if variant is not Variant.NONPREEMPTIVE:
        candidates.append(monma_potts_schedule(instance))
    best = min(candidates, key=lambda s: s.makespan())
    validate_schedule(best, variant)
    return SolveResult(
        schedule=best,
        variant=variant,
        algorithm=base.algorithm + "+portfolio",
        T=base.T,
        ratio_bound=base.ratio_bound,
        opt_lower_bound=base.opt_lower_bound,
    )


def _dual_for(instance: Instance, variant: Variant, kernel: Kernel = "fast"):
    """(accept, build) pair of the variant's 3/2-dual approximation."""
    if kernel == "fast":
        ctx = instance.fast_ctx()
        if variant is Variant.SPLITTABLE:
            accept = lambda T: fast_split_test(ctx, T.numerator, T.denominator).accepted
        elif variant is Variant.PREEMPTIVE:
            accept = lambda T: fast_pmtn_test(ctx, T.numerator, T.denominator).accepted
        else:
            accept = lambda T: fast_nonp_test(ctx, T.numerator, T.denominator).accepted
    else:
        if variant is Variant.SPLITTABLE:
            accept = lambda T: split_dual_test(instance, T).accepted
        elif variant is Variant.PREEMPTIVE:
            accept = lambda T: pmtn_dual_test(instance, T).accepted
        else:
            accept = lambda T: nonp_dual_test(instance, T).accepted
    if variant is Variant.SPLITTABLE:
        build = lambda T: split_dual_schedule(instance, T, kernel=kernel)
    elif variant is Variant.PREEMPTIVE:
        build = lambda T: pmtn_dual_schedule(instance, T, kernel=kernel)
    else:
        build = lambda T: nonp_dual_schedule(instance, T, kernel=kernel)
    return accept, build
