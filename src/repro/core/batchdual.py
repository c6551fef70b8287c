"""Vectorized dual-test grids over a shared :class:`~repro.core.fastnum.DualContext`.

The Class Jumping searches of Theorems 3/6 probe the per-``T`` dual
tests at many candidate makespans.  The scalar kernel makes one probe
fast (scaled machine ints); this module makes *many* probes fast by evaluating a
whole grid of candidates ``T_j = tn_j / td_j`` in one pass:

* :func:`fast_split_test_grid` — Theorem 7(i) on a candidate grid;
* :func:`fast_pmtn_test_grid`  — Theorem 5(i) on a candidate grid;
* :func:`fast_base_core_grid`  — Algorithm 4's monotone base test.

The bounds-only split/pmtn flip searches reach the split and base-core
grids through :func:`grid_accept_pairs_fn` when the grid policy
(:data:`repro.algos.batch_api.GRID_POLICY`) picks the grid; the full
Theorem-5 verdict grid has no search caller and is pinned by the
differential suite alone.  Each
returns exactly the scalar kernel's verdicts (:class:`SplitVerdict` /
:class:`PmtnVerdict` / ``(load, m')``), one per candidate,
**bit-identical** to calling the scalar test per candidate — the
differential suite asserts this on every generator suite.  Three
execution tiers stand behind that guarantee:

1. **numpy int64** (the fast path): per-class data lives in cached
   ``int64`` arrays (``ctx.batch_cache``, shared by
   :meth:`DualContext.for_m` clones across a machine sweep); each test
   is O(c) vector operations over the candidate axis, with the per-class
   job thresholds resolved by ``searchsorted`` on the cached sorted
   views.  Candidates may carry heterogeneous denominators (class-jump
   points ``2P_i/k`` do), so the denominator is a vector, not a common
   scale — no lcm blow-up.
2. **Overflow fallback**: ``int64`` products can wrap silently, so every
   grid call first bounds its intermediates with exact Python integers
   (:func:`_grid_is_safe`, conservative on purpose) and falls back to
   tier 3 whenever the bound does not clear ``2**62``.
3. **Scalar fallback**: a plain loop over the scalar kernel — also the
   path taken when numpy is not installed (numpy is an optional extra,
   never a hard dependency).

The preemptive grid has one scalar residue by design: candidates that
land in case 3a with a non-negative knapsack capacity need the
continuous-knapsack selection, whose greedy order is inherently
sequential; those (rare) lanes are resolved by the scalar kernel, which
keeps the verdicts bit-identical by construction.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .fastnum import (
    DualContext,
    PmtnVerdict,
    SplitVerdict,
    fast_pmtn_test,
    fast_split_test,
)
from .numeric import Time
from ..obs.trace import count as obs_count

try:  # pragma: no cover - exercised via both branches in CI matrices
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when the vectorized tier is available at all.
HAVE_NUMPY = _np is not None

#: Conservative ceiling for every vectorized intermediate (int64 headroom).
_GUARD = 1 << 62

#: Cap on ``c * g`` elements per vectorized chunk (bounds temp memory).
_CHUNK_ELEMS = 1 << 22

__all__ = [
    "HAVE_NUMPY",
    "cache_entries",
    "grid_pairs",
    "fast_split_test_grid",
    "fast_pmtn_test_grid",
    "fast_base_core_grid",
    "grid_accept_pairs_fn",
]


def grid_pairs(candidates: Sequence[Time]) -> tuple[list[int], list[int]]:
    """Split a candidate list into parallel ``(numerators, denominators)``."""
    tns: list[int] = []
    tds: list[int] = []
    for T in candidates:
        tns.append(T.numerator)
        tds.append(T.denominator)
    return tns, tds


def _as_vectors(tns, tds) -> tuple[list[int], list[int]]:
    tns = [int(t) for t in tns]
    if isinstance(tds, int):
        tds = [tds] * len(tns)
    else:
        tds = [int(t) for t in tds]
    if len(tds) != len(tns):
        raise ValueError(f"{len(tns)} numerators vs {len(tds)} denominators")
    for tn, td in zip(tns, tds):
        if tn <= 0 or td <= 0:
            raise ValueError(f"candidates must be positive rationals, got {tn}/{td}")
    return tns, tds


# --------------------------------------------------------------------------- #
# cached numpy views of the context (m-independent, shared by for_m clones)
# --------------------------------------------------------------------------- #


def cache_entries(ctx: DualContext) -> int:
    """Entry count of the scratch this module parks in ``ctx.batch_cache``.

    One per cached top-level view set, plus one per class with a
    flattened sorted array — the quantity the service's eviction
    accounting (``Instance.cache_stats()['batch']``) reports, and what
    :meth:`DualContext.release` hands back.
    """
    n = 0
    for key, value in ctx.batch_cache.items():
        n += len(value) if key == "np_sorted" else 1
    return n


def _np_views(ctx: DualContext) -> dict:
    views = ctx.batch_cache.get("np_views")
    if views is None:
        views = {
            "setups": _np.asarray(ctx.setups, dtype=_np.int64),
            "P": _np.asarray(ctx.P, dtype=_np.int64),
            "tmax": _np.asarray(ctx.class_tmax, dtype=_np.int64),
        }
        ctx.batch_cache["np_views"] = views
    return views


def _np_sorted(ctx: DualContext, cls: int):
    cache = ctx.batch_cache.setdefault("np_sorted", {})
    arrs = cache.get(cls)
    if arrs is None:
        ts, prefix = ctx.sorted_jobs(cls)
        arrs = (
            _np.asarray(ts, dtype=_np.int64),
            _np.asarray(prefix, dtype=_np.int64),
        )
        cache[cls] = arrs
    return arrs


def _maxima(ctx: DualContext) -> tuple[int, int, int]:
    """Cached ``(max_i P_i, s_max, alpha_cap)`` for the overflow bound.

    ``alpha_cap`` dominates every α-style machine count any grid lane can
    produce on a *non-trivial* candidate (``tn ≥ spt·td``): there
    ``tn − s_i·td ≥ t^(i)_max·td``, hence ``⌈P_i·td/(tn − s_i·td)⌉ ≤
    ⌈P_i/t^(i)_max⌉``, and the cheap-class counts add at most ``n_i``
    (one machine per big job).
    """
    mx = ctx.batch_cache.get("maxima")
    if mx is None:
        alpha_cap = max(
            n + -((-p) // tm)
            for n, p, tm in zip(ctx.nclass, ctx.P, ctx.class_tmax)
        )
        mx = (max(ctx.P), ctx.smax, alpha_cap)
        ctx.batch_cache["maxima"] = mx
    return mx


def _grid_is_safe(ctx: DualContext, tns: list[int], tds: list[int]) -> bool:
    """Exact-integer bound on every int64 intermediate of a grid pass.

    Conservative: ``K`` dominates every per-class machine count that any
    of the tests can produce — jump-style counts ``β/γ ≤ ⌈2P/T⌉`` via
    the ``min_tn`` term, α-style counts ``⌈P·td/(tn − s·td)⌉`` via
    ``alpha_cap`` (see :func:`_maxima`; masked lanes are clamped to 1 in
    the kernels so no other quotient feeds a product).  ``unit``
    dominates every per-class scaled quantity, and each accumulated sum
    touches at most ``c`` classes with a constant factor ≤ 8.  A miss
    only costs speed — the caller drops to the scalar kernel, never
    precision.
    """
    max_tn, min_tn = max(tns), min(tns)
    max_td = max(tds)
    maxP, smax, alpha_cap = _maxima(ctx)
    # (maxP + smax): the base-core γ count divides 2(s_i + P_i), not 2P_i.
    K = max((2 * (maxP + smax) * max_td) // min_tn + 2, alpha_cap)
    unit = max(max_tn, 2 * (smax + maxP + 1) * max_td)
    return (
        8 * ctx.c * K * unit < _GUARD
        and ctx.m * max_tn < _GUARD
        and (ctx.total_processing + ctx.c * smax * K) * max_td < _GUARD
    )


def _use_numpy(ctx, tns, tds, use_numpy: Optional[bool]) -> bool:
    if use_numpy is False:
        return False
    if use_numpy is True and not HAVE_NUMPY:
        raise RuntimeError("use_numpy=True but numpy is not installed")
    if not HAVE_NUMPY:
        return False
    return _grid_is_safe(ctx, tns, tds)


def _chunks(n_candidates: int, c: int):
    step = max(1, _CHUNK_ELEMS // max(1, c))
    for lo in range(0, n_candidates, step):
        yield lo, min(n_candidates, lo + step)


def _ceil_div_np(num, den):
    """Elementwise exact ``ceil(num/den)``, ``den > 0`` (floor-div identity)."""
    return -((-num) // den)


# --------------------------------------------------------------------------- #
# splittable (Theorem 7)
# --------------------------------------------------------------------------- #


def fast_split_test_grid(
    ctx: DualContext,
    tns: Sequence[int],
    tds,
    *,
    use_numpy: Optional[bool] = None,
) -> list[SplitVerdict]:
    """Theorem 7(i) on every ``T_j = tns[j]/tds[j]`` in one pass.

    ``tds`` may be a single int (common denominator) or a parallel
    sequence.  Verdicts are bit-identical to per-candidate
    :func:`~repro.core.fastnum.fast_split_test` calls.
    """
    tns, tds = _as_vectors(tns, tds)
    if not tns:
        return []
    if not _use_numpy(ctx, tns, tds, use_numpy):
        obs_count("grid.rows_scalar", len(tns))
        return [fast_split_test(ctx, tn, td) for tn, td in zip(tns, tds)]
    obs_count("grid.rows_np", len(tns))
    views = _np_views(ctx)
    S = views["setups"][:, None]
    P = views["P"][:, None]
    m = ctx.m
    out: list[SplitVerdict] = []
    for lo, hi in _chunks(len(tns), ctx.c):
        tn = _np.asarray(tns[lo:hi], dtype=_np.int64)
        td = _np.asarray(tds[lo:hi], dtype=_np.int64)
        exp = 2 * S * td > tn                      # (c, g) expensive mask
        beta = _ceil_div_np(2 * P * td, tn)        # β_j = ⌈2P_i/T_j⌉
        load = ctx.total_processing + _np.where(exp, beta * S, S).sum(axis=0)
        m_exp = _np.where(exp, beta, 0).sum(axis=0)
        acc = (m * tn >= load * td) & (m >= m_exp)
        out.extend(
            SplitVerdict(bool(a), int(l), int(me))
            for a, l, me in zip(acc, load, m_exp)
        )
    return out


# --------------------------------------------------------------------------- #
# preemptive (Theorem 5)
# --------------------------------------------------------------------------- #


def fast_pmtn_test_grid(
    ctx: DualContext,
    tns: Sequence[int],
    tds,
    mode: str = "alpha",
    *,
    use_numpy: Optional[bool] = None,
) -> list[PmtnVerdict]:
    """Theorem 5(i) on a candidate grid (see :func:`fast_split_test_grid`).

    Candidates resolving to the trivial/nice/3b cases — and 3a's ``F <
    L*`` rejection — are fully vectorized; 3a candidates that reach the
    continuous knapsack drop to the scalar kernel lane-by-lane (same
    greedy, hence bit-identical).
    """
    tns, tds = _as_vectors(tns, tds)
    if not tns:
        return []
    if not _use_numpy(ctx, tns, tds, use_numpy):
        obs_count("grid.rows_scalar", len(tns))
        return [fast_pmtn_test(ctx, tn, td, mode) for tn, td in zip(tns, tds)]
    obs_count("grid.rows_np", len(tns))
    m, spt = ctx.m, ctx.spt
    out: list[Optional[PmtnVerdict]] = [None] * len(tns)
    tn_all = _np.asarray(tns, dtype=_np.int64)
    td_all = _np.asarray(tds, dtype=_np.int64)
    nontrivial = tn_all >= spt * td_all
    for j in _np.nonzero(~nontrivial)[0]:
        out[j] = PmtnVerdict(False, ctx.total_load, 0, "trivial", False)  # Note 1
    live = _np.nonzero(nontrivial)[0]
    for lo, hi in _chunks(len(live), ctx.c):
        idx = live[lo:hi]
        tn = tn_all[idx]
        td = td_all[idx]
        td2 = 2 * td
        g = idx.size
        zeros = _np.zeros(g, dtype=_np.int64)
        load = _np.full(g, ctx.total_processing, dtype=_np.int64)
        l = zeros.copy()
        counts_sum = zeros.copy()
        n_minus = zeros.copy()
        base = zeros.copy()
        demand2 = zeros.copy()
        lstar2 = zeros.copy()
        for i in range(ctx.c):
            s, P = ctx.setups[i], ctx.P[i]
            total = s + P
            std = s * td
            exp = 2 * std > tn
            iplus = exp & (total * td >= tn)
            izero = exp & ~iplus & (4 * total * td > 3 * tn)
            iminus = exp & ~iplus & ~izero
            if mode == "alpha":
                # κ = max(1, ⌊P·td/(tn−s·td)⌋).  Off the I⁺exp lanes the
                # denominator is forced positive AND κ is clamped to 1:
                # masked-lane quotients would otherwise feed ``κ·s`` products
                # the overflow precheck does not (and need not) bound.
                k = _np.where(
                    iplus,
                    _np.maximum(1, (P * td) // _np.where(iplus, tn - std, 1)),
                    1,
                )
            else:
                num2 = 2 * P * td
                bp = num2 // tn
                cond = num2 - bp * tn <= 2 * (tn - std)
                k = _np.where(cond, _np.maximum(bp, 1), _ceil_div_np(num2, tn))
            load += _np.where(iplus, k * s, s)
            counts_sum += _np.where(iplus, k, 0)
            l += izero
            n_minus += iminus
            base += _np.where(iplus, k * s + P, 0)
            chp_plus = ~exp & (4 * std >= tn)
            base += _np.where(iminus | chp_plus, total, 0)
            star = (
                ~exp
                & ~chp_plus
                & (2 * (s + ctx.class_tmax[i]) * td > tn)  # C*_i ≠ ∅
            )
            if star.any():
                ts, prefix = _np_sorted(ctx, i)
                w_total = int(prefix[-1])
                cut = _np.searchsorted(ts, (tn - 2 * std) // td2, side="right")
                cnt = len(ts) - cut
                p_star = w_total - prefix[cut]
                demand2 += _np.where(star, td2 * (s + P), 0)
                lstar2 += _np.where(
                    star, td2 * (s + p_star) - cnt * (tn - 2 * std), 0
                )
        m_prime = l + counts_sum + _ceil_div_np(n_minus, 2)
        F2 = 2 * (m - l) * tn - 2 * base * td
        acc_simple = (m * tn >= load * td) & (m >= m_prime)
        nice = l == 0
        case3b = ~nice & (F2 >= demand2)
        y_neg = ~nice & ~case3b & (F2 - lstar2 < 0)
        for k_i in range(g):
            j = int(idx[k_i])
            if nice[k_i]:
                out[j] = PmtnVerdict(
                    bool(acc_simple[k_i]), int(load[k_i]), int(m_prime[k_i]),
                    "nice", False,
                )
            elif case3b[k_i]:
                out[j] = PmtnVerdict(
                    bool(acc_simple[k_i]), int(load[k_i]), int(m_prime[k_i]),
                    "3b", False,
                )
            elif y_neg[k_i]:
                out[j] = PmtnVerdict(
                    False, int(load[k_i]), int(m_prime[k_i]), "3a", True
                )
            else:  # case 3a with the knapsack: scalar lane (rare)
                out[j] = fast_pmtn_test(ctx, tns[j], tds[j], mode)
    return out  # type: ignore[return-value]


# --------------------------------------------------------------------------- #
# preemptive monotone core (Algorithm 4's base test)
# --------------------------------------------------------------------------- #


def fast_base_core_grid(
    ctx: DualContext,
    tns: Sequence[int],
    tds,
    *,
    use_numpy: Optional[bool] = None,
) -> list[tuple[int, int]]:
    """``(L_base, m′)`` per candidate — grid form of ``fast_base_core``."""
    from .fastnum import fast_base_core

    tns, tds = _as_vectors(tns, tds)
    if not tns:
        return []
    if not _use_numpy(ctx, tns, tds, use_numpy):
        obs_count("grid.rows_scalar", len(tns))
        return [fast_base_core(ctx, tn, td) for tn, td in zip(tns, tds)]
    obs_count("grid.rows_np", len(tns))
    views = _np_views(ctx)
    S = views["setups"][:, None]
    P = views["P"][:, None]
    out: list[tuple[int, int]] = []
    for lo, hi in _chunks(len(tns), ctx.c):
        tn = _np.asarray(tns[lo:hi], dtype=_np.int64)
        td = _np.asarray(tds[lo:hi], dtype=_np.int64)
        total = S + P
        exp = 2 * S * td > tn
        iplus = exp & (total * td >= tn)
        izero = exp & ~iplus & (4 * total * td > 3 * tn)
        iminus = exp & ~iplus & ~izero
        # γ_i = max(1, ⌈2(s_i+P_i)/T⌉ − 2) on I⁺exp
        gam = _np.maximum(1, _ceil_div_np(2 * total * td, tn) - 2)
        load = ctx.total_processing + _np.where(iplus, gam * S, S).sum(axis=0)
        gsum = _np.where(iplus, gam, 0).sum(axis=0)
        l = izero.sum(axis=0)
        minus = iminus.sum(axis=0)
        m_prime = l + gsum + _ceil_div_np(minus, 2)
        out.extend((int(a), int(b)) for a, b in zip(load, m_prime))
    return out


# --------------------------------------------------------------------------- #
# search-layer adapter
# --------------------------------------------------------------------------- #


def grid_accept_pairs_fn(
    ctx: DualContext,
    kind: str,
    *,
    use_numpy: Optional[bool] = None,
) -> Callable[[Sequence[tuple[int, int]]], list[bool]]:
    """A ``pairs -> [accepted]`` evaluator for the flip searches' grid blocks.

    ``kind`` selects the test: ``"split"`` (Theorem 7, the splittable
    flip search) or ``"pmtn_base"`` (Algorithm 4's base core, the
    preemptive flip search).  Candidates arrive as ``(num, den)`` int
    pairs — the native currency of the probe plans — so no Fraction is
    touched between the plan and the grid kernels.
    """
    if kind == "split":
        def evaluate(cands: Sequence[tuple[int, int]]) -> list[bool]:
            tns = [tn for tn, _ in cands]
            tds = [td for _, td in cands]
            return [
                v.accepted
                for v in fast_split_test_grid(ctx, tns, tds, use_numpy=use_numpy)
            ]
    elif kind == "pmtn_base":
        def evaluate(cands: Sequence[tuple[int, int]]) -> list[bool]:
            tns = [tn for tn, _ in cands]
            tds = [td for _, td in cands]
            m = ctx.m
            return [
                m * tn >= load * td and m >= m_prime
                for (load, m_prime), tn, td in zip(
                    fast_base_core_grid(ctx, tns, tds, use_numpy=use_numpy), tns, tds
                )
            ]
    else:
        raise ValueError(f"unknown grid kind {kind!r}")
    return evaluate
