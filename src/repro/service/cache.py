"""Per-shard LRU of warm instance representatives, with real eviction.

The batched engine's speed comes from reusing one representative
instance's lazy caches per fingerprint (:func:`repro.algos.batch_api.
solve_batch` with a caller-owned ``reps`` mapping).  A service that
keeps every representative forever trades that speed for unbounded
memory — exactly the ``solve_many`` growth the service layer exists to
fix.  :class:`InstanceLRU` is the bounded mapping a shard passes as
``reps``: hits refresh recency, admitting past the bound evicts the
least-recently-used representative *and releases its caches*
(:meth:`~repro.core.instance.Instance.release_caches`, which clears the
shared view dicts in place and drops the fast-kernel context with its
numpy scratch).

:class:`InstanceIntern` is the event loop's counterpart: a bounded table
of *validated* wire instances keyed by their exact content, so a repeat
request skips per-element validation, aggregate sums and re-hashing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from operator import countOf
from typing import Optional

from ..core.instance import Instance
from .protocol import _checked_instance, instance_from_obj

__all__ = ["InstanceIntern", "InstanceLRU", "LRUStats"]


@dataclass(frozen=True)
class LRUStats:
    """Counters of one LRU table (monotone except ``entries``)."""

    entries: int
    peak_entries: int
    hits: int
    misses: int
    evictions: int
    max_entries: int


class InstanceLRU:
    """Bounded ``fingerprint → Instance`` mapping with release-on-evict.

    Implements exactly the mapping protocol ``solve_batch`` touches
    (``get`` / ``__setitem__``), plus ``__len__``/``__contains__`` for
    accounting.  Not thread-safe by design: each service shard owns one
    table and is the only thread that touches it (the sharding-by-
    fingerprint invariant).  ``peak_entries`` can never exceed
    ``max_entries`` — eviction happens *before* admission.

    ``max_jobs`` optionally bounds the held instances' total job count
    ``n`` too (the service shards leave it unset); an instance larger
    than the whole budget is never admitted.
    """

    def __init__(self, max_entries: int = 8, max_jobs: Optional[int] = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_jobs is not None and max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        self.max_entries = max_entries
        self.max_jobs = max_jobs
        self._table: OrderedDict[str, Instance] = OrderedDict()
        self._jobs = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._peak = 0

    def get(self, fingerprint: str, default: Optional[Instance] = None):
        inst = self._table.get(fingerprint)
        if inst is None:
            self._misses += 1
            return default
        self._hits += 1
        self._table.move_to_end(fingerprint)
        return inst

    def __setitem__(self, fingerprint: str, instance: Instance) -> None:
        table = self._table
        if fingerprint in table:
            self._jobs += instance.n - table[fingerprint].n
            table[fingerprint] = instance
            table.move_to_end(fingerprint)
            return
        max_jobs = self.max_jobs
        if max_jobs is not None and instance.n > max_jobs:
            return
        while len(table) >= self.max_entries or (
            max_jobs is not None and self._jobs + instance.n > max_jobs
        ):
            self._evict_oldest()
        table[fingerprint] = instance
        self._jobs += instance.n
        self._peak = max(self._peak, len(table))

    def _evict_oldest(self) -> None:
        _, evicted = self._table.popitem(last=False)
        self._jobs -= evicted.n
        evicted.release_caches()
        self._evictions += 1

    def peek(self, fingerprint: str) -> Optional[Instance]:
        """Lookup without touching counters or recency.

        The process-worker wire probes with this to decide whether an
        incoming item can reuse a warm representative instead of
        decoding its payload — the real ``get`` (hit/miss accounting,
        recency refresh) still happens once per item inside
        ``solve_batch``, keeping cache counters backend-identical.
        """
        return self._table.get(fingerprint)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._table

    def __len__(self) -> int:
        return len(self._table)

    @property
    def jobs(self) -> int:
        """Total job count ``n`` of the held instances."""
        return self._jobs

    def clear(self) -> None:
        """Evict everything (shutdown hook): releases every cache set."""
        while self._table:
            self._evict_oldest()

    def stats(self) -> LRUStats:
        return LRUStats(
            entries=len(self._table),
            peak_entries=self._peak,
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            max_entries=self.max_entries,
        )


def _intern_key(obj) -> Optional[tuple]:
    """The exact-content key of a wire instance object, or ``None``.

    Keyed only when every value is *exactly* an ``int`` (checked at C
    speed): ``True == 1`` and ``1.0 == 1`` hash equal, so a looser key
    would let a request that must be rejected hit a validated entry.
    ``None`` means "decode it the normal way"; it never means invalid.
    """
    if type(obj) is not dict:
        return None
    m = obj.get("m")
    setups = obj.get("setups")
    jobs = obj.get("jobs")
    if (
        type(m) is not int or m < 1
        or type(setups) is not list or type(jobs) is not list
        or countOf(map(type, jobs), list) != len(jobs)
    ):
        return None
    size = len(setups) + sum(map(len, jobs))
    if countOf(map(type, chain(setups, chain.from_iterable(jobs))), int) != size:
        return None
    return tuple(setups), tuple(map(tuple, jobs))


#: Total job count the loop-side table may hold.  Its tuples are kept
#: apart from the shard warm sets on the process backend (the children
#: decode their own copies), so this caps the parent's extra memory at
#: about 2^17 × 36 B ≈ 4.5 MiB even when every time below 2^30 is a
#: distinct int object (a tuple slot plus the int).
INTERN_MAX_JOBS = 1 << 17


class InstanceIntern:
    """Bounded ``(setups, jobs) → validated Instance`` table for wire decode.

    :meth:`decode` is a drop-in for
    :func:`~repro.service.protocol.instance_from_obj`.  An object
    :func:`_intern_key` declines runs that function unchanged.  A keyed
    miss skips only its type checks, which the key has just passed, and
    builds the instance from the key's tuples through the same final
    step, so every rejection and its message are that function's.  A
    valid keyed miss is then admitted as a cache-free
    :meth:`~repro.core.instance.Instance.fresh_copy` template whose
    tuples *are* the decoded instance's (no second copy of the data).
    A hit returns a fresh copy of the template at the request's ``m``:
    no per-element validation, no aggregate sums, and the fingerprint
    pre-seeded, so shard routing reads the same digest without
    re-hashing.  No ``Instance`` is ever
    handed to two requests, so shard-side cache release can never reach
    another request's object (evicting a template clears only its own
    fingerprint dict).

    The entries live in an :class:`InstanceLRU` bounded by
    ``max_entries`` and by :data:`INTERN_MAX_JOBS` total jobs.  Not
    thread-safe by design: only the event loop decodes.
    """

    def __init__(self, max_entries: int) -> None:
        self._lru = InstanceLRU(max_entries, INTERN_MAX_JOBS)

    def decode(self, obj) -> Instance:
        key = _intern_key(obj)
        if key is None:
            return instance_from_obj(obj)
        template = self._lru.get(key)
        if template is not None:
            return template.fresh_copy(obj["m"])
        instance = _checked_instance(obj["m"], *key)
        instance.fingerprint()  # seeded into the template below
        self._lru[instance.setups, instance.jobs] = instance.fresh_copy(instance.m)
        return instance

    def stats(self) -> LRUStats:
        return self._lru.stats()
