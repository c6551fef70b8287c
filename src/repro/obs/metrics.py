"""Mergeable service metrics: single-writer counters + log histograms.

The service needs per-stage latency evidence (where did this request's
40 ms go?) that survives three awkward boundaries: worker threads that
must not take locks on the solve path, child *processes* whose numbers
ride home on result frames, and a JSON wire that forbids floats-as-data
drift.  Three design rules fall out:

* **Single-writer.**  A :class:`Metrics` instance is written by exactly
  one thread (the shard worker, the event loop, or a child process) —
  the same convention as the shard counters in
  :mod:`repro.service.shards`.  Readers snapshot via :meth:`to_obj` and
  combine with :meth:`merge`; a torn read can at worst lag a counter,
  never corrupt one.
* **Log-bucketed histograms.**  Latencies land in power-of-two
  microsecond buckets (bucket ``k`` holds durations whose integer
  microsecond count has bit length ``k``, i.e. ``[2^(k-1), 2^k)`` µs;
  bucket 0 is sub-microsecond).  Buckets make histograms *mergeable* —
  across shards, across child generations, across processes — which
  exact quantiles are not.
* **Exact JSON.**  Everything serialized is an int (counts, bucket
  totals, microsecond sums), so a snapshot survives the JSON wire and
  re-merges without float drift — the same philosophy as the exact
  rational encoding in :mod:`repro.service.protocol`.

:class:`RequestTimes` is the per-request stage clock card threaded
through the service (submit → queue → batch assembly → solve → encode);
:func:`render_prometheus` renders a snapshot in the Prometheus text
exposition format for the ``metrics`` wire op.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "STAGES",
    "Histogram",
    "Metrics",
    "RequestTimes",
    "render_prometheus",
]

#: Request lifecycle stages, in journey order.  ``decode`` is the event
#: loop's JSON parse, request validation and fingerprint of a wire
#: request, before submit and so outside ``total``.  ``total`` is submit
#: -> result (queue + assembly + solve inclusive).  ``encode`` is
#: observed by the shard worker or child that solved a wire request,
#: right after the solve and so inside ``total``; the in-process API
#: never decodes or encodes.
STAGES = ("decode", "admission", "queue", "assembly", "solve", "encode", "total")


class Histogram:
    """Log-bucketed latency histogram over integer microseconds.

    ``buckets[k]`` counts observations whose microsecond count has bit
    length ``k`` (``0`` µs lands in bucket 0).  ``total_us`` keeps the
    exact sum, so merged means stay exact.
    """

    __slots__ = ("buckets", "count", "total_us")

    def __init__(self) -> None:
        self.buckets: list[int] = []
        self.count = 0
        self.total_us = 0

    def observe_us(self, us: int) -> None:
        if us < 0:
            us = 0
        k = us.bit_length()
        buckets = self.buckets
        if k >= len(buckets):
            buckets.extend([0] * (k + 1 - len(buckets)))
        buckets[k] += 1
        self.count += 1
        self.total_us += us

    def observe(self, seconds: float) -> None:
        self.observe_us(int(seconds * 1e6))

    def merge(self, other: "Histogram") -> "Histogram":
        mine, theirs = self.buckets, other.buckets
        if len(theirs) > len(mine):
            mine.extend([0] * (len(theirs) - len(mine)))
        for k, n in enumerate(theirs):
            mine[k] += n
        self.count += other.count
        self.total_us += other.total_us
        return self

    def quantile_us(self, q: float) -> Optional[int]:
        """Upper bound (µs) of the bucket holding the q-quantile.

        None when empty.  The bound is ``2^k - 1`` for bucket ``k`` —
        conservative by at most one bucket width, which is the precision
        log bucketing buys its mergeability with.
        """
        if self.count == 0:
            return None
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for k, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                return (1 << k) - 1
        return (1 << len(self.buckets)) - 1  # pragma: no cover - defensive

    @staticmethod
    def bucket_le_us(k: int) -> int:
        """Inclusive upper bound of bucket ``k`` in microseconds."""
        return (1 << k) - 1

    def to_obj(self) -> dict:
        return {
            "count": self.count,
            "total_us": self.total_us,
            "buckets": list(self.buckets),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Histogram":
        hist = cls()
        hist.count = int(obj.get("count", 0))
        hist.total_us = int(obj.get("total_us", 0))
        hist.buckets = [int(n) for n in obj.get("buckets", ())]
        return hist


class Metrics:
    """One writer's counters + per-stage histograms (see module rules).

    ``counters`` holds monotonically increasing ints under the
    :mod:`repro.obs.trace` glossary keys (solver counters folded from
    per-batch scopes) plus whatever lifecycle counters the owner adds;
    ``stages`` maps each :data:`STAGES` name to a :class:`Histogram`.
    Every stage key exists from construction, so merged snapshots from
    thread and process backends expose identical shapes.
    """

    __slots__ = ("counters", "stages")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.stages: dict[str, Histogram] = {s: Histogram() for s in STAGES}

    def inc(self, key: str, n: int = 1) -> None:
        counters = self.counters
        counters[key] = counters.get(key, 0) + n

    def add_counts(self, counts: dict) -> None:
        counters = self.counters
        for key, n in counts.items():
            counters[key] = counters.get(key, 0) + n

    def observe(self, stage: str, seconds: float) -> None:
        self.stages[stage].observe(seconds)

    def observe_us(self, stage: str, us: int) -> None:
        self.stages[stage].observe_us(us)

    def merge(self, other: "Metrics") -> "Metrics":
        self.add_counts(other.counters)
        for stage, hist in other.stages.items():
            mine = self.stages.get(stage)
            if mine is None:
                mine = self.stages[stage] = Histogram()
            mine.merge(hist)
        return self

    @classmethod
    def merged(cls, parts: Iterable["Metrics"]) -> "Metrics":
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    def to_obj(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "stages": {s: h.to_obj() for s, h in self.stages.items()},
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Metrics":
        metrics = cls()
        for key, n in obj.get("counters", {}).items():
            metrics.counters[str(key)] = int(n)
        for stage, hist in obj.get("stages", {}).items():
            metrics.stages[str(stage)] = Histogram.from_obj(hist)
        return metrics


class RequestTimes:
    """Per-request stage timestamps (monotonic seconds) plus computed stages.

    Filled along the request's journey — ``submit``/``admitted`` on the
    event loop, ``enqueued`` at shard submit, ``dequeued`` when the
    worker drains it, ``solve_start``/``solve_end`` around the batch
    solve, ``done`` when the future resolves back on the loop.  Each
    field has exactly one writer; cross-thread visibility rides the
    same happens-before edges as the result itself.
    """

    __slots__ = (
        "submit", "admitted", "enqueued", "dequeued",
        "solve_start", "solve_end", "done",
    )

    def __init__(self) -> None:
        self.submit: Optional[float] = None
        self.admitted: Optional[float] = None
        self.enqueued: Optional[float] = None
        self.dequeued: Optional[float] = None
        self.solve_start: Optional[float] = None
        self.solve_end: Optional[float] = None
        self.done: Optional[float] = None

    def stage_ms(self) -> dict:
        """Per-stage durations in ms (only the stages that were reached)."""
        pairs = (
            ("admission", self.submit, self.admitted),
            ("queue", self.enqueued, self.dequeued),
            ("assembly", self.dequeued, self.solve_start),
            ("solve", self.solve_start, self.solve_end),
            ("total", self.submit, self.done),
        )
        out = {}
        for stage, t0, t1 in pairs:
            if t0 is not None and t1 is not None:
                out[stage] = round(max(0.0, t1 - t0) * 1000.0, 3)
        return out


def _prom_name(key: str) -> str:
    """A glossary key as a Prometheus metric name fragment."""
    out = []
    for ch in key:
        out.append(ch if ch.isalnum() else "_")
    name = "".join(out)
    if name and name[0].isdigit():  # pragma: no cover - no such keys today
        name = "_" + name
    return name


def render_prometheus(obj: dict, prefix: str = "repro") -> str:
    """A metrics snapshot (:meth:`Metrics.to_obj` shape) as Prometheus text.

    Counters render as ``<prefix>_<key>_total``; stage histograms as one
    ``<prefix>_stage_seconds`` histogram family with a ``stage`` label,
    cumulative ``le`` bounds at the log-bucket upper edges, and exact
    ``_sum`` converted from microseconds at the very last moment.
    """
    lines: list[str] = []
    counters = obj.get("counters", {})
    if counters:
        lines.append(f"# TYPE {prefix}_counter_total counter")
    for key in sorted(counters):
        lines.append(
            f"{prefix}_{_prom_name(key)}_total {int(counters[key])}"
        )
    family = f"{prefix}_stage_seconds"
    lines.append(f"# TYPE {family} histogram")
    for stage in sorted(obj.get("stages", {})):
        hist = obj["stages"][stage]
        cum = 0
        for k, n in enumerate(hist.get("buckets", ())):
            cum += n
            le = Histogram.bucket_le_us(k) / 1e6
            lines.append(
                f'{family}_bucket{{stage="{stage}",le="{le:.6f}"}} {cum}'
            )
        lines.append(
            f'{family}_bucket{{stage="{stage}",le="+Inf"}} '
            f"{int(hist.get('count', 0))}"
        )
        lines.append(
            f'{family}_sum{{stage="{stage}"}} '
            f"{int(hist.get('total_us', 0)) / 1e6:.6f}"
        )
        lines.append(
            f'{family}_count{{stage="{stage}"}} {int(hist.get("count", 0))}'
        )
    return "\n".join(lines) + "\n"
