"""The per-layer ledger: a traced in-process replay plus the service's own ops.

Two sources, never mixed with the end-to-end numbers:

* **Spans** from replaying the workload's request lines in process
  through each layer's public functions, timed from outside (tracing
  inside the program is not this benchmark's business).  A span is
  ``(request id, span id, parent id, name, start, end)``; one request's
  spans share its id and hang off one ``request`` root span.  Spans stay
  in memory until the replay ends and are then written out.  A layer's
  self time is its span time minus the time of its child spans.  The
  replay's answers are checked against the correctness gate too, so the
  ledger's split really does rebuild the wire answer.
* **Service counters**: ``stats`` and ``metrics`` snapshots taken around
  each wire phase and differenced (the histograms are all-int and
  mergeable, so differences are exact).  Histogram percentiles are the
  upper edges of power-of-two microsecond buckets: they resolve a
  factor of two, not a few percent.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path
from typing import Optional

from repro.algos.api import SolveResult, solve
from repro.algos.batch_api import BatchItem, solve_batch
from repro.algos.nonpreemptive import nonp_dual_schedule
from repro.algos.pmtn_general import pmtn_dual_schedule
from repro.algos.splittable import split_dual_schedule
from repro.core.bounds import Variant
from repro.core.validate import validate_columns
from repro.obs.metrics import Histogram
from repro.obs.trace import TraceScope
from repro.service.protocol import request_from_obj, response_line

from gate import classify

#: span name -> per-layer metric fed by its mean self time per request
SPAN_METRICS = {
    "protocol.decode": "protocol.decode_us",
    "instance.fingerprint": "instance.fingerprint_us",
    "algos.search": "algos.search_us",
    "algos.search_cold": "algos.search_cold_us",
    "algos.construct": "algos.construct_us",
    "schedule.rows": "schedule.rows_us",
    "protocol.encode": "protocol.encode_us",
    "validate.columns": "validate.columns_us",
}


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #


class Spans:
    """In-memory span recorder; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[list] = []

    def begin(self, name: str, req: int, parent: Optional[int]) -> int:
        if not self.enabled:
            return -1
        sid = len(self.records)
        self.records.append([req, sid, parent, name, time.perf_counter(), 0.0])
        return sid

    def end(self, sid: int) -> None:
        if self.enabled:
            self.records[sid][5] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Total self time (s) per span name."""
        child = [0.0] * len(self.records)
        for _req, _sid, parent, _name, t0, t1 in self.records:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for (_req, sid, _parent, name, t0, t1) in self.records:
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[sid]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for req, sid, parent, name, t0, t1 in self.records:
                fh.write(json.dumps({"req": req, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1},
                                    separators=(",", ":")) + "\n")


# --------------------------------------------------------------------------- #
# the replay
# --------------------------------------------------------------------------- #

_BUILDERS = {
    Variant.SPLITTABLE: split_dual_schedule,
    Variant.PREEMPTIVE: pmtn_dual_schedule,
    Variant.NONPREEMPTIVE: nonp_dual_schedule,
}


def _construct(inst, req, point):
    """The variant's dual construction at the search's accepted ``T``.

    Mirrors what ``solve()`` builds after its search: the 3/2 algorithms
    build at ``T*`` (the preemptive one at its witness, gamma-counted,
    the non-preemptive one on the already-passed test); ``eps`` builds
    with the binary search's hook.
    """
    if point.algorithm == "trivial":
        return solve(inst, req.variant, req.algorithm, req.eps).schedule
    if req.algorithm == "three_halves":
        if req.variant is Variant.PREEMPTIVE:
            return pmtn_dual_schedule(inst, point.T, mode="gamma")
        if req.variant is Variant.NONPREEMPTIVE:
            return nonp_dual_schedule(inst, point.T, pretested=True)
    return _BUILDERS[req.variant](inst, point.T)


class Replay:
    """Replays request lines through the layers' public functions."""

    def __init__(self, lines: list[tuple[int, int, bytes]],
                 tails: list[bytes]) -> None:
        self.lines = lines  # (id, template index, line)
        self.tails = tails

    def run(self, spans: Spans, counts: Optional[dict]) -> tuple[float, dict]:
        """One pass over the lines on warm representatives.

        Returns the wall time and the work tallies.  ``counts`` (when not
        None) collects the solver counters of the warm searches under an
        armed ``TraceScope``.
        """
        warm: dict = {}
        for _k, _idx, line in self.lines:  # warm every representative first
            req = request_from_obj(json.loads(line))
            solve_batch([_bounds_item(req)], reps=warm)
        tally = {"pieces": 0, "wrong": 0}
        t0 = time.perf_counter()
        for k, idx, line in self.lines:
            out = self._one(k, line, spans, counts, warm, tally)
            if classify(out.encode(), k, self.tails[idx]) != "ok":
                tally["wrong"] += 1
        return time.perf_counter() - t0, tally

    @staticmethod
    def _one(k, line, spans, counts, warm, tally) -> str:
        root = spans.begin("request", k, None)
        s = spans.begin("protocol.decode", k, root)
        req = request_from_obj(json.loads(line))
        spans.end(s)
        s = spans.begin("instance.fingerprint", k, root)
        fp = req.instance.fingerprint()
        spans.end(s)
        item = _bounds_item(req)
        s = spans.begin("algos.search_cold", k, root)
        solve_batch([item])  # the freshly decoded instance: no caches yet
        spans.end(s)
        s = spans.begin("algos.search", k, root)
        if counts is None:
            bounds = solve_batch([item], reps=warm)[0]
        else:
            with TraceScope("bench", propagate=False) as scope:
                bounds = solve_batch([item], reps=warm)[0]
            for key, n in scope.counts.items():
                counts[key] = counts.get(key, 0) + n
        spans.end(s)
        if not req.schedules:
            s = spans.begin("protocol.encode", k, root)
            out = response_line(k, bounds)
            spans.end(s)
            spans.end(root)
            return out
        if req.ms is not None:
            raise ValueError("full-schedule sweeps are in no workload")
        inst = warm[fp].with_machines(req.instance.m, share_caches=True)
        s = spans.begin("algos.construct", k, root)
        schedule = _construct(inst, req, bounds)
        spans.end(s)
        result = SolveResult(
            schedule=schedule, variant=req.variant, algorithm=bounds.algorithm,
            T=bounds.T, ratio_bound=bounds.ratio_bound,
            opt_lower_bound=bounds.opt_lower_bound,
        )
        s = spans.begin("schedule.rows", k, root)
        tally["pieces"] += len(schedule.rows())
        spans.end(s)
        s = spans.begin("protocol.encode", k, root)
        out = response_line(k, result)
        spans.end(s)
        s = spans.begin("validate.columns", k, root)
        validate_columns(inst, schedule.columns(), req.variant)
        spans.end(s)
        spans.end(root)
        return out


def _bounds_item(req) -> BatchItem:
    return dataclasses.replace(req.to_item(), schedules=False)


def replay_metrics(replay: Replay, spans_path: Path) -> tuple[dict, dict, int]:
    """Replay untraced and traced; returns (metrics, self times, wrong).

    Self times, counters and tallies come from the last traced pass; the
    overhead ratio compares the traced passes with the untraced ones.
    """
    # One discarded pass first (the first pass over fresh objects runs
    # measurably slower), then untraced and traced passes alternate.
    replay.run(Spans(False), None)
    plain_wall = traced_wall = 0.0
    for _ in range(2):
        plain_wall += replay.run(Spans(False), None)[0]
        spans = Spans(True)
        counts: dict = {}
        wall, tally = replay.run(spans, counts)
        traced_wall += wall
    spans.write(spans_path)
    n = len(replay.lines)
    self_s = spans.self_times()
    out = {metric: self_s.get(name, 0.0) / n * 1e6
           for name, metric in SPAN_METRICS.items()}
    probes = sum(v for key, v in counts.items() if key.startswith("probe."))
    out["algos.probes_per_req"] = probes / n
    out["algos.memo_hit_ratio"] = _ratio(counts.get("memo.hit", 0),
                                         counts.get("memo.call", 0))
    out["algos.grid_share"] = _ratio(counts.get("dispatch.grid", 0),
                                     counts.get("dispatch.scalar", 0))
    out["wrapping.pieces_per_req"] = tally["pieces"] / n
    out["trace.overhead_ratio"] = traced_wall / plain_wall
    return out, {k: v / n * 1e6 for k, v in self_s.items()}, tally["wrong"]


def _ratio(a: int, b: int) -> float:
    return a / (a + b) if a + b else 0.0


# --------------------------------------------------------------------------- #
# the service's own counters
# --------------------------------------------------------------------------- #


def diff_metrics(before: dict, after: dict) -> dict[str, Histogram]:
    """Per-stage histograms of what happened between two snapshots."""
    out = {}
    for stage, hist in after["stages"].items():
        prev = before["stages"].get(stage, {"count": 0, "total_us": 0, "buckets": []})
        buckets = list(hist["buckets"])
        for i, n in enumerate(prev["buckets"]):
            buckets[i] -= n
        out[stage] = Histogram.from_obj({
            "count": hist["count"] - prev["count"],
            "total_us": hist["total_us"] - prev["total_us"],
            "buckets": buckets,
        })
    return out


def _q(hist: Histogram, q: float) -> float:
    value = hist.quantile_us(q)
    return float(value) if value is not None else 0.0


def _mean(hist: Histogram) -> float:
    return hist.total_us / hist.count if hist.count else 0.0


def service_metrics(stats: tuple[dict, dict], metrics: tuple[dict, dict],
                    client_latencies: list[float]) -> dict:
    """Per-layer numbers of one phase from its stats/metrics snapshots."""
    s0, s1 = stats
    stages = diff_metrics(*metrics)
    d = {key: s1[key] - s0[key]
         for key in ("requests", "batches", "cache_hits", "cache_misses",
                     "evictions")}
    staged = sum(_mean(stages[s]) for s in ("admission", "queue", "assembly", "solve"))
    client_mean_us = statistics.fmean(client_latencies) * 1e6 if client_latencies else 0.0
    return {
        "engine.admission_p99_us": _q(stages["admission"], 0.99),
        "engine.peak_inflight": float(s1["peak_inflight"]),
        "shards.queue_p50_us": _q(stages["queue"], 0.50),
        "shards.queue_p99_us": _q(stages["queue"], 0.99),
        "shards.assembly_p50_us": _q(stages["assembly"], 0.50),
        "shards.solve_p50_us": _q(stages["solve"], 0.50),
        "shards.solve_p99_us": _q(stages["solve"], 0.99),
        "shards.return_us": _mean(stages["total"]) - staged,
        "shards.batch_size_mean": d["requests"] / d["batches"] if d["batches"] else 0.0,
        "cache.hit_ratio": _ratio(d["cache_hits"], d["cache_misses"]),
        "cache.evictions": float(d["evictions"]),
        "protocol.encode_p99_us": _q(stages["encode"], 0.99),
        # Means, not p50s: the service's p50s are bucket edges a factor
        # of two apart, far coarser than the residual itself.
        "server.residual_us": client_mean_us
        - _mean(stages["total"]) - _mean(stages["encode"]),
    }
