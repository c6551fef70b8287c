"""Correctness gate: every distinct request answered in process, up front.

Before any clock starts, each template's request line is decoded exactly
as the service decodes it and answered with the library (``solve`` for
full single solves, ``sweep_machines`` for bounds-only and ``ms``
requests), then encoded with ``response_line``.  Every schedule is
validated once with ``validate_columns``, and its makespan must equal the
one on the line.  A wire response is correct only when it matches that
line byte for byte after its ``id`` is put in (the wire-byte contract).
"""

from __future__ import annotations

import json

from repro.algos.api import SolveResult, solve
from repro.algos.batch_api import sweep_machines
from repro.core.validate import validate_columns, validate_schedule
from repro.service.protocol import request_from_obj, response_line

#: ``response_line(None, ...)`` starts with this; the tail after it is
#: what a wire line must carry after its own ``{"id":N``.
_NULL_ID = '{"id":null'


def answer(body: bytes):
    """The library's answer to one request line (``{"id":0`` + body)."""
    req = request_from_obj(json.loads(b'{"id":0' + body))
    inst = req.instance
    if req.ms is not None or not req.schedules:
        return sweep_machines(
            inst, req.ms if req.ms is not None else [inst.m], req.variant,
            req.algorithm, req.eps, schedules=req.schedules,
        )
    return solve(inst, req.variant, req.algorithm, req.eps)


def check_schedules(results) -> int:
    """Validate every schedule in ``results``; returns how many."""
    checked = 0
    for r in results if isinstance(results, list) else [results]:
        if not isinstance(r, SolveResult):
            continue
        cols = r.schedule.columns()
        if cols is not None:
            makespan = validate_columns(r.schedule.instance, cols, r.variant)
        else:
            makespan = validate_schedule(r.schedule, r.variant)
        if makespan != r.makespan:
            raise AssertionError(
                f"validated makespan {makespan} != reported {r.makespan}"
            )
        checked += 1
    return checked


def expected_tails(bodies: list[bytes]) -> tuple[list[bytes], int]:
    """Per template: the expected response bytes after ``{"id":N``.

    Returns the tails and the number of schedules validated.
    """
    tails, checked = [], 0
    for body in bodies:
        results = answer(body)
        checked += check_schedules(results)
        line = response_line(None, results)
        tails.append(line[len(_NULL_ID):].encode())
    return tails, checked


def classify(line: bytes, k: int, tail: bytes) -> str:
    """``"ok"``, ``"error"`` (structured wire error) or ``"wrong"``."""
    prefix = b'{"id":%d' % k
    if not line.startswith(prefix):
        return "wrong"
    rest = line[len(prefix):].rstrip(b"\n")
    if rest == tail:
        return "ok"
    if rest.startswith(b',"ok":false,"error":'):
        return "error"
    return "wrong"
