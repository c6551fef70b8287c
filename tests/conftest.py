"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

import asyncio
from fractions import Fraction

import pytest

from repro.core import Instance, JobRef, Schedule


@pytest.fixture
def tiny() -> Instance:
    """2 machines, 2 classes, 5 jobs — small enough to reason by hand."""
    return Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])


@pytest.fixture
def single_class() -> Instance:
    return Instance.build(3, [(5, [4, 4, 4, 4])])


@pytest.fixture
def single_machine() -> Instance:
    return Instance.build(1, [(2, [3]), (4, [1, 5])])


def mk(m: int, *classes: tuple[int, list[int]]) -> Instance:
    """Terse instance literal: ``mk(2, (2,[3,4]), (1,[2,2]))``."""
    return Instance.build(m, list(classes))


def full_job_schedule(inst: Instance, assignment: dict[int, list[JobRef]]) -> Schedule:
    """Build a simple non-preemptive schedule: per machine, a list of jobs.

    Jobs are grouped in the given order; a setup is inserted whenever the
    class changes.  Start at time 0, no idle time.
    """
    sched = Schedule(inst)
    for machine, jobs in assignment.items():
        t = Fraction(0)
        state = None
        for job in jobs:
            if state != job.cls:
                sched.add_setup(machine, t, job.cls)
                t += inst.setups[job.cls]
                state = job.cls
            sched.add_job(machine, t, job)
            t += inst.job_time(job)
    return sched


J = JobRef  # shorthand in tests


def drive_lines(lines: list[str], config) -> list[str]:
    """Serve ``lines`` through one ``handle_lines`` connection of a fresh
    service with ``config``; returns the raw reply lines in order."""
    from repro.service import SolveService
    from repro.service.server import handle_lines

    async def main():
        out: list[str] = []
        feed = iter([line.encode() + b"\n" for line in lines] + [b""])

        async def readline() -> bytes:
            await asyncio.sleep(0)  # let completions interleave with reads
            return next(feed)

        async def write_line(line: str) -> None:
            out.append(line)

        async with SolveService(config) as svc:
            await handle_lines(svc, readline, write_line)
        return out

    return asyncio.run(main())
