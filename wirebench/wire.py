"""One workload over the real wire: spawn, warm up, closed and open phases.

The load comes from this single asyncio process over at most two TCP
connections.  Every connection reads and writes concurrently: a writer
that waited for each reply before sending the next (or a reader that
only ran once all requests were written) would deadlock on socket
backpressure as soon as ~14 KiB responses fill the buffers.

The service answers each connection in request order, so a connection
keeps a FIFO of what it sent; each reply is matched to the head of that
FIFO and checked against the correctness gate's expected bytes.  A
trailing ``ping`` marks the end of a phase on a connection: its reply
arrives only after every earlier reply.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from gate import classify

#: StreamReader line limit: sweep replies can exceed asyncio's 64 KiB default.
LINE_LIMIT = 1 << 24
#: Seconds to wait for the service to print its port / answer a ping.
START_TIMEOUT = 60.0
#: Seconds a shutdown may take before the process group is killed.
STOP_TIMEOUT = 20.0

_END = b'{"op":"ping","id":"end"}\n'


class WireError(RuntimeError):
    """The service misbehaved at the protocol level (not a wrong answer)."""


# --------------------------------------------------------------------------- #
# the service process
# --------------------------------------------------------------------------- #


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != b"Z":
            out.append(int(entry))
    return out


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServiceProcess:
    """``python -m repro.service --tcp 127.0.0.1:0`` in its own session.

    The service and its shard children share one process group, so
    :meth:`reap` can always take down everything the run started.
    """

    def __init__(self, root: Path, args: tuple[str, ...]) -> None:
        self.root = root
        self.args = args
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.stderr_tail: deque[str] = deque(maxlen=20)
        self._stderr_task: Optional[asyncio.Task] = None
        self._reaped = False

    async def start(self) -> tuple[float, "Conn"]:
        """Spawn and connect; returns (spawn -> first pong seconds, conn)."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.service", "--tcp", "127.0.0.1:0",
            *self.args,
            stdin=asyncio.subprocess.DEVNULL, stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE, env=env, cwd=str(self.root),
            start_new_session=True,
        )
        while not self.port:
            try:
                raw = await asyncio.wait_for(self.proc.stderr.readline(),
                                             START_TIMEOUT)
            except asyncio.TimeoutError:
                raise WireError(f"service printed no port in {START_TIMEOUT:g} s")
            if not raw:
                raise WireError("service exited before listening: "
                                + " | ".join(self.stderr_tail))
            text = raw.decode(errors="replace").rstrip()
            self.stderr_tail.append(text)
            if "listening on" in text:
                self.port = int(text.rsplit(":", 1)[1])
        self._stderr_task = asyncio.create_task(self._drain_stderr())
        conn = await Conn.open(self.port)
        conn.writer.write(b'{"op":"ping","id":"setup"}\n')
        try:
            pong = await asyncio.wait_for(conn.reader.readline(), START_TIMEOUT)
        except asyncio.TimeoutError:
            raise WireError(f"no ping reply in {START_TIMEOUT:g} s")
        setup = time.perf_counter() - t0
        if pong.rstrip() != b'{"id":"setup","ok":true,"pong":true}':
            raise WireError(f"bad ping reply {pong[:200]!r}")
        return setup, conn

    async def _drain_stderr(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        while True:
            raw = await self.proc.stderr.readline()
            if not raw:
                return
            self.stderr_tail.append(raw.decode(errors="replace").rstrip())

    def peak_rss_mib(self) -> float:
        """Σ VmHWM of the service and its shard children, in MiB."""
        assert self.proc is not None
        return sum(_vm_hwm_kib(p) for p in _group_members(self.proc.pid)) / 1024.0

    async def shutdown(self, conn: "Conn") -> None:
        """The graceful path: the ``shutdown`` op, then wait for exit."""
        conn.writer.write(b'{"op":"shutdown","id":"bye"}\n')
        await conn.writer.drain()
        try:
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT)
        except asyncio.TimeoutError:
            raise WireError(f"service did not exit within {STOP_TIMEOUT:g} s "
                            "of the shutdown op")
        conn.close()

    async def reap(self) -> None:
        """Kill whatever is left of the process group and wait for it."""
        if self.proc is None or self._reaped:
            return
        self._reaped = True
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT
        while _group_members(pgid) and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._stderr_task is not None:
            await self._stderr_task


#: One CPU's busy loop at SCHED_IDLE priority; it ends when its parent does.
_SPIN = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    for _ in range(100000):\n"
    "        pass\n"
)


class IdleSpinners:
    """Keep every CPU out of its idle state while the service is measured.

    On a virtual machine an idle vCPU halts, and waking it (a reply
    becoming readable, a shard thread or child being handed work) waits
    for the hypervisor to run it again.  That delay swings with the load
    of other tenants: on a shared 2-vCPU host it moved closed-loop
    throughput by up to 2x from minute to minute, while a pure compute
    loop moved by about a tenth.  One busy loop per CPU under
    ``SCHED_IDLE``, which gets a CPU only when nothing else wants it,
    keeps the vCPUs running, so the service's wake-ups stay inside the
    guest (the effect of booting it with ``idle=poll``).
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self.procs: list[asyncio.subprocess.Process] = []

    async def start(self) -> None:
        for _ in range(self.count):
            self.procs.append(await asyncio.create_subprocess_exec(
                sys.executable, "-c", _SPIN, stdin=asyncio.subprocess.DEVNULL,
                stdout=asyncio.subprocess.DEVNULL,
            ))

    async def stop(self) -> None:
        for proc in self.procs:
            if proc.returncode is None:
                proc.kill()
            await proc.wait()
        self.procs.clear()


class Conn:
    """One client connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=LINE_LIMIT
        )
        return cls(reader, writer)

    def close(self) -> None:
        self.writer.close()

    async def snapshot(self) -> tuple[dict, dict]:
        """The service's ``stats`` and ``metrics`` payloads, right now."""
        self.writer.write(b'{"op":"stats","id":"s"}\n'
                          b'{"op":"metrics","id":"m"}\n')
        await self.writer.drain()
        stats = json.loads(await self.reader.readline())
        metrics = json.loads(await self.reader.readline())
        if not (stats.get("ok") and metrics.get("ok")):
            raise WireError("stats/metrics op failed")
        return stats["stats"], metrics["metrics"]


# --------------------------------------------------------------------------- #
# load phases
# --------------------------------------------------------------------------- #


@dataclass
class PhaseResult:
    """What one phase saw, over all connections."""

    sent: int = 0
    ok: int = 0
    errors: int = 0
    wrong: int = 0
    #: seconds from send (closed) or due time (open) to reply read
    latencies: list[float] = field(default_factory=list)
    #: per latency: its send (closed) or due (open) time, s after t_start
    sent_at: list[float] = field(default_factory=list)
    #: per correct reply: when it was read, s after t_start
    ok_at: list[float] = field(default_factory=list)
    #: open phase: seconds the generator sent each request after it was due
    lag: list[float] = field(default_factory=list)
    bytes_out: int = 0
    bytes_in: int = 0
    t_start: float = 0.0
    t_last: float = 0.0
    first_wrong: str = ""

    @property
    def missing(self) -> int:
        return self.sent - self.ok - self.errors - self.wrong

    @property
    def wall(self) -> float:
        return self.t_last - self.t_start


class Load:
    """Request bytes and expected reply bytes for one workload run."""

    def __init__(self, bodies: list[bytes], tails: list[bytes]) -> None:
        self.bodies = bodies
        self.tails = tails
        self._next_id = 0

    async def _send(self, conn: Conn, pending: deque, res: PhaseResult,
                    idx: int, t_ref: float) -> None:
        """Send template ``idx`` under the next id; ``t_ref`` starts its clock."""
        k = self._next_id
        self._next_id += 1
        line = b'{"id":%d' % k + self.bodies[idx] + b"\n"
        pending.append((k, idx, t_ref))
        conn.writer.write(line)
        res.sent += 1
        res.bytes_out += len(line)
        await conn.writer.drain()

    @staticmethod
    async def _end(conn: Conn, pending: deque) -> None:
        """Close a phase on ``conn``: its pong comes after every reply."""
        pending.append(None)
        conn.writer.write(_END)
        await conn.writer.drain()

    async def _receive(self, conn: Conn, pending: deque, res: PhaseResult,
                       on_reply=None) -> None:
        """Match replies to ``pending`` until the end-of-phase pong."""
        while True:
            line = await conn.reader.readline()
            now = time.perf_counter()
            if not line:
                raise WireError("service closed the connection mid-phase")
            entry = pending.popleft()
            if entry is None:
                if not line.startswith(b'{"id":"end","ok":true'):
                    raise WireError(f"bad end-of-phase reply {line[:200]!r}")
                return
            k, idx, t_ref = entry
            res.bytes_in += len(line)
            verdict = classify(line, k, self.tails[idx])
            if verdict == "ok":
                res.ok += 1
                res.ok_at.append(now - res.t_start)
            elif verdict == "error":
                res.errors += 1
            else:
                res.wrong += 1
                res.first_wrong = res.first_wrong or line[:300].decode(errors="replace")
            res.latencies.append(now - t_ref)
            res.sent_at.append(t_ref - res.t_start)
            res.t_last = now
            if on_reply is not None:
                on_reply()

    async def closed(self, conns: list[Conn], indices: Iterator[int],
                     window: int, *, seconds: float = 0.0,
                     count: int = 0) -> PhaseResult:
        """Closed loop: each connection keeps ``window`` requests outstanding.

        Stops sending after ``seconds`` (or after ``count`` requests in
        all), then drains.
        """
        res = PhaseResult()
        res.t_start = res.t_last = time.perf_counter()
        deadline = res.t_start + seconds

        def more() -> bool:
            if count:
                return res.sent < count
            return time.perf_counter() < deadline

        async def one(conn: Conn) -> None:
            slots = asyncio.Semaphore(window)
            pending: deque = deque()

            async def send() -> None:
                while True:
                    await slots.acquire()
                    if not more():
                        break
                    await self._send(conn, pending, res, next(indices),
                                     time.perf_counter())
                await self._end(conn, pending)

            await _all(send(), self._receive(conn, pending, res, slots.release))

        await _all(*(one(c) for c in conns))
        return res

    async def open(self, conns: list[Conn], indices: Iterator[int],
                   offsets: list[float]) -> PhaseResult:
        """Open loop: request ``i`` is due at ``offsets[i]`` s after start.

        Arrivals alternate between the connections.  Latency counts from
        the due time, so a stall also charges the requests queued behind
        it; how late the generator itself sent is kept in ``lag``.
        """
        res = PhaseResult()
        t0 = time.perf_counter() + 0.05
        res.t_start = res.t_last = t0
        plan = [(off, next(indices)) for off in offsets]

        async def one(conn: Conn, mine: list) -> None:
            pending: deque = deque()

            async def send() -> None:
                for off, idx in mine:
                    due = t0 + off
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    res.lag.append(time.perf_counter() - due)
                    await self._send(conn, pending, res, idx, due)
                await self._end(conn, pending)

            await _all(send(), self._receive(conn, pending, res))

        n = len(conns)
        await _all(*(one(c, plan[i::n]) for i, c in enumerate(conns)))
        return res


async def _all(*coros) -> None:
    """Run coroutines concurrently; the first failure cancels the rest."""
    tasks = [asyncio.create_task(c) for c in coros]
    try:
        done, _ = await asyncio.wait(tasks, return_when=asyncio.FIRST_EXCEPTION)
        for t in done:
            t.result()
    finally:
        for t in tasks:
            if not t.done():
                t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
