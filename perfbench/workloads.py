"""The three workloads, driven through the package's public entry points.

* ``bulk-equijoin`` and ``small-sessions`` serve party S from a
  :class:`~repro.net.shard.ShardedProtocolServer` (2 forked shard
  workers, journal with fsync on) hosted in a forked server process;
  the generator runs party R through
  :func:`~repro.net.aio.connect_receiver_async`.
* ``repeated-delta`` serves S from a :class:`repro.Catalog` in a forked
  child (``Catalog.serve`` → ``Peer.query`` over plain TCP); the
  generator queries through ``Catalog.connect`` → ``Peer.query``. Both
  catalogs persist to a ``cache_dir`` with fsync on.

Each workload offers the same four steps to the runner: ``setup`` (fork
the server and get the first verified answer), ``measure`` (a timed or
fixed-count query phase), ``stop`` (stop and reap every server
process) and ``cost_model`` (the Section 6 prediction per query).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from inputs import Churn, Tables, arrivals, make_tables, query_seed
from procstats import (host_steal_ticks, tree_cpu_s, tree_peak_rss_mb,
                       tree_pids)

__all__ = ["WORKLOADS", "Phase"]

#: Per-query deadline; a query past it counts as a timeout failure.
QUERY_TIMEOUT_S = 60.0
_FORK = multiprocessing.get_context("fork")


@dataclass
class Phase:
    """What one query phase observed."""

    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    wrong: int = 0
    typed: int = 0
    timeouts: int = 0
    busy: int = 0
    verified: int = 0
    late_ms: list[float] = field(default_factory=list)
    retransmits: int = 0
    reconnects: int = 0
    service_ms: list[float] = field(default_factory=list)
    #: Verified queries per second, and CPU ms per verified query, of
    #: each measured window (see :class:`_Window`).
    window_qps: list[float] = field(default_factory=list)
    window_cpu_ms: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    steal_frac: float = 0.0
    #: ``small-sessions`` only: its closed-loop (capacity) phase.
    closed: "Phase | None" = None

    @property
    def failed(self) -> int:
        return self.wrong + self.typed + self.timeouts + self.busy

    def total(self, attr: str) -> Any:
        """``attr`` summed over this phase and its closed-loop phase."""
        value = getattr(self, attr)
        return value + getattr(self.closed, attr) if self.closed else value


class _Window:
    """One measured window: its wall time, its verified queries and the
    CPU of the whole process tree across it. A phase is measured in
    several windows and reports their medians, so a burst of host load
    shorter than half the phase does not move its figures."""

    def __init__(self, phase: Phase) -> None:
        self.phase = phase
        self.verified = phase.verified
        self.cpu = tree_cpu_s(tree_pids())
        self.start = time.perf_counter()

    def close(self) -> None:
        wall = time.perf_counter() - self.start
        end = tree_cpu_s(tree_pids())
        cpu_s = sum(end[p] - self.cpu[p] for p in end if p in self.cpu)
        done = self.phase.verified - self.verified
        self.phase.window_qps.append(done / wall)
        if done:
            self.phase.window_cpu_ms.append(cpu_s * 1000.0 / done)


def _windowed(phase: Phase, windows: int, run: Any) -> None:
    """Call ``run()`` ``windows`` times, each in its own measured window,
    and record the host's stolen CPU share and the tree's peak RSS."""
    steal0, total0 = host_steal_ticks()
    for _ in range(windows):
        window = _Window(phase)
        run()
        window.close()
    steal, total = host_steal_ticks()
    phase.steal_frac = (steal - steal0) / max(total - total0, 1)
    phase.peak_rss_mb = max(phase.peak_rss_mb,
                            tree_peak_rss_mb(tree_pids()))


def _child(target: Any, *args: Any) -> tuple[Any, Any]:
    """Fork ``target(conn, *args)``; returns (process, parent end)."""
    parent, child = _FORK.Pipe()
    proc = _FORK.Process(target=target, args=(child, *args))
    proc.start()
    child.close()
    if not parent.poll(120):
        proc.kill()
        proc.join()
        raise RuntimeError(f"{target.__name__} did not start")
    return proc, parent


def _reap(proc: Any, conn: Any) -> Any:
    """Ask a child to stop; wait for its report and its exit."""
    reply = None
    try:
        conn.send("stop")
        if conn.poll(60):
            reply = conn.recv()
    except (OSError, EOFError):
        pass
    proc.join(60)
    if proc.is_alive():
        proc.kill()
        proc.join()
    conn.close()
    return reply


# ----------------------------------------------------------------------
# Sharded server + async session clients
# ----------------------------------------------------------------------
def _sharded_main(conn: Any, protocol: str, data: Any, bits: int,
                  journal_dir: str, chunk_size: int | None,
                  tracer: Any) -> None:
    from repro.net.session import SessionConfig
    from repro.net.shard import ShardedProtocolServer
    from repro.protocols.parties import PublicParams

    if tracer is not None:
        tracer.role = "front"
    server = ShardedProtocolServer(
        {protocol: (data, PublicParams.for_bits(bits))},
        shards=2,
        worker_processes=True,
        config=SessionConfig(timeout_s=30.0),
        journal_dir=journal_dir,
        journal_fsync=True,
        max_sessions=8,
        chunk_size=chunk_size,
        busy_retry_hint_s=0.2,
        heartbeat_s=0.5,
        # A worker busy with 1024-bit crypto can starve its heartbeat
        # thread; only a dead worker should be replaced here.
        heartbeat_timeout_s=120.0,
    ).start()
    try:
        conn.send(server.port)
        conn.recv()
    finally:
        server.shutdown(drain_timeout_s=10.0)
    if tracer is not None:
        tracer.flush()
    conn.send({"routed": server.routed, "respawns": server.respawns})


async def _session_query(protocol: str, data: Any, seed: int, port: int,
                         chunk_size: int | None, expected: Any,
                         phase: Phase, due: float | None = None) -> None:
    """One party-R session; tallies its outcome into ``phase``."""
    from repro.net.aio import connect_receiver_async
    from repro.net.session import ServerBusyError, SessionConfig, SessionError

    phase.attempted += 1
    dialed = time.perf_counter()
    try:
        answer, stats = await asyncio.wait_for(
            connect_receiver_async(
                protocol, data, random.Random(seed), "127.0.0.1", port,
                config=SessionConfig(timeout_s=30.0), chunk_size=chunk_size,
            ),
            QUERY_TIMEOUT_S,
        )
    except ServerBusyError:
        phase.busy += 1
        return
    except asyncio.TimeoutError:
        phase.timeouts += 1
        return
    except (SessionError, OSError, ValueError):
        phase.typed += 1
        return
    answered = time.perf_counter()
    phase.retransmits += stats.retransmits
    phase.reconnects += stats.reconnects
    if answer != expected:
        phase.wrong += 1
        return
    phase.verified += 1
    phase.latencies_ms.append((answered - (dialed if due is None else due))
                              * 1000.0)
    phase.service_ms.append((answered - dialed) * 1000.0)


async def _closed_loop(run_one: Any, connections: int,
                       seconds: float | None, queries: int | None,
                       first_index: int, phase: Phase) -> None:
    """``connections`` clients, each sending its next query when the
    last one is answered, until ``seconds`` pass or ``queries`` ran."""
    next_index = first_index
    start = time.perf_counter()

    async def client() -> None:
        nonlocal next_index
        while True:
            if seconds is not None and time.perf_counter() - start >= seconds:
                return
            if queries is not None and next_index - first_index >= queries:
                return
            index, next_index = next_index, next_index + 1
            await run_one(index, phase)

    await asyncio.gather(*(client() for _ in range(connections)))


class _ShardedWorkload:
    """Shared plumbing of the two sharded-server workloads."""

    protocol = ""
    bits = 0
    n = 0
    ext_bytes = 0
    chunk_size: int | None = None

    def __init__(self, seed: int, workdir: Path, tracer: Any = None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.tables: Tables = make_tables(seed, self.n, self.ext_bytes)
        self.expected = self.tables.expected()
        self._setups = 0

    def setup(self) -> Any:
        self._setups += 1
        journal = self.workdir / f"journal-{self._setups}"
        proc, conn = _child(
            _sharded_main, self.protocol, self.tables.sender_data(),
            self.bits, str(journal), self.chunk_size, self.tracer,
        )
        port = conn.recv()
        handle = (proc, conn, port)
        probe = Phase()
        asyncio.run(self._query(port, 0, probe))
        if probe.verified != 1:
            self.stop(handle)
            raise RuntimeError(f"{self.name}: first query failed: {probe}")
        return handle

    def stop(self, handle: Any) -> dict:
        proc, conn, _port = handle
        return _reap(proc, conn) or {}

    async def _query(self, port: int, index: int, phase: Phase,
                     due: float | None = None) -> None:
        await _session_query(
            self.protocol, list(self.tables.v_r), query_seed(self.seed, index),
            port, self.chunk_size, self.expected, phase, due,
        )


class BulkEquijoin(_ShardedWorkload):
    """Paper-sized equijoin: crypto-bound, one connection, closed loop."""

    name = "bulk-equijoin"
    protocol = "equijoin"
    bits = 1024
    n = 64
    ext_bytes = 32
    chunk_size = 16
    #: Nominal rate, used only to size fixed-count (traced) phases.
    nominal_qps = 0.38
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 3

    def measure(self, handle: Any, seconds: float, fixed: bool = False
                ) -> Phase:
        """Closed loop on one connection for ``seconds`` (one window: a
        query takes seconds), or (``fixed``) a query count derived from
        ``seconds`` alone."""
        _proc, _conn, port = handle
        queries = max(2, round(seconds * self.nominal_qps / 2))
        phase = Phase()
        _windowed(phase, 1, lambda: asyncio.run(_closed_loop(
            lambda i, ph: self._query(port, i, ph), 1,
            None if fixed else seconds, queries if fixed else None, 1,
            phase)))
        return phase

    def cost_model(self, model: Any) -> tuple[float, float]:
        n = self.n
        common = len(self.expected)
        ops = model.join_ops(n, n, common)
        return (ops.seconds(model.constants) * 1000.0,
                model.join_bits(n, n) / 8.0)


class SmallSessions(_ShardedWorkload):
    """Tiny intersections: per-session overhead, open then closed loop."""

    name = "small-sessions"
    protocol = "intersection"
    bits = 128
    n = 8
    #: A third of the lowest closed-loop capacity seen on the reference
    #: box (about 60 qps under host load; see README.md findings).
    rate_qps = 20.0
    connections = 2
    nominal_qps = 110.0
    setups = 11
    #: Measured windows of the closed loop; its figures are their medians.
    windows = 5

    def measure(self, handle: Any, seconds: float, fixed: bool = False
                ) -> Phase:
        """Open loop at ``rate_qps`` for half the budget (its latency,
        and the peak RSS after this rate-fixed amount of work), then the
        closed loop at 2 connections (its throughput and CPU per query).
        With ``fixed``, each phase gets a quarter of the budget and the
        closed loop a query count instead of a deadline."""
        _proc, _conn, port = handle
        if fixed:
            open_s, closed_s = seconds / 4, None
            closed_n = max(2, round(seconds / 4 * self.nominal_qps))
            windows = 1
        else:
            open_s, closed_n, windows = seconds / 2, None, self.windows
            closed_s = open_s / windows
        schedule = arrivals(self.seed, self.rate_qps, open_s)
        phase, closed = Phase(), Phase()
        asyncio.run(self._open_loop(port, schedule, phase))
        phase.peak_rss_mb = tree_peak_rss_mb(tree_pids())
        first = 1 + len(schedule)
        _windowed(closed, windows, lambda: asyncio.run(_closed_loop(
            lambda i, ph: self._query(port, i, ph), self.connections,
            closed_s, closed_n, first + closed.attempted, closed)))
        phase.steal_frac = closed.steal_frac
        phase.closed = closed
        return phase

    async def _open_loop(self, port: int, schedule: list[float],
                         phase: Phase) -> None:
        """Seeded Poisson arrivals; each query is timed from its due time
        and waits for one of the 2 connection slots."""
        slots = asyncio.Semaphore(self.connections)

        async def one(index: int, due: float) -> None:
            async with slots:
                await self._query(port, index, phase, due)

        tasks = []
        start = time.perf_counter()
        for index, offset in enumerate(schedule, start=1):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late_ms.append((time.perf_counter() - due) * 1000.0)
            tasks.append(asyncio.ensure_future(one(index, due)))
        await asyncio.gather(*tasks)

    def cost_model(self, model: Any) -> tuple[float, float]:
        ops = model.intersection_ops(self.n, self.n)
        return (ops.seconds(model.constants) * 1000.0,
                model.intersection_bits(self.n, self.n) / 8.0)


# ----------------------------------------------------------------------
# Catalog peers over plain TCP
# ----------------------------------------------------------------------
def _catalog_main(conn: Any, seed: int, tables: Tables, bits: int,
                  cache_dir: str, tracer: Any) -> None:
    import repro

    catalog = repro.open_catalog(
        list(tables.v_s), bits=bits, seed=f"server:{seed}",
        cache_dir=cache_dir, cache_fsync=True,
    )
    churn = Churn(seed, tables)
    peer = catalog.serve(timeout=QUERY_TIMEOUT_S)
    try:
        conn.send(peer.port)
        while (message := conn.recv()) != "stop":
            if message == "churn":
                _r_ins, _r_del, s_ins, s_del = churn.step()
                for value in s_del:
                    catalog.delete(value)
                for value in s_ins:
                    catalog.insert(value)
            peer.query("intersection")
    finally:
        peer.close()
    if tracer is not None:
        tracer.flush()
    conn.send({})


class RepeatedDelta:
    """A large table queried repeatedly while both sides churn."""

    name = "repeated-delta"
    bits = 512
    n = 2000
    nominal_qps = 15.0
    setups = 3
    #: Measured windows; throughput and CPU per query are their medians.
    windows = 4

    def __init__(self, seed: int, workdir: Path, tracer: Any = None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.tables = make_tables(seed, self.n)
        self._setups = 0

    def setup(self) -> Any:
        import repro

        self._setups += 1
        caches = self.workdir / f"cache-{self._setups}"
        proc, conn = _child(
            _catalog_main, self.seed, self.tables, self.bits,
            str(caches / "s"), self.tracer,
        )
        port = conn.recv()
        catalog = repro.open_catalog(
            list(self.tables.v_r), bits=self.bits,
            seed=f"client:{self.seed}", cache_dir=caches / "r",
            cache_fsync=True,
        )
        handle = {"proc": proc, "conn": conn, "catalog": catalog,
                  "peer": catalog.connect(port=port,
                                          timeout=QUERY_TIMEOUT_S),
                  "churn": Churn(self.seed, self.tables)}
        probe = Phase()
        self._query(handle, probe, churn=False)
        if probe.verified != 1:
            self.stop(handle)
            raise RuntimeError(f"{self.name}: first query failed: {probe}")
        return handle

    def stop(self, handle: Any) -> dict:
        handle["peer"].close()
        return _reap(handle["proc"], handle["conn"]) or {}

    def _query(self, handle: dict, phase: Phase, churn: bool = True) -> None:
        """Stage one churn step on both sides, then one ``Peer.query``."""
        catalog, churn_plan = handle["catalog"], handle["churn"]
        if churn:
            r_ins, r_del, _s_ins, _s_del = churn_plan.step()
            for value in r_del:
                catalog.delete(value)
            for value in r_ins:
                catalog.insert(value)
        handle["conn"].send("churn" if churn else "full")
        phase.attempted += 1
        start = time.perf_counter()
        try:
            result = handle["peer"].query("intersection")
        except TimeoutError:
            phase.timeouts += 1
            return
        except (OSError, ValueError, RuntimeError):
            phase.typed += 1
            return
        latency_ms = (time.perf_counter() - start) * 1000.0
        if result.answer != churn_plan.expected() or (
                churn and result.mode != "delta"):
            phase.wrong += 1
            return
        phase.verified += 1
        phase.latencies_ms.append(latency_ms)
        phase.service_ms.append(latency_ms)

    def measure(self, handle: Any, seconds: float, fixed: bool = False
                ) -> Phase:
        """Closed loop for ``seconds`` in ``windows`` measured windows,
        or (``fixed``) a query count derived from ``seconds`` alone."""
        queries = max(2, round(seconds * self.nominal_qps / 2))
        windows = 1 if fixed else self.windows
        phase = Phase()

        def run() -> None:
            start = time.perf_counter()
            while (phase.attempted < queries if fixed
                   else time.perf_counter() - start < seconds / windows):
                self._query(handle, phase)

        _windowed(phase, windows, run)
        return phase

    def cost_model(self, model: Any) -> tuple[float, float]:
        """A delta query is the Section 6 intersection over the inserted
        values: each side's inserts are hashed and encrypted twice."""
        n_ins = Churn.inserts
        ops = model.intersection_ops(n_ins, n_ins)
        return (ops.seconds(model.constants) * 1000.0,
                model.intersection_bits(n_ins, n_ins) / 8.0)


WORKLOADS = {w.name: w for w in (BulkEquijoin, SmallSessions, RepeatedDelta)}
