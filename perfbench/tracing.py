"""Span tracing for the traced benchmark run, installed from outside ``src/``.

:func:`install` replaces functions of the ``repro`` package with timing
wrappers *where they are called*: a method is patched on the class that
defines it (instance lookups then see the wrapper), and a module-level
function on every module attribute that callers read at call time. It
must run before the benchmark forks its servers, so shard workers and
the catalog server child inherit the wrappers.

Each wrapped call records one span ``(name, root_start, duration, self,
owner, parent, count, bytes)``. Synchronous spans nest on a per-thread
stack: a span's *self* time is its duration minus the durations of the
spans it directly encloses, its *parent* is the span directly
enclosing it, its *owner* is the outermost enclosing span of an
owning layer (the journal or the catalog), which is how disk I/O is
attributed, and its *root_start* is the start of the outermost span
enclosing it (its own start when nothing does), so a window keeps or
drops a call tree whole. Coroutine spans (the session handshake,
routing) are timed on their own and never enclose anything.

Spans stay in memory. Every process writes its own spans to
``<trace_dir>/<role>-<pid>.json`` through :meth:`Tracer.flush`; forked
``multiprocessing`` workers skip ``atexit``, so the flush is called
explicitly: by the benchmark's own child processes before they exit,
and in shard workers right after :meth:`ProtocolServer.shutdown`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
import types
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "install", "load_spans", "summarize"]

#: Spans whose descendants' disk I/O belongs to their layer.
_OWNERS = ("net.journal", "net.catalog")


class Tracer:
    """Per-process span store. One instance per benchmark run."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self._reset()
        self.role = "generator"
        # A forked child starts with an empty store: its parent's spans
        # are the parent's to flush.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        #: ``front`` marks the shard router, whose codec work is counted
        #: under ``net.shard`` (see :func:`load_spans`).
        self.role = "child"
        self.spans: list[tuple] = []
        self.route_t: dict[int, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, dur: float, self_s: float,
               owner: str | None = None, parent: str | None = None,
               count: int = 1, nbytes: int = 0) -> None:
        with self._lock:
            self.spans.append(
                (name, start, dur, self_s, owner, parent, count, nbytes))

    def sync_span(self, name: str, fn: Callable, measure: Callable | None
                  ) -> Callable:
        """Wrap a plain function; ``measure(args, result)`` gives
        ``(count, bytes)``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            owner = _owner_of(stack)
            parent = stack[-1][0] if stack else None
            start = time.perf_counter()
            frame = [name, 0.0, stack[0][2] if stack else start]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
            count, nbytes = measure(args, result) if measure else (1, 0)
            tracer.record(name, frame[2], dur, dur - frame[1], owner,
                          parent, count, nbytes)
            return result

        return wrapper

    def gen_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: each ``next`` is one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            step = tracer.sync_span(name, lambda: next(inner), None)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return wrapper

    def async_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a coroutine function; its span encloses nothing."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                tracer.record(name, start, dur, dur)

        return wrapper

    def flush(self) -> None:
        """Write this process's spans to ``<trace_dir>/<role>-<pid>.json``."""
        with self._lock:
            spans = list(self.spans)
        path = self.trace_dir / f"{self.role}-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(spans))
        os.replace(tmp, path)


def _owner_of(stack: list) -> str | None:
    for frame in stack:
        if frame[0].startswith(_OWNERS):
            return frame[0]
    return None


def _unhooked_recursive(fn: types.FunctionType) -> types.FunctionType:
    """A copy of a self-recursive module function whose recursive calls
    reach the copy, not a wrapper later bound under the same name."""
    scope = dict(fn.__globals__)
    clone = types.FunctionType(fn.__code__, scope, fn.__name__,
                               fn.__defaults__, fn.__closure__)
    scope[fn.__name__] = clone
    return clone


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str,
                  measure: Callable | None = None) -> None:
    raw = cls.__dict__[attr]
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    fn = raw.__func__ if kind else raw
    if inspect.iscoroutinefunction(fn):
        wrapped = tracer.async_span(name, fn)
    elif inspect.isgeneratorfunction(fn):
        wrapped = tracer.gen_span(name, fn)
    else:
        wrapped = tracer.sync_span(name, fn, measure)
    setattr(cls, attr, kind(wrapped) if kind else wrapped)


def _count_result(args: tuple, result: list) -> tuple[int, int]:
    return len(result), 0


def install(trace_dir: Path) -> Tracer:
    """Patch every traced layer; returns the process's tracer."""
    from repro import api
    from repro.crypto import commutative, engine, ext_cipher, hashing
    from repro.net import aio, catalog, diskfaults, journal, serialization
    from repro.net import server, session, tcp
    from repro.protocols import delta, messages, parties

    tracer = Tracer(trace_dir)
    patch = functools.partial(_patch_method, tracer)

    # crypto: modexp batches and singles, hashing into QR_p, ext records.
    patch(engine.SerialEngine, "pow_many", "crypto.modexp", _count_result)
    for attr in ("encrypt", "decrypt"):
        patch(commutative.PowerCipher, attr, "crypto.modexp")
        patch(ext_cipher.BlockExtCipher, attr, "crypto.ext")
    patch(hashing.DomainHash, "hash_set", "crypto.hash", _count_result)
    tries = hashing.is_quadratic_residue

    def counted_try(a: int, p: int) -> bool:
        tracer.record("crypto.hash.try", time.perf_counter(), 0.0, 0.0)
        return tries(a, p)

    hashing.is_quadratic_residue = counted_try

    # protocols: the generic spec machines, message (de)construction,
    # and the size of every delta a party applies.
    for attr in ("ensure_state", "produce", "produce_chunks", "consume",
                 "consume_chunks", "consume_parts"):
        patch(parties._Machine, attr, "protocols.machine")
    patch(parties.ReceiverMachine, "finish", "protocols.machine")
    for cls in vars(messages).values():
        if isinstance(cls, type) and issubclass(cls, messages.Message):
            for attr in ("to_parts", "from_parts", "to_wire", "from_wire",
                         "coerce", "to_part_chunks", "from_part_chunks",
                         "to_wire_chunks", "from_wire_chunks"):
                if attr in cls.__dict__:
                    patch(cls, attr, "protocols.messages")
    for attr in ("add", "message"):
        patch(messages.ChunkAssembler, attr, "protocols.messages")
    delta_init = delta._DeltaParty.__init__

    def counted_delta(self: Any, *args: Any, **kwargs: Any) -> None:
        delta_init(self, *args, **kwargs)
        tracer.record("protocols.delta.values", time.perf_counter(), 0.0,
                      0.0, count=len(self.added) + len(self.removed))

    delta._DeltaParty.__init__ = counted_delta

    # net.serialization: every module reads serialization.encode/decode
    # at call time except the catalog cache, which binds the names.
    encode = tracer.sync_span(
        "net.codec", _unhooked_recursive(serialization.encode),
        lambda args, result: (1, len(result)))
    decode = tracer.sync_span(
        "net.codec", serialization.decode,
        lambda args, result: (1, len(args[0])))
    for module in (serialization, catalog):
        module.encode, module.decode = encode, decode

    # net.session / net.aio: the client's handshake.
    patch(aio.AsyncReceiverSession, "_handshake", "net.session.handshake")

    # net.journal and net.catalog own the disk I/O beneath them.
    for attr in ("append", "rotate", "close"):
        patch(journal.SessionJournal, attr, f"net.journal.{attr}")
    patch(journal.JournalDir, "open_session", "net.journal.open")
    for attr in ("store", "append_delta", "lookup"):
        patch(catalog.CatalogCache, attr, f"net.catalog.{attr}")
    patch(diskfaults.JournalIO, "write", "disk.write",
          lambda args, result: (1, len(args[2])))
    for attr in ("fsync", "fsync_dir"):
        patch(diskfaults.JournalIO, attr, "disk.fsync")
    for attr in ("open_append", "flush", "replace", "truncate"):
        patch(diskfaults.JournalIO, attr, "disk.other")

    # net.server: the worker-side span of one session, and the wait
    # between routing a hello and a pool thread starting the session.
    patch(session.SenderSession, "run", "net.server.session")
    route = server.ProtocolServer._route

    async def timed_route(self: Any, endpoint: Any, raw: bytes,
                          protocol: str, session_id: int) -> None:
        tracer.route_t.setdefault(session_id, time.perf_counter())
        await route(self, endpoint, raw, protocol, session_id)

    server.ProtocolServer._route = timed_route
    start_and_run = server.ProtocolServer._start_and_run

    def timed_start(self: Any, record: Any) -> None:
        routed = tracer.route_t.pop(record.session_id, None)
        if routed is not None:
            now = time.perf_counter()
            tracer.record("net.server.admit_wait", routed, now - routed,
                          now - routed)
        start_and_run(self, record)

    server.ProtocolServer._start_and_run = timed_start
    shutdown = server.ProtocolServer.shutdown

    def flushing_shutdown(self: Any, *args: Any, **kwargs: Any) -> None:
        shutdown(self, *args, **kwargs)
        tracer.flush()

    server.ProtocolServer.shutdown = flushing_shutdown

    # net.tcp: the plain-TCP dial the catalog client makes per query.
    tcp._dial = tracer.sync_span("net.tcp.connect", tcp._dial, None)

    # api: Catalog bookkeeping around each query.
    catalog.table_digest = tracer.sync_span(
        "api.digest", catalog.table_digest, None)
    for attr in ("_commit_full", "_commit_delta"):
        patch(api.Catalog, attr, "api.commit")
    return tracer


def load_spans(trace_dir: Path, since: float) -> list[tuple]:
    """Every flushed span (all processes) whose outermost enclosing
    span started at ``since`` or later, so work that a call begun before
    ``since`` does after it is left out whole; spans share one monotonic
    clock across processes.

    The shard router's codec spans are renamed ``net.shard.codec``: it
    decodes each hello and seals a worker-lost notice whenever the
    worker leg closes first, which after a completed session is a race,
    so its frame count does not repeat and is kept out of ``net.codec``.
    """
    spans: list[tuple] = []
    for path in sorted(Path(trace_dir).glob("*.json")):
        front = path.name.startswith("front-")
        for span in json.loads(path.read_text()):
            if span[1] < since:
                continue
            if front and span[0] == "net.codec":
                span[0] = "net.shard.codec"
            spans.append(tuple(span))
    return spans


def summarize(spans: list[tuple], queries: int) -> dict[str, float]:
    """Per-query layer metrics from raw spans (all processes).

    Time values are self times, except the wall spans of the TCP dial
    (per query) and of the handshake, the server session and the
    admission wait (averaged per call).
    """
    tot: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        tot[key] = tot.get(key, 0.0) + value

    for name, _start, dur, self_s, owner, parent, count, nbytes in spans:
        add(f"{name}:n", count)
        add(f"{name}:calls", 1)
        add(f"{name}:self", self_s)
        add(f"{name}:dur", dur)
        add(f"{name}:bytes", nbytes)
        if name.startswith("disk."):
            layer = owner.split(".")[1] if owner else "other"
            add(f"{layer}.disk:self", self_s)
            add(f"{layer}.{name}:n", count)
            add(f"{layer}.{name}:self", self_s)
            add(f"{layer}.{name}:bytes", nbytes)
            if owner == "net.catalog.append_delta":
                add("delta.disk.write:bytes", nbytes)
                if parent == owner:
                    add("delta.records:bytes", nbytes)

    def per_q(key: str, scale: float = 1.0) -> float:
        return tot.get(key, 0.0) * scale / queries

    def per_call_ms(name: str) -> float:
        calls = tot.get(f"{name}:calls", 0.0)
        return tot.get(f"{name}:dur", 0.0) * 1000.0 / calls if calls else 0.0

    def self_ms(*names: str) -> float:
        return sum(per_q(f"{n}:self", 1000.0) for n in names)

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        base = tot.get(den, 0.0)
        return tot.get(num, 0.0) * scale / base if base else 0.0

    return {
        "crypto.modexp.count": per_q("crypto.modexp:n"),
        "crypto.modexp.self_ms": self_ms("crypto.modexp"),
        "crypto.modexp.us_per_op": ratio(
            "crypto.modexp:self", "crypto.modexp:n", 1e6),
        "crypto.hash.count": per_q("crypto.hash:n"),
        "crypto.hash.self_ms": self_ms("crypto.hash"),
        "crypto.hash.tries_per_value": ratio(
            "crypto.hash.try:n", "crypto.hash:n"),
        "crypto.ext.self_ms": self_ms("crypto.ext"),
        "protocols.machine.self_ms": self_ms("protocols.machine"),
        "protocols.messages.self_ms": self_ms("protocols.messages"),
        "protocols.delta.values": per_q("protocols.delta.values:n"),
        "net.codec.frames": per_q("net.codec:n"),
        "net.codec.bytes": per_q("net.codec:bytes"),
        "net.codec.self_ms": self_ms("net.codec"),
        "net.session.handshake_ms": per_call_ms("net.session.handshake"),
        "net.shard.codec_bytes": per_q("net.shard.codec:bytes"),
        "net.shard.codec_self_ms": self_ms("net.shard.codec"),
        "net.journal.appends": per_q("net.journal.append:n"),
        "net.journal.bytes": per_q("journal.disk.write:bytes"),
        "net.journal.fsync_ms": per_q("journal.disk.fsync:self", 1000.0),
        "net.journal.self_ms": (
            self_ms(*(f"net.journal.{a}"
                      for a in ("append", "rotate", "close", "open")))
            + per_q("journal.disk:self", 1000.0)),
        "net.server.session_ms": per_call_ms("net.server.session"),
        "net.server.admit_wait_ms": per_call_ms("net.server.admit_wait"),
        "net.tcp.connect_ms": per_q("net.tcp.connect:dur", 1000.0),
        "net.catalog.stores": per_q("net.catalog.store:n"),
        "net.catalog.fsyncs": per_q("catalog.disk.fsync:n"),
        "net.catalog.bytes_written": per_q("catalog.disk.write:bytes"),
        "net.catalog.self_ms": (
            self_ms(*(f"net.catalog.{a}"
                      for a in ("store", "append_delta", "lookup")))
            + per_q("catalog.disk:self", 1000.0)),
        "net.catalog.write_amp": ratio(
            "delta.disk.write:bytes", "delta.records:bytes"),
        "api.digest.self_ms": self_ms("api.digest"),
        "api.commit.self_ms": self_ms("api.commit"),
    }
