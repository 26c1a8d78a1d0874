"""Fault-tolerant protocol sessions over the framed transports.

The paper's Figure 1 delegates transport to "standard libraries or
packages for secure communication" and its Section 6 cost model
assumes a clean T1 link. This module supplies what a deployment needs
on top of that idealized channel:

* **checksummed frames** - every session frame carries a CRC32 seal
  over its encoded fields, so corruption is detected rather than
  decrypted into garbage;
* **sequence numbers + stop-and-wait retransmission** - each data
  frame is acknowledged; a lost or garbled frame is retransmitted
  after a configurable deadline with exponential backoff and jitter
  (:class:`RetryPolicy`);
* **a versioned handshake** extending the ``PublicParams`` exchange of
  :mod:`repro.net.tcp` with a protocol name, session id and both
  parties' sequence cursors;
* **resumable runs** - because every protocol is declared as a round
  schedule (:mod:`repro.protocols.spec`) interpreted by the generic
  party machines of :mod:`repro.protocols.parties`, a dropped
  connection resumes by replaying cached round outputs from the last
  acknowledged round instead of restarting the run. Rounds are
  computed once and their outputs logged, so a replay re-ships
  identical bytes (idempotence).

The protocols are strictly alternating, so stop-and-wait loses no
throughput; a data frame arriving while a sender waits for its ack is
an *implicit* ack (the peer can only have progressed past our frame).

Wire frames (every frame sealed with a trailing CRC32 of the encoded
preceding fields):

    ("hello",   version, protocol, session_id, next_send, next_recv, crc)
    ("welcome", version, protocol, session_id, params_wire, next_recv, crc)
    ("reject",  version, reason, crc)
    ("busy",    version, reason, crc)   # server at capacity or draining
    ("msg",     seq, payload_bytes, crc)
    ("ack",     seq, crc)
    ("nak",     seq, crc)           # seq -1: "last frame was garbled"
    ("fin",     session_id, crc)

Sessions optionally journal their round logs to disk
(:mod:`repro.net.journal`): pass ``journal=`` a
:class:`~repro.net.journal.SessionJournal` (or a
:class:`~repro.net.journal.JournalDir`, adopted lazily once the
session id is known) and every handshake fact and round payload is
made durable before the session acts on it, so a killed *process* can
be rebuilt to its exact resume cursor by
:func:`repro.net.journal.recover_sender_session` /
:func:`~repro.net.journal.recover_receiver_session`.

With ``chunk_size`` set, chunkable rounds travel as a sequence of
``("chunk", ...)`` data frames closed by a ``("chunk-end", n)`` frame
(:mod:`repro.net.serialization`), each individually sequenced,
acknowledged and journaled - so the resume cursor becomes
``(round, chunk)``-granular: a reconnect or a recovered process
restarts mid-round at the first chunk the peer lacks, and a round is
durable only once its closing frame is journaled. Chunk production is
double-buffered: the crypto for chunk ``k+1`` overlaps the
acknowledged send of chunk ``k``.

All of this is written once, sans I/O. :class:`SessionEndpoint`'s
methods, the handshakes and the round log are generators that yield
I/O requests and get the outcome back; :func:`drive` carries them out
on a blocking transport (:class:`SenderSession`,
:class:`ReceiverSession`, journal recovery) and
:func:`repro.net.aio.adrive` on an asyncio stream
(:class:`~repro.net.aio.AsyncReceiverSession`). A peer cannot tell
which driver it talks to.
"""

from __future__ import annotations

import random
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from . import serialization
from .channel import ChannelClosed
from .chaos import crash_point
from .streaming import TimedIterator, prefetch

__all__ = [
    "SESSION_VERSION",
    "SessionError",
    "HandshakeError",
    "ServerBusyError",
    "WorkerLost",
    "SessionAborted",
    "RetryPolicy",
    "ClientRetryPolicy",
    "SessionConfig",
    "SessionStats",
    "SessionEndpoint",
    "SenderSession",
    "ReceiverSession",
    "drive",
    "busy_backoff_s",
    "refusal_retry_hint_s",
    "seal",
    "unseal",
]

SESSION_VERSION = 1

#: Transport-level events a reconnect can recover from.
_TRANSIENT = (ConnectionError, TimeoutError, OSError, ChannelClosed)


class SessionError(Exception):
    """A session-layer failure (retries exhausted, protocol violation)."""


class HandshakeError(SessionError):
    """A non-retryable handshake failure (version/protocol mismatch)."""


class ServerBusyError(HandshakeError):
    """The server refused a new session: at capacity or draining.

    Raised client-side on receipt of a typed ``busy`` frame, so a
    rejected client fails fast instead of hanging in reconnect loops.
    ``retry_after_s`` carries the server's optional retry hint (the
    busy frame's fourth field), ``None`` when the server sent none.
    """

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class WorkerLost(SessionError):
    """The server lost the worker that owned this session mid-run.

    Raised client-side on receipt of a typed ``worker-lost`` frame -
    the sharded front end's translation of a worker crash (the busy
    wire shape under a different tag). Unlike :class:`HandshakeError`
    it is *retryable*: the supervisor respawns the worker against the
    same journal directory, so a reconnect resumes the session where
    it stopped. ``retry_after_s`` carries the front end's respawn
    hint, ``None`` when the frame had none.
    """

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class SessionAborted(SessionError):
    """The session was administratively aborted (deadline, idle reaper,
    or a drain timeout) and must not be retried on this server."""


def seal(*fields: Any) -> tuple:
    """A session frame: the fields plus a CRC32 over their encoding."""
    return (*fields, zlib.crc32(serialization.encode(list(fields))))


def unseal(frame: Any) -> tuple:
    """Validate a sealed frame; return its fields.

    Raises:
        ValueError: when the frame is not a sealed tuple or its
            checksum does not match (i.e. it was corrupted in flight).
    """
    if not isinstance(frame, tuple) or len(frame) < 2:
        raise ValueError(f"malformed session frame: {type(frame).__name__}")
    *fields, crc = frame
    if not isinstance(crc, int):
        raise ValueError("malformed session frame: non-integer seal")
    try:
        expected = zlib.crc32(serialization.encode(list(fields)))
    except TypeError as exc:
        raise ValueError(f"malformed session frame: {exc}") from exc
    if crc != expected:
        raise ValueError("session frame failed its checksum")
    if not fields or not isinstance(fields[0], str):
        raise ValueError("malformed session frame: missing tag")
    return tuple(fields)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for retransmits and reconnects."""

    max_attempts: int = 5
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(
            self.base_delay_s * self.multiplier ** attempt, self.max_delay_s
        )
        if self.jitter:
            raw *= 1.0 - self.jitter * rng.random()
        return raw


def busy_backoff_s(
    retry_after_s: float | None,
    rng: random.Random,
    *,
    fallback_s: float = 0.5,
    jitter: float = 0.5,
) -> float:
    """How long a busy-refused client should sleep before redialing.

    The server's ``retry_after_s`` hint (or ``fallback_s`` when the
    busy frame carried none) is stretched by up to ``jitter`` of
    itself: ``base * (1 + jitter * rng.random())``. Jitter is *added*,
    never subtracted - retrying before the server's own hint elapses
    would land inside the very window it said it was busy for - and it
    de-synchronizes the herd of clients a draining or saturated server
    just refused in one burst, so they do not all redial in lockstep.
    """
    base = max(retry_after_s if retry_after_s is not None else fallback_s, 0.0)
    return base * (1.0 + jitter * rng.random())


def refusal_retry_hint_s(fields: tuple) -> float | None:
    """The retry hint of a busy-shaped refusal frame, in seconds.

    Busy and worker-lost frames optionally carry the server's hint as
    a fourth field in integer milliseconds (the wire format has no
    floats). Returns ``None`` for a three-field frame or a malformed
    hint, mirroring how old clients simply ignore the extra field.
    """
    hint_ms = fields[3] if len(fields) == 4 else None
    if (
        isinstance(hint_ms, int)
        and not isinstance(hint_ms, bool)
        and hint_ms >= 0
    ):
        return hint_ms / 1000.0
    return None


@dataclass(frozen=True)
class SessionConfig:
    """Deadlines and retry limits for one session."""

    timeout_s: float = 5.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_reconnects: int = 8
    fin_grace_s: float = 0.25


@dataclass(frozen=True)
class ClientRetryPolicy:
    """One client-side answer to every typed refusal a server can send.

    Where :class:`RetryPolicy` paces *frame* retransmits inside a live
    connection, this policy governs the whole client run: how many
    times to redial, how long each attempt may block, the total wall
    budget across attempts, and which typed failures are worth
    retrying at all. It subsumes the older ad-hoc ``retry_busy``
    counter: a busy refusal and a ``worker-lost`` notice both become
    "sleep (honoring the server's hint), then redial", bounded by the
    same attempt and deadline budgets.

    Attributes:
        max_attempts: total dial attempts (also the derived session
            config's ``max_reconnects``); the first attempt counts.
        attempt_timeout_s: per-attempt frame deadline (the derived
            session config's ``timeout_s``).
        total_deadline_s: wall budget across all attempts and backoff
            sleeps; ``None`` means unbounded.
        base_delay_s / multiplier / max_delay_s / jitter: the jittered
            exponential backoff between attempts.
        retry_busy: whether a typed busy refusal is retried.
        retry_worker_lost: whether a typed worker-lost notice is
            retried (reconnect-and-resume lands on the respawned
            worker holding the same journal).
    """

    max_attempts: int = 8
    attempt_timeout_s: float = 5.0
    total_deadline_s: float | None = None
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    retry_busy: bool = True
    retry_worker_lost: bool = True

    #: ``parse`` key → (field name, converter). Module-level constants
    #: would do, but keeping it on the class documents the spec format
    #: next to the fields it maps onto.
    _PARSE_KEYS = {
        "attempts": ("max_attempts", int),
        "timeout": ("attempt_timeout_s", float),
        "deadline": ("total_deadline_s", float),
        "base": ("base_delay_s", float),
        "multiplier": ("multiplier", float),
        "max-delay": ("max_delay_s", float),
        "jitter": ("jitter", float),
        "busy": ("retry_busy", None),
        "worker-lost": ("retry_worker_lost", None),
    }

    @classmethod
    def parse(cls, spec: str) -> "ClientRetryPolicy":
        """Build a policy from a ``key=value,key=value`` CLI spec.

        Keys: ``attempts``, ``timeout``, ``deadline``, ``base``,
        ``multiplier``, ``max-delay``, ``jitter`` (numbers) and
        ``busy``, ``worker-lost`` (``yes``/``no``). Unknown keys and
        unparsable values raise ``ValueError``.
        """
        kwargs: dict[str, Any] = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"retry-policy item {part!r} is not key=value")
            try:
                field_name, conv = cls._PARSE_KEYS[key]
            except KeyError:
                raise ValueError(
                    f"unknown retry-policy key {key!r} "
                    f"(expected one of {sorted(cls._PARSE_KEYS)})"
                ) from None
            if conv is None:
                lowered = value.strip().lower()
                if lowered not in ("yes", "no", "true", "false", "1", "0"):
                    raise ValueError(
                        f"retry-policy {key}= wants yes/no, got {value!r}"
                    )
                kwargs[field_name] = lowered in ("yes", "true", "1")
            else:
                try:
                    kwargs[field_name] = conv(value)
                except ValueError:
                    raise ValueError(
                        f"retry-policy {key}= wants a number, got {value!r}"
                    ) from None
        return cls(**kwargs)

    def retryable(self, exc: BaseException) -> bool:
        """Whether this typed failure is worth another attempt."""
        if isinstance(exc, ServerBusyError):
            return self.retry_busy
        if isinstance(exc, WorkerLost):
            return self.retry_worker_lost
        return False

    def backoff_s(
        self,
        attempt: int,
        rng: random.Random,
        hint_s: float | None = None,
    ) -> float:
        """Sleep before retry ``attempt`` (0-based), honoring hints.

        With a server hint the sleep never lands *before* the hint
        (that would redial inside the very window the server declared
        itself unavailable for) and jitter stretches it upward to
        de-synchronize a refused herd. Without one it is the ordinary
        jittered exponential.
        """
        raw = min(self.base_delay_s * self.multiplier ** attempt,
                  self.max_delay_s)
        if hint_s is not None:
            return max(raw, hint_s) * (1.0 + self.jitter * rng.random())
        if self.jitter:
            raw *= 1.0 - self.jitter * rng.random()
        return raw

    def session_config(self, **overrides: Any) -> SessionConfig:
        """The :class:`SessionConfig` this policy implies.

        The per-attempt timeout becomes the frame deadline and
        ``max_attempts`` bounds the session's reconnect loop, so the
        in-session reconnect behavior and the out-of-session redial
        behavior answer to the same knobs.
        """
        kwargs: dict[str, Any] = dict(
            timeout_s=self.attempt_timeout_s,
            retry=RetryPolicy(
                base_delay_s=self.base_delay_s,
                multiplier=self.multiplier,
                max_delay_s=self.max_delay_s,
                jitter=self.jitter,
            ),
            max_reconnects=self.max_attempts,
        )
        kwargs.update(overrides)
        return SessionConfig(**kwargs)


@dataclass
class SessionStats:
    """Observability counters, ``ProtocolRun``-style, for one session."""

    protocol: str = ""
    frames_sent: int = 0
    frames_received: int = 0
    retransmits: int = 0
    implicit_acks: int = 0
    duplicates_discarded: int = 0
    checksum_failures: int = 0
    malformed_frames: int = 0
    naks_sent: int = 0
    reconnects: int = 0
    worker_lost: int = 0
    replayed_frames: int = 0
    chunks_sent: int = 0
    chunks_received: int = 0
    rounds_computed: int = 0
    rounds_resumed: int = 0
    rounds_recovered: int = 0
    started_at: float = field(default_factory=time.perf_counter)
    finished_at: float | None = None

    def finish(self) -> None:
        """Freeze the elapsed-time clock."""
        self.finished_at = time.perf_counter()

    @property
    def elapsed_s(self) -> float:
        end = (
            self.finished_at
            if self.finished_at is not None
            else time.perf_counter()
        )
        return end - self.started_at

    def as_dict(self) -> dict[str, Any]:
        """Flat mapping for JSON benchmark records."""
        return {
            "protocol": self.protocol,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "retransmits": self.retransmits,
            "implicit_acks": self.implicit_acks,
            "duplicates_discarded": self.duplicates_discarded,
            "checksum_failures": self.checksum_failures,
            "malformed_frames": self.malformed_frames,
            "naks_sent": self.naks_sent,
            "reconnects": self.reconnects,
            "worker_lost": self.worker_lost,
            "replayed_frames": self.replayed_frames,
            "chunks_sent": self.chunks_sent,
            "chunks_received": self.chunks_received,
            "rounds_computed": self.rounds_computed,
            "rounds_resumed": self.rounds_resumed,
            "rounds_recovered": self.rounds_recovered,
            "elapsed_s": self.elapsed_s,
        }


#: End of a prefetched chunk stream: the reply to ``("next", source)``
#: once the producer is exhausted.
END = object()


def drive(steps: Generator[tuple, Any, Any], transport: Any) -> Any:
    """Run a session-core generator to completion on a blocking transport.

    The session logic below is written once, sans I/O: its methods are
    generators that yield I/O requests and receive the outcome back
    (an exception is thrown in at the ``yield``). This is the blocking
    driver; :func:`repro.net.aio.adrive` is the asyncio one.

    * ``("send", frame)`` - ``transport.send(frame)``;
    * ``("recv", timeout_s)`` - one frame off ``transport``, raising
      ``TimeoutError`` when none arrives in time;
    * ``("sleep", seconds)`` - back off;
    * ``("call", fn, *args)`` - blocking machine work, run inline;
    * ``("prefetch", iterable)`` - start a double-buffered producer
      (:func:`~repro.net.streaming.prefetch`) and return its handle;
    * ``("next", handle)`` - that producer's next item, or :data:`END`.

    Producers still open when the generator finishes are closed, so an
    abandoned stream stops its producer thread.
    """
    settimeout = getattr(transport, "settimeout", None)
    sources: list = []
    reply: Any = None
    error: Exception | None = None
    try:
        while True:
            try:
                if error is not None:
                    request = steps.throw(error)
                else:
                    request = steps.send(reply)
            except StopIteration as stop:
                return stop.value
            reply = error = None
            kind = request[0]
            try:
                if kind == "send":
                    transport.send(request[1])
                elif kind == "recv":
                    if settimeout is not None:
                        settimeout(max(request[1], 1e-3))
                    reply = transport.recv()
                elif kind == "call":
                    reply = request[1](*request[2:])
                elif kind == "next":
                    reply = next(request[1], END)
                elif kind == "sleep":
                    time.sleep(request[1])
                else:  # "prefetch"
                    reply = prefetch(request[1])
                    sources.append(reply)
            except Exception as exc:
                error = exc
    finally:
        for source in sources:
            source.close()
        steps.close()


def _worker_lost(stats: SessionStats, frame: tuple) -> WorkerLost:
    """A routed front end lost our worker: fail typed, retryable."""
    stats.worker_lost += 1
    return WorkerLost(
        f"server lost the session's worker: {frame[2]!r}",
        retry_after_s=refusal_retry_hint_s(frame),
    )


class SessionEndpoint:
    """Reliable, checksummed stop-and-wait messaging on one connection.

    Holds one connection's sequence cursors, seeded from a session log
    so a reconnected endpoint continues where the last one died. Its
    methods are generators of I/O requests: run them with
    :func:`drive` on a blocking transport or with
    :func:`repro.net.aio.adrive` on an asyncio stream.
    """

    def __init__(
        self,
        config: SessionConfig,
        stats: SessionStats,
        rng: random.Random,
        send_seq: int = 0,
        recv_seq: int = 0,
    ):
        self.config = config
        self.stats = stats
        self.rng = rng
        self.send_seq = send_seq
        self.recv_seq = recv_seq
        self.fin_seen = False
        #: Server side: the sealed welcome to re-send when a
        #: retransmitted hello arrives (the client missed the first).
        self.welcome: tuple | None = None
        self._inbox: deque[tuple] = deque()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, payload: Any) -> Generator[tuple, Any, None]:
        """Ship one data frame reliably; advances the send cursor."""
        seq = self.send_seq
        wire = serialization.encode(payload)
        retry = self.config.retry
        for attempt in range(retry.max_attempts):
            if attempt:
                self.stats.retransmits += 1
                yield ("sleep", retry.delay_s(attempt - 1, self.rng))
            yield ("send", seal("msg", seq, wire))
            self.stats.frames_sent += 1
            if (yield from self._wait_ack(seq)):
                self.send_seq = seq + 1
                return
        raise SessionError(
            f"frame {seq} unacknowledged after {retry.max_attempts} attempts"
        )

    def _wait_ack(self, seq: int) -> Generator[tuple, Any, bool]:
        deadline = time.monotonic() + self.config.timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            try:
                frame = unseal((yield ("recv", remaining)))
            except (TimeoutError, ChannelClosed):
                return False
            except ValueError:
                self.stats.checksum_failures += 1
                continue
            tag = frame[0]
            if tag == "ack" and len(frame) == 2:
                if frame[1] == seq:
                    return True
                continue  # stale ack from a replayed frame
            if tag == "nak" and len(frame) == 2:
                if frame[1] in (seq, -1):
                    return False  # peer asked for a retransmit
                continue
            if tag == "msg":
                # The peer only sends data after receiving everything
                # we sent: buffer the frame and treat it as an ack.
                self._inbox.append(frame)
                self.stats.implicit_acks += 1
                return True
            if tag == "fin":
                self.fin_seen = True
                return True  # a finished peer has everything
            if tag == "worker-lost" and len(frame) in (3, 4):
                raise _worker_lost(self.stats, frame)
            if tag == "hello" and self.welcome is not None:
                yield ("send", self.welcome)
            continue  # unknown tag: ignore

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def recv(self) -> Generator[tuple, Any, Any]:
        """One in-order data payload; acks, de-dups and naks en route."""
        config = self.config
        deadline = (
            time.monotonic() + config.timeout_s * config.retry.max_attempts
        )
        while True:
            if self._inbox:
                frame = self._inbox.popleft()
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise SessionError(
                        f"timed out waiting for frame {self.recv_seq}"
                    )
                try:
                    frame = unseal(
                        (yield ("recv", min(remaining, config.timeout_s)))
                    )
                except (TimeoutError, ChannelClosed):
                    continue
                except ValueError:
                    # Can't attribute a sequence number to a garbled
                    # frame; nak "whatever you last sent".
                    self.stats.checksum_failures += 1
                    self.stats.naks_sent += 1
                    yield ("send", seal("nak", -1))
                    continue
            tag = frame[0]
            if tag == "fin":
                self.fin_seen = True
                continue
            if tag == "worker-lost" and len(frame) in (3, 4):
                raise _worker_lost(self.stats, frame)
            if tag == "hello" and self.welcome is not None:
                yield ("send", self.welcome)
                continue
            if tag != "msg" or len(frame) != 3:
                continue  # stray ack/nak
            _, seq, wire = frame
            if not isinstance(seq, int) or not isinstance(wire, bytes):
                self.stats.malformed_frames += 1
                continue
            if seq == self.recv_seq:
                yield ("send", seal("ack", seq))
                self.recv_seq += 1
                self.stats.frames_received += 1
                try:
                    return serialization.decode(wire)
                except ValueError as exc:
                    raise SessionError(
                        f"frame {seq} passed its checksum but failed to "
                        f"decode: {exc}"
                    ) from exc
            if seq < self.recv_seq:
                self.stats.duplicates_discarded += 1
                yield ("send", seal("ack", seq))  # our earlier ack was lost
                continue
            raise SessionError(
                f"out-of-order frame {seq} (expected {self.recv_seq})"
            )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def fin(self, session_id: int) -> Generator[tuple, Any, None]:
        """Best-effort goodbye so the peer can stop waiting for acks."""
        try:
            yield ("send", seal("fin", session_id))
        except _TRANSIENT:
            pass

    def _reack(self, frame: tuple) -> Generator[tuple, Any, None]:
        """Re-ack a retransmitted data frame we already consumed."""
        seq = frame[1] if frame[0] == "msg" and len(frame) == 3 else None
        if isinstance(seq, int) and seq < self.recv_seq:
            self.stats.duplicates_discarded += 1
            yield ("send", seal("ack", seq))

    def fin_wait(self, session_id: int) -> Generator[tuple, Any, bool]:
        """Send a fin and wait for the peer's fin echo.

        The final data ack and the fin itself can both be lost; a peer
        that never hears either keeps retransmitting into a vanished
        client and must eventually give up. So the finishing side
        lingers here: it re-sends the fin with backoff, re-acks any
        retransmitted data frame it sees meanwhile, and leaves once the
        peer echoes the fin (or closes, or the retry budget is spent).
        Returns whether the echo arrived.
        """
        retry = self.config.retry
        for attempt in range(retry.max_attempts):
            if attempt:
                yield ("sleep", retry.delay_s(attempt - 1, self.rng))
            try:
                yield ("send", seal("fin", session_id))
            except _TRANSIENT:
                return False
            deadline = time.monotonic() + self.config.timeout_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break  # resend the fin
                try:
                    frame = unseal((yield ("recv", remaining)))
                except TimeoutError:
                    break
                except _TRANSIENT:
                    return False  # peer already hung up: it is done
                except ValueError:
                    continue
                if frame[0] == "fin":
                    self.fin_seen = True
                    return True
                try:
                    yield from self._reack(frame)
                except _TRANSIENT:
                    return False
        return False

    def await_fin(self, grace_s: float) -> Generator[tuple, Any, bool]:
        """Absorb frames until a fin arrives or the grace period ends.

        Re-acks duplicates meanwhile so a peer whose final ack was lost
        can still complete. Returns whether a fin was seen.
        """
        deadline = time.monotonic() + grace_s
        while not self.fin_seen:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                frame = unseal((yield ("recv", remaining)))
                if frame[0] == "fin":
                    self.fin_seen = True
                else:
                    yield from self._reack(frame)
            except _TRANSIENT:
                break
            except ValueError:
                continue
        return self.fin_seen


def _close_quietly(transport: Any) -> None:
    close = getattr(transport, "close", None)
    if close is not None:
        try:
            close()
        except OSError:
            pass


def _split_journal(journal: Any) -> tuple[Any, Any]:
    """Normalize a ``journal=`` argument to ``(open journal, lazy dir)``.

    Accepts ``None``, an open :class:`~repro.net.journal.SessionJournal`
    (recovery and the supervised server pass one), or a
    :class:`~repro.net.journal.JournalDir` to open a per-session file
    from once the session id is known.
    """
    if journal is None:
        return None, None
    from .journal import JournalDir, SessionJournal

    if isinstance(journal, JournalDir):
        return None, journal
    if isinstance(journal, SessionJournal):
        return journal, None
    raise TypeError(
        f"journal= takes a SessionJournal or JournalDir, "
        f"not {type(journal).__name__}"
    )


def _round_frames(machine: Any, rnd: Any, chunk_size: int | None) -> list:
    """The full frame sequence one outbound round puts on the wire.

    One whole-round payload frame, or - when ``chunk_size`` chunks this
    round - its chunk frames closed by a chunk-end frame. Journal
    replay recomputes rounds through this same function.
    """
    if chunk_size is not None and rnd.chunkable:
        payloads = list(machine.produce_chunks(rnd, chunk_size))
        frames: list = [
            serialization.chunk_frame(i, p) for i, p in enumerate(payloads)
        ]
        frames.append(serialization.chunk_end_frame(len(payloads)))
        return frames
    return [machine.produce(rnd).to_wire()]


class _RoundLog:
    """Frame-granular round log shared by both session roles.

    Frames (whole-round payloads, or chunk/chunk-end frames when
    ``chunk_size`` streams a round) live in the flat ``_inbound`` /
    ``_outbound`` lists; ``_in_rounds`` / ``_out_rounds`` hold the
    cumulative frame count at each completed round boundary. That is
    what makes the resume cursor chunk-granular: a reconnect or a
    recovered process restarts mid-round at the first frame the peer
    lacks, and a round is only *complete* once its closing frame is
    logged. With ``chunk_size=None`` every round is exactly one frame
    and the log degenerates to the original round-granular one.
    """

    #: Legacy receiver semantics: count a resumed round per replayed
    #: frame. The sender instead counts one resume per reconnect.
    _resumed_per_replay = False

    def __init__(
        self,
        protocol: str,
        config: SessionConfig | None,
        rng: random.Random,
        recorder: Any,
        chunk_size: int | None,
        journal: Any,
    ):
        from ..protocols.spec import get_spec

        self.protocol = protocol
        self.spec = get_spec(protocol)
        self.config = config or SessionConfig()
        self.rng = rng
        self.stats = SessionStats(protocol=protocol)
        self.recorder = recorder
        self.chunk_size = chunk_size
        self._machine: Any = None
        self._inbound: list[Any] = []
        self._outbound: list[Any] = []
        self._in_rounds: list[int] = []
        self._out_rounds: list[int] = []
        self._pending_frames: list[Any] | None = None
        self._attempted_sends: set[int] = set()
        self.journal, self._journal_dir = _split_journal(journal)

    def _open_journal(self, role: str, session_id: int) -> None:
        """Adopt a fresh per-session journal from the journal directory."""
        from .journal import JournalError

        journal = self._journal_dir.open_session(
            role, self.protocol, session_id
        )
        if any(r[0] in ("in", "out", "done") for r in journal.records):
            raise JournalError(
                f"{journal.path}: a previous run already journaled rounds "
                "for this session - recover it instead of restarting it"
            )
        if self.chunk_size is not None:
            journal.record_meta("chunk_size", self.chunk_size)
        self.journal = journal

    def _append_outbound(self, frame: Any) -> None:
        """Cache and journal one outgoing frame before it can be sent."""
        self._outbound.append(frame)
        if self.journal is not None:
            self.journal.record_outbound(
                len(self._outbound) - 1, serialization.encode(frame)
            )

    def _complete_journal(self) -> None:
        """Record completion, then rotate; tolerate a failed rename.

        The completion record is already durable, so a rotation failure
        loses nothing: the ``*.wal`` still classifies as complete and
        the next directory scan (or server hello) rotates it. The
        failure stays visible in the journal's ``rotate_failures``.
        """
        from .journal import JournalError

        if self.journal is None:
            return
        if not self.journal.complete:
            self.journal.record_complete()
        try:
            self.journal.rotate()
        except JournalError:
            pass

    def _ship(
        self, endpoint: SessionEndpoint, bound: int
    ) -> Generator[tuple, Any, None]:
        """Send, in order, every cached frame below ``bound`` the peer
        has not acknowledged."""
        while endpoint.send_seq < bound:
            seq = endpoint.send_seq
            if seq in self._attempted_sends:
                self.stats.replayed_frames += 1
                if self._resumed_per_replay:
                    self.stats.rounds_resumed += 1
            self._attempted_sends.add(seq)
            frame = self._outbound[seq]
            if serialization.is_chunk_frame(frame):
                self.stats.chunks_sent += 1
            crash_point("session.ship.frame")
            yield from endpoint.send(frame)

    def _produce_round(
        self, endpoint: SessionEndpoint, machine: Any, rnd: Any, index: int
    ) -> Generator[tuple, Any, None]:
        """Compute (if new), journal and ship outbound round ``index``."""
        if index >= len(self._out_rounds):
            if (
                self.chunk_size is not None
                and rnd.chunkable
                and rnd.chunk_step is not None
            ):
                yield from self._produce_streaming(endpoint, machine, rnd)
            else:
                yield from self._produce_whole(machine, rnd)
            self._out_rounds.append(len(self._outbound))
            self._pending_frames = None
            self.stats.rounds_computed += 1
        yield from self._ship(endpoint, self._out_rounds[index])

    def _produce_whole(
        self, machine: Any, rnd: Any
    ) -> Generator[tuple, Any, None]:
        """Compute a full round, then journal all its frames.

        Used for unchunked rounds and for chunked rounds without an
        incremental ``chunk_step`` - whose ``step`` may consume rng, so
        it must run exactly once per process. ``_pending_frames`` keeps
        the computed frames across an in-process retry of the journal
        appends (a failed append must not recompute the round).
        """
        if self._pending_frames is None:
            self._pending_frames = yield (
                "call", _round_frames, machine, rnd, self.chunk_size
            )
        base = self._out_rounds[-1] if self._out_rounds else 0
        for frame in self._pending_frames[len(self._outbound) - base :]:
            self._append_outbound(frame)

    def _produce_streaming(
        self, endpoint: SessionEndpoint, machine: Any, rnd: Any
    ) -> Generator[tuple, Any, None]:
        """Stream a round: journal and ship it chunk by chunk.

        The chunk producer is rng-free and deterministic, so an
        in-process retry or a reconnect recomputes the stream and skips
        the frames already journaled. Production runs ahead on the
        driver's prefetcher, overlapping chunk ``k+1``'s crypto with
        chunk ``k``'s acknowledged send; the recorder (if any) gets the
        round's produce/send/wall split for the pipeline-overlap report.
        """
        base = self._out_rounds[-1] if self._out_rounds else 0
        already = len(self._outbound) - base
        wall_start = time.perf_counter()
        send_s = 0.0
        timed = TimedIterator(machine.produce_chunks(rnd, self.chunk_size))
        source = yield ("prefetch", timed)
        count = 0
        while (payload := (yield ("next", source))) is not END:
            if count >= already:
                self._append_outbound(serialization.chunk_frame(count, payload))
                begin = time.perf_counter()
                yield from self._ship(endpoint, len(self._outbound))
                send_s += time.perf_counter() - begin
            count += 1
        if already <= count:
            self._append_outbound(serialization.chunk_end_frame(count))
        if self.recorder is not None:
            self.recorder.add_pipeline(
                f"{machine.role}.{rnd.name}",
                produce_s=timed.elapsed_s,
                send_s=send_s,
                wall_s=time.perf_counter() - wall_start,
                chunks=count,
            )

    def _recv_round(
        self, endpoint: SessionEndpoint, machine: Any, rnd: Any, index: int
    ) -> Generator[tuple, Any, None]:
        """Receive (if incomplete) and consume inbound round ``index``.

        Frames a recovered process already journaled are folded first,
        so receiving continues mid-round at the first missing chunk;
        every new frame is journaled before the round can complete.
        """
        if index < len(self._in_rounds):
            return
        start = self._in_rounds[-1] if self._in_rounds else 0
        while True:
            status, payload, _used = serialization.fold_chunk_frames(
                self._inbound[start:]
            )
            if status != "partial":
                break
            with machine.wait(rnd):
                frame = yield from endpoint.recv()
            self._inbound.append(frame)
            if serialization.is_chunk_frame(frame):
                self.stats.chunks_received += 1
            if self.journal is not None:
                self.journal.record_inbound(
                    len(self._inbound) - 1, serialization.encode(frame)
                )
            crash_point("session.recv.frame")
        if status == "single":
            yield ("call", machine.consume, rnd, payload)
        else:
            yield ("call", machine.consume_chunks, rnd, payload)
        self._in_rounds.append(len(self._inbound))


class SenderSession(_RoundLog):
    """Party S's resumable run: accept, hand-shake, serve, survive.

    The round log (inbound payloads received, outbound payloads
    computed) lives here, *outside* any single connection, which is
    what makes a mid-run disconnect recoverable: a reconnecting client
    announces its receive cursor and the session replays exactly the
    cached frames it is missing. The rounds themselves come from the
    protocol's registered spec (:mod:`repro.protocols.spec`), walked by
    a :class:`~repro.protocols.parties.SenderMachine` that persists
    across reconnects.
    """

    def __init__(
        self,
        protocol: str,
        params: Any,
        make_sender: Callable[[], Any],
        config: SessionConfig | None = None,
        rng: random.Random | None = None,
        recorder: Any = None,
        journal: Any = None,
        chunk_size: int | None = None,
    ):
        super().__init__(protocol, config, rng or random.Random(0),
                         recorder, chunk_size, journal)
        self.params = params
        self._make_sender = make_sender
        self._session_id: int | None = None
        self._complete = False

    def _ensure_machine(self) -> Any:
        if self._machine is None:
            from ..protocols.parties import SenderMachine

            self._machine = SenderMachine.from_factory(
                self.spec, self._make_sender, self.recorder
            )
        return self._machine

    def run(self, accept: Callable[[], Any]) -> Any:
        """Serve the run to completion; returns the sender party state.

        ``accept()`` must block until the next client connection and
        return a framed transport for it (raising ``TimeoutError`` when
        none arrives within its own deadline).
        """
        failures = 0
        while True:
            transport = None
            try:
                transport = accept()
                endpoint, client_next_recv = drive(self._handshake(), transport)
                result = drive(self._script(endpoint, client_next_recv),
                               transport)
                self.stats.finish()
                return result
            except (HandshakeError, SessionAborted):
                raise
            except (SessionError, ValueError, *_TRANSIENT) as exc:
                if self._complete:
                    self.stats.finish()
                    return self._machine.state
                failures += 1
                self.stats.reconnects += 1
                if failures > self.config.max_reconnects:
                    raise SessionError(
                        f"sender session gave up after {failures} failed "
                        f"connections: {exc}"
                    ) from exc
            finally:
                if transport is not None:
                    _close_quietly(transport)

    def _read_hello(self) -> Generator[tuple, Any, tuple]:
        """Wait for a valid hello, absorbing garbled or stray frames."""
        config = self.config
        deadline = (
            time.monotonic() + config.timeout_s * config.retry.max_attempts
        )
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SessionError("no valid hello before the deadline")
            try:
                fields = unseal(
                    (yield ("recv", min(remaining, config.timeout_s)))
                )
            except TimeoutError:
                continue
            except ValueError:
                self.stats.checksum_failures += 1
                continue
            if fields[0] == "hello" and len(fields) == 6:
                return fields
            # Stray frame from the previous connection's tail: ignore.

    def _handshake(self) -> Generator[tuple, Any, tuple[SessionEndpoint, int]]:
        fields = yield from self._read_hello()
        _, version, protocol, session_id, _next_send, next_recv = fields
        if version != SESSION_VERSION:
            yield from self._reject(f"unsupported session version {version}")
            raise HandshakeError(
                f"client speaks session version {version}, "
                f"this server speaks {SESSION_VERSION}"
            )
        if protocol != self.protocol:
            yield from self._reject(
                f"protocol mismatch: serving {self.protocol}"
            )
            raise HandshakeError(
                f"client asked for {protocol!r}, serving {self.protocol!r}"
            )
        if self._session_id is None:
            self._session_id = session_id
            # The sender learns its session id from the first hello, so
            # a per-session journal file cannot exist before it.
            if self.journal is None and self._journal_dir is not None:
                self._open_journal("sender", session_id)
        elif session_id != self._session_id:
            yield from self._reject("unknown session id")
            raise SessionError(f"unknown session id {session_id}")
        if not isinstance(next_recv, int) or not 0 <= next_recv <= len(
            self._outbound
        ):
            raise SessionError(f"implausible client cursor {next_recv!r}")
        endpoint = SessionEndpoint(
            self.config,
            self.stats,
            self.rng,
            send_seq=next_recv,
            recv_seq=len(self._inbound),
        )
        # A lost welcome comes back as a retransmitted hello: answer
        # with the same welcome instead of tearing the connection down.
        endpoint.welcome = seal(
            "welcome",
            SESSION_VERSION,
            self.protocol,
            self._session_id,
            tuple(self.params.to_wire()),
            len(self._inbound),
        )
        yield ("send", endpoint.welcome)
        return endpoint, next_recv

    def _reject(self, reason: str) -> Generator[tuple, Any, None]:
        try:
            yield ("send", seal("reject", SESSION_VERSION, reason))
        except _TRANSIENT:
            pass

    def _script(
        self, endpoint: SessionEndpoint, client_next_recv: int
    ) -> Generator[tuple, Any, Any]:
        machine = self._ensure_machine()
        if client_next_recv < len(self._outbound):
            # A reconnected client served from the cached frame log.
            self.stats.rounds_resumed += 1
        received = produced = 0
        for rnd in self.spec.rounds:
            if rnd.source == "R":
                yield from self._recv_round(endpoint, machine, rnd, received)
                received += 1
            else:
                yield from self._produce_round(endpoint, machine, rnd,
                                               produced)
                produced += 1
        self._complete = True
        self._complete_journal()
        if (yield from endpoint.await_fin(self.config.fin_grace_s)):
            # Echo the fin so the lingering client can leave promptly.
            yield from endpoint.fin(self._session_id)
        return machine.state


class ReceiverSession(_RoundLog):
    """Party R's resumable run: connect, hand-shake, drive, reconnect.

    Like :class:`SenderSession`, R walks the protocol's registered
    round schedule with a persistent
    :class:`~repro.protocols.parties.ReceiverMachine` and caches every
    round payload, so a reconnect resumes mid-schedule instead of
    restarting the run. :class:`~repro.net.aio.AsyncReceiverSession`
    runs this same logic on the asyncio driver.
    """

    #: Legacy stat semantics: R counts a resumed round per replayed frame.
    _resumed_per_replay = True

    def __init__(
        self,
        protocol: str,
        make_receiver: Callable[[Any], Any],
        config: SessionConfig | None = None,
        rng: random.Random | None = None,
        session_id: int | None = None,
        recorder: Any = None,
        journal: Any = None,
        chunk_size: int | None = None,
    ):
        super().__init__(protocol, config, rng or random.Random(),
                         recorder, chunk_size, journal)
        self.session_id = (
            session_id if session_id is not None else self.rng.getrandbits(63)
        )
        self._make_receiver = make_receiver
        self._params_wire: tuple | None = None
        if self._journal_dir is not None:
            # R picks its session id up front, so the per-session file
            # can be adopted immediately (unlike the sender's lazy path).
            self._open_journal("receiver", self.session_id)

    def _ensure_machine(self) -> Any:
        if self._machine is None:
            from ..protocols.parties import ReceiverMachine

            self._machine = ReceiverMachine.from_factory(
                self.spec,
                lambda: self._make_receiver(self._params_wire),
                self.recorder,
            )
        return self._machine

    def run(self, connect: Callable[[], Any]) -> Any:
        """Drive the run to completion; returns the protocol answer.

        ``connect()`` must dial the server and return a framed
        transport; it is re-invoked after every transient failure, up
        to ``config.max_reconnects`` times.
        """
        failures = 0
        while True:
            transport = None
            try:
                transport = connect()
                endpoint = drive(self._handshake(), transport)
                answer = drive(self._script(endpoint), transport)
                self.stats.finish()
                return answer
            except (HandshakeError, SessionAborted):
                raise
            except (SessionError, ValueError, *_TRANSIENT) as exc:
                failures += 1
                time.sleep(self._redial_delay(exc, failures))
            finally:
                if transport is not None:
                    _close_quietly(transport)

    def _redial_delay(self, exc: Exception, failures: int) -> float:
        """Count a failed connection; the backoff before redialing.

        Raises:
            SessionError: ``failures`` exceeds ``config.max_reconnects``.
        """
        self.stats.reconnects += 1
        if failures > self.config.max_reconnects:
            raise SessionError(
                f"receiver session gave up after {failures} failed "
                f"connections: {exc}"
            ) from exc
        delay = self.config.retry.delay_s(failures - 1, self.rng)
        hint = getattr(exc, "retry_after_s", None)
        if hint is not None:
            # A worker-lost notice names its respawn window;
            # redialing earlier just burns a reconnect.
            delay = max(delay, busy_backoff_s(hint, self.rng))
        return delay

    def _await_welcome(self, hello: tuple) -> Generator[tuple, Any, tuple]:
        """Send the hello; retransmit it until a welcome (or refusal)."""
        config = self.config
        for attempt in range(config.retry.max_attempts):
            if attempt:
                self.stats.retransmits += 1
            yield ("send", hello)
            deadline = time.monotonic() + config.timeout_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break  # resend the hello
                try:
                    fields = unseal((yield ("recv", remaining)))
                except TimeoutError:
                    break
                except ValueError:
                    self.stats.checksum_failures += 1
                    continue
                if fields[0] == "busy" and len(fields) in (3, 4):
                    # Optional 4th field: retry hint in integer ms.
                    raise ServerBusyError(
                        f"server refused the session: {fields[2]!r}",
                        retry_after_s=refusal_retry_hint_s(fields),
                    )
                if fields[0] == "worker-lost" and len(fields) in (3, 4):
                    # The shard front end answered for a dead worker:
                    # retryable - the supervisor is respawning it.
                    raise _worker_lost(self.stats, fields)
                if fields[0] == "reject" and len(fields) == 3:
                    raise HandshakeError(
                        f"server rejected session: {fields[2]!r}"
                    )
                if fields[0] == "welcome" and len(fields) == 6:
                    return fields
                # Stray ack/data from the previous connection: ignore.
        raise SessionError(
            f"no welcome after {config.retry.max_attempts} hellos"
        )

    def _handshake(self) -> Generator[tuple, Any, SessionEndpoint]:
        next_recv = len(self._inbound)
        hello = seal(
            "hello",
            SESSION_VERSION,
            self.protocol,
            self.session_id,
            len(self._attempted_sends),
            next_recv,
        )
        fields = yield from self._await_welcome(hello)
        _, version, protocol, session_id, params_wire, server_next_recv = fields
        if version != SESSION_VERSION:
            raise HandshakeError(
                f"server speaks session version {version}, "
                f"this client speaks {SESSION_VERSION}"
            )
        if protocol != self.protocol:
            raise HandshakeError(
                f"server runs {protocol!r}, wanted {self.protocol!r}"
            )
        if session_id != self.session_id:
            raise SessionError(f"server answered for session {session_id}")
        if self._params_wire is None:
            self._params_wire = tuple(params_wire)
            if self.journal is not None:
                self.journal.record_meta("params", self._params_wire)
        elif tuple(params_wire) != self._params_wire:
            raise HandshakeError(
                "server changed public parameters across a resume"
            )
        if not isinstance(server_next_recv, int) or not (
            0 <= server_next_recv <= len(self._outbound)
        ):
            raise SessionError(
                f"implausible server cursor {server_next_recv!r}"
            )
        return SessionEndpoint(
            self.config,
            self.stats,
            self.rng,
            send_seq=server_next_recv,
            recv_seq=next_recv,
        )

    def _script(self, endpoint: SessionEndpoint) -> Generator[tuple, Any, Any]:
        machine = self._ensure_machine()
        yield ("call", machine.ensure_state)
        sent = received = 0
        for rnd in self.spec.rounds:
            if rnd.source == "R":
                yield from self._produce_round(endpoint, machine, rnd, sent)
                sent += 1
            else:
                yield from self._recv_round(endpoint, machine, rnd, received)
                received += 1
        answer = yield ("call", machine.finish)
        self._complete_journal()
        yield from endpoint.fin_wait(self.session_id)
        return answer
