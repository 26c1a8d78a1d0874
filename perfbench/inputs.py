"""Seeded inputs and their plaintext answers.

Everything a workload feeds the program comes from here and depends
only on the workload seed: the two parties' tables, the open-loop
arrival schedule, the per-query client seeds and the churn schedule of
the repeated-query workload. The expected answer of every query is
computed in plaintext from the same tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import ClassVar

__all__ = [
    "Tables",
    "Churn",
    "arrivals",
    "make_tables",
    "query_seed",
]


@dataclass
class Tables:
    """Both parties' tables; ``ext`` maps S's values to payloads when
    the protocol is an equijoin."""

    v_r: list[str]
    v_s: list[str]
    ext: dict[str, bytes] | None = None

    def sender_data(self):
        """What party S serves: its value list, or its ext mapping."""
        return self.ext if self.ext is not None else list(self.v_s)

    def expected(self):
        """The plaintext answer R must receive."""
        common = set(self.v_r) & set(self.v_s)
        if self.ext is None:
            return common
        return {v: self.ext[v] for v in common}


def _value(rng: random.Random, tag: str) -> str:
    return f"{tag}-{rng.getrandbits(64):016x}"


def make_tables(seed: int, n: int, ext_bytes: int = 0) -> Tables:
    """|V_R| = |V_S| = ``n`` with half of each side in common."""
    rng = random.Random(f"tables:{seed}:{n}")
    common = [_value(rng, "c") for _ in range(n // 2)]
    v_r = common + [_value(rng, "r") for _ in range(n - n // 2)]
    v_s = common + [_value(rng, "s") for _ in range(n - n // 2)]
    rng.shuffle(v_r)
    rng.shuffle(v_s)
    ext = None
    if ext_bytes:
        ext = {v: rng.randbytes(ext_bytes) for v in v_s}
    return Tables(v_r=v_r, v_s=v_s, ext=ext)


def query_seed(seed: int, index: int) -> int:
    """The client randomness seed of query ``index`` (any connection)."""
    return random.Random(f"query:{seed}:{index}").getrandbits(64)


def arrivals(seed: int, rate_qps: float, duration_s: float) -> list[float]:
    """Seeded Poisson arrival offsets (seconds) in ``[0, duration_s)``."""
    rng = random.Random(f"arrivals:{seed}:{rate_qps}")
    due, out = 0.0, []
    while True:
        due += rng.expovariate(rate_qps)
        if due >= duration_s:
            return out
        out.append(due)


@dataclass
class Churn:
    """The repeated-query workload's write schedule, shared by both sides.

    Step ``k`` makes each side delete ``deletes`` of its current values
    and insert ``inserts`` new ones; ``shared`` of the inserts are the
    same fresh values on both sides, so the intersection both grows and
    shrinks. Both processes replay the same steps from the same seed,
    so each can stage its own side while the generator recomputes the
    answer from both.
    """

    inserts: ClassVar[int] = 5
    deletes: ClassVar[int] = 5
    shared: ClassVar[int] = 2

    seed: int
    tables: Tables
    step_no: int = field(init=False, default=0)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(f"churn:{self.seed}")
        self.v_r = list(self.tables.v_r)
        self.v_s = list(self.tables.v_s)

    def step(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The next step's ``(r_ins, r_del, s_ins, s_del)``, applied to
        this schedule's copy of both tables."""
        rng = self._rng
        self.step_no += 1
        shared = [_value(rng, f"k{self.step_no}")
                  for _ in range(self.shared)]
        out = []
        for side, tag in ((self.v_r, "r"), (self.v_s, "s")):
            dels = rng.sample(side, self.deletes)
            ins = shared + [_value(rng, f"{tag}{self.step_no}")
                            for _ in range(self.inserts - self.shared)]
            gone = set(dels)
            side[:] = [v for v in side if v not in gone] + ins
            out += [tuple(ins), tuple(dels)]
        return tuple(out)

    def expected(self) -> set[str]:
        """The intersection of both sides' current tables."""
        return set(self.v_r) & set(self.v_s)
