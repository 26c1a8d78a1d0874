"""CPU time and resident set of the benchmark's process tree (Linux /proc).

``getrusage(RUSAGE_CHILDREN)`` only counts children once they have been
reaped, and the server processes are still alive while a workload is
measured. So the benchmark samples ``utime + stime`` of the generator
and every live descendant from ``/proc/<pid>/stat`` at both edges of
the measured window; this is what ``getrusage`` self + children would
report for the window if the servers exited at its edges.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["host_steal_ticks", "tree_pids", "tree_cpu_s", "tree_peak_rss_mb"]

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def tree_pids(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu_s(pids: list[int]) -> dict[int, float]:
    """User + system CPU seconds of each live pid."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            # Fields 14 and 15 of stat (utime, stime); index 0 is field 3.
            out[pid] = (int(fields[11]) + int(fields[12])) * _TICK_S
    return out


def tree_peak_rss_mb(pids: list[int]) -> float:
    """The largest peak resident set (VmHWM) among ``pids``."""
    peak_kb = 0
    for pid in pids:
        try:
            lines = Path(f"/proc/{pid}/status").read_text().splitlines()
        except OSError:
            continue
        for line in lines:
            if line.startswith("VmHWM:"):
                peak_kb = max(peak_kb, int(line.split()[1]))
    return peak_kb / 1024.0


def host_steal_ticks() -> tuple[int, int]:
    """``(steal, total)`` clock ticks of all CPUs since boot. Steal is
    time the hypervisor ran something else while this machine had work,
    one source of run-to-run noise on a shared host."""
    fields = [int(f) for f in Path("/proc/stat").read_text().split("\n")[0]
              .split()[1:]]
    return fields[7], sum(fields[:8])
