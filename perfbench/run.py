"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-equijoin --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), measures it for ``--seconds`` and reports the end-to-end
metrics. ``--trace 1`` runs a fixed query set (its size derived from
``--seconds`` only) twice, once untraced and once with the span
wrappers of :mod:`tracing` installed, and reports the per-layer
metrics plus the tracing overhead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The blocking-path rows of the traced breakdown (per query, ms).
BLOCKING_ROWS = (
    "crypto.modexp.self_ms", "crypto.hash.self_ms", "crypto.ext.self_ms",
    "protocols.machine.self_ms", "protocols.messages.self_ms",
    "net.codec.self_ms", "net.shard.codec_self_ms", "net.journal.self_ms",
    "net.catalog.self_ms",
    "api.digest.self_ms", "api.commit.self_ms", "net.tcp.connect_ms",
)

UNITS = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "throughput_qps": "1/s",
    "cpu_ms_per_query": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

#: Units of the per-layer metrics, in report order.
LAYER_UNITS = {
    "crypto.modexp.count": "count",
    "crypto.modexp.self_ms": "ms",
    "crypto.modexp.us_per_op": "us",
    "crypto.hash.count": "count",
    "crypto.hash.self_ms": "ms",
    "crypto.hash.tries_per_value": "ratio",
    "crypto.ext.self_ms": "ms",
    "protocols.machine.self_ms": "ms",
    "protocols.messages.self_ms": "ms",
    "protocols.delta.values": "count",
    "net.codec.frames": "count",
    "net.codec.bytes": "B",
    "net.codec.self_ms": "ms",
    "net.session.handshake_ms": "ms",
    "net.session.retransmits": "count",
    "net.session.reconnects": "count",
    "net.journal.appends": "count",
    "net.journal.bytes": "B",
    "net.journal.fsync_ms": "ms",
    "net.journal.self_ms": "ms",
    "net.server.session_ms": "ms",
    "net.server.admit_wait_ms": "ms",
    "net.server.busy_refusals": "count",
    "net.shard.hop_ms": "ms",
    "net.shard.routed": "count",
    "net.shard.codec_bytes": "B",
    "net.shard.codec_self_ms": "ms",
    "net.tcp.connect_ms": "ms",
    "net.catalog.stores": "count",
    "net.catalog.fsyncs": "count",
    "net.catalog.bytes_written": "B",
    "net.catalog.self_ms": "ms",
    "net.catalog.write_amp": "ratio",
    "api.digest.self_ms": "ms",
    "api.commit.self_ms": "ms",
    "costmodel.crypto_pred_ms": "ms",
    "costmodel.wire_bytes_pred": "B",
    "costmodel.ce_us": "us",
    "costmodel.ch_us": "us",
    "gen.late_ms.p50": "ms",
    "gen.late_ms.tail": "ms",
    "trace.latency_ms.p50": "ms",
    "trace.untraced_latency_ms.p50": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.queries": "count",
}

#: The end-to-end metrics the final JSON line carries (the ones every
#: workload has and none reads 0; see README.md).
GATED = ("setup_s", "latency_ms.p50", "throughput_qps", "cpu_ms_per_query",
         "peak_rss_mb")


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """``(percentile, value, n)`` of the highest percentile with at least
    10 samples beyond it, or ``None`` below 20 samples (where it would
    not lie above the median)."""
    n = len(samples)
    if n < 20:
        return None
    rank = n - 11  # 0-based; exactly 10 samples lie above it
    return 100.0 * (rank + 1) / n, sorted(samples)[rank], n


def environment(workload) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "modulus_bits": workload.bits,
    }


def measurable(phase) -> bool:
    """Whether every figure of ``phase`` has a verified query behind it."""
    return bool(phase.latencies_ms and (phase.closed or phase).window_cpu_ms)


def end_to_end(phase, setups: list[float]) -> dict[str, float]:
    """The 7 end-to-end metrics of one measured phase. Throughput and CPU
    per query are medians over the measured windows of its closed loop
    (``small-sessions``: its closed-loop phase)."""
    closed = phase.closed or phase
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms.p50": statistics.median(phase.latencies_ms),
        "throughput_qps": statistics.median(closed.window_qps),
        "cpu_ms_per_query": statistics.median(closed.window_cpu_ms),
        "peak_rss_mb": phase.peak_rss_mb,
        "failed_frac": phase.total("failed") / phase.total("attempted"),
    }
    tail_of = tail(phase.latencies_ms)
    if tail_of is not None:
        metrics["latency_ms.tail"] = tail_of[1]
    return metrics


def untraced(workload_cls, seed: int, seconds: float, workdir: Path):
    workload = workload_cls(seed, workdir)
    setups: list[float] = []
    handle = None
    try:
        for _ in range(workload.setups):
            if handle is not None:
                workload.stop(handle)
                handle = None
            start = time.perf_counter()
            handle = workload.setup()
            setups.append(time.perf_counter() - start)
        phase = workload.measure(handle, seconds)
    finally:
        if handle is not None:
            workload.stop(handle)
    return workload, phase, setups


def traced(workload_cls, seed: int, seconds: float, workdir: Path):
    """Reference run, calibration, then the same query set traced."""
    from repro.analysis.calibration import calibrate
    from repro.analysis.costmodel import ProtocolCostModel

    import tracing

    reference = workload_cls(seed, workdir / "untraced")
    handle = reference.setup()
    try:
        ref_phase = reference.measure(handle, seconds, fixed=True)
    finally:
        reference.stop(handle)
    calibration = calibrate(bits=reference.bits, samples=30)

    trace_dir = workdir / "spans"
    trace_dir.mkdir(parents=True)
    tracer = tracing.install(trace_dir)
    workload = workload_cls(seed, workdir / "traced", tracer)
    handle = workload.setup()
    try:
        time.sleep(0.3)  # let the set-up query's trailing calls start
        since = time.perf_counter()
        phase = workload.measure(handle, seconds, fixed=True)
    finally:
        server = workload.stop(handle)
    tracer.flush()
    if not (measurable(phase) and measurable(ref_phase)):
        return workload, phase, ref_phase, None
    answered, attempted = phase.total("verified"), phase.total("attempted")
    layers = tracing.summarize(tracing.load_spans(trace_dir, since),
                               answered)
    hop = (statistics.fmean(phase.total("service_ms"))
           - layers["net.server.session_ms"]
           if layers["net.server.session_ms"] else 0.0)
    pred_ms, pred_bytes = workload.cost_model(
        ProtocolCostModel(constants=calibration.constants))
    p50 = statistics.median(phase.latencies_ms)
    ref_p50 = statistics.median(ref_phase.latencies_ms)
    late = tail(phase.late_ms)
    routed = server.get("routed")  # shard router only; includes set-up
    layers.update({
        "net.session.retransmits": phase.total("retransmits") / attempted,
        "net.session.reconnects": phase.total("reconnects") / attempted,
        "net.server.busy_refusals": phase.total("busy") / attempted,
        "net.shard.hop_ms": hop,
        "net.shard.routed": (routed - 1) / attempted if routed else 0.0,
        "costmodel.crypto_pred_ms": pred_ms,
        "costmodel.wire_bytes_pred": pred_bytes,
        "costmodel.ce_us": calibration.constants.ce_seconds * 1e6,
        "costmodel.ch_us": calibration.constants.ch_seconds * 1e6,
        "gen.late_ms.p50": (statistics.median(phase.late_ms)
                            if phase.late_ms else 0.0),
        "gen.late_ms.tail": late[1] if late else 0.0,
        "trace.latency_ms.p50": p50,
        "trace.untraced_latency_ms.p50": ref_p50,
        "trace.overhead_frac": p50 / ref_p50 - 1.0,
        "trace.unattributed_ms": p50 - sum(layers[r] for r in BLOCKING_ROWS),
        "trace.queries": answered,
    })
    return workload, phase, ref_phase, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            workload, phase, ref, layers = traced(
                workload_cls, args.seed, args.seconds, workdir)
            phases = [ref, phase]
        else:
            workload, phase, setups = untraced(
                workload_cls, args.seed, args.seconds, workdir)
            phases = [phase]
    except RuntimeError as exc:  # a server that did not start or answer
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only once no other run uses it
        except OSError:
            pass
    attempted = sum(p.total("attempted") for p in phases)
    failed = sum(p.total("failed") for p in phases)
    if not all(measurable(p) for p in phases):
        print(f"perfbench: {args.workload}: no verified query to measure",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    env = environment(workload)
    env["host_steal_frac"] = round(phase.steal_frac, 4)
    print(f"# environment: {json.dumps(env)}")
    if args.trace:
        print(f"# per-layer metrics, {args.workload} (per query):")
        for name, unit in LAYER_UNITS.items():
            print(f"#   {name:34s} {layers[name]:14.4f} {unit}")
        print("# blocking path (ms per query):")
        for name in BLOCKING_ROWS:
            print(f"#   {name:34s} {layers[name]:10.3f}")
        print(f"#   {'unattributed':34s} "
              f"{layers['trace.unattributed_ms']:10.3f}")
        print(f"#   {'= traced latency_ms.p50':34s} "
              f"{layers['trace.latency_ms.p50']:10.3f}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        e2e = end_to_end(phase, setups)
        print(f"# end-to-end metrics, {args.workload}:")
        tail_of = tail(phase.latencies_ms)
        for name, unit in UNITS.items():
            if name == "latency_ms.tail":
                note = ("n/a: fewer than 20 samples" if tail_of is None else
                        f"p{tail_of[0]:.1f} of {tail_of[2]} samples")
                value = e2e.get(name)
                shown = f"{value:.4f}" if value is not None else "-"
                print(f"#   {name:20s} {shown:>12s} {unit:6s} ({note})")
            else:
                print(f"#   {name:20s} {e2e[name]:12.4f} {unit}")
        metrics = {name: {"value": e2e[name], "unit": UNITS[name]}
                   for name in GATED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
