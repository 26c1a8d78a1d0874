"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/tests

The traced-run tests start real servers and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import Churn, arrivals, make_tables, query_seed  # noqa: E402
from run import LAYER_UNITS, measurable, tail  # noqa: E402
from workloads import Phase  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_same_seed_same_inputs():
    assert make_tables(3, 64, 32) == make_tables(3, 64, 32)
    assert make_tables(3, 64) != make_tables(4, 64)
    assert arrivals(3, 20.0, 5.0) == arrivals(3, 20.0, 5.0)
    assert arrivals(3, 20.0, 5.0) != arrivals(4, 20.0, 5.0)
    assert query_seed(3, 7) == query_seed(3, 7) != query_seed(3, 8)
    first, second = Churn(3, make_tables(3, 100)), Churn(3, make_tables(3, 100))
    assert [first.step() for _ in range(5)] == [second.step() for _ in range(5)]


def test_tables_shape_and_answers():
    tables = make_tables(1, 64, 32)
    assert len(set(tables.v_r)) == len(set(tables.v_s)) == 64
    answer = tables.expected()
    assert len(answer) == 32
    assert all(tables.ext[v] == payload for v, payload in answer.items())


def test_churn_replays_against_a_plain_model():
    tables = make_tables(2, 200)
    churn = Churn(2, tables)
    v_r, v_s = set(tables.v_r), set(tables.v_s)
    for _ in range(20):
        r_ins, r_del, s_ins, s_del = churn.step()
        assert set(r_del) <= v_r and set(s_del) <= v_s
        assert not set(r_ins) & v_r and not set(s_ins) & v_s
        v_r = (v_r - set(r_del)) | set(r_ins)
        v_s = (v_s - set(s_del)) | set(s_ins)
        assert len(v_r) == len(v_s) == 200
        assert churn.expected() == v_r & v_s


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(19))) is None
    pct, value, n = tail([float(i) for i in range(100)])
    assert (n, value) == (100, 89.0)
    assert sum(1 for i in range(100) if i > value) == 10
    assert pct == pytest.approx(90.0)


def test_a_phase_without_verified_queries_is_not_measured():
    assert not measurable(Phase(attempted=3, timeouts=3))
    open_loop = Phase(latencies_ms=[12.0], verified=1)
    open_loop.closed = Phase(attempted=2, busy=2, window_qps=[0.0])
    assert not measurable(open_loop)
    open_loop.closed = Phase(verified=2, window_qps=[9.0],
                             window_cpu_ms=[4.0])
    assert measurable(open_loop)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "small-sessions", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def _traced(workload: str, seed: int) -> dict:
    done = _run("--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(LAYER_UNITS)
    return {k: v["value"] for k, v in result["metrics"].items()}


COUNTS = ("crypto.modexp.count", "crypto.hash.count", "net.codec.frames",
          "net.codec.bytes", "net.catalog.bytes_written",
          "protocols.delta.values", "net.catalog.stores", "trace.queries")


@pytest.mark.parametrize(
    "workload", ["bulk-equijoin", "small-sessions", "repeated-delta"])
def test_count_metrics_repeat_exactly(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["crypto.modexp.count"] > 0 and first["net.codec.bytes"] > 0
    if workload == "repeated-delta":
        # 5 inserts + 5 deletes on each side, applied by both parties.
        assert first["protocols.delta.values"] == 20
        assert first["net.catalog.bytes_written"] > 0
