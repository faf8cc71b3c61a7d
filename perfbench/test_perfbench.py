"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    # run_cell [0, 10] encloses lao [1, 7], which encloses posterior [2, 3]
    # and heuristic [4, 6]; the heuristic encloses posterior [4.5, 5]
    clock = FakeClock()
    t = spans.Tracer(clock)
    events = [
        (0.0, "run_cell"), (1.0, "lao"), (2.0, "posterior"), (3.0, None),
        (4.0, "eval"), (4.5, "posterior"), (5.0, None), (6.0, None),
        (7.0, None), (10.0, None),
    ]
    for at, name in events:
        clock.now = at
        if name is None:
            t.exit()
        else:
            t.enter(name)
    assert t.self_time("run_cell") == pytest.approx(10.0 - 6.0)
    assert t.self_time("lao") == pytest.approx(6.0 - 1.0 - 2.0)
    assert t.self_time("eval") == pytest.approx(2.0 - 0.5)
    assert t.self_time("posterior") == pytest.approx(1.5)
    assert t.calls("posterior") == 2
    assert t.stats["run_cell"][1] == pytest.approx(10.0)
    # self times partition the root span
    assert sum(st[2] for st in t.stats.values()) == pytest.approx(10.0)


def test_episode_durations_are_kept_for_percentiles():
    clock = FakeClock()
    t = spans.Tracer(clock)
    for k in range(1, 101):
        t.enter(spans.EPISODE)
        clock.now += k * 1e-6
        t.exit()
    assert t.episodes == pytest.approx([k * 1e-6 for k in range(1, 101)])
    ordered = sorted(t.episodes)
    assert spans._percentile(ordered, 0.5) == pytest.approx(50e-6)
    assert spans._percentile(ordered, 0.99) == pytest.approx(99e-6)


def test_install_restores_every_attribute():
    import gussp.harness as harness
    import gussp.model as model

    before = (harness.run_cell, harness.enumerate_reachable, model.GoalPrior.posterior)
    restore = spans.install(spans.Tracer())
    assert harness.run_cell is not before[0]
    restore()
    assert (harness.run_cell, harness.enumerate_reachable, model.GoalPrior.posterior) == before


def test_raising_cell_counts_all_its_trials_as_failed():
    from gussp.harness import CellSpec

    import worker
    import workloads

    inst = workloads.load(ROOT, {"line4": None})
    cells = [
        workloads.Cell("line4", CellSpec(name="line4", algorithm="vi", trials=4, state_budget=2)),
        workloads.Cell("line4", CellSpec(name="line4", algorithm="vi", trials=3)),
    ]
    _timed, records = worker.run_pass(cells, inst, None)
    assert records[0]["problem"].startswith("StateBudgetExceeded")
    assert (records[0]["attempted"], records[0]["failed"]) == (4, 4)
    assert records[1]["problem"] is None and records[1]["failed"] == 0


def test_gate_rejects_values_off_the_reference():
    from dataclasses import replace

    from gussp.harness import CellSpec, run_cell

    import workloads

    inst = workloads.load(ROOT, {"line4": None})
    cell = workloads.Cell("line4", CellSpec(name="line4", algorithm="vi", trials=3))
    report = run_cell(inst.models["line4"], cell.spec).report
    assert workloads.check(cell, report, {}) is None
    off = replace(report, value_start=report.value_start + 1e-3)
    assert "reference" in workloads.check(cell, off, {})
    assert "reference" in workloads.check(cell, replace(report, compiled_states=8), {})


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", ["exact", "search", "execute"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    lines = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert any(line.startswith("env ") for line in lines)
    if trace:
        assert "traced and untraced cell outputs are identical" in lines


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
