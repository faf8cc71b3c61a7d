import io
import math
from pathlib import Path

import pytest

from gussp import harness
from gussp.compiler import compile_gussp, enumerate_reachable
from gussp.domains import load_instance
from gussp.harness import (
    REPORT_FIELDS,
    TRIAL_FIELDS,
    CellSpec,
    execute_policy,
    format_pretty,
    run_cell,
    strip_timing,
    write_report_csv,
    write_trials_csv,
    emit_trace,
)
from gussp.heuristics import make_heuristic
from gussp.rng import make_rng
from gussp.solvers import flares, value_iteration

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _csv_of(results):
    buf = io.StringIO()
    write_report_csv(buf, [strip_timing(r.report) for r in results])
    return buf.getvalue()


def test_run_cell_is_deterministic(line4_model):
    spec = CellSpec(name="line4", algorithm="vi", trials=8, seed=5)
    a = run_cell(line4_model, spec)
    b = run_cell(line4_model, spec)
    assert _csv_of([a]) == _csv_of([b])
    assert [t.cost for t in a.trials] == [t.cost for t in b.trials]


def test_same_seed_pairs_configs_across_algorithms(line4_model):
    configs = {}
    for algorithm in ("vi", "lao", "det-mlg"):
        spec = CellSpec(name="line4", algorithm=algorithm, trials=10, seed=2)
        result = run_cell(line4_model, spec)
        configs[algorithm] = [t.config for t in result.trials]
    assert configs["vi"] == configs["lao"] == configs["det-mlg"]


def test_line4_report_values(line4_model):
    spec = CellSpec(name="line4", algorithm="vi", trials=12, seed=0)
    result = run_cell(line4_model, spec)
    report = result.report
    assert report.value_start == pytest.approx(7 / 3)
    assert report.compiled_states == 7
    assert report.failures == 0
    # each trial pays 2 unless the true set is exactly the far goal
    per_config = {t.config: t.cost for t in result.trials}
    assert per_config["1"] == pytest.approx(3.0)
    assert all(c == pytest.approx(2.0)
               for cfg, c in per_config.items() if cfg != "1")


def test_mean_and_stderr_match_hand_calc(line4_model):
    spec = CellSpec(name="line4", algorithm="vi", trials=6, seed=1)
    result = run_cell(line4_model, spec)
    xs = [t.cost for t in result.trials]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    assert result.report.mean_cost == pytest.approx(mean)
    assert result.report.stderr_cost == pytest.approx((var / len(xs)) ** 0.5)


def test_strip_timing_zeroes_clocks(line4_model):
    spec = CellSpec(name="line4", algorithm="det-cg", trials=3, seed=0)
    report = strip_timing(run_cell(line4_model, spec).report)
    assert report.plan_time_first == 0.0
    assert report.plan_time_total == 0.0
    assert report.exec_time_total == 0.0
    assert report.mean_cost > 0  # the rest survives


def test_csv_headers_match_dataclasses(line4_model):
    spec = CellSpec(name="line4", algorithm="lao", trials=2, seed=0)
    result = run_cell(line4_model, spec)
    head = _csv_of([result]).splitlines()[0]
    assert head.split(",") == REPORT_FIELDS
    buf = io.StringIO()
    write_trials_csv(buf, result.trials)
    assert buf.getvalue().splitlines()[0].split(",") == TRIAL_FIELDS


def test_flares_cell_uses_online_execution(line4_model):
    # a horizon-1 table is only partially converged; execution must still
    # terminate and stay near the optimum on this instance
    spec = CellSpec(name="line4", algorithm="flares", trials=20, seed=4)
    report = run_cell(line4_model, spec).report
    assert report.failures == 0
    assert report.mean_cost <= 3.0 + 1e-9


def test_execute_policy_replan_hook_drives_actions(line4_solved, line4_model):
    ssp, _reach, vi = line4_solved
    from gussp.solvers import ValueTable, bellman_backup

    blank = ValueTable()
    for i in range(len(ssp)):
        blank.value(i)

    visited = []

    def replan(i):
        visited.append(i)
        v, a, _ = bellman_backup(ssp, blank, i)
        blank.values[i] = v
        return a

    trial = execute_policy(
        line4_model, ssp, blank, {}, 0b01, make_rng("exec", 0, 0),
        replan=replan,
    )
    assert not trial.failed
    assert visited[0] == ssp.start_id
    assert blank.values[ssp.start_id] > 0.0  # backups landed in the table


def test_execute_policy_falls_back_to_table_backups(line4_solved, line4_model):
    # with no policy at all, every action comes from a backup on VI's table,
    # which picks what VI's own policy picks
    ssp, _reach, vi = line4_solved
    for g_mask in (0b01, 0b10, 0b11):
        for trial in range(4):
            walks = [
                execute_policy(line4_model, ssp, vi.table, policy, g_mask,
                               make_rng("exec", 0, trial), collect_trace=True)
                for policy in (vi.policy, {})
            ]
            assert walks[0] == walks[1]
            assert walks[0].trace[0].action == "right"


def test_execute_policy_fallback_writes_back_its_backups():
    """A depth-1 FLARES policy executed with no replan hook leaves its
    labeled region; the greedy fallback writes back what it backs up, as
    RTDP does, so no grid8_landmark trial cycles until the budget ends."""
    _params, model = load_instance(str(INSTANCES / "grid8_landmark.txt"))
    ssp = compile_gussp(model)
    result = flares(ssp, make_heuristic("hpg", ssp), horizon=1, epsilon=1e-6, seed=0)
    failed = 0
    for trial in range(30):
        g_mask = model.sample_config(make_rng("config", 0, trial))
        out = execute_policy(model, ssp, result.table, result.policy, g_mask,
                             make_rng("exec", 0, trial), step_budget=2_000)
        failed += out.failed
    assert failed == 0


@pytest.mark.parametrize("algorithm,trials", [
    ("vi", 5), ("lao", 5), ("flares", 5), ("det-mlg", 1), ("det-cg", 1),
])
def test_plan_time_split(line4_model, algorithm, trials):
    spec = CellSpec(name="line4", algorithm=algorithm, trials=trials, seed=3)
    report = run_cell(line4_model, spec).report
    assert report.plan_time_first >= 0.0
    assert report.exec_time_total >= 0.0
    if algorithm == "flares":
        # re-solves during execution count as planning on top of the first solve
        assert report.plan_time_total >= report.plan_time_first
    else:
        # nothing replans after the up-front solve, or one det trial plans it all
        assert report.plan_time_total == report.plan_time_first


def test_trace_output_shape(line4_model):
    spec = CellSpec(name="line4", algorithm="vi", trials=2, seed=0)
    result = run_cell(line4_model, spec, collect_traces=True)
    buf = io.StringIO()
    emit_trace(buf, result.traces)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "trial\tstep\tstate\tknowledge\taction\tcost_so_far\tobservation"
    first = lines[1].split("\t")
    assert first[0] == "0" and first[2] == "(0, 0)" and first[3] == "UU"
    # final row of each trial carries no action
    assert any(row.split("\t")[4] == "-" for row in lines[1:])


def test_pretty_table_lines_up(line4_model):
    spec = CellSpec(name="line4", algorithm="vi", trials=2, seed=0)
    report = strip_timing(run_cell(line4_model, spec).report)
    text = format_pretty([report])
    lines = text.splitlines()
    assert len(lines) >= 3
    assert set(lines[1]) <= {"-", " "}
    import re

    n_cols = len(re.split(r"\s{2,}", lines[0]))
    assert len(re.split(r"\s{2,}", lines[2])) == n_cols
    assert lines[0].startswith("instance")


def test_det_cells_report_replans(line4_model):
    spec = CellSpec(name="line4", algorithm="det-cg", trials=30, seed=6)
    result = run_cell(line4_model, spec)
    by_config = {t.config: t.replans for t in result.trials}
    assert by_config["1"] == 1  # near goal disconfirmed on arrival
    assert by_config["0"] == 0 and by_config["0+1"] == 0
    assert result.report.mean_replans == pytest.approx(
        sum(t.replans for t in result.trials) / len(result.trials))


def test_vi_cell_reuses_precompiled_ssp(line4_model):
    ssp = compile_gussp(line4_model)
    reach = enumerate_reachable(ssp, state_budget=1_000)
    spec = CellSpec(name="line4", algorithm="vi", trials=3, seed=0)
    with_shared = run_cell(line4_model, spec, ssp=ssp, reachable=reach)
    fresh = run_cell(line4_model, spec)
    assert _csv_of([with_shared]) == _csv_of([fresh])


def test_reachable_without_its_ssp_is_rejected():
    # a fresh SSP numbers states as execution meets them, not as the walk
    # that wrote these rows did, so every trial would follow wrong rows
    _params, model = load_instance(str(INSTANCES / "grid12.txt"))
    reach = enumerate_reachable(compile_gussp(model))
    spec = CellSpec(name="grid12", algorithm="vi", trials=3, seed=0)
    with pytest.raises(ValueError, match="needs the ssp="):
        run_cell(model, spec, reachable=reach)


def test_unknown_algorithm_rejected(line4_model):
    with pytest.raises(ValueError):
        run_cell(line4_model, CellSpec(name="x", algorithm="bfs"))


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("algorithm", ["vi", "flares", "det-mlg"])
def test_epsilon_not_positive_and_finite_rejected_before_planning(
    line4_model, monkeypatch, algorithm, epsilon,
):
    """An epsilon outside (0, inf) would stop the solvers at once (inf, nan)
    or never (0, -1); it is refused before any model is compiled."""
    def no_planning(*_args, **_kwargs):
        raise AssertionError("planning started")

    monkeypatch.setattr(harness, "compile_gussp", no_planning)
    monkeypatch.setattr(harness, "PlanCache", no_planning)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        run_cell(line4_model, CellSpec(name="line4", algorithm=algorithm, epsilon=epsilon))


@pytest.mark.parametrize("algorithm,executor", [
    ("vi", "execute_policy"), ("flares", "execute_policy"),
    ("det-cg", "execute_determinized"),
])
def test_run_cell_runs_each_trial_through_a_public_executor(
    line4_model, monkeypatch, algorithm, executor,
):
    # perfbench times each episode by wrapping these two module attributes;
    # a cell that stepped its episodes some other way would report none
    from gussp import harness

    calls = {"execute_policy": 0, "execute_determinized": 0}

    def counting(name):
        inner = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    spec = CellSpec(name="line4", algorithm=algorithm, trials=7, seed=0)
    result = run_cell(line4_model, spec)
    assert len(result.trials) == 7
    assert calls == {name: 7 if name == executor else 0 for name in calls}
