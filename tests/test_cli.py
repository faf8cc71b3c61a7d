import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from gussp.cli import main
from gussp.domains import parse_instance
from gussp.errors import InvalidInstance
from gussp.harness import ALGORITHMS, REPORT_FIELDS

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
LINE4 = str(INSTANCE_DIR / "line4.txt")


def run_cli(*argv):
    return main(list(argv))


def test_plan_writes_report_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run_cli("plan", LINE4, "--algorithm", "vi", "--trials", "4",
                   "--seed", "1", "--no-timing", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == REPORT_FIELDS
    assert lines[1].startswith("line4,vi,hpg,4,1,")
    assert capsys.readouterr().out == ""


def test_plan_stdout_and_pretty(capsys):
    assert run_cli("plan", LINE4, "--trials", "2", "--no-timing") == 0
    plain = capsys.readouterr().out
    assert plain.splitlines()[0].split(",") == REPORT_FIELDS
    assert run_cli("plan", LINE4, "--trials", "2", "--no-timing",
                   "--pretty") == 0
    pretty = capsys.readouterr().out
    assert pretty.splitlines()[0].startswith("instance")
    assert "-----" in pretty.splitlines()[1]


def test_plan_side_outputs(tmp_path):
    per_trial = tmp_path / "trials.csv"
    trace = tmp_path / "trace.tsv"
    dump = tmp_path / "compiled.txt"
    log = tmp_path / "sweeps.csv"
    code = run_cli(
        "plan", LINE4, "--algorithm", "vi", "--trials", "3", "--no-timing",
        "--out", str(tmp_path / "r.csv"),
        "--per-trial", str(per_trial), "--trace", str(trace),
        "--dump-compiled", str(dump), "--convergence-log", str(log),
    )
    assert code == 0
    assert per_trial.read_text().splitlines()[0].startswith("instance,")
    assert len(per_trial.read_text().splitlines()) == 4
    trace_lines = trace.read_text().splitlines()
    assert trace_lines[0].split("\t")[0] == "trial"
    assert len(trace_lines) > 4
    dump_lines = dump.read_text().splitlines()
    assert len(dump_lines) == 7
    assert sum(1 for line in dump_lines if line.endswith("goal")) == 2
    log_lines = log.read_text().splitlines()
    assert log_lines[0] == "sweep,residual"
    residuals = [float(row.split(",")[1]) for row in log_lines[1:]]
    assert residuals[-1] <= 1e-6


@pytest.mark.parametrize("algorithm", ["vi", "lao"])
def test_dump_compiled_enumerates_once(tmp_path, monkeypatch, algorithm):
    import gussp.compiler
    import gussp.harness
    import gussp.solvers

    calls = []
    real = gussp.compiler.enumerate_reachable

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in (gussp.compiler, gussp.harness, gussp.solvers):
        monkeypatch.setattr(module, "enumerate_reachable", counting)
    plain, dumped = tmp_path / "plain.csv", tmp_path / "dumped.csv"
    argv = ("plan", LINE4, "--algorithm", algorithm, "--trials", "3", "--no-timing")
    assert run_cli(*argv, "--out", str(plain)) == 0
    calls.clear()
    assert run_cli(*argv, "--out", str(dumped),
                   "--dump-compiled", str(tmp_path / "compiled.txt")) == 0
    # the dump's enumeration serves vi; lazy solvers compile their own SSP
    assert len(calls) == 1
    assert dumped.read_bytes() == plain.read_bytes()


def test_missing_instance_exits_2(tmp_path, capsys):
    assert run_cli("plan", str(tmp_path / "nope.txt")) == 2
    assert "nope.txt" in capsys.readouterr().err


LINE4_TEXT = Path(LINE4).read_text()
EV8_TEXT = (INSTANCE_DIR / "ev8.txt").read_text()


def test_malformed_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("domain: grid\nwidth: 3\n")
    assert run_cli("plan", str(bad)) == 2
    assert "bad instance" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    LINE4_TEXT.replace("width: 4", "width: abc"),
    LINE4_TEXT.replace("width: 4", "width: 4.5"),
    LINE4_TEXT.replace("move_success: 1.0", "move_success: fast"),
    LINE4_TEXT.replace("prior: uniform", "prior: bernoulli 0.5 zz"),
    LINE4_TEXT.replace("prior: uniform", "prior:"),
    "domain: ev\ntime: x = 1\nprices: 1.0\n",
    LINE4_TEXT.replace("prior: uniform", "prior: explicit\nconfig: 2,0 = nan\nconfig: 3,0 = 1"),
    LINE4_TEXT.replace("prior: uniform", "prior: explicit\nconfig: 2,0 = inf\nconfig: 3,0 = 1"),
    EV8_TEXT.replace("prices: 1.07 0.63", "prices: 1.07 nan"),
    EV8_TEXT.replace("penalty: 12.0", "penalty: nan"),
    LINE4_TEXT.replace("step_cost: 1.0", "step_cost: inf"),
], ids=["width-abc", "width-4.5", "move-success-fast",
        "bernoulli-zz", "empty-prior", "ev-time-x",
        "config-nan", "config-inf", "price-nan", "penalty-nan", "step-cost-inf"])
def test_malformed_instance_field_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert run_cli("plan", str(bad)) == 2
    assert "bad instance" in capsys.readouterr().err
    # the field is refused as it is read, not by a later symptom of it
    with pytest.raises(InvalidInstance):
        parse_instance(text)


@pytest.mark.parametrize("argv", [
    ("plan", LINE4, "--algorithm", "lao", "--convergence-log", "{tmp}/sweeps.csv"),
    ("plan", LINE4, "--epsilon", "0"),
    ("plan", LINE4, "--epsilon", "nan"),
    ("plan", LINE4, "--epsilon", "inf"),
    ("plan", LINE4, "--algorithm", "lao", "--epsilon=-1e-6"),
    ("plan", LINE4, "--state-budget", "0"),
    ("plan", LINE4, "--trials=-1"),
    ("arbor", LINE4, "--epsilon", "0"),
    ("arbor", LINE4, "--epsilon", "inf"),
])
def test_bad_arguments_exit_2_before_any_work(tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(tmp_path / "r.csv")]
    if argv[0] == "plan":
        argv += ["--dump-compiled", str(tmp_path / "compiled.txt")]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def _run_benchmarks_script():
    path = INSTANCE_DIR.parent / "scripts" / "run_benchmarks.py"
    spec = importlib.util.spec_from_file_location("run_benchmarks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ("--algorithms", "vi", "--epsilon", "0"),
    ("--algorithms", "vi", "--epsilon", "inf"),
    ("--algorithms", "lao", "--heuristic", "foo"),
    ("--trials=-1",),
])
def test_run_benchmarks_bad_arguments_exit_2_before_any_cell(monkeypatch, argv):
    script = _run_benchmarks_script()

    def no_cell(*_args, **_kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(script, "run_cell", no_cell)
    with pytest.raises(SystemExit) as exc:
        script.main([LINE4, *argv])
    assert exc.value.code == 2


def test_run_benchmarks_missing_instance_exits_2(tmp_path, capsys):
    assert _run_benchmarks_script().main([str(tmp_path / "nope.txt")]) == 2
    assert "nope.txt" in capsys.readouterr().err


def test_run_benchmarks_malformed_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(LINE4_TEXT[:LINE4_TEXT.index("goal: 3,0") + len("goal: 3,")])  # cut off
    assert _run_benchmarks_script().main([LINE4, str(bad)]) == 2
    assert "bad instance" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", [(), ("--flares-horizon", "none")])
def test_run_benchmarks_rows_match_plan(tmp_path, capsys, horizon):
    # one report path: the matrix script writes the rows gussp plan writes
    out = tmp_path / "matrix.csv"
    args = ("--trials", "5", "--no-timing", *horizon)
    assert _run_benchmarks_script().main(
        [LINE4, "--algorithms", *ALGORITHMS, *args, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = []
    for algorithm in ALGORITHMS:
        assert run_cli("plan", LINE4, "--algorithm", algorithm, *args) == 0
        rows.append(capsys.readouterr().out.splitlines()[1])
    assert out.read_text().splitlines()[1:] == rows


class _CellReached(Exception):
    pass


def _stop_at_cell(_model, spec, **_kwargs):
    raise _CellReached(spec)


def _flares_runner(monkeypatch, tool):
    """``gussp plan`` or the matrix script on line4 with flares, whose
    ``run_cell`` raises :class:`_CellReached` with the cell's spec."""
    import gussp.cli

    if tool == "plan":
        monkeypatch.setattr(gussp.cli, "run_cell", _stop_at_cell)
        return lambda *args: main(["plan", LINE4, "--algorithm", "flares", *args])
    script = _run_benchmarks_script()
    monkeypatch.setattr(script, "run_cell", _stop_at_cell)
    return lambda *args: script.main([LINE4, "--algorithms", "flares", *args])


@pytest.mark.parametrize("tool", ["plan", "script"])
@pytest.mark.parametrize("text", ["abc", "nan", "-1"])
def test_bad_flares_horizon_exits_2_before_any_cell(monkeypatch, capsys, tool, text):
    run = _flares_runner(monkeypatch, tool)
    with pytest.raises(SystemExit) as exc:
        run(f"--flares-horizon={text}")
    assert exc.value.code == 2
    assert (f"argument --flares-horizon: must be a number >= 0, 'none' or 'inf': '{text}'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("tool", ["plan", "script"])
@pytest.mark.parametrize("text, horizon", [("none", None), ("inf", None), ("0", 0.0), ("2", 2.0)])
def test_flares_horizon_values_reach_the_cell(monkeypatch, tool, text, horizon):
    run = _flares_runner(monkeypatch, tool)
    with pytest.raises(_CellReached) as exc:
        run("--flares-horizon", text)
    assert exc.value.args[0].flares_horizon == horizon


def test_zero_trials_is_valid(capsys):
    assert run_cli("plan", LINE4, "--trials", "0", "--no-timing") == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("line4,vi,hpg,0,")


def test_solver_failure_exits_3(capsys):
    assert run_cli("plan", LINE4, "--state-budget", "2") == 3
    assert "solver failure" in capsys.readouterr().err


def test_flares_horizon_parsing(capsys):
    assert run_cli("plan", LINE4, "--algorithm", "flares",
                   "--flares-horizon", "inf", "--trials", "2",
                   "--no-timing") == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split(",")[1] == "flares"


def test_arbor_output(capsys):
    assert run_cli("arbor", LINE4, "--with-value") == 0
    out = capsys.readouterr().out
    edge_block, metric_block = out.split("\n\n")
    edge_lines = edge_block.splitlines()
    assert edge_lines[0] == "u,v,distance,weight"
    assert "0,1,2.000000,0.666667" in edge_lines
    metrics = dict(
        line.split(",", 1) for line in metric_block.splitlines()[1:] if line
    )
    assert metrics["arborescence_weight"] == "1.000000000"
    assert metrics["best_order"] == "0;1"
    assert float(metrics["optimal_value"]) == pytest.approx(7 / 3)


def test_arbor_rejects_stochastic_instance(capsys):
    assert run_cli("arbor", str(INSTANCE_DIR / "grid8.txt")) == 2
    assert capsys.readouterr().err != ""


def test_no_timing_output_is_byte_stable(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert run_cli("plan", LINE4, "--algorithm", "det-cg", "--trials",
                       "6", "--seed", "9", "--no-timing", "--out",
                       str(path)) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gussp", "plan", LINE4, "--trials", "2",
         "--no-timing"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].split(",") == REPORT_FIELDS
