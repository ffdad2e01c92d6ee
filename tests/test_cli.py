import csv
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import onephase.cli as cli_module
from onephase import SolverOptions, builtin_registry, serialize_problem_file
from onephase.cli import USAGE_ERROR, _options_from_args, build_parser, run_cli

from helpers import run_python

REPO = Path(__file__).resolve().parents[1]

LP_TEXT = """\
problem cli-lp
vars 1

objective
linear 1.0

constraints
1.0 >= 1.0
"""


@pytest.fixture(autouse=True)
def summary_log(monkeypatch):
    monkeypatch.setenv("ONEPHASE_LOG", "summary")


def test_list_prints_registry(capsys):
    assert run_cli(["--list"]) == 0
    out = capsys.readouterr().out
    for name in builtin_registry():
        assert name in out


def test_solve_builtin_optimal(capsys):
    assert run_cli(["solve", "builtin:wachter"]) == 0
    out = capsys.readouterr().out
    assert "optimal" in out
    assert "certificate" in out
    # reported optimum x0* ~ 1 (f* ~ 1)
    objective = next(line for line in out.splitlines() if "objective:" in line)
    assert float(objective.split(":")[1]) == pytest.approx(1.0, abs=1e-8)


def test_solve_builtin_infeasible():
    assert run_cli(["solve", "builtin:infeasible-box"]) == 1


def test_solve_builtin_unbounded():
    assert run_cli(["solve", "builtin:unbounded-lp"]) == 2


def test_iteration_limit_exit_code():
    assert run_cli(["solve", "builtin:unbounded-lp", "--max-iter", "3"]) == 3


def test_batch_row_carries_the_stall_detail(tmp_path):
    (tmp_path / "lp.nlp").write_text(LP_TEXT)
    summary = tmp_path / "summary.csv"
    assert run_cli(["batch", str(tmp_path), "--max-iter", "1", "--summary", str(summary)]) == 4
    with open(summary, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["status"], row["error"]) == ("iteration-limit", "0 of 1 steps rejected")
    assert run_cli(["batch", str(tmp_path), "--summary", str(summary)]) == 0
    with open(summary, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["status"], row["error"]) == ("optimal", "")


def test_solver_failure_exit_code(tmp_path, capsys):
    # Negative curvature beyond the shift cap: concave unconstrained QP,
    # started off its stationary point x = 0 (which would certify at once).
    evil = tmp_path / "evil.nlp"
    evil.write_text("problem evil\nvars 1\n\nobjective\nquad 0 0 -1e60\n\nstart\n1\n")
    assert run_cli(["solve", str(evil)]) == 4
    out = capsys.readouterr().out
    assert "max-delta" in out
    assert "  detail: shift " in out


def test_invalid_solver_flag_is_usage_error(capsys):
    assert run_cli(["solve", "builtin:wachter", "--tol", "-1"]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert "eps_opt=-1.0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_invalid_max_time_is_usage_error(value, capsys):
    assert run_cli(["solve", "builtin:qp-2d", "--max-time", value]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert f"max_time={float(value)}" in captured.err
    assert captured.out == ""


def test_every_option_is_set_by_a_flag():
    # A SolverOptions field that no flag sets is a knob no caller can reach.
    args = build_parser().parse_args([
        "solve", "builtin:qp-2d", "--tol", "1e-5", "--mu-scale", "2",
        "--max-iter", "7", "--max-time", "9"])
    opts, default = _options_from_args(args), SolverOptions()
    for f in fields(SolverOptions):
        assert getattr(opts, f.name) != getattr(default, f.name), f.name


def test_batch_invalid_solver_flag_is_usage_error(tmp_path, capsys):
    (tmp_path / "lp.nlp").write_text(LP_TEXT)
    summary = tmp_path / "summary.csv"
    code = run_cli(["batch", str(tmp_path), "--tol", "-1", "--summary", str(summary)])
    assert code == USAGE_ERROR
    assert "eps_opt=-1.0" in capsys.readouterr().err
    assert not summary.exists()


def test_log_level_defaults_to_summary(monkeypatch, capsys):
    monkeypatch.delenv("ONEPHASE_LOG", raising=False)
    assert run_cli(["solve", "builtin:qp-2d"]) == 0
    assert "optimal" in capsys.readouterr().out


def test_unknown_builtin_is_usage_error(capsys):
    assert run_cli(["solve", "builtin:nope"]) == 5
    assert "unknown builtin" in capsys.readouterr().err


def test_missing_file_is_usage_error():
    assert run_cli(["solve", "/definitely/not/here.nlp"]) == 5


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.nlp"
    bad.write_text("problem p\nvars oops\n")
    assert run_cli(["solve", str(bad)]) == 5
    assert "line 2" in capsys.readouterr().err


def test_fixed_variable_file_is_optimal(tmp_path, capsys):
    # bounds line "0 1.0 1.0" fixes x0; its start needs shifted rows.
    f = tmp_path / "fixed.nlp"
    f.write_text("problem fixed\nvars 2\n\nobjective\nlinear 1.0 1.0\n"
                 "quad 0 0 1.0\nquad 1 1 1.0\n\nbounds\n0 1.0 1.0\n")
    assert run_cli(["solve", str(f)]) == 0
    x_line = next(line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  x:"))
    assert float(x_line.split()[1]) == pytest.approx(1.0, abs=1e-5)


def test_nan_bound_is_parse_error(tmp_path, capsys):
    f = tmp_path / "nan.nlp"
    f.write_text("problem nan\nvars 1\n\nobjective\nlinear 1.0\n\nbounds\n0 nan 5.0\n")
    assert run_cli(["solve", str(f)]) == USAGE_ERROR
    assert "NaN bound for variable 0" in capsys.readouterr().err
    summary = tmp_path / "summary.csv"
    assert run_cli(["batch", str(tmp_path), "--summary", str(summary)]) == 4
    with open(summary, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["status"], row["exit_code"]) == ("parse-error", str(USAGE_ERROR))


def test_nan_coefficient_is_parse_error(tmp_path, capsys):
    f = tmp_path / "nan-row.nlp"
    f.write_text("problem r\nvars 2\n\nobjective\nlinear 1.0 1.0\n\n"
                 "constraints\n1.0 1.0 >= 0.0\n1.0 nan >= 1.0\n")
    assert run_cli(["solve", str(f)]) == USAGE_ERROR
    assert "line 9, column 5: non-finite coefficient value 'nan'" in capsys.readouterr().err
    summary = tmp_path / "summary.csv"
    assert run_cli(["batch", str(tmp_path), "--summary", str(summary)]) == 4
    with open(summary, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["status"], row["exit_code"]) == ("parse-error", str(USAGE_ERROR))


@pytest.mark.parametrize("line", ["constant 1e309", "linear nan 1.0", "quad 0 0 inf"])
def test_non_finite_objective_is_parse_error(tmp_path, capsys, line):
    # These parsed and then ended evaluation-error (exit 4) after 0 iterations.
    f = tmp_path / "nan-objective.nlp"
    f.write_text(f"problem o\nvars 2\n\nobjective\n{line}\n")
    assert run_cli(["solve", str(f)]) == USAGE_ERROR
    assert f"non-finite {line.split()[0]} value" in capsys.readouterr().err
    summary = tmp_path / "summary.csv"
    assert run_cli(["batch", str(tmp_path), "--summary", str(summary)]) == 4
    with open(summary, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["status"], row["exit_code"]) == ("parse-error", str(USAGE_ERROR))


@pytest.mark.parametrize("bounds", ["0 inf inf", "0 -inf -inf"])
def test_wrong_side_infinite_bound_is_parse_error(tmp_path, capsys, bounds):
    f = tmp_path / "wrong-side.nlp"
    f.write_text(f"problem w\nvars 1\n\nobjective\nlinear 1.0\n\nbounds\n{bounds}\n")
    assert run_cli(["solve", str(f)]) == USAGE_ERROR
    assert "wrong side for variable 0" in capsys.readouterr().err
    summary = tmp_path / "summary.csv"
    assert run_cli(["batch", str(tmp_path), "--summary", str(summary)]) == 4
    with open(summary, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["status"], row["exit_code"]) == ("parse-error", str(USAGE_ERROR))


def test_solve_file_with_trace(tmp_path, capsys):
    f = tmp_path / "lp.nlp"
    f.write_text(LP_TEXT)
    trace = tmp_path / "trace.csv"
    assert run_cli(["solve", str(f), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "# onephase-trace-v2"
    assert lines[1].startswith("iter,")
    assert len(lines) > 2


def test_check_derivatives_flag(capsys):
    assert run_cli(["solve", "builtin:qp-2d", "--check-derivatives"]) == 0
    assert "derivative check" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--check-derivatives"]],
                         ids=["solve", "check-derivatives"])
def test_overflowing_start_ends_evaluation_error_without_traceback(tmp_path, flags):
    # f(1e200) overflows: the solve, and the derivative check before it,
    # report the value instead of raising or letting numpy warn
    path = tmp_path / "big.nlp"
    path.write_text("problem big\nvars 1\n\nobjective\nquad 0 0 1.0\n\nstart\n1e200\n")
    argv = ["solve", str(path), *flags]
    done = run_python(f"import sys; from onephase.cli import run_cli; sys.exit(run_cli({argv!r}))")
    assert done.returncode == 4, done.stderr
    assert "detail: non-finite value from f" in done.stdout
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    if flags:
        assert "derivative check at start point: non-finite value from f" in done.stdout


def test_overflowing_linear_row_prints_no_warning(tmp_path):
    # 1e200 * 1e200 overflows in the lowered A x - b block
    path = tmp_path / "big.nlp"
    path.write_text("problem big\nvars 1\n\nobjective\nlinear 1.0\n\n"
                    "constraints\n1e200 <= 1.0\n\nstart\n1e200\n")
    argv = ["solve", str(path)]
    done = run_python(f"import sys; from onephase.cli import run_cli; sys.exit(run_cli({argv!r}))")
    assert done.returncode == 4, done.stderr
    assert "detail: non-finite value from a at entry 0" in done.stdout
    assert "RuntimeWarning" not in done.stderr, done.stderr


def test_seed_perturbs_start(capsys):
    assert run_cli(["solve", "builtin:qp-2d", "--seed", "3"]) == 0


def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "solve", lambda *args, **kwargs: pytest.fail("solved"))
    trace = tmp_path / "t.csv"
    argv = ["solve", "builtin:qp-2d", "--seed", "-1", "--trace", str(trace)]
    assert run_cli(argv) == USAGE_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not trace.exists()


def test_quiet_mode_silent(monkeypatch, capsys):
    monkeypatch.setenv("ONEPHASE_LOG", "quiet")
    assert run_cli(["solve", "builtin:qp-2d"]) == 0
    assert capsys.readouterr().out == ""


def test_trace_mode_streams_iterations(monkeypatch, capsys):
    monkeypatch.setenv("ONEPHASE_LOG", "trace")
    assert run_cli(["solve", "builtin:qp-2d"]) == 0
    out = capsys.readouterr().out
    assert "kind" in out
    assert "stabilization" in out or "aggressive" in out


def test_batch_summary_counts_every_file(tmp_path):
    for entry in builtin_registry().values():
        if entry.file_data is not None:
            (tmp_path / f"{entry.name}.nlp").write_text(
                serialize_problem_file(entry.file_data))
    (tmp_path / "broken.nlp").write_text("vars zero\n")
    summary = tmp_path / "summary.csv"
    code = run_cli(["batch", str(tmp_path), "--summary", str(summary)])
    assert code == 4  # the broken file counts as a failure
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_files = len(list(tmp_path.glob("*.nlp")))
    assert len(rows) == n_files
    by_name = {row["name"]: row for row in rows}
    assert by_name["broken"]["status"] == "parse-error"
    assert by_name["qp-simplex"]["status"] == "optimal"
    assert by_name["infeasible-box"]["status"] == "primal-infeasible"
    assert by_name["unbounded-lp"]["status"] == "unbounded"


def test_batch_empty_directory_is_usage_error(tmp_path):
    assert run_cli(["batch", str(tmp_path)]) == 5


def test_unwritable_trace_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "solve", lambda *args, **kwargs: pytest.fail("solved"))
    trace = tmp_path / "missing" / "t.csv"
    assert run_cli(["solve", "builtin:qp-2d", "--trace", str(trace)]) == USAGE_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(trace) in err


def test_trace_dir_not_a_directory_is_refused_before_solving(tmp_path, monkeypatch, capsys):
    (tmp_path / "lp.nlp").write_text(LP_TEXT)
    monkeypatch.setattr(cli_module, "solve", lambda *args: pytest.fail("solved"))
    trace_dir = tmp_path / "missing"
    assert run_cli(["batch", str(tmp_path), "--trace-dir", str(trace_dir)]) == USAGE_ERROR
    assert capsys.readouterr().err == f"error: {trace_dir} is not a directory\n"


def test_unwritable_summary_is_usage_error(tmp_path, monkeypatch, capsys):
    (tmp_path / "lp.nlp").write_text(LP_TEXT)
    monkeypatch.setattr(cli_module, "solve", lambda *args: pytest.fail("solved"))
    summary = tmp_path / "missing" / "s.csv"
    assert run_cli(["batch", str(tmp_path), "--summary", str(summary)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(summary) in err


def test_no_command_is_usage_error(capsys):
    assert run_cli([]) == 5


def _run_declared_script(*args):
    """Run the ``onephase`` entry of ``[project.scripts]`` through the shim
    pip writes for a console script, in a fresh interpreter importing this
    source tree."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["onephase"]
    module, _, function = target.partition(":")
    shim = (f"import sys; from {module} import {function}; "
            f"sys.argv[0] = 'onephase'; sys.exit({function}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", shim, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_console_script_entry_point():
    out = _run_declared_script("--list")
    assert out.returncode == 0, out.stderr
    assert "wachter" in out.stdout, out.stderr
    # The script's exit status is run_cli's code, not a bare 0.
    bad = _run_declared_script("--no-such-flag")
    assert bad.returncode == USAGE_ERROR, bad.stderr


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "onephase.cli", "--list"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    for name in builtin_registry():
        assert name in out.stdout, out.stderr


@pytest.mark.skipif(
    shutil.which("onephase") is None,
    reason="onephase console script not on PATH; "
           "install with `pip install -e . --no-build-isolation`")
def test_installed_console_script():
    out = subprocess.run(["onephase", "--list"], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "wachter" in out.stdout, out.stderr
