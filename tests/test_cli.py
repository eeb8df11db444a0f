"""Command-line behavior: config resolution, exit codes, output files."""

import argparse
import json

import numpy as np
import pytest

from birktraj import dual
from birktraj.cli import (
    EXIT_BAD_CONFIG,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
    parse_args,
)


def run(*argv):
    return main(list(argv))


def exit_code(*argv):
    """The process exit code: main's return, or argparse's SystemExit."""
    try:
        return run(*argv)
    except SystemExit as stop:
        return stop.code


# --- configuration ---------------------------------------------------------------


def test_run_config_defaults():
    config = parse_args(["solve"])
    assert config.problem is None
    assert config.kind == "lgl" and config.N == 32
    assert config.form == "a" and config.scaled is False
    assert config.out == "."


def test_run_config_rejects_bad_fields(tmp_path):
    for bad in (["--grid", "legendre"], ["--form", "c"], ["--N", "0"], ["--max-iter", "-1"],
                ["--tol-feas", "nan"], ["--tol-stat", "-1"], ["--tol-stat", "nan"],
                ["--tol-verify", "nan"], ["--tol-verify", "-1"]):
        assert exit_code("solve", "--problem", "scalar-lq", *bad,
                         "--out", str(tmp_path)) == EXIT_BAD_CONFIG
    assert not list(tmp_path.iterdir())  # refused before any output


def test_flags_override_defaults():
    config = parse_args(
        ["solve", "--problem", "scalar-lq", "--N", "8", "--form", "b", "--scaled"]
    )
    assert config.problem == "scalar-lq"
    assert config.N == 8 and config.form == "b" and config.scaled is True
    assert config.kind == "lgl"  # untouched default


def test_config_file_overrides_flags(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"N": 4, "problem": "zero-dynamics"}))
    config = parse_args(
        ["solve", "--problem", "scalar-lq", "--N", "16", "--config", str(path)]
    )
    assert config.N == 4 and config.problem == "zero-dynamics"


def test_config_file_boolean_overrides_flag(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scaled": False, "include_kkt": False}))
    config = parse_args(["bench", "--scaled", "--include-kkt", "--config", str(path)])
    assert config.scaled is False and config.include_kkt is False


_SOLVE_FLAGS = {"problem", "kind", "N", "form", "scaled", "variant", "tol_feas",
                "tol_stat", "tol_verify", "max_iter", "out", "config"}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("solve", _SOLVE_FLAGS),
        ("verify", _SOLVE_FLAGS),
        ("indirect", {"problem", "kind", "N", "variant", "out", "config"}),
        ("bench", {"study", "kind", "orders", "include_kkt", "problem", "form",
                   "scaled", "oracle_order", "out", "config"}),
        ("grids", {"kind", "N", "domain", "out", "config"}),
    ],
)
def test_each_command_takes_only_the_flags_it_reads(command, flags):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = commands.choices[command]
    assert {a.dest for a in sub._actions} - {"help"} == flags


@pytest.mark.parametrize(
    "argv",
    [
        ["grids", "--variant", "a,a"],
        ["bench", "--study", "cond", "--max-iter", "0"],
        ["indirect", "--problem", "scalar-lq", "--tol-feas", "1e-14"],
        ["bench", "--study", "convergence", "--problem", "scalar-lq", "--tol-stat", "1"],
    ],
    ids=["grids-variant", "cond-max-iter", "indirect-tol-feas", "convergence-tol-stat"],
)
def test_flags_a_command_does_not_read_exit_64(tmp_path, argv):
    assert exit_code(*argv, "--out", str(tmp_path)) == EXIT_BAD_CONFIG
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "setting",
    [{"scaled": "false"}, {"tol_feas": "abc"}, {"N": True}, {"variant": None}],
    ids=["string-boolean", "string-tolerance", "boolean-order", "null-variant"],
)
def test_config_file_values_are_checked_like_flags(tmp_path, setting):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(setting))
    assert exit_code("solve", "--problem", "scalar-lq", "--N", "8", "--config",
                     str(path), "--out", str(tmp_path / "out")) == EXIT_BAD_CONFIG
    assert not (tmp_path / "out").exists()


def test_config_file_sets_bench_orders_and_grid(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"orders": [4, 8], "kind": "cgl"}))
    assert run("bench", "--study", "cond", "--config", str(path),
               "--out", str(tmp_path)) == EXIT_OK
    lines = (tmp_path / "conditioning.csv").read_text().splitlines()
    assert len(lines) == 3 and all(row.startswith("cgl,") for row in lines[1:])


def test_config_file_sets_grids_domain(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"domain": [0, 2], "N": 4}))
    assert run("grids", "--config", str(path), "--out", str(tmp_path)) == EXIT_OK
    data = json.loads((tmp_path / "system.json").read_text())
    assert data["grid"]["domain"] == [0.0, 2.0] and data["grid"]["N"] == 4


def test_unknown_config_key_is_bad_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"nodes": 4}))
    assert run("solve", "--config", str(path)) == EXIT_BAD_CONFIG


def test_unparseable_flags_exit_64():
    with pytest.raises(SystemExit) as err:
        run("solve", "--grid", "weird")
    assert err.value.code == EXIT_BAD_CONFIG


# --- solve -----------------------------------------------------------------------


def test_solve_analytic_problem(tmp_path):
    out = tmp_path / "run"
    code = run("solve", "--problem", "double-integrator-energy", "--N", "16",
               "--out", str(out))
    assert code == EXIT_OK
    data = json.loads((out / "solution.json").read_text())
    assert abs(data["primal"]["objective"] - 6.0) <= 1e-6
    assert data["status"] == "converged"
    assert data["verification"]["passed"] is True
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,x_0,x_1,x_2,u_0,costate_0")


def test_solve_unknown_problem_exits_64(tmp_path, capsys):
    assert run("solve", "--problem", "no-such-thing",
               "--out", str(tmp_path)) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        "error: unknown problem 'no-such-thing'; available: ['double-integrator-energy', "
        "'nonlinear-scalar', 'scalar-lq', 'zero-dynamics']\n"
    )


def test_solve_missing_problem_exits_64(tmp_path):
    assert run("solve", "--out", str(tmp_path)) == EXIT_BAD_CONFIG


def test_solve_forms_agree_on_objective(tmp_path):
    for form in ("a", "a_star"):
        assert run("solve", "--problem", "double-integrator-energy", "--N", "16",
                   "--form", form, "--out", str(tmp_path / form)) == EXIT_OK
    cost = {
        form: json.loads((tmp_path / form / "solution.json").read_text())
        ["primal"]["objective"]
        for form in ("a", "a_star")
    }
    assert abs(cost["a"] - cost["a_star"]) <= 1e-8


def test_solve_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("solve", "--problem", "scalar-lq", "--N", "8",
                   "--out", str(out)) == EXIT_OK
    assert (a / "solution.json").read_bytes() == (b / "solution.json").read_bytes()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_solve_form_without_covector_route_skips_verification(tmp_path):
    code = run("solve", "--problem", "scalar-lq", "--N", "8", "--form", "b",
               "--out", str(tmp_path))
    assert code == EXIT_OK
    data = json.loads((tmp_path / "solution.json").read_text())
    assert data["dual"] is None and data["verification"] is None
    assert "costate" not in (tmp_path / "trajectory.csv").read_text().splitlines()[0]


def test_solve_unattainable_check_tolerance_exits_2(tmp_path):
    code = run("solve", "--problem", "scalar-lq", "--N", "8",
               "--tol-verify", "1e-18", "--out", str(tmp_path))
    assert code == EXIT_VERIFY_FAILED
    data = json.loads((tmp_path / "solution.json").read_text())
    assert data["verification"]["passed"] is False


def test_solve_iteration_starved_solver_exits_1(tmp_path):
    code = run("solve", "--problem", "nonlinear-scalar", "--N", "8",
               "--max-iter", "1", "--out", str(tmp_path))
    assert code == EXIT_SOLVER_FAILURE
    assert not (tmp_path / "solution.json").exists()


def test_solve_overtight_feasibility_tolerance_is_config_error(tmp_path):
    assert run("solve", "--problem", "scalar-lq", "--tol-feas", "1e-12",
               "--out", str(tmp_path)) == EXIT_BAD_CONFIG
    assert run("verify", "--problem", "scalar-lq", "--tol-feas", "1e-12",
               "--out", str(tmp_path)) == EXIT_BAD_CONFIG


def test_solve_json_problem_file(tmp_path):
    spec = {
        "name": "steer",
        "n_x": 1,
        "n_u": 1,
        "horizon": [0.0, 1.0],
        "dynamics": {"A": [[0.0]], "B": [[1.0]]},
        "running_cost": {"R": [[1.0]]},
        "constraints": [
            {"kind": "equality", "a": [1.0], "b": [0.0], "rhs": 0.0},
            {"kind": "equality", "a": [0.0], "b": [1.0], "rhs": 1.0},
        ],
    }
    path = tmp_path / "steer.json"
    path.write_text(json.dumps(spec))
    code = run("solve", "--problem", str(path), "--N", "8", "--out", str(tmp_path))
    assert code == EXIT_OK
    data = json.loads((tmp_path / "solution.json").read_text())
    assert data["problem"] == "steer"
    assert abs(data["primal"]["objective"] - 1.0) <= 1e-8  # same optimum as scalar-lq


_STEER = {"n_x": 1, "n_u": 1, "horizon": [0.0, 1.0], "dynamics": {"A": [[0.0]], "B": [[1.0]]}}


@pytest.mark.parametrize(
    "bad",
    [
        {"constraints": [{"kind": "equality", "a": [1.0, 0.0], "rhs": 0.0}]},
        {"running_cost": {"S": [[1.0]]}},
        {"horizon": 5},
        {"n_x": None},
        {"constraints": [5]},
        {"endpoint_cost": [1]},
    ],
    ids=["constraint-row-too-long", "running-cost-without-terms", "scalar-horizon",
         "null-state-count", "constraint-not-an-object", "endpoint-cost-not-an-object"],
)
def test_solve_malformed_json_problem_exits_64(tmp_path, bad):
    # a malformed problem is refused on loading, not in the solve
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_STEER, **bad}))
    code = run("solve", "--problem", str(path), "--N", "8", "--out", str(tmp_path))
    assert code == EXIT_BAD_CONFIG


# --- verify / indirect -----------------------------------------------------------


def test_verify_reports_blocks(tmp_path, capsys):
    code = run("verify", "--problem", "scalar-lq", "--N", "8", "--out", str(tmp_path))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True and len(report["blocks"]) == 11
    text = capsys.readouterr().out
    assert "PASS" in text and "costate_interpolation" in text


def test_verify_without_route_is_config_error(tmp_path):
    assert run("verify", "--problem", "scalar-lq", "--form", "b_star",
               "--out", str(tmp_path)) == EXIT_BAD_CONFIG


def test_verify_explicit_variant(tmp_path):
    code = run("verify", "--problem", "scalar-lq", "--N", "8",
               "--variant", "a,b", "--out", str(tmp_path))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["variant"] == "a,b"


def test_verify_garbage_variant_exits_64(tmp_path):
    assert run("verify", "--problem", "scalar-lq", "--variant", "a,q",
               "--out", str(tmp_path)) == EXIT_BAD_CONFIG


def test_indirect_solves_and_writes(tmp_path):
    code = run("indirect", "--problem", "scalar-lq", "--N", "8", "--out", str(tmp_path))
    assert code == EXIT_OK
    data = json.loads((tmp_path / "indirect.json").read_text())
    assert abs(data["primal"]["objective"] - 1.0) <= 1e-8
    assert data["variant"] == "a,b_star"
    lines = (tmp_path / "indirect_trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,x_0") and "costate_0" in lines[0]
    assert len(lines) == 10  # header + 9 nodes


def test_indirect_singular_newton_matrix_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dual, "regularized_solve", lambda *args: None)
    assert run("indirect", "--problem", "scalar-lq", "--N", "8",
               "--out", str(tmp_path)) == EXIT_SOLVER_FAILURE
    assert "singular Newton matrix" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# --- bench / grids ---------------------------------------------------------------


def test_bench_cond_outputs(tmp_path):
    code = run("bench", "--study", "cond", "--orders", "4,8,16",
               "--out", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "conditioning.csv").read_text().splitlines()
    assert lines[0] == "kind,N,cond_B_a,cond_D,cond_kkt,note"
    assert len(lines) == 4
    assert "conditioning.csv" in (tmp_path / "conditioning.gp").read_text()


@pytest.mark.parametrize("kind, orders", [("lgl", "8"), ("uniform", "32,64,128")])
def test_bench_cond_with_one_built_order_has_no_slopes(tmp_path, capsys, kind, orders):
    code = run("bench", "--study", "cond", "--grid", kind, "--orders", orders,
               "--out", str(tmp_path))
    assert code == EXIT_OK
    assert "slopes:" not in capsys.readouterr().out
    assert (tmp_path / "conditioning.gp").exists()


def test_bench_convergence_needs_problem(tmp_path):
    assert run("bench", "--study", "convergence",
               "--out", str(tmp_path)) == EXIT_BAD_CONFIG
    code = run("bench", "--study", "convergence", "--problem", "scalar-lq",
               "--orders", "4,8", "--out", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert len(lines) == 3
    assert (tmp_path / "convergence.gp").exists()


def test_bench_unsorted_orders_exit_64(tmp_path):
    assert run("bench", "--study", "cond", "--orders", "16,8",
               "--out", str(tmp_path)) == EXIT_BAD_CONFIG


def test_grids_dumps_system(tmp_path):
    code = run("grids", "--grid", "cgl", "--N", "4", "--domain", "0,2",
               "--out", str(tmp_path))
    assert code == EXIT_OK
    data = json.loads((tmp_path / "system.json").read_text())
    assert data["grid"]["kind"] == "cgl" and data["grid"]["N"] == 4
    assert data["grid"]["domain"] == [0.0, 2.0]
    assert np.isclose(sum(data["w_B"]), 2.0)
    assert len(data["B_a"]) == 5 and len(data["B_a"][0]) == 5


@pytest.mark.parametrize("domain", [(-1.0, 1.0), (-2.5, -0.5)])
def test_grids_domain_may_start_negative(tmp_path, domain):
    text = f"{domain[0]:g},{domain[1]:g}"
    assert run("grids", "--domain", text, "--N", "4", "--out", str(tmp_path)) == EXIT_OK
    data = json.loads((tmp_path / "system.json").read_text())
    assert data["grid"]["domain"] == list(domain)


def test_grids_unbuildable_system_exits_1(tmp_path):
    assert run("grids", "--grid", "uniform", "--N", "64",
               "--out", str(tmp_path)) == EXIT_SOLVER_FAILURE


@pytest.mark.parametrize("command", ["solve", "verify", "indirect"])
def test_unbuildable_grid_exits_1(tmp_path, capsys, command):
    assert run(command, "--problem", "scalar-lq", "--grid", "uniform", "--N", "64",
               "--out", str(tmp_path)) == EXIT_SOLVER_FAILURE
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not list(tmp_path.iterdir())
