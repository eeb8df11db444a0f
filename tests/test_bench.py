"""Conditioning and convergence harness checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from birktraj.bench import (
    cond_study,
    convergence_study,
    loglog_slope,
    write_cond_csv,
    write_cond_gnuplot,
    write_convergence_csv,
    write_convergence_gnuplot,
)
from birktraj import bench, build_birkhoff, make_grid
from birktraj.solver import NlpResult, SolveStatus, SolverOptions, solve


# --- conditioning ----------------------------------------------------------------


def test_cond_study_requires_ascending_orders():
    with pytest.raises(ValueError):
        cond_study("lgl", [8, 4])
    with pytest.raises(ValueError):
        cond_study("lgl", [8, 8])
    with pytest.raises(ValueError):
        cond_study("lgl", [])


def test_cond_core_convention_matches_hand_svd():
    # N=1 on the reference domain: the anchored core of B_a is the single row
    # [1, 1] (sigma = sqrt(2)); D maps values to the constant slope and its
    # largest singular value is exactly 1.
    (row,) = cond_study("lgl", [1])
    assert row.cond_B_a == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert row.cond_D == pytest.approx(1.0, abs=1e-12)
    assert row.cond_kkt is None
    assert row.note == ""


SIGMA_CASES = (
    [(k, n) for k in ("lgl", "cgl") for n in list(range(1, 13)) + [16, 64, 256]]
    + [("uniform", n) for n in range(8, 33)]
)


@pytest.mark.parametrize("kind, n", SIGMA_CASES)
def test_sigma_max_matches_dense_svd(kind, n):
    # orders 1..12 cross the dense/Lanczos boundary of both operators
    sys = build_birkhoff(make_grid(kind, n))
    for a in (sys.B_a[1:, :], sys.D):
        dense = np.linalg.svd(a, compute_uv=False)[0]
        got = bench._sigma_max(a)
        assert abs(got - dense) <= 1e-14 * dense
        assert bench._sigma_max(a) == got


def test_sigma_max_with_constants_in_the_null_space():
    # a constant start vector would be annihilated by both matrices
    d1 = build_birkhoff(make_grid("lgl", 1)).D
    assert np.array_equal(d1 @ np.ones(2), [0.0, 0.0])
    assert bench._sigma_max(d1) == pytest.approx(1.0, rel=1e-14)
    laplacian = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert bench._sigma_max(laplacian) == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("kind", ["lgl", "cgl"])
def test_conditioning_point_never_holds_the_system_and_d_together(kind):
    n = 512
    cond_study(kind, [8])  # lazy imports stay out of the trace
    unit = 8 * (n + 1) ** 2  # one (N+1)^2 float64 matrix
    tracemalloc.start()
    try:
        (row,) = cond_study(kind, [n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.note == ""
    # the build's peak (3.04 units measured); B_a, its antiderivative
    # coefficients and D live together would be 3.5
    assert peak <= 3.1 * unit


@pytest.mark.parametrize("kind", ["lgl", "cgl"])
def test_cond_study_row_finite_at_large_order(kind):
    (row,) = cond_study(kind, [1200])
    assert row.note == ""
    assert np.isfinite(row.cond_B_a) and np.isfinite(row.cond_D)


def test_cond_values_frozen():
    rows = cond_study("lgl", [8, 16, 32])
    got_B = [r.cond_B_a for r in rows]
    got_D = [r.cond_D for r in rows]
    assert got_B == pytest.approx([1.49502, 1.46813, 1.45498], rel=1e-4)
    assert got_D == pytest.approx([35.0938, 127.327, 486.834], rel=1e-4)


def test_cond_slopes_over_study_range():
    rows = cond_study("lgl", [8, 16, 32, 64, 128, 256, 512])
    orders = [r.N for r in rows]
    assert all(r.cond_B_a >= 1.0 and r.cond_D >= 1.0 for r in rows)
    assert loglog_slope(orders, [r.cond_B_a for r in rows]) <= 0.8
    assert loglog_slope(orders, [r.cond_D for r in rows]) >= 1.8
    assert all(r.build_seconds >= 0.0 for r in rows)


def test_cond_kkt_column_optional_and_growing():
    rows = cond_study("lgl", [4, 8], include_kkt=True)
    ratios = [r.cond_kkt for r in rows]
    assert all(np.isfinite(v) and v >= 1.0 for v in ratios)
    assert ratios[1] > ratios[0]
    plain = cond_study("lgl", [4])
    assert plain[0].cond_kkt is None


def test_cond_kkt_column_values_are_pinned():
    # frozen values: building the KKT matrix another way must not move them
    rows = cond_study("lgl", [8, 16, 32], include_kkt=True)
    want = [253.86240457729122, 1227.7586941109917, 6367.326129850022]
    assert [r.cond_kkt for r in rows] == pytest.approx(want, rel=1e-12)


def test_cond_kkt_moves_far_less_than_its_pin_under_a_one_ulp_nudge(monkeypatch):
    # the pin above is only meaningful if the value is stable below it: with
    # exact curvatures one ulp of the solved z moves cond_kkt by < 1e-13
    # (central-difference curvatures moved it by up to 6e-11)
    orders = (8, 16, 32)
    at_z = [bench._kkt_condition("lgl", N) for N in orders]
    solved = bench.solve_with_fallback

    def nudged(nlp):
        res = solved(nlp)
        return dataclasses.replace(res, z=np.nextafter(res.z, np.inf))

    monkeypatch.setattr(bench, "solve_with_fallback", nudged)
    for N, value in zip(orders, at_z):
        assert abs(bench._kkt_condition("lgl", N) - value) < 1e-13 * value


def test_cond_unbuildable_orders_get_skip_notes():
    rows = cond_study("uniform", [8, 64])
    assert rows[0].note == "" and np.isfinite(rows[0].cond_B_a)
    assert "skipped" in rows[1].note
    assert np.isnan(rows[1].cond_B_a) and np.isnan(rows[1].cond_D)

    rows = cond_study("lgl", [8, 8192])  # beyond the build cap
    assert "skipped" in rows[1].note


def test_cond_kkt_column_of_a_failed_solve_gets_a_note(monkeypatch):
    failed = NlpResult(z=np.zeros(1), status=SolveStatus.MAX_ITER, iterations=0,
                       kkt_residual=np.inf, multipliers=np.zeros(0))
    monkeypatch.setattr(bench, "solve_with_fallback", lambda nlp: failed)
    (row,) = cond_study("lgl", [8], include_kkt=True)
    assert row.note == "kkt skipped: LQ solve for the KKT column ended max-iter"
    assert np.isnan(row.cond_kkt) and np.isfinite(row.cond_B_a) and np.isfinite(row.cond_D)


def test_loglog_slope_fits_powerlaw_and_drops_nan():
    orders = [4, 8, 16, 32]
    assert loglog_slope(orders, [3.0 * n**2 for n in orders]) == pytest.approx(2.0, abs=1e-12)
    padded = [3.0 * 4**2, np.nan, 3.0 * 16**2, 3.0 * 32**2]
    assert loglog_slope(orders, padded) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        loglog_slope([4, 8], [1.0, np.nan])


# --- convergence -----------------------------------------------------------------


def test_convergence_polynomial_problem_exact_at_low_order():
    # the optimum is polynomial of degree <= 3, so every order >= 3 resolves
    # it to solver tolerance
    rows = convergence_study("double-integrator-energy", "a", "lgl", [4, 8, 16])
    for r in rows:
        assert r.converged
        assert r.cost_error <= 1e-9
        assert r.state_error <= 1e-9
        assert r.costate_error <= 1e-9
        assert r.pontryagin_residual <= 1e-9


def test_convergence_no_control_problem_uses_analytic_reference():
    rows = convergence_study("zero-dynamics", "a", "lgl", [4, 8])
    for r in rows:
        assert r.converged
        assert r.state_error <= 1e-12
        assert r.costate_error <= 1e-10


def test_convergence_nonlinear_errors_decay_on_lgl():
    rows = convergence_study("nonlinear-scalar", "a", "lgl", [8, 16], oracle_order=64)
    assert all(r.converged for r in rows)
    r8, r16 = rows
    assert r8.state_error <= 1e-4  # already small at low order
    assert r16.state_error <= r8.state_error
    assert r16.costate_error <= r8.costate_error
    assert r16.pontryagin_residual <= r8.pontryagin_residual


def test_convergence_oracle_defaults_to_largest_order():
    # without an explicit oracle order the finest requested grid provides the
    # reference, so its own row measures the direct-vs-indirect gap
    rows = convergence_study("nonlinear-scalar", "a", "lgl", [4, 8])
    assert all(r.converged for r in rows)
    assert rows[1].state_error <= rows[0].state_error
    assert rows[1].state_error <= 1e-6


def test_convergence_uniform_grid_degrades_at_moderate_order():
    # float64 wall: the uniform-grid operators at N=32 reach O(1e6) entries
    # (see the conditioning study), and the transcribed system stops being
    # solvable; LGL at the same order converges to machine precision. A
    # failure row is the strongest form of "worse than LGL".
    (u,) = convergence_study("nonlinear-scalar", "a", "uniform", [32], oracle_order=64)
    (l,) = convergence_study("nonlinear-scalar", "a", "lgl", [32], oracle_order=64)
    assert l.converged and l.state_error <= 1e-10
    assert (not u.converged) or (u.state_error > l.state_error)
    if not u.converged:
        assert u.note != "" and np.isnan(u.state_error)


def test_convergence_unbuildable_order_gets_a_skipped_row():
    # the uniform basis fails its residual gate from N ~ 40
    (row,) = convergence_study("scalar-lq", "a", "uniform", [64])
    assert not row.converged
    assert row.note.startswith("skipped: modal transform residual")
    assert np.isnan(row.cost_error) and np.isnan(row.state_error)


def test_convergence_solver_failure_recorded_not_raised(monkeypatch):
    def one_iteration(nlp, z0, options=None):
        return solve(nlp, z0, SolverOptions(max_iter=1))

    monkeypatch.setattr(bench, "solve", one_iteration)
    rows = convergence_study("nonlinear-scalar", "a", "lgl", [8])
    assert not rows[0].converged
    assert "max-iter" in rows[0].note
    assert np.isnan(rows[0].cost_error)


def test_convergence_form_without_covector_route_keeps_primal_columns():
    (row,) = convergence_study("scalar-lq", "b", "lgl", [8])
    assert row.converged
    assert row.state_error <= 1e-9
    assert np.isnan(row.costate_error) and np.isnan(row.pontryagin_residual)
    assert "form b" in row.note


# --- output files ----------------------------------------------------------------


def test_csv_outputs_byte_stable(tmp_path):
    rows = cond_study("lgl", [4, 8], include_kkt=True)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cond_csv(rows, a)
    write_cond_csv(cond_study("lgl", [4, 8], include_kkt=True), b)
    assert a.read_bytes() == b.read_bytes()

    conv = convergence_study("scalar-lq", "a", "lgl", [4, 8])
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    write_convergence_csv(conv, c)
    write_convergence_csv(convergence_study("scalar-lq", "a", "lgl", [4, 8]), d)
    assert c.read_bytes() == d.read_bytes()


def test_csv_blank_cells_for_missing_values(tmp_path):
    rows = cond_study("uniform", [8, 64])  # second row is a skip
    path = tmp_path / "cond.csv"
    write_cond_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,N,cond_B_a,cond_D,cond_kkt,note"
    assert len(lines) == 3
    skip = lines[2].split(",")
    assert skip[2] == "" and skip[3] == "" and skip[4] == ""
    assert "skipped" in lines[2]


def test_gnuplot_companions_reference_csv_basename(tmp_path):
    csv = tmp_path / "run.csv"
    write_cond_csv(cond_study("lgl", [4]), csv)
    gp = tmp_path / "run.gp"
    write_cond_gnuplot(csv, gp)
    text = gp.read_text()
    assert '"run.csv"' in text and "logscale xy" in text

    conv_csv = tmp_path / "conv.csv"
    write_convergence_csv(convergence_study("scalar-lq", "a", "lgl", [4]), conv_csv)
    conv_gp = tmp_path / "conv.gp"
    write_convergence_gnuplot(conv_csv, conv_gp)
    assert '"conv.csv"' in conv_gp.read_text()
