import csv

import numpy as np
import pytest
from scipy.linalg import lstsq as scipy_lstsq

from birktraj import (
    PrimalForm,
    ShapeError,
    SimpleNlp,
    SolveStatus,
    SolverOptions,
    build_birkhoff,
    initial_guess,
    kkt_residual,
    make_grid,
    map_covectors,
    prepared,
    registry,
    registry_solution,
    solve,
    solver,
    transcribe,
    write_iteration_log,
)


def make_nlp(name, N=8, form="a", scaled=False, kind="lgl"):
    ocp = prepared(registry(name))
    sys = build_birkhoff(make_grid(kind, N, ocp.horizon))
    return transcribe(ocp, sys, PrimalForm(form, scaled=scaled))


# --- tiny QPs through the generic interface ------------------------------------


def unconstrained_qp():
    return SimpleNlp(
        n_z=1,
        objective=lambda z: float((z[0] - 3.0) ** 2),
        objective_gradient=lambda z: np.array([2.0 * (z[0] - 3.0)]),
    )


def equality_qp():
    return SimpleNlp(
        n_z=2,
        objective=lambda z: float(z @ z),
        objective_gradient=lambda z: 2.0 * z,
        constraints=lambda z: np.array([z[0] + z[1] - 1.0]),
        jacobian=lambda z: np.array([[1.0, 1.0]]),
        equality_mask=np.array([True]),
    )


def inequality_qp():
    # min -z  s.t.  z - 2 <= 0; active at the solution with multiplier 1
    return SimpleNlp(
        n_z=1,
        objective=lambda z: float(-z[0]),
        objective_gradient=lambda z: np.array([-1.0]),
        constraints=lambda z: np.array([z[0] - 2.0]),
        jacobian=lambda z: np.array([[1.0]]),
        equality_mask=np.array([False]),
    )


def test_unconstrained_quadratic():
    res = solve(unconstrained_qp(), np.zeros(1))
    assert res.converged
    assert abs(res.z[0] - 3.0) < 1e-8
    assert res.multipliers.size == 0
    assert res.rows == {}
    assert res.iterations <= 5


def test_equality_constrained_quadratic():
    res = solve(equality_qp(), np.zeros(2))
    assert res.converged
    assert np.allclose(res.z, [0.5, 0.5], atol=1e-9)
    assert res.multipliers[0] == pytest.approx(-1.0, abs=1e-9)


def test_active_inequality():
    res = solve(inequality_qp(), np.zeros(1))
    assert res.converged
    assert res.z[0] == pytest.approx(2.0, abs=1e-8)
    assert res.multipliers[0] == pytest.approx(1.0, abs=1e-8)
    # complementarity holds: the row is active with nonnegative multiplier
    assert res.kkt_residual <= SolverOptions().tol_feas


def test_inactive_inequality_stays_out_of_working_set():
    # same QP but minimizing +z^2: unconstrained optimum already feasible
    nlp = SimpleNlp(
        n_z=1,
        objective=lambda z: float(z[0] ** 2),
        objective_gradient=lambda z: np.array([2.0 * z[0]]),
        constraints=lambda z: np.array([z[0] - 2.0]),
        jacobian=lambda z: np.array([[1.0]]),
        equality_mask=np.array([False]),
    )
    res = solve(nlp, np.array([1.0]))
    assert res.converged
    assert abs(res.z[0]) < 1e-8
    assert res.multipliers[0] == 0.0


def test_contradictory_equalities_do_not_converge():
    nlp = SimpleNlp(
        n_z=1,
        objective=lambda z: 0.0,
        objective_gradient=lambda z: np.zeros(1),
        constraints=lambda z: np.array([z[0] - 1.0, z[0] - 2.0]),
        jacobian=lambda z: np.array([[1.0], [1.0]]),
        equality_mask=np.array([True, True]),
    )
    res = solve(nlp, np.zeros(1))
    assert res.status in (SolveStatus.INFEASIBLE, SolveStatus.LINE_SEARCH_FAILURE)
    assert not res.converged


def test_max_iter_status():
    res = solve(equality_qp(), np.zeros(2), SolverOptions(max_iter=0))
    assert res.status is SolveStatus.MAX_ITER


def test_bad_initial_point_rejected():
    with pytest.raises(ShapeError):
        solve(unconstrained_qp(), np.zeros(2))
    with pytest.raises(ShapeError):
        solve(unconstrained_qp(), np.array([np.nan]))


@pytest.mark.parametrize(
    "rows, rhs",
    [([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]),
     ([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]], [1.0, 0.0, 1.0])],
    ids=["twice", "twice-around-another"],
)
def test_dependent_equality_rows_converge(rows, rhs):
    # z0 + z1 = 1 written twice: the unshifted KKT matrix is singular
    jac, rhs = np.array(rows), np.array(rhs)
    nlp = SimpleNlp(
        n_z=2,
        objective=lambda z: float(z @ z),
        objective_gradient=lambda z: 2.0 * z,
        constraints=lambda z: jac @ z - rhs,
        jacobian=lambda z: jac,
        equality_mask=np.ones(len(rhs), dtype=bool),
    )
    res = solve(nlp, np.zeros(2))
    assert res.converged, res.status
    # the shifted step stops O(REGULARIZATION_FLOOR) short, inside tol_feas
    assert np.max(np.abs(res.z - 0.5)) <= 1e-8
    # the constraint's multiplier -1, split evenly between its copies
    assert res.multipliers[0] == pytest.approx(-0.5, abs=1e-8)
    assert res.multipliers[-1] == pytest.approx(-0.5, abs=1e-8)


# --- regularized Newton solve ----------------------------------------------------


def test_duplicated_constraint_row_solves_only_through_the_shift():
    jac = np.array([[1.0, 1.0], [1.0, 1.0]])
    kkt = np.block([[2.0 * np.eye(2), jac.T], [jac, np.zeros((2, 2))]])
    rhs = np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(kkt, rhs)
    # a shift on the H block alone leaves the two equal rows singular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(kkt + np.diag([1.0, 1.0, 0.0, 0.0]), rhs)
    sol = solver.regularized_solve(kkt, rhs, np.array([1.0, 1.0, -1.0, -1.0]))
    assert sol is not None
    assert np.allclose(sol, [0.5, 0.5, -0.5, -0.5], atol=1e-7)


def test_regularized_solve_gives_up_when_no_shift_helps():
    # eigenvalues 0 and -d for every shift d tried: each try is exactly singular
    shifts = solver.REGULARIZATION_FLOOR * 2.0 ** np.arange(solver.REGULARIZATION_SHIFTS)
    matrix = np.diag(np.concatenate([[0.0], -shifts]))
    ones = np.ones(len(matrix))
    assert solver.regularized_solve(matrix, ones, ones) is None


# --- multiplier estimate ---------------------------------------------------------


def test_multiplier_estimate_matches_svd_least_squares(monkeypatch):
    monkeypatch.setattr(solver, "lstsq", None)  # the Cholesky route only
    nlp = make_nlp("double-integrator-energy", N=64)
    z = initial_guess(nlp, "constant-midpoint")
    jac = np.asarray(nlp.jacobian(z))[nlp.equality_mask]
    g = nlp.objective_gradient(z)
    ref = np.linalg.lstsq(jac.T, -g, rcond=None)[0]
    mu = solver._multiplier_estimate(jac, g)
    assert np.linalg.norm(mu - ref) <= 1e-12 * np.linalg.norm(ref)


def test_duplicated_row_takes_qr_route_to_minimum_norm_multipliers(monkeypatch):
    # rows 0 and 2 are one constraint twice: J_w J_w^T is singular
    a, c = np.array([1.0, 0.3, -0.7]), np.array([0.2, -1.1, 0.5])
    jac = np.array([a, [0.0, 1.0, 0.0], a])
    nlp = SimpleNlp(
        n_z=3,
        objective=lambda z: float((z - c) @ (z - c)),
        objective_gradient=lambda z: 2.0 * (z - c),
        constraints=lambda z: jac @ z - np.array([1.0, 0.4, 1.0]),
        jacobian=lambda z: jac,
        equality_mask=np.ones(3, dtype=bool),
    )
    qr_calls = []

    def counted_lstsq(*args, **kwargs):
        qr_calls.append(kwargs["lapack_driver"])
        return scipy_lstsq(*args, **kwargs)

    monkeypatch.setattr(solver, "lstsq", counted_lstsq)
    res = solve(nlp, np.zeros(3))
    assert res.converged, res.status
    assert qr_calls and set(qr_calls) == {"gelsy"}
    ref = np.linalg.lstsq(jac.T, -nlp.objective_gradient(res.z), rcond=None)[0]
    assert np.allclose(res.multipliers, ref, rtol=1e-12, atol=1e-12)
    # minimum norm splits the constraint's multiplier evenly between its copies
    assert res.multipliers[0] == pytest.approx(res.multipliers[2], abs=1e-12)


def test_nearly_dependent_rows_skip_the_normal_equations():
    # cond(J_w) ~ 1e7: Cholesky succeeds on J_w J_w^T but the condition
    # estimate sends the estimate to QR; the normal equations, corrected
    # once, would be off by ~2e-4 here
    rng = np.random.default_rng(0)
    jac = rng.standard_normal((5, 9))
    jac[4] = jac[0] + 1e-7 * rng.standard_normal(9)
    g = rng.standard_normal(9)
    ref = np.linalg.lstsq(jac.T, -g, rcond=None)[0]
    mu = solver._multiplier_estimate(jac, g)
    assert np.linalg.norm(mu - ref) <= 1e-7 * np.linalg.norm(ref)


def test_corrected_multipliers_reach_closed_form_costates():
    # one correction step takes the squared condition number out of the
    # normal equations; without it this error is ~3e-10
    nlp = make_nlp("double-integrator-energy", N=128)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged
    lam = map_covectors(res, nlp.form, nlp.sys).costates
    costates = registry_solution("double-integrator-energy").costate(nlp.sys.grid.nodes)
    assert np.max(np.abs(lam[:, :2] - costates.T)) <= 1e-10


# --- KKT residual probe ---------------------------------------------------------


def test_kkt_residual_at_exact_qp_solution():
    nlp = equality_qp()
    assert kkt_residual(nlp, np.array([0.5, 0.5]), np.array([-1.0])) <= 1e-12
    z_off = np.array([0.5 + 1e-3, 0.5])
    assert kkt_residual(nlp, z_off, np.array([-1.0])) >= 1e-4


def test_kkt_residual_zero_dynamics_analytic_point():
    # hand-built optimum and multipliers; every residual vanishes
    nlp = make_nlp("zero-dynamics", N=6)
    m = nlp.n_nodes
    one = np.array([1.0])
    z = nlp.pack(np.ones((m, 1)), np.zeros((m, 0)), np.zeros((m, 1)), one, one)
    w = nlp.sys.w_B
    mu = np.concatenate([np.zeros(m), -2.0 * w, [-2.0], [-2.0]])
    assert kkt_residual(nlp, z, mu) <= 1e-10
    # perturbing the costate breaks stationarity at first order
    mu_bad = mu.copy()
    mu_bad[m] += 1e-3
    assert kkt_residual(nlp, z, mu_bad) >= 1e-4


# --- transcribed problems -------------------------------------------------------


@pytest.mark.parametrize("name", ["zero-dynamics", "scalar-lq", "double-integrator-energy"])
def test_registry_problems_converge(name):
    nlp = make_nlp(name, N=8)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, res.status
    assert res.iterations <= 30
    assert res.kkt_residual <= SolverOptions().tol_feas
    # independent recomputation from the returned multipliers agrees
    assert kkt_residual(nlp, res.z, res.multipliers) <= 2.0 * SolverOptions().tol_feas


def test_nonlinear_problem_converges():
    nlp = make_nlp("nonlinear-scalar", N=12)
    res = solve(nlp, initial_guess(nlp, "linear-endpoint-interpolation"))
    assert res.converged, res.status
    assert res.kkt_residual <= SolverOptions().tol_feas


def test_double_integrator_matches_analytic_solution():
    nlp = make_nlp("double-integrator-energy", N=16)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged
    sol = registry_solution("double-integrator-energy")
    X, U, V, x_a, x_b = nlp.unpack(res.z)
    t = nlp.sys.grid.nodes
    assert nlp.objective(res.z) == pytest.approx(sol.cost, abs=1e-6)
    states = sol.state(t)  # (2, N+1)
    assert np.max(np.abs(X[:, 0] - states[0])) <= 1e-6
    assert np.max(np.abs(X[:, 1] - states[1])) <= 1e-6
    assert np.max(np.abs(U[:, 0] - sol.control(t)[0])) <= 1e-5
    # mapped costates approximate the analytic ones, the cost state's is one
    lam = map_covectors(res, nlp.form, nlp.sys).costates
    costates = sol.costate(t)
    assert np.max(np.abs(lam[:, 0] - costates[0])) <= 1e-5
    assert np.max(np.abs(lam[:, 1] - costates[1])) <= 1e-5
    assert np.max(np.abs(lam[:, 2] - 1.0)) <= 1e-5


def test_scaled_form_reaches_same_objective():
    plain = make_nlp("scalar-lq", N=10)
    scaled = make_nlp("scalar-lq", N=10, scaled=True)
    r1 = solve(plain, initial_guess(plain, "constant-midpoint"))
    r2 = solve(scaled, initial_guess(scaled, "constant-midpoint"))
    assert r1.converged and r2.converged
    assert plain.objective(r1.z) == pytest.approx(scaled.objective(r2.z), abs=1e-8)


def test_determinism_bit_identical():
    nlp = make_nlp("double-integrator-energy", N=8)
    z0 = initial_guess(nlp, "constant-midpoint")
    r1 = solve(nlp, z0)
    r2 = solve(nlp, z0)
    assert np.array_equal(r1.z, r2.z)
    assert np.array_equal(r1.multipliers, r2.multipliers)
    assert r1.log == r2.log
    assert r1.iterations == r2.iterations


def test_iteration_log_csv(tmp_path):
    nlp = make_nlp("scalar-lq", N=6)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    path = tmp_path / "iters.csv"
    write_iteration_log(res, path)
    assert b"\r" not in path.read_bytes()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "merit", "step", "stationarity", "feasibility", "complementarity"]
    assert len(rows) - 1 == res.iterations
    for row in rows[1:]:
        assert int(row[0]) >= 1
        for cell in row[1:]:
            assert np.isfinite(float(cell))
