import csv
import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lstsq as scipy_lstsq

from birktraj import (
    PrimalForm,
    ShapeError,
    SolveStatus,
    SolverOptions,
    build_birkhoff,
    extract_primal,
    initial_guess,
    kkt_residual,
    load_problem,
    make_grid,
    map_covectors,
    prepared,
    registry,
    registry_names,
    registry_solution,
    solve,
    solve_with_fallback,
    solver,
    transcribe,
    transcription,
    verified_variant,
    verify_pontryagin,
    write_iteration_log,
)
from birktraj.transcription import AnchoredBlock, CondensingFactor, DiscretizedNlp, NewtonSystem
import dense_oracle
from dense_oracle import SimpleNlp


FORMS = [("a", False), ("b", False), ("a_star", False), ("b_star", False),
         ("a", True), ("b", True)]
FORM_IDS = [f"{f}{'+scaled' * s}" for f, s in FORMS]


def prepared_registry(name):
    return prepared(registry(name))


STAGINGS = pytest.mark.parametrize("staging", [registry, prepared_registry],
                                   ids=["as-defined", "prepared"])


def make_nlp(name, N=8, form="a", scaled=False, kind="lgl", staging=prepared_registry):
    ocp = staging(name)
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


def test_lu_solve_refuses_a_non_finite_first_solution():
    # the pivot 1e-300 is no zero pivot, but the solution overflows
    matrix = np.array([[1e-300, 0.0], [0.0, 1.0]])
    with np.errstate(over="ignore"):
        assert solver._lu_solve(matrix, np.array([1e300, 1.0])) is None


# --- multiplier estimate ---------------------------------------------------------


def structured_estimate_only(monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("a DiscretizedNlp path reached pivoted QR")

    monkeypatch.setattr(dense_oracle, "lstsq", no_qr)


def estimate_error(nlp, monkeypatch) -> float:
    """Distance of the structured coordinate-basis multipliers at the
    constant-midpoint guess from the dense oracle's, relative to them
    (absolute where they are zero); the structured estimate runs with the
    oracle's pivoted QR forbidden."""
    z = initial_guess(nlp, "constant-midpoint")
    jac, eq = nlp.jacobian(z), nlp.equality_mask
    g = nlp.objective_gradient(z)
    ref = dense_oracle.dense_coordinate_estimate(
        nlp, dense_oracle.assembled_jacobian(nlp, z), g, eq
    )
    structured_estimate_only(monkeypatch)
    mu = nlp.newton_system(jac, nlp.constraints(z), g).estimate(eq)
    return float(np.linalg.norm(mu - ref) / (np.linalg.norm(ref) or 1.0))


@STAGINGS
def test_multiplier_estimate_matches_the_dense_coordinate_estimate(monkeypatch, staging):
    nlp = make_nlp("double-integrator-energy", N=64, staging=staging)
    assert estimate_error(nlp, monkeypatch) <= 1e-12


@STAGINGS
@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("kind", ["lgl", "cgl", "uniform"])
@pytest.mark.parametrize("name", registry_names())
def test_structured_multiplier_estimate_on_every_form(monkeypatch, name, kind, form, scaled,
                                                      staging):
    nlp = make_nlp(name, N=12, form=form, scaled=scaled, kind=kind, staging=staging)
    assert estimate_error(nlp, monkeypatch) <= 1e-10


@STAGINGS
@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("kind", ["lgl", "cgl"])
@pytest.mark.parametrize("name", registry_names())
def test_estimate_zeroes_the_eliminated_gradient_without_a_reduced_kkt(monkeypatch, name, kind,
                                                                       form, scaled, staging):
    # g + J^T mu vanishes in X, V and the endpoint opposite the anchor, and
    # no reduced KKT is solved: the eliminated multipliers are one
    # back-substitution
    handed = []
    monkeypatch.setattr(transcription, "regularized_solve", lambda *args: handed.append(1))
    nlp = make_nlp(name, N=12, form=form, scaled=scaled, kind=kind, staging=staging)
    z = initial_guess(nlp, "constant-midpoint")
    jac, g = nlp.jacobian(z), nlp.objective_gradient(z)
    eq = nlp.equality_mask
    mu = np.zeros(nlp.n_rows)
    mu[eq] = nlp.newton_system(jac, nlp.constraints(z), g).estimate(eq)
    assert not handed
    other = nlp.slice_xb if nlp.form.tag.anchored_left else nlp.slice_xa
    eliminated = np.r_[nlp.slice_x, nlp.slice_v, other]
    stationarity = g + jac.T @ mu
    assert np.max(np.abs(stationarity[eliminated])) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("name", registry_names())
def test_registry_solves_on_lgl_never_call_pivoted_qr(monkeypatch, name, form, scaled):
    structured_estimate_only(monkeypatch)
    nlp = make_nlp(name, N=16, form=form, scaled=scaled)
    solve(nlp, initial_guess(nlp, "constant-midpoint"))


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

    monkeypatch.setattr(dense_oracle, "lstsq", counted_lstsq)
    res = solve(nlp, np.zeros(3))
    assert res.converged, res.status
    assert qr_calls and set(qr_calls) == {"gelsy"}
    ref = np.linalg.lstsq(jac.T, -nlp.objective_gradient(res.z), rcond=None)[0]
    assert np.allclose(res.multipliers, ref, rtol=1e-12, atol=1e-12)
    # minimum norm splits the constraint's multiplier evenly between its copies
    assert res.multipliers[0] == pytest.approx(res.multipliers[2], abs=1e-12)


def test_nearly_dependent_rows_take_pivoted_qr_without_a_structured_step():
    # cond(J_w) ~ 1e7 and the dense estimate: pivoted QR matches the SVD
    # solution where the normal equations, corrected once, would be off by
    # ~2e-4
    rng = np.random.default_rng(0)
    jac = rng.standard_normal((5, 9))
    jac[4] = jac[0] + 1e-7 * rng.standard_normal(9)
    g = rng.standard_normal(9)
    ref = np.linalg.lstsq(jac.T, -g, rcond=None)[0]
    mu = dense_oracle.dense_estimate(jac, g, np.ones(5, dtype=bool))
    assert np.linalg.norm(mu - ref) <= 1e-7 * np.linalg.norm(ref)


def test_corrected_multipliers_reach_closed_form_costates():
    # the multipliers come from the condensed estimate, whose LU solves are
    # refined once; the costates then match the closed form to
    # within the discretization error
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


PROVEN_FORMS = [("a", False), ("a_star", False), ("a", True)]
PROVEN_IDS = [f"{f}{'+scaled' * s}" for f, s in PROVEN_FORMS]


@pytest.mark.parametrize("N", [8, 64, 256])
@pytest.mark.parametrize("form, scaled", PROVEN_FORMS, ids=PROVEN_IDS)
@pytest.mark.parametrize("name", ["double-integrator-energy", "scalar-lq"])
def test_lq_problems_as_defined_take_one_newton_iteration(name, form, scaled, N):
    # the running cost is the quadrature w^T L in the objective, so the NLP
    # is an equality-constrained QP: one Newton step solves it
    ocp = registry(name)
    nlp = transcribe(ocp, build_birkhoff(make_grid("lgl", N, ocp.horizon)),
                     PrimalForm(form, scaled=scaled))
    assert nlp.n_x == ocp.n_x  # no cost state
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, res.status
    assert res.iterations == 1


@pytest.mark.parametrize("form", ["a", "b"])
@pytest.mark.parametrize("kind", ["lgl", "cgl"])
def test_prepared_nonlinear_problem_on_scaled_forms_takes_four_newton_iterations(kind, form):
    # the coordinate-basis multipliers of the optimality test do not depend
    # on the stored-variable metric; least-squares multipliers in the
    # w-scaled variables took 19 (LGL) and 20 (CGL) iterations here
    nlp = make_nlp("nonlinear-scalar", N=256, form=form, scaled=True, kind=kind)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, res.status
    assert res.iterations == 4


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


def dense_system(nlp, jac, r, g):
    """``nlp``'s Newton system solved by the dense oracle on the assembled
    Jacobian, and on the assembled Hessian of the step's node blocks: the
    coordinate-basis estimate and the full KKT step."""
    dense = jac @ np.eye(nlp.n_z)

    def estimate(working):
        return dense_oracle.dense_coordinate_estimate(nlp, dense, g, working)

    def step(hess, working):
        hess = dense_oracle.assembled_hessian(nlp, hess)
        return dense_oracle.dense_newton_step(hess, dense, g, r, working)

    return SimpleNamespace(estimate=estimate, step=step)


class DenseOnly:
    """An NLP that takes the solver's dense Newton step; everything else
    forwarded."""

    def __init__(self, nlp):
        self._nlp = nlp

    def newton_system(self, jac, r, g):
        return dense_system(self._nlp, jac, r, g)

    def __getattr__(self, name):
        return getattr(self._nlp, name)


def counting_dense_solves(monkeypatch):
    """The list that gets an entry on each dense estimate and step."""
    calls = []
    for name in ("dense_coordinate_estimate", "dense_newton_step"):
        dense = getattr(dense_oracle, name)
        monkeypatch.setattr(dense_oracle, name,
                            lambda *args, dense=dense: calls.append(1) or dense(*args))
    return calls


@STAGINGS
@pytest.mark.parametrize("name", registry_names())
def test_condensed_and_dense_steps_take_the_same_iteration(name, staging, monkeypatch):
    # as defined is the problem that `birktraj solve` transcribes
    dense_calls = counting_dense_solves(monkeypatch)
    ocp = staging(name)
    nlp = transcribe(ocp, build_birkhoff(make_grid("lgl", 32, ocp.horizon)), PrimalForm("a"))
    z0 = initial_guess(nlp, "linear-endpoint-interpolation")
    condensed = solve(nlp, z0)
    assert condensed.converged and not dense_calls  # every step was condensed
    dense = solve(DenseOnly(nlp), z0)
    # an estimate and a step per iteration, and the final estimate
    assert dense.converged and len(dense_calls) == 2 * dense.iterations + 1
    assert condensed.iterations == dense.iterations
    assert [row["step"] for row in condensed.log] == [row["step"] for row in dense.log]
    assert np.max(np.abs(condensed.z - dense.z)) <= 1e-10
    assert np.max(np.abs(condensed.multipliers - dense.multipliers)) <= 1e-10


def test_solve_converges_with_the_dense_step(monkeypatch):
    dense_calls = counting_dense_solves(monkeypatch)
    nlp = make_nlp("double-integrator-energy", N=16)
    monkeypatch.setattr(type(nlp), "newton_system", dense_system)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, res.status
    assert res.iterations > 0 and len(dense_calls) == 2 * res.iterations + 1
    assert res.kkt_residual <= SolverOptions().tol_feas


def released_row_nlp():
    """x(0) = 0, x' = u, cost int u^2 + (x_b - 1)^2 and the bound x_b >= 0.2:
    the guess violates the bound, the first step lands on it, and there its
    multiplier is negative, so the row is released."""
    ocp = prepared(load_problem({
        "n_x": 1, "n_u": 1, "horizon": [0, 1],
        "dynamics": {"A": [[0]], "B": [[1]]},
        "running_cost": {"R": [[1]]},
        "endpoint_cost": {"terms": [{"coef": 1, "xb": [2]}, {"coef": -2, "xb": [1]}]},
        "constraints": [{"a": [1], "rhs": 0}, {"kind": "inequality", "b": [-1], "rhs": -0.2}],
    }))
    return transcribe(ocp, build_birkhoff(make_grid("lgl", 8, ocp.horizon)), PrimalForm("a"))


def counting(monkeypatch, owner, name, calls):
    """Count ``owner.name`` calls in the Counter ``calls[name]``, and the
    factor, regularized_solve and solve calls made within them in
    ``calls["factor in " + name]``, ``calls["regularized_solve in " +
    name]`` and ``calls["solve in " + name]``."""
    method = getattr(owner, name)
    inner = ("factor", "regularized_solve", "solve")

    def counted(*args, **kwargs):
        calls[name] += 1
        before = [calls[k] for k in inner]
        out = method(*args, **kwargs)
        for k, n in zip(inner, before):
            calls[f"{k} in {name}"] += calls[k] - n
        return out

    monkeypatch.setattr(owner, name, counted)


def test_released_row_reuses_the_iterates_linearization(monkeypatch):
    # after the release the estimate is taken again on the same
    # linearization, with no new Jacobian
    nlp = released_row_nlp()
    calls = Counter()
    counting(monkeypatch, nlp, "jacobian", calls)
    counting(monkeypatch, NewtonSystem, "estimate", calls)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, res.status
    assert nlp.unpack(res.z)[4][0] == pytest.approx(0.5, abs=1e-8)
    assert res.multipliers[nlp.rows["endpoint"]][1] == 0.0  # released for good
    assert calls["jacobian"] == res.iterations + 1
    assert calls["estimate"] == calls["jacobian"] + 1  # one release


LINEARIZED = pytest.mark.parametrize(
    "name", ["released-row", "nonlinear-scalar", "double-integrator-energy"]
)


def linearized_nlp(name):
    """The released-row problem, or a registry problem as defined on LGL N = 16."""
    if name == "released-row":
        return released_row_nlp()
    ocp = registry(name)
    return transcribe(ocp, build_birkhoff(make_grid("lgl", 16, ocp.horizon)), PrimalForm("a"))


@LINEARIZED
def test_one_factor_of_m_per_linearization(monkeypatch, name):
    # newton_system factors M once; the estimates and the step on its
    # iterate solve with that factor and factor nothing
    nlp = linearized_nlp(name)
    calls = Counter()
    for owner, method in ((AnchoredBlock, "factor"), (DiscretizedNlp, "newton_system"),
                          (NewtonSystem, "estimate"), (NewtonSystem, "step")):
        counting(monkeypatch, owner, method, calls)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, res.status
    assert calls["newton_system"] == res.iterations + 1 and calls["step"] == res.iterations
    assert calls["estimate"] == calls["newton_system"] + (name == "released-row")
    assert calls["factor"] == calls["factor in newton_system"] == calls["newton_system"]
    assert calls["factor in estimate"] == calls["factor in step"] == 0


@LINEARIZED
def test_newton_system_solves_with_the_factor_twice_and_the_estimate_never(monkeypatch, name):
    # newton_system binds what its iterate fixes: t by one solve with the
    # factor of M, and Z^T g, T's endpoint rows and their multipliers by one
    # adjoint over n + 1 columns; the estimates on its iterate reuse them
    nlp = linearized_nlp(name)
    calls = Counter()
    for owner, method in ((CondensingFactor, "solve"), (DiscretizedNlp, "newton_system"),
                          (NewtonSystem, "estimate")):
        counting(monkeypatch, owner, method, calls)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, res.status
    assert calls["solve in newton_system"] == 2 * calls["newton_system"] > 0
    assert calls["estimate"] >= calls["newton_system"] and calls["solve in estimate"] == 0


@LINEARIZED
def test_one_reduced_kkt_solve_per_step_and_none_per_estimate(monkeypatch, name):
    # the step fills and solves the iterate's one reduced KKT; the estimate
    # takes its multipliers by back-substitution and a least-squares solve
    # over the working endpoint rows alone
    nlp = linearized_nlp(name)
    calls = Counter()
    for owner, method in ((transcription, "regularized_solve"), (NewtonSystem, "estimate"),
                          (NewtonSystem, "step")):
        counting(monkeypatch, owner, method, calls)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, res.status
    assert calls["step"] == res.iterations > 0
    assert calls["regularized_solve"] == calls["regularized_solve in step"] == calls["step"]
    assert calls["estimate"] > calls["step"] and calls["regularized_solve in estimate"] == 0


def test_non_finite_dynamics_in_the_line_search_end_the_solve_infeasible():
    # the dynamics turn NaN at every node with |u| > 5, and the optimum has
    # |u| = 6 at t = 0: the line search halves past each such trial until it
    # gives up, and the solve stops with a status instead of raising
    base = registry("double-integrator-energy")
    non_finite = []

    def dynamics(X, U):
        bad = np.max(np.abs(U), axis=1) > 5.0
        non_finite.extend([1] * bool(bad.any()))
        return np.where(bad[:, None], np.nan, base.dynamics(X, U))

    ocp = prepared(dataclasses.replace(base, dynamics=dynamics))
    nlp = transcribe(ocp, build_birkhoff(make_grid("lgl", 16, ocp.horizon)), PrimalForm("a"))
    res = solve(nlp, initial_guess(nlp))
    assert res.status is SolveStatus.INFEASIBLE
    assert res.iterations == 36 and len(non_finite) == 567
    assert np.max(np.abs(nlp.unpack(res.z)[1])) <= 5.0


# --- every early exit of the solve, with its status -----------------------------


@pytest.mark.parametrize("field, value", [("objective", lambda z: np.nan),
                                          ("constraints", lambda z: np.array([np.inf]))])
def test_non_finite_value_without_an_evaluation_error_ends_infeasible(field, value):
    # the NLP returns a non-finite number where it could have raised
    res = solve(dataclasses.replace(equality_qp(), **{field: value}), np.zeros(2))
    assert res.status is SolveStatus.INFEASIBLE
    assert res.iterations == 0 and res.kkt_residual == np.inf


@pytest.mark.parametrize("method", ["estimate", "step"])
def test_newton_system_without_a_solution_ends_in_line_search_failure(monkeypatch, method):
    # the estimate's failure leaves no optimality test (inf); the step's
    # comes after the test, whose residual the result keeps
    monkeypatch.setattr(NewtonSystem, method, lambda self, *args: None)
    nlp = make_nlp("scalar-lq")
    res = solve(nlp, initial_guess(nlp))
    assert res.status is SolveStatus.LINE_SEARCH_FAILURE and res.iterations == 0
    if method == "estimate":
        assert res.kkt_residual == np.inf
    else:
        assert SolverOptions().tol_stat < res.kkt_residual < np.inf


def test_exhausted_line_search_at_a_feasible_iterate_is_a_line_search_failure():
    # the gradient has the wrong sign, so the step climbs f = -z^2: every
    # trial is rejected, and with no rows the iterate is feasible
    nlp = SimpleNlp(
        n_z=1,
        objective=lambda z: float(-z[0] ** 2),
        objective_gradient=lambda z: 2.0 * z,
    )
    res = solve(nlp, np.ones(1))
    assert res.status is SolveStatus.LINE_SEARCH_FAILURE
    assert res.iterations == 0 and res.kkt_residual == 2.0


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


# --- dependent and nearly dependent endpoint rows --------------------------------


def solve_and_verify(problem: dict, kind: str, N: int):
    ocp = prepared(load_problem(problem))
    sys = build_birkhoff(make_grid(kind, N, ocp.horizon))
    nlp = transcribe(ocp, sys, PrimalForm("a"))
    res = solve_with_fallback(nlp)
    assert res.converged, (res.status, res.iterations)
    primal = extract_primal(nlp, res.z)
    dual = map_covectors(res, nlp.form, sys)
    report = verify_pontryagin(ocp, primal, dual, sys, verified_variant(nlp.form))
    assert report.passed, report.blocks
    return primal, dual


@pytest.mark.parametrize("N", [4, 8, 16, 32])
def test_duplicated_endpoint_row_converges_at_every_order(N):
    # x_b = 1 written twice: the reduced KKT of the condensed step is
    # singular, and its shifted solution stops short unless it is refined
    # against the unshifted matrix
    once = {"b": [1], "rhs": 1}
    problem = {
        "n_x": 1, "n_u": 1, "horizon": [0, 1],
        "dynamics": {"A": [[0]], "B": [[1]]},
        "running_cost": {"Q": [[0]], "R": [[1]]},
        "constraints": [{"a": [1], "rhs": 0}, once, once],
    }
    primal, dual = solve_and_verify(problem, "lgl", N)
    assert primal.objective == pytest.approx(1.0, abs=1e-8)
    # the estimate's multipliers of the endpoint rows are minimum-norm, so
    # each copy carries half of the one row's multiplier
    _, single = solve_and_verify({**problem, "constraints": problem["constraints"][:2]}, "lgl", N)
    assert dual.endpoint[1] == pytest.approx(0.5 * single.endpoint[1], abs=1e-8)
    assert dual.endpoint[2] == pytest.approx(0.5 * single.endpoint[1], abs=1e-8)


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("kind", ["lgl", "cgl"])
def test_nearly_dependent_endpoint_rows_converge_and_verify(kind, N):
    # (1, 0) x_b = 1 and (1, 1e-4) x_b = 1 pin x_b = (1, 0) through rows
    # 1e-4 apart; the refinement in every LU solve keeps the estimate and
    # the step accurate
    problem = {
        "n_x": 2, "n_u": 1, "horizon": [0, 1],
        "dynamics": {"A": [[0, 1], [0, 0]], "B": [[0], [1]]},
        "running_cost": {"R": [[0.5]]},
        "constraints": [
            {"a": [1, 0], "rhs": 0}, {"a": [0, 1], "rhs": 0},
            {"b": [1, 0], "rhs": 1}, {"b": [1, 1e-4], "rhs": 1},
        ],
    }
    primal, dual = solve_and_verify(problem, kind, N)
    assert primal.objective == pytest.approx(6.0, rel=1e-8)
    assert np.allclose(dual.endpoint, [12.0, 6.0, -60012.0, 60000.0, -1.0], rtol=1e-6)
