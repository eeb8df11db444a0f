import dataclasses
import functools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birktraj import (
    DegenerateWeightError,
    DomainMismatchError,
    DualVariant,
    EvaluationError,
    IncompleteDerivativesError,
    NotFoundError,
    OcpDefinition,
    PrimalForm,
    RunningCost,
    ShapeError,
    SolverOptions,
    SolveStatus,
    UnsupportedProblemError,
    build_birkhoff,
    extract_primal,
    initial_guess,
    load_problem,
    loglog_slope,
    make_grid,
    map_covectors,
    prepared,
    registry,
    registry_names,
    solve,
    solve_indirect,
    solve_with_fallback,
    transcribe,
    transcription,
)
from birktraj.ocp import FD_STEP, _central_jacobian, pinned_endpoints
from birktraj.transcription import AnchoredBlock, add_unit_columns, endpoint_seed
from dense_oracle import (
    assembled_hessian,
    assembled_jacobian,
    dense_newton_step,
    fd_lagrangian_hessian,
    step_path,
    stored_column_scale,
)


def scalar_mayer():
    # scalar problem with no running cost, for layout arithmetic
    return OcpDefinition(
        name="scalar-mayer",
        n_x=1,
        n_u=1,
        horizon=(0.0, 1.0),
        dynamics=lambda X, U: U.copy(),
        jac_fx=lambda X, U: np.zeros((len(X), 1, 1)),
        jac_fu=lambda X, U: np.ones((len(X), 1, 1)),
        endpoint_cost=lambda x_a, x_b: float(x_b[0]),
        grad_cost_xa=lambda x_a, x_b: np.zeros(1),
        grad_cost_xb=lambda x_a, x_b: np.ones(1),
        constraints=pinned_endpoints(1, x_a_fixed=[0.0], x_b_fixed=[1.0]),
    )


def prepared_registry(name):
    return prepared(registry(name))


def make_nlp(name="double-integrator-energy", N=8, form="a", scaled=False, kind="lgl",
             staging=prepared_registry):
    ocp = staging(name)
    sys = build_birkhoff(make_grid(kind, N, ocp.horizon))
    return transcribe(ocp, sys, PrimalForm(form, scaled=scaled))


def test_layout_counts_scalar_example():
    nlp = transcribe(
        scalar_mayer(), build_birkhoff(make_grid("lgl", 10, (0.0, 1.0))), PrimalForm("a")
    )
    assert nlp.n_z == 35
    assert list(nlp.rows) == ["state_interpolation", "dynamics", "grid_equivalency", "endpoint"]
    assert nlp.rows["grid_equivalency"].stop == 23  # interpolation + dynamics + equivalency
    assert nlp.n_rows == 25  # two pinned endpoint rows
    assert nlp.equality_mask.all()


def test_form_validation():
    assert PrimalForm("a_star").tag.starred
    assert str(PrimalForm("b", scaled=True)) == "b+scaled"
    with pytest.raises(UnsupportedProblemError):
        PrimalForm("a_star", scaled=True)
    with pytest.raises(ValueError):
        PrimalForm("c")


def test_domain_and_grid_preconditions():
    ocp = registry("zero-dynamics")
    with pytest.raises(DomainMismatchError):
        transcribe(ocp, build_birkhoff(make_grid("lgl", 8, (0.0, 2.0))), PrimalForm("a"))


def test_unknown_form_tag_is_a_package_error():
    with pytest.raises(UnsupportedProblemError, match="unknown form tag 'x'"):
        PrimalForm("x")


@pytest.mark.parametrize("form, scaled", [("a_star", False), ("b_star", False), ("a", True),
                                          ("b", True)])
def test_zero_weight_is_refused_where_the_form_weights_by_it(form, scaled):
    # no make_grid grid has a zero weight: only a hand-built system reaches it
    ocp = prepared(registry("double-integrator-energy"))
    sys = build_birkhoff(make_grid("lgl", 6, ocp.horizon))
    sys = dataclasses.replace(sys, w_B=np.where(np.arange(7) == 3, 0.0, sys.w_B))
    with pytest.raises(DegenerateWeightError, match="zero quadrature weight"):
        transcribe(ocp, sys, PrimalForm(form, scaled=scaled))
    transcribe(ocp, sys, PrimalForm(form[0]))  # the plain rows carry no weight


def test_feasibility_tolerance_floor():
    # the solver options are the one home of the feasibility tolerance
    assert SolverOptions().tol_feas == 2e-8
    with pytest.raises(UnsupportedProblemError):
        SolverOptions(tol_feas=1e-9)


@pytest.mark.parametrize("field", ["tol_stat", "tol_feas"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_tolerances_must_be_finite_and_positive(field, value):
    with pytest.raises(UnsupportedProblemError, match="not a finite positive number"):
        SolverOptions(**{field: value})


def test_negative_iteration_cap_refused():
    assert SolverOptions().max_iter == 60
    SolverOptions(max_iter=0)  # no iterations is a valid cap
    with pytest.raises(UnsupportedProblemError):
        SolverOptions(max_iter=-1)


def test_zero_dynamics_feasible_point_has_zero_residuals():
    ocp = registry("zero-dynamics")
    sys = build_birkhoff(make_grid("lgl", 6, ocp.horizon))
    nlp = transcribe(ocp, sys, PrimalForm("a"))
    x_a = np.array([1.0])
    z = nlp.pack(np.ones((7, 1)), np.zeros((7, 0)), np.zeros((7, 1)), x_a, x_a)
    r = nlp.constraints(z)
    assert np.all(r == 0.0)


def test_dynamics_rows_vanish_when_v_matches_f():
    nlp = make_nlp(N=6)
    rng = np.random.default_rng(0)
    m, n = nlp.n_nodes, nlp.n_x
    X = rng.normal(size=(m, n))
    U = rng.normal(size=(m, nlp.n_u))
    V = nlp.ocp.dynamics(X, U)
    z = nlp.pack(X, U, V, rng.normal(size=n), rng.normal(size=n))
    r = nlp.constraints(z)
    assert np.max(np.abs(r[nlp.rows["dynamics"]])) == 0.0


@pytest.mark.parametrize("plain, starred", [("a", "a_star"), ("b", "b_star")])
def test_starred_residuals_are_weighted_plain_residuals(plain, starred):
    nlp_p = make_nlp(form=plain, N=12)
    nlp_s = make_nlp(form=starred, N=12)
    rng = np.random.default_rng(7)
    z = rng.normal(size=nlp_p.n_z)
    r_p = nlp_p.constraints(z)
    r_s = nlp_s.constraints(z)
    w_rows = np.ones(nlp_p.n_rows)
    w_rep = np.repeat(nlp_p.sys.w_B, nlp_p.n_x)
    w_rows[nlp_p.rows["state_interpolation"]] = w_rep
    w_rows[nlp_p.rows["dynamics"]] = w_rep
    # bit-for-bit: the starred path is the plain path times the weights
    assert np.array_equal(r_s, w_rows * r_p)


def test_scaled_and_plain_impose_identical_constraints():
    nlp_p = make_nlp(form="a", N=8)
    nlp_s = make_nlp(form="a", scaled=True, N=8)
    rng = np.random.default_rng(3)
    m, n = nlp_p.n_nodes, nlp_p.n_x
    X = rng.normal(size=(m, n))
    U = rng.normal(size=(m, nlp_p.n_u))
    V = rng.normal(size=(m, n))
    x_a, x_b = rng.normal(size=n), rng.normal(size=n)
    r_p = nlp_p.constraints(nlp_p.pack(X, U, V, x_a, x_b))
    r_s = nlp_s.constraints(nlp_s.pack(X, U, V, x_a, x_b))
    assert np.max(np.abs(r_p - r_s)) < 1e-12


@pytest.mark.parametrize("staging", [registry, prepared_registry], ids=["as-defined", "prepared"])
@pytest.mark.parametrize(
    "form, scaled",
    [("a", False), ("b", False), ("a_star", False), ("b_star", False), ("a", True), ("b", True)],
)
def test_jacobian_matches_finite_differences(form, scaled, staging):
    nlp = make_nlp(form=form, scaled=scaled, N=5, staging=staging)
    rng = np.random.default_rng(11)
    z = rng.normal(size=nlp.n_z) * 0.5 + 0.1
    jac = nlp.jacobian(z) @ np.eye(nlp.n_z)
    h = 1e-6
    fd = np.zeros_like(jac)
    for j in range(nlp.n_z):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fd[:, j] = (nlp.constraints(zp) - nlp.constraints(zm)) / (2 * h)
    err = np.max(np.abs(jac - fd)) / max(1.0, np.max(np.abs(fd)))
    assert err < 1e-5


def test_linear_dynamics_jacobian_is_constant():
    nlp = make_nlp("scalar-lq", N=6)  # augmented dynamics are quadratic in u only
    rng = np.random.default_rng(5)
    z1, z2 = rng.normal(size=nlp.n_z), rng.normal(size=nlp.n_z)
    j1, j2 = (nlp.jacobian(z) @ np.eye(nlp.n_z) for z in (z1, z2))
    cols_u = nlp.slice_u
    mask = np.ones(nlp.n_z, dtype=bool)
    mask[cols_u] = False
    assert np.array_equal(j1[:, mask], j2[:, mask])


FORMS = [("a", False), ("b", False), ("a_star", False), ("b_star", False), ("a", True),
         ("b", True)]
FORM_IDS = [f"{f}{'+scaled' * s}" for f, s in FORMS]


def random_iterate(nlp, seed):
    rng = np.random.default_rng(seed)
    return rng, rng.normal(size=nlp.n_z) * 0.5 + 0.1


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
def test_jacobian_products_are_the_whole_assembly(form, scaled, name):
    # equal in value; a product may give -0.0 where the assembly has 0.0
    nlp = make_nlp(name, form=form, scaled=scaled, N=7)
    _, z = random_iterate(nlp, 17)
    assert np.array_equal(nlp.jacobian(z) @ np.eye(nlp.n_z), assembled_jacobian(nlp, z))


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
def test_hessian_products_are_the_whole_assembly(form, scaled, name):
    # the problem as defined, so K carries w_i L; hessian_times works in
    # physical variables: the column scale on both sides gives the matrix
    # wrt stored variables
    ocp = registry(name)
    nlp = transcribe(ocp, build_birkhoff(make_grid("lgl", 7, ocp.horizon)),
                     PrimalForm(form, scaled=scaled))
    rng, z = random_iterate(nlp, 23)
    hess = nlp.lagrangian_hessian(z, rng.normal(size=nlp.n_rows))
    cols = np.stack([nlp.hessian_times(hess, e) for e in np.eye(nlp.n_z)], axis=1)
    col = stored_column_scale(nlp)
    if col is not None:
        cols *= col[:, None]
        cols *= col[None, :]
    assert np.array_equal(cols, assembled_hessian(nlp, hess))


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
def test_node_block_products_match_the_dense_jacobian(form, scaled, name):
    nlp = make_nlp(name, form=form, scaled=scaled, N=9, kind="cgl")
    rng, z = random_iterate(nlp, 19)
    jac = nlp.jacobian(z)
    dense = assembled_jacobian(nlp, z)
    mu, v = rng.normal(size=nlp.n_rows), rng.normal(size=nlp.n_z)
    for got, want in ((jac.T @ mu, dense.T @ mu), (jac @ v, dense @ v)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_non_finite_jacobian_blocks_raise_in_jacobian():
    ocp = prepared(registry("double-integrator-energy"))
    sys = build_birkhoff(make_grid("lgl", 6, ocp.horizon))

    def poisoned(fn, node):
        def callback(X, U):
            out = np.array(fn(X, U), dtype=float)
            out[node] = np.nan
            return out

        return callback

    for name in ("jac_fx", "jac_fu"):
        bad = dataclasses.replace(ocp, **{name: poisoned(getattr(ocp, name), 3)})
        nlp = transcribe(bad, sys, PrimalForm("a"))
        z = initial_guess(nlp)
        nlp.constraints(z)  # the residual itself is finite
        with pytest.raises(EvaluationError, match="node 3"):
            nlp.jacobian(z)
        assert solve(nlp, z).status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("name, what", [("jac_fx", "Hamiltonian curvature"),
                                        ("grad_cost_xb", "endpoint Lagrangian curvature")])
def test_non_finite_curvature_raises_and_ends_the_solve_infeasible(name, what):
    # finite at real arguments, NaN at the complex steps of the curvature:
    # the Jacobian and gradient are finite, the Hessian of the Lagrangian
    # is not
    ocp = registry("nonlinear-scalar")
    fn = getattr(ocp, name)

    nan = complex(np.nan, np.nan)

    def stepped_nan(*args):
        out = fn(*args)
        if not any(np.imag(a).any() for a in args):
            return out
        if name == "jac_fx":  # the stepped nodes
            return np.where((np.imag(args[0]) != 0).any(axis=1)[:, None, None], nan, out)
        return np.full(np.shape(out), nan)

    nlp = transcribe(dataclasses.replace(ocp, **{name: stepped_nan}),
                     build_birkhoff(make_grid("lgl", 16, ocp.horizon)), PrimalForm("a"))
    z = initial_guess(nlp)
    nlp.jacobian(z), nlp.objective_gradient(z)  # finite
    with pytest.raises(EvaluationError, match=what):
        nlp.lagrangian_hessian(z, np.ones(nlp.n_rows))
    res = solve(nlp, z)
    assert res.status is SolveStatus.INFEASIBLE and res.iterations == 0


def test_non_finite_endpoint_jacobian_ends_the_solve_infeasible():
    ocp = registry("scalar-lq")
    con = ocp.constraints
    bad = dataclasses.replace(ocp, constraints=dataclasses.replace(
        con, jac_xb=lambda x_a, x_b: np.full((con.n_e, 1), np.nan)))
    sys = build_birkhoff(make_grid("lgl", 6, ocp.horizon))
    nlp = transcribe(bad, sys, PrimalForm("a"))
    z = initial_guess(transcribe(ocp, sys, PrimalForm("a")))  # the seed reads the Jacobian
    with pytest.raises(EvaluationError, match="endpoint constraint Jacobian"):
        nlp.jacobian(z)
    res = solve(nlp, z)
    assert res.status is SolveStatus.INFEASIBLE and res.kkt_residual == np.inf


@pytest.mark.parametrize("entry", ["initial_guess", "solve_indirect"])
def test_non_finite_endpoint_jacobian_stops_the_seed(capfd, entry):
    ocp = registry("scalar-lq")
    con = ocp.constraints
    bad = dataclasses.replace(ocp, constraints=dataclasses.replace(
        con, jac_xb=lambda x_a, x_b: np.full((con.n_e, 1), np.nan)))
    sys = build_birkhoff(make_grid("lgl", 6, ocp.horizon))
    with pytest.raises(EvaluationError, match="endpoint constraints or their Jacobian"):
        if entry == "initial_guess":
            initial_guess(transcribe(bad, sys, PrimalForm("a")))
        else:
            solve_indirect(bad, sys, DualVariant("a", "a"))
    # LAPACK reports a non-finite least-squares input on stdout
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("staging", [registry, prepared_registry], ids=["as-defined", "prepared"])
@pytest.mark.parametrize("name", ["nonlinear-scalar", "double-integrator-energy"])
@pytest.mark.parametrize(
    "form, scaled",
    [("a", False), ("b", False), ("a_star", False), ("b_star", False), ("a", True), ("b", True)],
)
def test_lagrangian_hessian_matches_finite_differences(name, form, scaled, staging):
    nlp = make_nlp(name, form=form, scaled=scaled, N=5, staging=staging)
    rng = np.random.default_rng(13)
    z = rng.normal(size=nlp.n_z) * 0.5 + 0.1
    mu = rng.normal(size=nlp.n_rows)
    hess = assembled_hessian(nlp, nlp.lagrangian_hessian(z, mu))
    fd = fd_lagrangian_hessian(nlp, z, mu)
    assert np.array_equal(hess, hess.T)
    err = np.max(np.abs(hess - fd)) / max(1.0, np.max(np.abs(fd)))
    assert err < 1e-6


RUNNING_COST_PROBLEMS = [nm for nm in registry_names() if registry(nm).running_cost is not None]


@pytest.mark.parametrize("name", ["nonlinear-scalar", "double-integrator-energy"])
@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
def test_quadrature_cost_derivatives_match_finite_differences(name, form, scaled):
    # the problem as defined: F = E + w^T L(X, U), no cost state
    ocp = registry(name)
    sys = build_birkhoff(make_grid("lgl", 5, ocp.horizon))
    nlp = transcribe(ocp, sys, PrimalForm(form, scaled=scaled))
    assert nlp.n_x == ocp.n_x
    rng = np.random.default_rng(13)
    z = rng.normal(size=nlp.n_z) * 0.5 + 0.1
    mu = rng.normal(size=nlp.n_rows)
    X, U, _, x_a, x_b = nlp.unpack(z)
    assert nlp.objective(z) == ocp.endpoint_cost(x_a, x_b) + sys.w_B @ ocp.running_cost.fun(X, U)
    g_fd = _central_jacobian(lambda Z: np.array([[nlp.objective(Z[0])]]), z[None], FD_STEP)[0, 0]
    assert np.max(np.abs(nlp.objective_gradient(z) - g_fd)) <= 1e-7
    hess = assembled_hessian(nlp, nlp.lagrangian_hessian(z, mu))
    fd = fd_lagrangian_hessian(nlp, z, mu)
    assert np.array_equal(hess, hess.T)
    assert np.max(np.abs(hess - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-6


def test_transcribe_needs_the_running_cost_gradients():
    # refused when the cost is built, before any transcription
    ocp = registry("scalar-lq")
    with pytest.raises(IncompleteDerivativesError):
        dataclasses.replace(ocp, running_cost=RunningCost(ocp.running_cost.fun))


@pytest.mark.parametrize("form", ["a", "b"])
def test_plain_forms_weigh_the_running_cost_by_a_zero_weight(form):
    # L is weighted per node in the Hessian, never divided out of mu
    ocp = registry("nonlinear-scalar")
    sys = build_birkhoff(make_grid("lgl", 6, ocp.horizon))
    sys = dataclasses.replace(sys, w_B=np.where(np.arange(7) == 3, 0.0, sys.w_B))
    nlp = transcribe(ocp, sys, PrimalForm(form))
    z = initial_guess(nlp, "linear-endpoint-interpolation")
    K, _ = nlp.lagrangian_hessian(z, np.zeros(nlp.n_rows))
    assert np.all(np.isfinite(K))
    assert np.all(K[3] == 0.0) and np.all(K[np.arange(7) != 3, 1, 1] != 0.0)
    assert nlp.objective_gradient(z)[nlp.slice_u][3] == 0.0


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("form, scaled", [("a", False), ("a_star", False), ("a", True)],
                         ids=["a", "a_star", "a+scaled"])
@pytest.mark.parametrize("name", [*RUNNING_COST_PROBLEMS, "bounded-reach"])
def test_quadrature_cost_solve_matches_the_prepared_problem(name, form, scaled, N):
    # prepared(P), the Mayer cost state y' = L, is the reference path
    ocp = load_problem(BOUNDED_REACH) if name == "bounded-reach" else registry(name)
    sys = build_birkhoff(make_grid("lgl", N, ocp.horizon))
    form = PrimalForm(form, scaled=scaled)
    solutions = []
    # the Mayer reference crawls: 62 iterations on bounded-reach at N = 64, form a
    for problem, options in ((ocp, None), (prepared(ocp), SolverOptions(max_iter=200))):
        nlp = transcribe(problem, sys, form)
        res = solve_with_fallback(nlp, options)
        assert res.converged, (problem.n_x, res.status)
        solutions.append((extract_primal(nlp, res.z), map_covectors(res, form, sys)))
    (primal, dual), (mayer_primal, mayer_dual) = solutions
    n = ocp.n_x
    assert dual.costates.shape == (N + 1, n)
    assert abs(primal.objective - mayer_primal.objective) <= 1e-10
    assert np.max(np.abs(dual.costates - mayer_dual.costates[:, :n])) <= 1e-10
    assert np.max(np.abs(dual.endpoint - mayer_dual.endpoint[:-1])) <= 1e-10


def test_evaluation_error_reports_node():
    ocp = registry("nonlinear-scalar")
    bad = prepared(ocp)

    def exploding(X, U):
        return np.full(X.shape, np.inf)

    bad = dataclasses.replace(bad, dynamics=exploding)
    sys = build_birkhoff(make_grid("lgl", 4, ocp.horizon))
    nlp = transcribe(bad, sys, PrimalForm("a"))
    z = initial_guess(nlp, "constant-midpoint")
    with pytest.raises(EvaluationError, match="node 0"):
        nlp.constraints(z)


def test_initial_guess_constant_midpoint():
    nlp = make_nlp("scalar-lq", N=8)
    z = initial_guess(nlp, "constant-midpoint")
    X, U, V, x_a, x_b = nlp.unpack(z)
    # original state midpoint 0.5, appended cost state midpoint 0
    assert np.allclose(X[:, 0], 0.5) and np.allclose(X[:, 1], 0.0)
    assert np.all(V == 0.0) and np.all(U == 0.0)
    assert x_a == pytest.approx([0.0, 0.0])
    assert x_b[0] == pytest.approx(1.0)


def test_initial_guess_linear_interpolation():
    nlp = make_nlp("scalar-lq", N=8)
    z = initial_guess(nlp, "linear-endpoint-interpolation")
    X, _, V, x_a, x_b = nlp.unpack(z)
    tau = nlp.sys.grid.nodes
    assert np.allclose(X[:, 0], tau)
    assert np.allclose(V[:, 0], 1.0)
    assert np.all(np.isfinite(z))


def test_initial_guess_refuses_an_unknown_strategy():
    nlp = make_nlp(N=4)
    for strategy in ("warm-start", "user-supplied"):
        with pytest.raises(NotFoundError):
            initial_guess(nlp, strategy)


def test_pack_unpack_roundtrip_scaled():
    nlp = make_nlp(form="a", scaled=True, N=6)
    rng = np.random.default_rng(2)
    m, n = nlp.n_nodes, nlp.n_x
    X = rng.normal(size=(m, n))
    U = rng.normal(size=(m, nlp.n_u))
    V = rng.normal(size=(m, n))
    x_a, x_b = rng.normal(size=n), rng.normal(size=n)
    X2, U2, V2, xa2, xb2 = nlp.unpack(nlp.pack(X, U, V, x_a, x_b))
    assert np.allclose(X2, X) and np.allclose(U2, U) and np.allclose(V2, V)
    assert np.array_equal(xa2, x_a) and np.array_equal(xb2, x_b)


def test_unpack_refuses_a_vector_of_another_length():
    nlp = make_nlp(N=4)
    with pytest.raises(ShapeError, match=f"decision vector of length {nlp.n_z}"):
        nlp.unpack(np.zeros(nlp.n_z + 1))


def test_endpoint_seed_is_the_origin_without_equality_rows():
    one_inequality = load_problem({
        "n_x": 2, "n_u": 1, "horizon": [0.0, 1.0],
        "dynamics": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0], [1.0]]},
        "constraints": [{"kind": "inequality", "a": [-1.0, 0.0], "rhs": -1.0}],
    }).constraints
    for con in (pinned_endpoints(2), one_inequality):
        x_a, x_b = endpoint_seed(con, 2)
        assert np.array_equal(x_a, np.zeros(2)) and np.array_equal(x_b, np.zeros(2))


def test_extract_primal_feasibility_and_gap():
    ocp = registry("zero-dynamics")
    sys = build_birkhoff(make_grid("lgl", 6, ocp.horizon))
    nlp = transcribe(ocp, sys, PrimalForm("a"))
    one = np.array([1.0])
    z = nlp.pack(np.ones((7, 1)), np.zeros((7, 0)), np.zeros((7, 1)), one, one)
    sol = extract_primal(nlp, z)
    assert sol.feasibility == 0.0
    assert sol.objective == 1.0
    assert np.max(np.abs(sol.x_b - sol.x_a - sys.w_B @ sol.V)) == 0.0


def test_extract_primal_feasibility_is_unweighted_on_starred_forms():
    ocp = prepared(registry("nonlinear-scalar"))
    sys = build_birkhoff(make_grid("cgl", 32, ocp.horizon))
    plain, starred = (transcribe(ocp, sys, PrimalForm(tag)) for tag in ("a", "a_star"))
    z = initial_guess(plain, "linear-endpoint-interpolation")
    assert np.array_equal(z, initial_guess(starred, "linear-endpoint-interpolation"))
    feas = extract_primal(starred, z).feasibility
    assert feas == extract_primal(plain, z).feasibility
    assert feas == pytest.approx(1.0)  # weighted by w, the rows read 0.045


# --- condensed Newton step ---------------------------------------------------------


# x' = u, running cost u^2, x(0) = 0 pinned, x(1) >= 1 as the inequality -x_b + 1 <= 0
BOUNDED_REACH = {
    "name": "bounded-reach",
    "n_x": 1,
    "n_u": 1,
    "horizon": [0.0, 1.0],
    "dynamics": {"A": [[0.0]], "B": [[1.0]]},
    "running_cost": {"R": [[1.0]]},
    "constraints": [
        {"kind": "equality", "a": [1.0], "rhs": 0.0},
        {"kind": "inequality", "b": [-1.0], "rhs": -1.0},
    ],
}


def assert_step_matches_dense(nlp, seed=0):
    rng = np.random.default_rng(seed)
    z = initial_guess(nlp, "linear-endpoint-interpolation") + 0.1 * rng.normal(size=nlp.n_z)
    mu = rng.normal(size=nlp.n_rows)  # a non-optimal iterate: no multiplier fits
    hess, jac = nlp.lagrangian_hessian(z, mu), nlp.jacobian(z)
    g, r = nlp.objective_gradient(z), nlp.constraints(z)
    working = nlp.equality_mask | (r > 0.0)
    dz_ref, mu_ref = dense_newton_step(
        assembled_hessian(nlp, hess), assembled_jacobian(nlp, z), g, r, working
    )
    dz, mu_w = nlp.newton_system(jac, r, g).step(hess, working)
    assert np.max(np.abs(dz - dz_ref)) <= 1e-9 * np.max(np.abs(dz_ref))
    assert np.max(np.abs(mu_w - mu_ref)) <= 1e-9 * np.max(np.abs(mu_ref))
    return working


@pytest.mark.parametrize("staging", [registry, prepared_registry], ids=["as-defined", "prepared"])
@pytest.mark.parametrize("form, scaled", FORMS, ids=[f"{f}{'+scaled' * s}" for f, s in FORMS])
@pytest.mark.parametrize("kind", ["lgl", "cgl", "uniform"])
@pytest.mark.parametrize("name", registry_names())
def test_newton_step_is_the_dense_kkt_step(name, kind, form, scaled, staging):
    assert_step_matches_dense(
        make_nlp(name, N=12, form=form, scaled=scaled, kind=kind, staging=staging)
    )


@pytest.mark.parametrize("form, scaled", FORMS, ids=[f"{f}{'+scaled' * s}" for f, s in FORMS])
def test_newton_step_with_a_working_inequality_row(form, scaled):
    ocp = prepared(load_problem(BOUNDED_REACH))
    nlp = transcribe(ocp, build_birkhoff(make_grid("lgl", 12, ocp.horizon)),
                     PrimalForm(form, scaled=scaled))
    working = assert_step_matches_dense(nlp)
    assert working[nlp.rows["endpoint"]].all()  # the violated bound joined the working set


@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("kind", ["lgl", "cgl", "uniform"])
@pytest.mark.parametrize("name", RUNNING_COST_PROBLEMS)
def test_newton_step_of_the_quadrature_cost_is_the_dense_kkt_step(name, kind, form, scaled):
    ocp = registry(name)
    sys = build_birkhoff(make_grid(kind, 12, ocp.horizon))
    assert_step_matches_dense(transcribe(ocp, sys, PrimalForm(form, scaled=scaled)))


@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
def test_quadrature_cost_newton_step_with_a_working_inequality_row(form, scaled):
    ocp = load_problem(BOUNDED_REACH)
    nlp = transcribe(ocp, build_birkhoff(make_grid("lgl", 12, ocp.horizon)),
                     PrimalForm(form, scaled=scaled))
    working = assert_step_matches_dense(nlp)
    assert working[nlp.rows["endpoint"]].all()


def quartic_chain(power):
    """x1' = x2, x2' = u with the running cost x^power + u^2 over the states
    (a list of two exponents): only the states with an exponent of 4 curve,
    and x1 reads x2."""
    return load_problem({
        "name": "quartic-chain", "n_x": 2, "n_u": 1, "horizon": [0.0, 1.0],
        "dynamics": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
        "running_cost": {"terms": [{"coef": 1.0, "x": power, "u": [0]},
                                   {"coef": 1.0, "x": [0, 0], "u": [2]}]},
        "constraints": [{"a": [1.0, 0.0], "rhs": 1.0}, {"a": [0.0, 1.0], "rhs": 0.0},
                        {"b": [1.0, 0.0], "rhs": 0.0}],
    })


@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("power", [[4, 0], [0, 4]], ids=["x1-curves", "x2-curves"])
def test_newton_step_where_some_states_curve_is_the_dense_kkt_step(power, form, scaled):
    # x1 curving needs T's rows of x2, which it reads, too; x2 curving needs
    # its own rows alone
    ocp = quartic_chain(power)
    nlp = transcribe(ocp, build_birkhoff(make_grid("lgl", 12, ocp.horizon)),
                     PrimalForm(form, scaled=scaled))
    assert_step_matches_dense(nlp)


BACKWARD_FORMS = [("a", False), ("a", True), ("b", True), ("b_star", False)]


@pytest.mark.parametrize("form, scaled", BACKWARD_FORMS,
                         ids=[f"{f}{'+scaled' * s}" for f, s in BACKWARD_FORMS])
@pytest.mark.parametrize("N", [12, 24, 48])
@pytest.mark.parametrize("kind", ["lgl", "cgl"])
@pytest.mark.parametrize("name", ["nonlinear-scalar", "double-integrator-energy"])
def test_newton_step_is_backward_stable_on_the_dense_kkt_matrix(name, kind, N, form, scaled):
    # the forward check of assert_step_matches_dense is bounded by cond(K),
    # which grows with N; the normwise backward error of x = (dz, mu_w) on
    # K = [[H, J_w^T], [J_w, 0]] is not
    assert_step_is_backward_stable(name, kind, N, form, scaled)


@pytest.mark.parametrize("form, scaled", BACKWARD_FORMS,
                         ids=[f"{f}{'+scaled' * s}" for f, s in BACKWARD_FORMS])
@pytest.mark.parametrize("N", [12, 24, 48])
@pytest.mark.parametrize("kind", ["lgl", "cgl"])
@pytest.mark.parametrize("name", ["nonlinear-scalar", "double-integrator-energy"])
def test_krylov_newton_step_is_backward_stable_on_the_dense_kkt_matrix(monkeypatch, name, kind,
                                                                       N, form, scaled):
    step_path(monkeypatch, "krylov")
    assert_step_is_backward_stable(name, kind, N, form, scaled)


def assert_step_is_backward_stable(name, kind, N, form, scaled):
    ocp = registry(name)
    nlp = transcribe(ocp, build_birkhoff(make_grid(kind, N, ocp.horizon)),
                     PrimalForm(form, scaled=scaled))
    rng = np.random.default_rng(0)  # the iterate of assert_step_matches_dense
    z = initial_guess(nlp, "linear-endpoint-interpolation") + 0.1 * rng.normal(size=nlp.n_z)
    mu = rng.normal(size=nlp.n_rows)
    hess, jac = nlp.lagrangian_hessian(z, mu), nlp.jacobian(z)
    g, r = nlp.objective_gradient(z), nlp.constraints(z)
    working = nlp.equality_mask | (r > 0.0)
    jac_w = assembled_jacobian(nlp, z)[working]
    m = jac_w.shape[0]
    kkt = np.block([[assembled_hessian(nlp, hess), jac_w.T], [jac_w, np.zeros((m, m))]])
    rhs = np.concatenate([-g, -r[working]])
    x = np.concatenate(nlp.newton_system(jac, r, g).step(hess, working))
    residual = np.max(np.abs(kkt @ x - rhs))
    scale = np.max(np.abs(kkt)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    assert residual <= 1e-13 * scale


def first_iterate(nlp):
    """The solver's first iterate: the constant-midpoint guess, its
    linearization, the system's multiplier estimate there, and the Hessian
    and working rows at that estimate, as (system, hess, working)."""
    z = initial_guess(nlp)
    jac, r, g = nlp.jacobian(z), nlp.constraints(z), nlp.objective_gradient(z)
    working = nlp.equality_mask | (r > 0.0)
    system = nlp.newton_system(jac, r, g)
    mu = np.zeros(nlp.n_rows)
    mu[working] = system.estimate(working)
    return system, nlp.lagrangian_hessian(z, mu), working


def both_steps(monkeypatch, system, hess, working):
    """The step by the Krylov path, which must not fall back, and by the
    dense path, on one system."""
    filled = step_path(monkeypatch, "krylov")
    krylov = system.step(hess, working)
    assert not filled
    step_path(monkeypatch, "dense")
    return krylov, system.step(hess, working)


def assert_steps_agree(got, want, tol):
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


@pytest.mark.parametrize("staging", [registry, prepared_registry], ids=["as-defined", "prepared"])
@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("kind", ["lgl", "cgl"])
@pytest.mark.parametrize("name", registry_names())
def test_krylov_step_is_the_dense_step_at_n_256(monkeypatch, name, kind, form, scaled, staging):
    # at the solver's first iterate, where the reduced Hessian is positive
    # definite on every registry problem, so no step falls back
    nlp = make_nlp(name, N=256, form=form, scaled=scaled, kind=kind, staging=staging)
    assert_steps_agree(*both_steps(monkeypatch, *first_iterate(nlp)), 1e-10)


@pytest.mark.parametrize("staging", [registry, prepared_registry], ids=["as-defined", "prepared"])
@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("kind", ["lgl", "cgl", "uniform"])
@pytest.mark.parametrize("name", registry_names())
def test_krylov_newton_step_is_the_dense_kkt_step(monkeypatch, name, kind, form, scaled,
                                                  staging):
    # the matrix of test_newton_step_is_the_dense_kkt_step, at a random
    # iterate: where its reduced Hessian is not positive definite the
    # Krylov path falls back to the dense one
    step_path(monkeypatch, "krylov")
    assert_step_matches_dense(
        make_nlp(name, N=12, form=form, scaled=scaled, kind=kind, staging=staging)
    )


# x' = -x^3/2 + u with Q, R and an endpoint cost quadratic in x_a and x_b:
# the Hessian curves in the state and at both endpoints
FREE_ENDS = {
    "name": "free-ends", "n_x": 1, "n_u": 1, "horizon": [0.0, 1.0],
    "dynamics": {"terms": [[{"coef": -0.5, "x": [3]}, {"coef": 1.0, "u": [1]}]]},
    "running_cost": {"Q": [[0.5]], "R": [[1.0]]},
    "endpoint_cost": {"terms": [{"coef": 1.0, "xa": [2]}, {"coef": -2.0, "xa": [1]},
                                {"coef": 2.0, "xb": [2]}, {"coef": 2.0, "xb": [1]}]},
}


@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
def test_krylov_step_with_endpoint_curvature_is_the_dense_step(monkeypatch, form, scaled):
    # K_end enters A through T_end on the Krylov path
    ocp = load_problem(FREE_ENDS)
    nlp = transcribe(ocp, build_birkhoff(make_grid("lgl", 64, ocp.horizon)),
                     PrimalForm(form, scaled=scaled))
    system, hess, working = first_iterate(nlp)
    assert hess[1].any()
    assert_steps_agree(*both_steps(monkeypatch, system, hess, working), 1e-10)


@pytest.mark.parametrize("N", [16, 1024])
def test_krylov_iterations_stay_few_at_every_order(monkeypatch, N):
    # the conjugate gradients take no more iterations at N = 1024 than at
    # N = 16 (6 on every step of both solves)
    filled = step_path(monkeypatch, "krylov")
    iterations, pcg = [], transcription._pcg

    def counted(*args):
        out = pcg(*args)
        iterations.append(out[1])
        return out

    monkeypatch.setattr(transcription, "_pcg", counted)
    nlp = make_nlp("nonlinear-scalar", N=N, staging=registry)
    res = solve(nlp, initial_guess(nlp))
    assert res.converged and res.iterations == 4
    assert not filled and len(iterations) >= res.iterations
    assert 0 < max(iterations) <= 9


@pytest.mark.parametrize("why", ["negative-curvature", "iteration-cap"])
def test_krylov_fallback_is_the_dense_step(monkeypatch, why):
    # p^T A p <= 0 on the negated Hessian, and no column converges in one
    # iteration where the Hessian curves: the step is the dense path's,
    # bit for bit
    system, (K, k_end), working = first_iterate(make_nlp("nonlinear-scalar", N=64,
                                                         staging=registry))
    hess = (-K, -k_end) if why == "negative-curvature" else (K, k_end)
    if why == "iteration-cap":
        monkeypatch.setattr(transcription, "KRYLOV_MAX_ITER", 1)
    filled = step_path(monkeypatch, "krylov")
    got = system.step(hess, working)
    assert filled == [1]
    step_path(monkeypatch, "dense")
    for a, b in zip(got, system.step(hess, working)):
        assert np.array_equal(a, b)


def step_args(nlp, z, mu):
    """The solver's arguments at z to ``newton_system`` and to its system's
    step, ((jac, r, g), (hess, working)); the estimate takes the working
    rows alone."""
    hess, jac = nlp.lagrangian_hessian(z, mu), nlp.jacobian(z)
    g, r = nlp.objective_gradient(z), nlp.constraints(z)
    return (jac, r, g), (hess, nlp.equality_mask | (r > 0.0))


def test_hessian_and_newton_steps_build_no_square_matrix():
    nlp = make_nlp("nonlinear-scalar", N=128)
    z = initial_guess(nlp, "linear-endpoint-interpolation")
    linearization, (_, working) = step_args(
        nlp, z, np.random.default_rng(6).normal(size=nlp.n_rows)
    )
    tracemalloc.start()
    try:
        system = nlp.newton_system(*linearization)
        hess = nlp.lagrangian_hessian(z, np.ones(nlp.n_rows))
        system.estimate(working)
        system.step(hess, working)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense n_z x n_z Hessian alone would take 8 n_z^2 bytes
    assert peak < 8 * nlp.n_z**2 / 2


def dense_condensation(nlp, jac, r):
    """Z = [T; I] over p = (dU, dx_anchor) as a dense n_z x n_p matrix, and
    t, built the way one condensation of every unit column does it: one
    :meth:`AnchoredBlock.factor` of F_x and one :meth:`AnchoredBlock.eliminate`
    of T's unit columns, the dU ones as :meth:`AnchoredBlock.control_columns`,
    and t over the rows X, V, x_a and x_b, in physical variables."""
    m, n, n_u = nlp.n_nodes, nlp.n_x, nlp.n_nodes * nlp.n_u
    mn, c = m * n, n_u + n + 1
    r = r / nlp._row_scale
    r1, r2, r3 = (r[nlp.rows[k]] for k in ("state_interpolation", "dynamics", "grid_equivalency"))
    T = np.empty((2 * mn + 2 * n, c))
    X, V = T[:mn].reshape(m, n, c), T[mn:2 * mn].reshape(m, n, c)
    V[..., :-1], V[..., -1] = 0.0, -r2.reshape(m, n)
    anchor, other = nlp.state.ends(*T[2 * mn:].reshape(2, n, c))
    anchor[...] = np.eye(n, c, n_u)
    factor = nlp.state.factor(jac.fx)
    assert factor is not None
    nlp.state.control_columns(jac.fu, X[..., :n_u])
    add_unit_columns(V, jac.fu)
    nlp.state.eliminate(factor, jac.fx, X, V, anchor, other, r1, r3, n_u)
    Z = np.zeros((nlp.n_z, c))
    Z[nlp.slice_x], Z[nlp.slice_v], Z[nlp.slice_xa.start:] = T[:mn], T[mn:2 * mn], T[2 * mn:]
    Z[nlp.slice_u, :n_u] = np.eye(n_u)
    return Z[:, :-1], Z[:, -1]


def condensation_case(name, kind, form, scaled, staging):
    """An NLP at a random iterate, its Newton system there, the dense Z and
    t of :func:`dense_condensation`, random columns P over p and S over z,
    and the objective gradient in physical variables."""
    nlp = make_nlp(name, N=12, form=form, scaled=scaled, kind=kind, staging=staging)
    rng = np.random.default_rng(5)
    z = initial_guess(nlp, "linear-endpoint-interpolation") + 0.1 * rng.normal(size=nlp.n_z)
    jac, r, g = nlp.jacobian(z), nlp.constraints(z), nlp.objective_gradient(z)
    Z, t = dense_condensation(nlp, jac, r)
    return (nlp.newton_system(jac, r, g), Z, t,
            rng.normal(size=(Z.shape[1], 3)), rng.normal(size=(nlp.n_z, 3)), g / nlp._col_scale)


def condensation_cases(test):
    """Parametrize ``test`` over the problems as defined and prepared, the
    six forms, LGL and CGL, and the registry problems."""
    for mark in (
        pytest.mark.parametrize("staging", [registry, prepared_registry],
                                ids=["as-defined", "prepared"]),
        pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS),
        pytest.mark.parametrize("kind", ["lgl", "cgl"]),
        pytest.mark.parametrize("name", registry_names()),
    ):
        test = mark(test)
    return test


@condensation_cases
def test_forward_and_adjoint_products_are_the_dense_condensation(name, kind, form, scaled,
                                                                 staging):
    # Z P and Z^T S with one solve each, and what the system binds at its
    # iterate, against Z and t from every unit column
    system, Z, t, P, S, g = condensation_case(name, kind, form, scaled, staging)
    for got, want in ((system.forward(P), Z @ P), (system.adjoint(S)[0], Z.T @ S),
                      (system.t, t), (system.t_end, Z[system.nlp.slice_xa.start:]),
                      (system.ztg, Z.T @ g)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@condensation_cases
def test_adjoint_product_is_the_transpose_of_the_forward_product(name, kind, form, scaled,
                                                                 staging):
    # <Z p, s> = <p, Z^T s>, column by column
    system, _, _, P, S, _ = condensation_case(name, kind, form, scaled, staging)
    zp, zts = system.forward(P), system.adjoint(S)[0]
    for j in range(P.shape[1]):
        scale = np.linalg.norm(zp[:, j]) * np.linalg.norm(S[:, j])
        assert abs(zp[:, j] @ S[:, j] - P[:, j] @ zts[:, j]) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["double-integrator-energy", "scalar-lq"])
def test_zero_curvature_newton_system_builds_no_condensing_matrix(name):
    # neither problem curves in its states, as defined: its system, estimate
    # and step hold, beyond the reduced KKT and its LU factor, less than half
    # of what T over every p column, n_p columns over T's rows, would take
    nlp = make_nlp(name, N=256, staging=registry)
    z = initial_guess(nlp, "linear-endpoint-interpolation")
    linearization, (_, working) = step_args(
        nlp, z, np.random.default_rng(6).normal(size=nlp.n_rows)
    )
    hess = nlp.lagrangian_hessian(z, np.ones(nlp.n_rows))
    assert not hess[0][:, :nlp.n_x].any()
    tracemalloc.start()
    try:
        system = nlp.newton_system(*linearization)
        system.estimate(working)
        system.step(hess, working)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_p, t_rows = nlp.n_nodes * nlp.n_u + nlp.n_x, nlp.n_z - nlp.n_nodes * nlp.n_u
    n_kkt = n_p + np.count_nonzero(working[nlp.rows["endpoint"]])
    assert peak < 8 * (2 * n_kkt**2 + t_rows * n_p / 2)


@pytest.mark.parametrize("name", ["nonlinear-scalar", "double-integrator-energy", "scalar-lq"])
def test_krylov_step_builds_no_condensing_matrix(monkeypatch, name):
    # the Krylov path holds no T over every p column, not even over the
    # curved states' rows alone, and no matrix of order n_p: its step holds
    # less than half of one n_p x n_p table (the factor of M, which the
    # system holds, is of order N + 1 where a state curves)
    filled = step_path(monkeypatch, "krylov")
    system, hess, working = first_iterate(make_nlp(name, N=256, staging=registry))
    nlp = system.nlp
    tracemalloc.start()
    try:
        system.step(hess, working)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not filled
    n_p = nlp.n_nodes * nlp.n_u + nlp.n_x
    assert peak < 8 * n_p**2 / 2


def test_solve_builds_no_dense_jacobian():
    nlp = make_nlp("nonlinear-scalar", N=128)
    z = initial_guess(nlp, "linear-endpoint-interpolation")
    tracemalloc.start()
    try:
        res = solve(nlp, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.iterations > 1
    # one dense n_rows x n_z Jacobian alone would take 8 n_rows n_z bytes
    assert peak < 8 * nlp.n_rows * nlp.n_z


@pytest.mark.parametrize("form, scaled", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("name", ["double-integrator-energy", "nonlinear-scalar"])
def test_solve_takes_one_jacobian_per_iterate(monkeypatch, name, form, scaled):
    nlp = make_nlp(name, N=16, form=form, scaled=scaled)
    calls, jacobian = [], nlp.jacobian
    monkeypatch.setattr(nlp, "jacobian", lambda z: calls.append(1) or jacobian(z))
    res = solve(nlp, initial_guess(nlp))
    assert res.converged and res.iterations > 1
    assert len(calls) == res.iterations + 1


@pytest.mark.parametrize("name", ["double-integrator-energy", "nonlinear-scalar"])
def test_solve_evaluates_each_trial_point_once(monkeypatch, name):
    # the first iterate, then one evaluation per line-search trial: an
    # accepted trial's values serve the next iterate
    nlp = make_nlp(name, N=16)
    points = {"constraints": [], "objective": []}
    for field, seen in points.items():
        fn = getattr(nlp, field)
        monkeypatch.setattr(nlp, field, lambda z, fn=fn, seen=seen: seen.append(z.copy()) or fn(z))
    res = solve(nlp, initial_guess(nlp))
    assert res.converged and res.iterations > 1
    trials = sum(1 + round(-np.log2(row["step"])) for row in res.log)
    assert len(points["constraints"]) == len(points["objective"]) == 1 + trials
    assert len({z.tobytes() for z in points["constraints"]}) == 1 + trials


@pytest.mark.parametrize("staging", [registry, prepared_registry], ids=["as-defined", "prepared"])
@pytest.mark.parametrize("name", registry_names())
def test_hessian_is_one_hamiltonian_gradient_call_at_every_order(monkeypatch, name, staging):
    # the node curvatures step every column at once; the endpoint's take one
    # single-point evaluation per column of (x_a, x_b)
    calls = {}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(OcpDefinition, "hamiltonian_gradient",
                        counting("hamiltonian_gradient", OcpDefinition.hamiltonian_gradient))
    for N in (4, 32, 256):
        nlp = make_nlp(name, N=N, staging=staging)
        nlp.ocp = dataclasses.replace(
            nlp.ocp, grad_cost_xa=counting("grad_cost_xa", nlp.ocp.grad_cost_xa)
        )
        calls.update(hamiltonian_gradient=0, grad_cost_xa=0)
        nlp.lagrangian_hessian(initial_guess(nlp), np.ones(nlp.n_rows))
        assert calls == {"hamiltonian_gradient": 1, "grad_cost_xa": 2 * nlp.n_x}


def singular_blocks(monkeypatch):
    """Make every diagonal block a condensing factor LU-factors the zero
    matrix; returns the list of their orders, which grows on each."""
    orders = []

    def singular(self, G):
        orders.append(G.shape[0] * G.shape[1])
        return np.zeros((orders[-1],) * 2)

    monkeypatch.setattr(AnchoredBlock, "condensing_matrix", singular)
    return orders


def test_singular_condensing_matrix_gives_no_step(monkeypatch):
    # nonlinear-scalar's M has a coupled block to factor; the linear
    # problems' M factors none
    nlp = make_nlp("nonlinear-scalar", N=8)
    z = initial_guess(nlp, "constant-midpoint")
    linearization, step = step_args(nlp, z, np.random.default_rng(1).normal(size=nlp.n_rows))
    orders = singular_blocks(monkeypatch)
    assert nlp.newton_system(*linearization) is None
    assert orders == [9]
    monkeypatch.undo()
    assert nlp.newton_system(*linearization).step(*step) is not None  # the failed factor was not kept


def test_singular_condensing_matrix_ends_the_solve(monkeypatch):
    # no other route takes the step: the first estimate finds none
    nlp = make_nlp("nonlinear-scalar", N=8)
    orders = singular_blocks(monkeypatch)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert orders
    assert res.status is SolveStatus.LINE_SEARCH_FAILURE and res.kkt_residual == np.inf
    assert res.iterations == 0 and not res.log


def lu_orders(factor):
    """The orders of the diagonal blocks a condensing factor LU-factored."""
    return [lu.shape[0] for _, lu, *_ in factor.groups if lu is not None]


def counted_factors(monkeypatch, nlp):
    """The list that gets, on each factor of ``nlp``'s state block, the
    orders of the blocks it LU-factored."""
    calls, original = [], AnchoredBlock.factor

    def counted(self, G):
        factor = original(self, G)
        if self is nlp.state:
            calls.append(lu_orders(factor))
        return factor

    monkeypatch.setattr(AnchoredBlock, "factor", counted)
    return calls


@pytest.mark.parametrize("form", ["a", "b_star"])
@pytest.mark.parametrize("name", ["double-integrator-energy", "scalar-lq", "nonlinear-scalar"])
def test_one_condensation_per_dynamics_jacobian(monkeypatch, name, form):
    # one linearization per iterate: each iteration's estimate and step
    # share one factor of M, and the final test takes one more.  M is I on
    # scalar-lq (F_x = 0) and triangular on the double integrator (F_x
    # nilpotent); on nonlinear-scalar only x reads itself
    N = 32
    nlp = make_nlp(name, N=N, form=form)
    calls = counted_factors(monkeypatch, nlp)
    res = solve(nlp, initial_guess(nlp))
    assert res.converged and res.iterations > 1
    want = [N + 1] if name == "nonlinear-scalar" else []
    assert calls == [want] * (res.iterations + 1)


@pytest.mark.parametrize("form, scaled", FORMS, ids=[f"{f}{'+scaled' * s}" for f, s in FORMS])
@pytest.mark.parametrize("kind", ["lgl", "cgl", "uniform"])
def test_reused_condensation_gives_the_bits_of_a_fresh_nlp(monkeypatch, kind, form, scaled):
    # the estimate and the step share one condensation, and each has the
    # bits of the same call on a fresh NLP's system, also when called twice
    def fresh():
        return make_nlp("nonlinear-scalar", N=12, form=form, scaled=scaled, kind=kind)

    nlp = fresh()
    calls = counted_factors(monkeypatch, nlp)
    rng = np.random.default_rng(3)
    z1 = initial_guess(nlp, "linear-endpoint-interpolation") + 0.1 * rng.normal(size=nlp.n_z)
    z2 = z1 + 0.1 * rng.normal(size=nlp.n_z)  # another F_x
    z3 = z1.copy()
    z3[nlp.slice_u] += 0.1  # z1's F_x with another F_u
    mu = rng.normal(size=nlp.n_rows)
    for z in (z1, z2, z1, z3):
        linearization, step = step_args(nlp, z, mu)
        system, other = nlp.newton_system(*linearization), fresh().newton_system(*linearization)
        for _ in range(2):
            assert np.array_equal(system.estimate(step[1]), other.estimate(step[1]))
            got, want = system.step(*step), other.step(*step)
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    assert len(calls) == 4


def assert_threads_get_single_threaded_bits(call, want, rounds=200):
    """Four threads call ``call(j)`` ``rounds`` times each, alternating j
    between 0 and 1 at a tiny switch interval; every result must have the
    bits of ``want[j]``, array by array."""
    bad = []

    def worker(k):
        for i in range(rounds):
            j = (i + k) % 2
            try:
                got = call(j)
            except Exception as exc:  # noqa: BLE001 - a thread's failure is the test's
                bad.append(exc)
                return
            bad.extend(i for a, b in zip(got, want[j]) if not np.array_equal(a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not bad


def test_concurrent_steps_read_a_consistent_condensation():
    # threads that alternate between two iterates on one NLP each build
    # their own system; each step must have the bits of a single-threaded
    # one, so the NLP keeps no state between them
    nlp = make_nlp("nonlinear-scalar", N=12)
    rng = np.random.default_rng(4)
    z0 = initial_guess(nlp, "linear-endpoint-interpolation")
    calls = [step_args(nlp, z0 + 0.1 * rng.normal(size=nlp.n_z), rng.normal(size=nlp.n_rows))
             for _ in range(2)]
    want = [make_nlp("nonlinear-scalar", N=12).newton_system(*linearization).step(*step)
            for linearization, step in calls]
    assert_threads_get_single_threaded_bits(
        lambda j: nlp.newton_system(*calls[j][0]).step(*calls[j][1]), want
    )


def test_concurrent_steps_share_one_system():
    # threads that alternate between the systems of two iterates, built
    # once, must each get a single-threaded solve's bits: a solve changes
    # nothing it shares, the pivots of the factor of M included
    nlp = make_nlp("nonlinear-scalar", N=12)
    rng = np.random.default_rng(9)
    z0 = initial_guess(nlp, "linear-endpoint-interpolation")
    calls = [step_args(nlp, z0 + 0.1 * rng.normal(size=nlp.n_z), rng.normal(size=nlp.n_rows))
             for _ in range(2)]
    systems = [nlp.newton_system(*linearization) for linearization, _ in calls]
    want = [(*system.step(*step), system.estimate(step[1]))
            for system, (_, step) in zip(systems, calls)]
    assert_threads_get_single_threaded_bits(
        lambda j: (*systems[j].step(*calls[j][1]), systems[j].estimate(calls[j][1][1])), want
    )


def test_concurrent_krylov_steps_share_one_system(monkeypatch):
    # the same on the Krylov path, whose operator solves with the curved
    # groups of the system's factor
    filled = step_path(monkeypatch, "krylov")
    nlp = make_nlp("nonlinear-scalar", N=12, staging=registry)
    rng = np.random.default_rng(9)
    calls = []
    for scale in (0.0, 0.05):
        z = initial_guess(nlp) + scale * rng.normal(size=nlp.n_z)
        jac, r, g = nlp.jacobian(z), nlp.constraints(z), nlp.objective_gradient(z)
        system, working = nlp.newton_system(jac, r, g), nlp.equality_mask | (r > 0.0)
        mu = np.zeros(nlp.n_rows)
        mu[working] = system.estimate(working)
        calls.append((system, nlp.lagrangian_hessian(z, mu), working))
    want = [system.step(hess, working) for system, hess, working in calls]
    assert not filled
    # a Krylov step makes many more numpy calls than a dense one
    assert_threads_get_single_threaded_bits(lambda j: calls[j][0].step(*calls[j][1:]), want,
                                            rounds=50)
    assert not filled


def condensed_side(block, G, derivs, r):
    """``block.factor`` of G and ``block.eliminate`` with it on fresh tables:
    (values, derivs, other) and every array of the factor's groups."""
    m, n, c = derivs.shape
    values, derivs, other = np.zeros(derivs.shape), derivs.copy(), np.zeros((n, c))
    factor = block.factor(G)
    block.eliminate(factor, G, values, derivs, np.ones((n, c)), other, r[:m * n], r[-n:])
    return values, derivs, other, *(a for group in factor.groups for a in group)


def test_concurrent_condense_reads_a_consistent_factor():
    # threads that alternate between two G on one block each factor their
    # own; each result must have the bits of a fresh block's, so the block
    # keeps no state between them
    system = build_birkhoff(make_grid("lgl", 12, (0.0, 1.0)))
    m, n = 13, 2
    block = AnchoredBlock(system, "b")
    rng = np.random.default_rng(5)
    Gs = [rng.normal(size=(m, n, n)) for _ in range(2)]
    derivs, r = rng.normal(size=(m, n, 3)), rng.normal(size=m * n + n)
    want = [condensed_side(AnchoredBlock(system, "b"), G, derivs, r) for G in Gs]
    assert_threads_get_single_threaded_bits(lambda j: condensed_side(block, Gs[j], derivs, r), want)


@functools.lru_cache(maxsize=None)
def unit_system(N):
    return build_birkhoff(make_grid("lgl", N, (0.0, 1.0)))


def coupling_pattern(name, n):
    """An (n, n) pattern of "state i reads state j"."""
    pattern = np.zeros((n, n), dtype=bool)
    if name == "triangular":
        pattern = np.tri(n, k=-1, dtype=bool)
    elif name == "group-feeds-cost":  # the last state reads all others, none reads it
        pattern[:, :-1] = True
        pattern[-1, -1] = False
    elif name == "two-cycle":  # 0 and 1 read each other, not themselves; the rest read 1
        pattern[0, 1] = pattern[1, 0] = True
        pattern[2:, 1] = True
    elif name == "interleaved":  # 0 and 2 read each other, 1 reads both: no group is a slice
        pattern[0, 2] = pattern[2, 0] = True
        pattern[1, [0, 2]] = True
    elif name == "dense":
        pattern[:] = True
    return pattern


COUPLINGS = ["zero", "triangular", "group-feeds-cost", "two-cycle", "interleaved", "dense"]
MIN_STATES = {"two-cycle": 2, "interleaved": 3}


def random_blocks(draw, name):
    """(block, G) for a drawn grid order, anchor, state count and G entries
    on the named pattern, scaled so that |(B (x) I) G| <= 1/2 and M stays
    well conditioned (|B| = 1 in the infinity norm on (0, 1))."""
    N = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=MIN_STATES.get(name, 1), max_value=4))
    block = AnchoredBlock(unit_system(N), draw(st.sampled_from(["a", "b"])))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return block, rng.uniform(-0.5 / n, 0.5 / n, (N + 1, n, n)) * coupling_pattern(name, n)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(COUPLINGS), data=st.data())
def test_block_solve_is_the_full_solve(name, data):
    block, G = random_blocks(data.draw, name)
    m, n = G.shape[:2]
    factor, M = block.factor(G), block.condensing_matrix(G)
    rhs = np.random.default_rng(0).normal(size=(m, n, 3))
    for trans, full in ((False, M), (True, M.T)):
        got = factor.solve(rhs.copy(), trans=trans)
        want = np.linalg.solve(full, rhs.reshape(m * n, 3)).reshape(m, n, 3)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    groups = {tuple(np.arange(n)[states]): lu is not None for states, lu, *_ in factor.groups}
    if name == "zero":
        assert not groups  # M = I: nothing to factor or substitute
    elif name == "triangular":
        assert not any(groups.values())
    elif name == "group-feeds-cost" and n > 1:
        assert groups == {tuple(range(n - 1)): True, (n - 1,): False}
    elif name == "two-cycle":
        assert groups[(0, 1)]  # one group, factored, though G_00 = G_11 = 0
    elif name == "interleaved":  # the states and sources are index arrays
        assert groups == {(0, 2): True, (1,): False}
    elif name == "dense":
        assert groups == {tuple(range(n)): True}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(COUPLINGS), data=st.data())
def test_singular_diagonal_block_gives_no_factor(name, data):
    # the last state reads only itself, at one node j, with 1 - B[j, j] g
    # exactly 0: row (j, last) of its diagonal block is zero
    block, G = random_blocks(data.draw, name)
    j = int(np.argmax(np.abs(np.diag(block.B))))
    b = block.B[j, j]
    # the floats within 4 ulps of 1/b: steps of 2**-52 relative skip some
    g = next(g for g in 1.0 / b + np.spacing(1.0 / b) * np.arange(-4, 5) if b * g == 1.0)
    G[:, -1] = 0.0
    G[j, -1, -1] = g
    assert block.factor(G) is None


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", COUPLINGS)
@pytest.mark.parametrize("tag", ["a", "b"])
def test_control_columns_condense_like_their_written_out_units(tag, name, k):
    # the unit control columns, taken as outer products, give what the same
    # columns give written out in derivs and multiplied by B
    N, n = 10, 3
    block = AnchoredBlock(unit_system(N), tag)
    m, rng = N + 1, np.random.default_rng(8)
    G = rng.uniform(-0.5 / n, 0.5 / n, (m, n, n)) * coupling_pattern(name, n)
    controls = rng.normal(size=(m, n, k))
    c = m * k + 4
    derivs = rng.normal(size=(m, n, c))
    derivs[..., :m * k] = 0.0
    anchor, r = rng.normal(size=(n, c)), rng.normal(size=m * n + n)
    factor, tables = block.factor(G), []
    for built, entry in ((m * k, derivs), (0, derivs.copy())):
        values, other = np.empty((m, n, c)), np.empty((n, c))
        if built:
            block.control_columns(controls, values[..., :built])
        add_unit_columns(entry, controls)
        block.eliminate(factor, G, values, entry, anchor, other, r[:m * n], r[-n:], built)
        tables.append((values, entry, other))
    for got, want in zip(*tables):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["lgl", "cgl"])
@pytest.mark.parametrize("name", ["double-integrator-energy", "nonlinear-scalar"])
def test_condensing_matrix_conditioning_stays_bounded(name, kind):
    # the paper's claim, on the matrix the Newton step factors: B stays O(1)
    # in norm, so cond(I - (B (x) I) F_x) does not grow with N
    orders = [8, 16, 32, 64, 128]
    conds = []
    for N in orders:
        nlp = make_nlp(name, N=N, kind=kind)
        res = solve(nlp, initial_guess(nlp, "linear-endpoint-interpolation"))
        assert res.converged, (N, res.status)
        X, U, *_ = nlp.unpack(res.z)
        conds.append(np.linalg.cond(nlp.state.condensing_matrix(nlp.ocp.jac_fx(X, U))))
    assert max(conds) < 3.0, conds
    assert abs(loglog_slope(orders, conds)) <= 0.1, conds
