import json

import numpy as np
import pytest

from birktraj import (
    DomainMismatchError,
    EvaluationError,
    NotFoundError,
    OcpDefinition,
    PrimalForm,
    ShapeError,
    SolverOptions,
    UnsupportedGridError,
    UnsupportedProblemError,
    build_birkhoff,
    extract_primal,
    initial_guess,
    make_grid,
    prepared,
    registry,
    transcribe,
)
from birktraj.ocp import pinned_endpoints


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


def make_nlp(name="double-integrator-energy", N=8, form="a", scaled=False, kind="lgl"):
    ocp = prepared(registry(name))
    sys = build_birkhoff(make_grid(kind, N, ocp.horizon))
    return transcribe(ocp, sys, PrimalForm(form, scaled=scaled))


def test_layout_counts_scalar_example():
    nlp = transcribe(
        scalar_mayer(), build_birkhoff(make_grid("lgl", 10, (0.0, 1.0))), PrimalForm("a")
    )
    assert nlp.n_z == 35
    assert nlp.n_eq_core == 23
    assert nlp.n_rows == 25  # two pinned endpoint rows
    assert nlp.equality_mask.all()


def test_form_validation():
    assert PrimalForm("a_star").starred
    assert str(PrimalForm("b", scaled=True)) == "b+scaled"
    with pytest.raises(UnsupportedProblemError):
        PrimalForm("a_star", scaled=True)
    with pytest.raises(ValueError):
        PrimalForm("c")


def test_domain_and_grid_preconditions():
    import dataclasses

    from birktraj import Grid

    ocp = registry("zero-dynamics")
    with pytest.raises(DomainMismatchError):
        transcribe(ocp, build_birkhoff(make_grid("lgl", 8, (0.0, 2.0))), PrimalForm("a"))
    sys = build_birkhoff(make_grid("lgl", 8, (0.0, 1.0)))
    interior = Grid(kind=sys.grid.kind, nodes=0.25 + 0.5 * sys.grid.nodes, domain=(0.0, 1.0))
    with pytest.raises(UnsupportedGridError):
        transcribe(ocp, dataclasses.replace(sys, grid=interior), PrimalForm("a"))


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


@pytest.mark.parametrize(
    "form, scaled", [("a", False), ("b", False), ("a_star", False), ("b_star", False), ("a", True)]
)
def test_jacobian_matches_finite_differences(form, scaled):
    nlp = make_nlp(form=form, scaled=scaled, N=5)
    rng = np.random.default_rng(11)
    z = rng.normal(size=nlp.n_z) * 0.5 + 0.1
    jac = nlp.jacobian(z)
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
    j1, j2 = nlp.jacobian(z1), nlp.jacobian(z2)
    cols_u = nlp.slice_u
    mask = np.ones(nlp.n_z, dtype=bool)
    mask[cols_u] = False
    assert np.array_equal(j1[:, mask], j2[:, mask])


@pytest.mark.parametrize("name", ["nonlinear-scalar", "double-integrator-energy"])
@pytest.mark.parametrize(
    "form, scaled",
    [("a", False), ("b", False), ("a_star", False), ("b_star", False), ("a", True), ("b", True)],
)
def test_lagrangian_hessian_matches_finite_differences(name, form, scaled):
    from birktraj.solver import _fd_lagrangian_hessian

    nlp = make_nlp(name, form=form, scaled=scaled, N=5)
    rng = np.random.default_rng(13)
    z = rng.normal(size=nlp.n_z) * 0.5 + 0.1
    mu = rng.normal(size=nlp.n_rows)
    hess = nlp.lagrangian_hessian(z, mu)
    fd = _fd_lagrangian_hessian(nlp, z, mu)
    assert np.array_equal(hess, hess.T)
    err = np.max(np.abs(hess - fd)) / max(1.0, np.max(np.abs(fd)))
    assert err < 1e-6


def test_evaluation_error_reports_node():
    ocp = registry("nonlinear-scalar")
    bad = prepared(ocp)

    def exploding(X, U):
        return np.full(X.shape, np.inf)

    import dataclasses

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


def test_initial_guess_user_supplied_and_errors():
    nlp = make_nlp(N=4)
    good = np.linspace(0.0, 1.0, nlp.n_z)
    z = initial_guess(nlp, "user-supplied", user=good)
    assert np.array_equal(z, good)
    with pytest.raises(ShapeError):
        initial_guess(nlp, "user-supplied", user=good[:-1])
    with pytest.raises(ShapeError):
        initial_guess(nlp, "user-supplied", user=np.full(nlp.n_z, np.nan))
    with pytest.raises(NotFoundError):
        initial_guess(nlp, "warm-start")


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


def test_extract_primal_feasibility_and_gap():
    ocp = registry("zero-dynamics")
    sys = build_birkhoff(make_grid("lgl", 6, ocp.horizon))
    nlp = transcribe(ocp, sys, PrimalForm("a"))
    one = np.array([1.0])
    z = nlp.pack(np.ones((7, 1)), np.zeros((7, 0)), np.zeros((7, 1)), one, one)
    sol = extract_primal(nlp, z)
    assert sol.feasibility == 0.0
    assert sol.objective == 1.0
    assert sol.equivalency_gap(sys.w_B) == 0.0


def test_dump_round_trips_as_json(tmp_path):
    nlp = make_nlp(N=4, form="b_star")
    path = tmp_path / "nlp.json"
    nlp.dump(path)
    blob = json.loads(path.read_text())
    assert blob["form"] == {"tag": "b_star", "scaled": False}
    assert blob["sizes"]["decision"] == nlp.n_z
    assert blob["layout"]["x_b"][1] == nlp.n_z
    assert blob["rows"] == {name: [s.start, s.stop] for name, s in nlp.rows.items()}
    assert list(nlp.rows) == ["state_interpolation", "dynamics", "grid_equivalency", "endpoint"]
