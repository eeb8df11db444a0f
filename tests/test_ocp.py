import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birktraj import (
    ConstraintKind,
    IncompleteDerivativesError,
    InvalidDomainError,
    NotFoundError,
    RunningCost,
    UnsupportedProblemError,
    load_problem,
    prepared,
    registry,
    registry_names,
    registry_solution,
    validate,
)
from birktraj.ocp import (
    COMPLEX_STEP,
    _central_jacobian,
    _complex_jacobian,
    _poly_eval,
    _poly_grad,
    complementarity_violation,
    pinned_endpoints,
)


def test_registry_names():
    assert registry_names() == (
        "double-integrator-energy",
        "nonlinear-scalar",
        "scalar-lq",
        "zero-dynamics",
    )


def test_registry_unknown_name():
    with pytest.raises(NotFoundError):
        registry("triple-integrator")
    with pytest.raises(NotFoundError):
        registry_solution("triple-integrator")


@pytest.mark.parametrize("name", registry_names())
def test_registry_problems_validate(name):
    report = validate(registry(name))
    assert report.passed, report.worst


@pytest.mark.parametrize("name", registry_names())
def test_augmented_problems_validate(name):
    report = validate(prepared(registry(name)))
    assert report.passed, report.worst


def test_validate_flags_wrong_jacobian():
    ocp = registry("double-integrator-energy")
    bad = dataclasses.replace(ocp, jac_fx=lambda x, u: 1.1 * ocp.jac_fx(x, u))
    report = validate(bad)
    assert not report.passed
    # off by 10% on a unit entry -> relative error about 0.1
    assert report.worst["dynamics/x"] == pytest.approx(0.1, rel=1e-3)
    assert report.worst["dynamics/u"] < 1e-7


def test_validate_report_json_shape():
    report = validate(registry("scalar-lq"))
    assert report.passed is True
    assert report.tolerance == 1e-5
    assert set(report.worst) == {
        "dynamics/x",
        "dynamics/u",
        "endpoint_cost/x_a",
        "endpoint_cost/x_b",
        "constraints/x_a",
        "constraints/x_b",
        "running_cost/x",
        "running_cost/u",
    }


def _float_buffer_jac_fx(X, U):
    # nonlinear-scalar's F_x, written into a float buffer: a complex X loses
    # its imaginary part with a ComplexWarning
    out = np.zeros((len(X), 1, 1))
    out[:, 0, 0] = -3.0 * X[:, 0] ** 2
    return out


def test_validate_refuses_a_callback_that_writes_into_a_float_buffer():
    ocp = dataclasses.replace(registry("nonlinear-scalar"), jac_fx=_float_buffer_jac_fx)
    # its real values are right, and under the test suite's warning filter
    # the ComplexWarning is raised
    assert np.array_equal(ocp.jac_fx(np.ones((3, 1)), np.ones((3, 1))), -3.0 * np.ones((3, 1, 1)))
    with pytest.raises(UnsupportedProblemError, match="jac_fx fails on complex arguments"):
        validate(ocp)
    # where the warning is only a warning, the dropped part shows in the values
    with pytest.warns(np.exceptions.ComplexWarning):
        with pytest.raises(UnsupportedProblemError, match="jac_fx drops the imaginary part"):
            validate(ocp)


@pytest.mark.parametrize("field", ["grad_cost_xb", "running_cost"])
def test_validate_refuses_a_callback_that_drops_the_imaginary_part(field):
    ocp = registry("zero-dynamics")
    if field == "grad_cost_xb":  # float() of a complex number raises TypeError
        ocp = dataclasses.replace(ocp, grad_cost_xb=lambda x_a, x_b: np.array([2.0 * float(x_b[0])]))
        match = "grad_cost_xb fails on complex arguments"
    else:  # .real drops it silently
        ocp = dataclasses.replace(ocp, running_cost=RunningCost(
            fun=lambda X, U: X[:, 0] ** 2,
            grad_x=lambda X, U: 2.0 * X.real,
            grad_u=lambda X, U: np.zeros((len(X), 0)),
        ))
        match = "running_cost.grad_x drops the imaginary part"
    with pytest.raises(UnsupportedProblemError, match=match):
        validate(ocp)


@pytest.mark.parametrize("staging", [lambda ocp: ocp, prepared], ids=["as-defined", "prepared"])
@pytest.mark.parametrize("source", ["qr", "terms"])
def test_json_problems_take_complex_steps(source, staging):
    # polynomial and Q/R callbacks, and the Mayer transform's buffers, carry
    # the imaginary part: validate's complex-step check passes
    assert validate(staging(load_problem(_JSON_RUNNING_COSTS[source]))).passed


def test_horizon_must_be_finite_and_ordered():
    ocp = registry("scalar-lq")
    with pytest.raises(InvalidDomainError):
        dataclasses.replace(ocp, horizon=(1.0, 0.0))
    with pytest.raises(InvalidDomainError):
        dataclasses.replace(ocp, horizon=(0.0, np.inf))


# --- augmentation -------------------------------------------------------------


def test_augmentation_shapes_and_cost_state():
    ocp = registry("double-integrator-energy")
    aug = prepared(ocp)
    assert (aug.n_x, aug.n_u) == (3, 1)
    assert aug.running_cost is None
    x = np.array([[0.3, -0.2, 5.0]])
    u = np.array([[4.0]])
    f = aug.dynamics(x, u)
    # appended state integrates the running cost, here u^2/2
    assert f[0, 2] == pytest.approx(8.0)
    assert np.allclose(f[:, :2], ocp.dynamics(x[:, :2], u))
    assert aug.jac_fx(x, u)[0, :, 2] == pytest.approx(0.0)
    assert aug.jac_fu(x, u)[0, 2, 0] == pytest.approx(4.0)


@pytest.mark.parametrize(
    "name, cost", [("double-integrator-energy", 6.0), ("scalar-lq", 1.0)]
)
def test_augmented_endpoint_cost_recovers_objective(name, cost):
    aug = prepared(registry(name))
    states = registry_solution(name).state(np.array([0.0, 1.0]))
    # the cost state runs from 0 to the optimal cost
    x_a = np.concatenate([states[:, 0], [0.0]])
    x_b = np.concatenate([states[:, 1], [cost]])
    assert aug.endpoint_cost(x_a, x_b) == pytest.approx(cost, abs=1e-12)
    # the analytic optimum stays feasible after augmentation
    assert np.max(np.abs(aug.constraints.fun(x_a, x_b))) < 1e-12
    assert aug.constraints.kinds[-1] is ConstraintKind.EQUALITY


def test_augmentation_requires_gradients():
    # a running cost is complete when it is built: no gradient, or one alone, is refused
    fun = lambda X, U: np.zeros(len(X))  # noqa: E731
    with pytest.raises(IncompleteDerivativesError):
        RunningCost(fun)
    with pytest.raises(IncompleteDerivativesError):
        RunningCost(fun, grad_x=lambda X, U: np.zeros((len(X), 1)))


def test_zero_running_cost_appends_inert_state():
    ocp = registry("zero-dynamics")
    zero = RunningCost(
        fun=lambda X, U: np.zeros(len(X)),
        grad_x=lambda X, U: np.zeros((len(X), 1)),
        grad_u=lambda X, U: np.zeros((len(X), 0)),
    )
    aug = prepared(dataclasses.replace(ocp, running_cost=zero))
    x = np.array([1.7, 0.0])
    u = np.zeros(0)
    assert np.all(aug.dynamics(x[None], u[None]) == 0.0)
    assert aug.endpoint_cost(x, x) == ocp.endpoint_cost(x[:1], x[:1])
    assert validate(aug).passed


def test_prepared_is_identity_without_running_cost():
    ocp = registry("zero-dynamics")
    assert prepared(ocp) is ocp


# a linear problem with a Q/R running cost, a polynomial one with "terms"
_JSON_RUNNING_COSTS = {
    "qr": {
        "name": "qr", "n_x": 2, "n_u": 2, "horizon": [0.0, 1.0],
        "dynamics": {"A": [[0.3, 1.0], [-0.5, 0.1]], "B": [[1.0, 0.2], [0.0, 1.0]]},
        "running_cost": {"Q": [[1.0, 0.3], [0.1, 2.0]], "R": [[0.5, 0.0], [0.2, 1.5]]},
    },
    "terms": {
        "name": "terms", "n_x": 2, "n_u": 1, "horizon": [0.0, 1.0],
        "dynamics": {"terms": [
            [{"coef": 1.0, "x": [0, 1], "u": [0]}],
            [{"coef": -1.0, "x": [3, 0], "u": [0]}, {"coef": 1.0, "x": [0, 0], "u": [1]}],
        ]},
        "running_cost": {"terms": [
            {"coef": 0.5, "x": [2, 0], "u": [0]},
            {"coef": 0.25, "x": [1, 1], "u": [2]},
            {"coef": 1.5, "x": [0, 0], "u": [4]},
        ]},
    },
}


@pytest.mark.parametrize(
    "source",
    ["double-integrator-energy", "scalar-lq", "nonlinear-scalar", *_JSON_RUNNING_COSTS],
)
def test_hamiltonian_of_a_staged_running_cost_is_the_augmented_one_at_unit_cost_costate(source):
    # H = L + lam . f on the problem as defined against lam . f on the
    # augmented problem with lam_y = 1, over the base (x, u) columns
    ocp = load_problem(_JSON_RUNNING_COSTS[source]) if source in _JSON_RUNNING_COSTS else registry(source)
    aug = prepared(ocp)
    n, k, m = ocp.n_x, ocp.n_u, 17
    rng = np.random.default_rng(5)
    X, U, lam = rng.normal(size=(m, n)), rng.normal(size=(m, k)), rng.normal(size=(m, n))
    X_aug = np.column_stack([X, rng.normal(size=m)])
    lam_aug = np.column_stack([lam, np.ones(m)])
    base = np.r_[0:n, n + 1 : n + 1 + k]

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    assert close(
        ocp.hamiltonian_gradient(X, U, lam), aug.hamiltonian_gradient(X_aug, U, lam_aug)[:, base]
    )
    curv_aug = aug.hamiltonian_curvatures(X_aug, U, lam_aug)[:, base][:, :, base]
    assert close(ocp.hamiltonian_curvatures(X, U, lam), curv_aug)


# d^2/d(x, u)^2 of H = c L + lam . f at every node and d^2/d(x_a, x_b)^2 of
# E + nu . e, by hand: every registry problem's curvature is diagonal
_CLOSED_FORM_NODE_DIAGONAL = {
    "double-integrator-energy": lambda X, U, lam, c: np.column_stack([0 * X, c]),
    "scalar-lq": lambda X, U, lam, c: np.column_stack([0 * X, 2 * c]),
    "nonlinear-scalar": lambda X, U, lam, c: np.column_stack([c - 6 * lam[:, 0] * X[:, 0], c]),
    "zero-dynamics": lambda X, U, lam, c: 0 * X,
}
_CLOSED_FORM_ENDPOINT_DIAGONAL = {
    "double-integrator-energy": np.zeros(4),
    "scalar-lq": np.zeros(2),
    "nonlinear-scalar": np.zeros(2),
    "zero-dynamics": np.array([0.0, 2.0]),  # E = x_b^2
}


@pytest.mark.parametrize("staging", ["as-defined", "prepared"])
@pytest.mark.parametrize("name", registry_names())
def test_curvatures_match_closed_forms(name, staging):
    ocp = registry(name)
    n, k, m = ocp.n_x, ocp.n_u, 23
    rng = np.random.default_rng(11)
    X, U, lam = rng.normal(size=(m, n)), rng.normal(size=(m, k)), 3 * rng.normal(size=(m, n))
    c = rng.uniform(0.1, 2.0, m)
    x_a, x_b, nu = rng.normal(size=n), rng.normal(size=n), rng.normal(size=ocp.n_e)
    node = _CLOSED_FORM_NODE_DIAGONAL[name](X, U, lam, c)
    end = _CLOSED_FORM_ENDPOINT_DIAGONAL[name]
    if staging == "prepared" and ocp.running_cost is not None:
        # the cost state y follows x and its costate weighs L; y' = L, the
        # extra cost y_b and the extra row y_a = 0 are all linear in y
        ocp = prepared(ocp)
        X, lam, c = np.column_stack([X, rng.normal(size=m)]), np.column_stack([lam, c]), None
        x_a, x_b, nu = np.r_[x_a, 0.5], np.r_[x_b, -2.0], np.r_[nu, 0.7]
        node, end = np.insert(node, n, 0.0, axis=1), np.insert(end, [n, 2 * n], 0.0)

    def exact(got, diagonal):
        want = diagonal[..., None] * np.eye(diagonal.shape[-1])
        assert got.shape == want.shape
        return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    assert exact(ocp.hamiltonian_curvatures(X, U, lam, c), node)
    assert exact(ocp.endpoint_lagrangian_curvature(x_a, x_b, nu), end)


def test_complex_jacobian_is_one_call_on_the_stacked_table():
    # a cubic with a parameter per row: exact columns, where a central
    # difference would carry truncation error h^2 f''' and rounding eps/h
    calls = []
    a_mat = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0]])
    scale = np.array([1.0, -2.0, 0.25, 4.0])

    def fun(Y):
        calls.append(Y.copy())
        return np.tile(scale, 3)[:, None] * (Y**3 @ a_mat.T)

    Y = np.array([[0.3, -2.0, 4.0], [-30.0, 0.1, 2.5], [0.0, 0.0, 0.0], [1e3, -1e-3, 7.0]])
    jac = _complex_jacobian(fun, Y)
    want = scale[:, None, None] * a_mat * 3 * Y[:, None, :] ** 2
    assert jac.shape == want.shape == (4, 2, 3)
    # rounding, and at 0 the h^2 term of the cubic's step: 3e-60 at most
    assert np.all(np.abs(jac - want) <= 4e-16 * np.abs(want) + 1e-59)
    (table,) = calls  # row j m + i is row i stepped in column j
    assert np.array_equal(table.real, np.tile(Y, (3, 1)))
    assert np.array_equal(table.imag, np.repeat(COMPLEX_STEP * np.eye(3), 4, axis=0))


def test_hamiltonian_needs_the_running_cost_gradients():
    ocp = registry("scalar-lq")
    with pytest.raises(IncompleteDerivativesError):  # when the cost is built
        dataclasses.replace(ocp.running_cost, grad_u=None)


# --- analytic solutions -------------------------------------------------------


@pytest.mark.parametrize("name", ["double-integrator-energy", "scalar-lq"])
def test_analytic_solution_satisfies_dynamics(name):
    ocp = registry(name)
    sol = registry_solution(name)
    t = np.linspace(0.05, 0.95, 7)
    h = 1e-6
    xdot_fd = (sol.state(t + h) - sol.state(t - h)) / (2 * h)
    f = ocp.dynamics(sol.state(t).T, sol.control(t).T)
    assert f.shape == (t.size, ocp.n_x)
    assert np.max(np.abs(f - xdot_fd.T)) < 1e-8


def test_analytic_solution_boundary_values():
    sol = registry_solution("double-integrator-energy")
    ends = sol.state(np.array([0.0, 1.0]))
    assert ends[:, 0] == pytest.approx([0.0, 0.0])
    assert ends[:, 1] == pytest.approx([1.0, 0.0])
    assert sol.cost == 6.0
    lam = sol.costate(np.array([0.0, 0.5, 1.0]))
    assert lam[0] == pytest.approx([-12.0, -12.0, -12.0])
    assert lam[1] == pytest.approx([-6.0, 0.0, 6.0])


def test_nonlinear_scalar_has_no_closed_form():
    assert registry_solution("nonlinear-scalar") is None


# --- JSON problem descriptions --------------------------------------------------


def test_load_linear_problem_matches_registry():
    data = {
        "name": "scalar-lq-json",
        "n_x": 1,
        "n_u": 1,
        "horizon": [0.0, 1.0],
        "dynamics": {"A": [[0.0]], "B": [[1.0]]},
        "running_cost": {"R": [[1.0]]},
        "constraints": [
            {"kind": "equality", "a": [1.0], "rhs": 0.0},
            {"kind": "equality", "b": [1.0], "rhs": 1.0},
        ],
    }
    loaded = load_problem(data)
    ref = registry("scalar-lq")
    # four points, one per row: columns x, u, x_a, x_b
    x, u, xa, xb = np.split(np.random.default_rng(3).normal(size=(4, 4)), 4, axis=1)
    assert loaded.dynamics(x, u) == pytest.approx(ref.dynamics(x, u))
    assert loaded.running_cost.fun(x, u) == pytest.approx(ref.running_cost.fun(x, u))
    for a, b in zip(xa, xb):
        assert loaded.constraints.fun(a, b) == pytest.approx(ref.constraints.fun(a, b))
    assert validate(loaded).passed


def test_load_polynomial_problem(tmp_path):
    data = {
        "name": "cubic",
        "n_x": 1,
        "n_u": 1,
        "horizon": [0.0, 1.0],
        "dynamics": {"terms": [[{"coef": -1.0, "x": [3]}, {"coef": 1.0, "u": [1]}]]},
        "running_cost": {
            "terms": [{"coef": 0.5, "u": [2]}, {"coef": 0.5, "x": [2]}]
        },
        "endpoint_cost": {"terms": [{"coef": 2.0, "xb": [2]}]},
        "constraints": [{"kind": "equality", "a": [1.0], "rhs": 1.0}],
    }
    path = tmp_path / "cubic.json"
    path.write_text(__import__("json").dumps(data))
    loaded = load_problem(path)
    ref = registry("nonlinear-scalar")
    x, u = np.array([[0.7]]), np.array([[-0.4]])
    assert loaded.dynamics(x, u) == pytest.approx(ref.dynamics(x, u))
    assert loaded.running_cost.fun(x, u) == pytest.approx(ref.running_cost.fun(x, u))
    assert loaded.endpoint_cost(x[0], x[0]) == pytest.approx(2.0 * 0.49)
    assert validate(loaded).passed


def test_load_problem_rejects_bad_schema():
    with pytest.raises(UnsupportedProblemError):
        load_problem({"n_x": 1, "n_u": 0, "horizon": [0, 1], "dynamics": {}})
    with pytest.raises(UnsupportedProblemError):
        load_problem({"n_x": 1, "n_u": 0, "horizon": [0, 1]})
    with pytest.raises(UnsupportedProblemError):
        load_problem(
            {
                "n_x": 1,
                "n_u": 0,
                "horizon": [0, 1],
                "dynamics": {"A": [[0.0]]},
                "constraints": [{"kind": "pinned", "a": [1.0]}],
            }
        )
    good = {"n_x": 1, "n_u": 1, "horizon": [0, 1], "dynamics": {"A": [[0.0]], "B": [[1.0]]}}
    for bad in (
        {**good, "dynamics": {"terms": [[{"u": [1]}]]}},  # term without coef
        {**good, "horizon": [1.0]},
        {**good, "constraints": [{"a": [1.0, 0.0], "rhs": 0.0}]},  # a longer than n_x
        {**good, "endpoint_cost": {"terms": [{"coef": 1.0, "xb": [2, 0]}]}},
        {**good, "running_cost": {"S": [[1.0]]}},  # neither Q/R nor terms
        {**good, "horizon": 5},
        {**good, "n_x": None},
        {**good, "n_x": 1.7},  # a count is a whole number, never truncated
        {**good, "n_u": 1.0},
        {**good, "n_u": True},
        {**good, "constraints": [5]},
        {**good, "endpoint_cost": [1]},
        # JSON reads NaN and Infinity: every number must be finite
        {**good, "constraints": [{"a": [1.0], "rhs": float("nan")}]},
        {**good, "constraints": [{"a": [float("inf")], "rhs": 0.0}]},
        {**good, "constraints": [{"b": [float("nan")], "rhs": 0.0}]},
        {**good, "dynamics": {"A": [[float("inf")]], "B": [[1.0]]}},
        {**good, "dynamics": {"A": [[0.0]], "B": [[float("nan")]]}},
        {**good, "dynamics": {"A": [[0.0]], "B": [[1.0]], "c": [float("-inf")]}},
        {**good, "running_cost": {"Q": [[float("nan")]]}},
        {**good, "running_cost": {"R": [[float("inf")]]}},
        {**good, "dynamics": {"terms": [[{"coef": float("nan"), "u": [1]}]]}},
        {**good, "endpoint_cost": {"terms": [{"coef": float("inf"), "xb": [2]}]}},
        # a power is a whole number >= 0, never truncated
        {**good, "dynamics": {"terms": [[{"coef": 1.0, "x": [1.7], "u": [0]}]]}},
        {**good, "dynamics": {"terms": [[{"coef": 1.0, "x": [-1], "u": [0]}]]}},
        {**good, "dynamics": {"terms": [[{"coef": 1.0, "x": [1.0], "u": [0]}]]}},
        {**good, "running_cost": {"terms": [{"coef": 1.0, "x": [0], "u": [True]}]}},
        {**good, "endpoint_cost": {"terms": [{"coef": 1.0, "xa": [-2]}]}},
    ):
        with pytest.raises(UnsupportedProblemError):
            load_problem(bad)
    for bad, message in (
        ({**good, "dynamics": {"terms": [[{"coef": 1.0, "u": [1]}]] * 2}},
         "one term list per state"),
        ({**good, "n_x": 0, "dynamics": {"terms": []}}, "need n_x >= 1"),
    ):
        with pytest.raises(UnsupportedProblemError, match=message):
            load_problem(bad)


@pytest.mark.parametrize("n_x", [1, 2, 3])
@pytest.mark.parametrize("pins", ["none", "x_a", "x_b", "both"])
def test_pinned_endpoints_are_the_hand_written_rows(pins, n_x):
    fixed_a, fixed_b, x_a, x_b = np.random.default_rng(n_x).normal(size=(4, n_x))
    con = pinned_endpoints(
        n_x,
        x_a_fixed=fixed_a if pins in ("x_a", "both") else None,
        x_b_fixed=fixed_b if pins in ("x_b", "both") else None,
    )
    eye, zero = np.eye(n_x), np.zeros((n_x, n_x))
    value, jac_xa, jac_xb = {
        "none": (np.zeros(0), np.zeros((0, n_x)), np.zeros((0, n_x))),
        "x_a": (x_a - fixed_a, eye, zero),
        "x_b": (x_b - fixed_b, zero, eye),
        "both": (np.concatenate([x_a - fixed_a, x_b - fixed_b]),
                 np.vstack([eye, zero]), np.vstack([zero, eye])),
    }[pins]
    for got, want in ((con.fun(x_a, x_b), value), (con.jac_xa(x_a, x_b), jac_xa),
                      (con.jac_xb(x_a, x_b), jac_xb)):
        assert got.shape == want.shape and got.dtype == float
        np.testing.assert_array_equal(got, want)
    assert con.kinds == (ConstraintKind.EQUALITY,) * len(value)
    assert con.equality_mask().shape == (len(value),) and con.equality_mask().all()


def test_load_problem_missing_path_is_not_found(tmp_path):
    with pytest.raises(NotFoundError):
        load_problem(str(tmp_path / "missing.json"))
    # JSON text is no path either
    with pytest.raises(NotFoundError):
        load_problem('{"n_x": 1}')


def test_central_jacobian_exact_on_quadratic_two_calls_per_column():
    a_mat = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0], [1.5, 0.0, -4.0]])
    calls = []

    def fun(Y):
        calls.append(Y.copy())
        return Y @ a_mat.T + 0.5 * Y**2

    Y = np.array([[0.3, -2.0, 4.0], [-30.0, 0.1, 2.5], [0.0, 0.0, 0.0]])
    jac = _central_jacobian(fun, Y, 1e-6)
    assert jac.shape == (3, 3, 3)
    # central differences have no truncation error on a quadratic
    for y, jac_row in zip(Y, jac):
        np.testing.assert_allclose(jac_row, a_mat + np.diag(y), rtol=0, atol=1e-8)
    # two calls per column for all rows; each row steps 1e-6 * max(1, |y_j|)
    assert len(calls) == 2 * Y.shape[1]
    np.testing.assert_allclose(calls[0][:, 0] - Y[:, 0], [1e-6, 30e-6, 1e-6], rtol=1e-9)


@st.composite
def _poly_terms(draw):
    n_x = draw(st.integers(1, 3))
    n_u = draw(st.integers(0, 2))
    n_terms = draw(st.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        coef = draw(st.floats(-3, 3, allow_nan=False))
        px = np.array([draw(st.integers(0, 3)) for _ in range(n_x)])
        pu = np.array([draw(st.integers(0, 3)) for _ in range(n_u)])
        terms.append((coef, px, pu))
    return n_x, n_u, terms


@given(_poly_terms(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_polynomial_gradients_match_fd(spec, seed):
    n_x, n_u, terms = spec
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 1.2, (3, n_x))  # three points as rows, away from 0 so FD scale is sane
    u = rng.uniform(0.2, 1.2, (3, n_u))
    h = 1e-6
    for j in range(n_x):
        xp, xm = x.copy(), x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        fd = (_poly_eval(terms, xp, u) - _poly_eval(terms, xm, u)) / (2 * h)
        assert _poly_grad(terms, x, u, "x")[:, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
    for j in range(n_u):
        up, um = u.copy(), u.copy()
        up[:, j] += h
        um[:, j] -= h
        fd = (_poly_eval(terms, x, up) - _poly_eval(terms, x, um)) / (2 * h)
        assert _poly_grad(terms, x, u, "u")[:, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
    # a table row evaluates exactly like the single point (the endpoint-cost shape)
    for i in range(3):
        assert _poly_eval(terms, x[i], u[i]) == _poly_eval(terms, x, u)[i]
        for wrt in ("x", "u"):
            np.testing.assert_array_equal(
                _poly_grad(terms, x[i], u[i], wrt), _poly_grad(terms, x, u, wrt)[i]
            )


def test_complementarity_violation():
    eq = np.array([True, False])
    nu = np.array([5.0, 0.0])
    e = np.array([0.3, -2.0])  # equality residual is ignored here
    assert complementarity_violation(nu, e, eq) == 0.0
    assert not np.signbit(complementarity_violation(nu, e, eq))  # +0.0, not -0.0
    nu_bad = np.array([5.0, -1e-3])
    assert complementarity_violation(nu_bad, e, eq) == pytest.approx(2e-3)
    assert complementarity_violation(nu_bad, e, np.array([True, True])) == 0.0
