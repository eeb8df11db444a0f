import dataclasses
import json

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
    augment_running_cost,
    load_problem,
    prepared,
    registry,
    registry_names,
    registry_solution,
    validate,
)
from birktraj.ocp import _central_jacobian, _poly_eval, _poly_grad, complementarity_violation


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
    blob = report.to_json_dict()
    assert blob["passed"] is True
    assert blob["tolerance"] == 1e-5
    assert set(blob["worst_relative_error"]) == {
        "dynamics/x",
        "dynamics/u",
        "endpoint_cost/x_a",
        "endpoint_cost/x_b",
        "constraints/x_a",
        "constraints/x_b",
        "running_cost/x",
        "running_cost/u",
    }


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
    assert (aug.n_x, aug.n_u, aug.n_x_base) == (3, 1, 2)
    assert aug.running_cost is None
    x = np.array([0.3, -0.2, 5.0])
    u = np.array([4.0])
    f = aug.dynamics(x, u)
    # appended state integrates the running cost, here u^2/2
    assert f[2] == pytest.approx(8.0)
    assert np.allclose(f[:2], ocp.dynamics(x[:2], u))
    assert aug.jac_fx(x, u)[:, 2] == pytest.approx(0.0)
    assert aug.jac_fu(x, u)[2, 0] == pytest.approx(4.0)


@pytest.mark.parametrize(
    "name, cost", [("double-integrator-energy", 6.0), ("scalar-lq", 1.0)]
)
def test_augmented_endpoint_cost_recovers_objective(name, cost):
    aug = prepared(registry(name))
    sol = registry_solution(name)
    t = np.array([0.0, 1.0])
    states = sol.state(t)
    cost_state = sol.cost_state(t)
    x_a = np.concatenate([states[:, 0], [cost_state[0]]])
    x_b = np.concatenate([states[:, 1], [cost_state[1]]])
    assert aug.endpoint_cost(x_a, x_b) == pytest.approx(cost, abs=1e-12)
    # the analytic optimum stays feasible after augmentation
    assert np.max(np.abs(aug.constraints.fun(x_a, x_b))) < 1e-12
    assert aug.constraints.kinds[-1] is ConstraintKind.EQUALITY


def test_augmentation_requires_gradients():
    ocp = registry("zero-dynamics")
    with pytest.raises(IncompleteDerivativesError):
        augment_running_cost(ocp)  # nothing staged
    halfdone = RunningCost(fun=lambda x, u: 0.0, grad_x=lambda x, u: np.zeros(1))
    with pytest.raises(IncompleteDerivativesError):
        augment_running_cost(ocp, halfdone)


def test_zero_running_cost_appends_inert_state():
    ocp = registry("zero-dynamics")
    zero = RunningCost(
        fun=lambda x, u: 0.0,
        grad_x=lambda x, u: np.zeros(1),
        grad_u=lambda x, u: np.zeros(0),
    )
    aug = augment_running_cost(ocp, zero)
    x = np.array([1.7, 0.0])
    u = np.zeros(0)
    assert np.all(aug.dynamics(x, u) == 0.0)
    assert aug.endpoint_cost(x, x) == ocp.endpoint_cost(x[:1], x[:1])
    assert validate(aug).passed


def test_prepared_is_identity_without_running_cost():
    ocp = registry("zero-dynamics")
    assert prepared(ocp) is ocp


# --- analytic solutions -------------------------------------------------------


@pytest.mark.parametrize("name", ["double-integrator-energy", "scalar-lq"])
def test_analytic_solution_satisfies_dynamics(name):
    ocp = registry(name)
    sol = registry_solution(name)
    t = np.linspace(0.05, 0.95, 7)
    h = 1e-6
    xdot_fd = (sol.state(t + h) - sol.state(t - h)) / (2 * h)
    states, controls = sol.state(t), sol.control(t)
    for k in range(t.size):
        f = ocp.dynamics(states[:, k], controls[:, k])
        assert np.max(np.abs(f - xdot_fd[:, k])) < 1e-8


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
    rng = np.random.default_rng(3)
    for _ in range(4):
        x, u = rng.normal(size=1), rng.normal(size=1)
        assert loaded.dynamics(x, u) == pytest.approx(ref.dynamics(x, u))
        assert loaded.running_cost.fun(x, u) == pytest.approx(ref.running_cost.fun(x, u))
        xa, xb = rng.normal(size=1), rng.normal(size=1)
        assert loaded.constraints.fun(xa, xb) == pytest.approx(ref.constraints.fun(xa, xb))
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
    x, u = np.array([0.7]), np.array([-0.4])
    assert loaded.dynamics(x, u) == pytest.approx(ref.dynamics(x, u))
    assert loaded.running_cost.fun(x, u) == pytest.approx(ref.running_cost.fun(x, u))
    assert loaded.endpoint_cost(x, x) == pytest.approx(2.0 * 0.49)
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


def test_load_problem_tells_json_text_from_a_path(tmp_path):
    # text longer than any file name must not be taken for one
    text = json.dumps(
        {
            "name": "x" * 400,
            "n_x": 1,
            "n_u": 1,
            "horizon": [0.0, 1.0],
            "dynamics": {"A": [[0.0]], "B": [[1.0]]},
        }
    )
    assert load_problem(text).name == "x" * 400
    with pytest.raises(NotFoundError):
        load_problem(str(tmp_path / "missing.json"))


def test_central_jacobian_exact_on_quadratic_two_calls_per_column():
    a_mat = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0], [1.5, 0.0, -4.0]])
    calls = []

    def fun(x):
        calls.append(x.copy())
        return a_mat @ x + 0.5 * x**2

    x = np.array([0.3, -2.0, 4.0])
    jac = _central_jacobian(fun, x, 1e-6)
    # central differences have no truncation error on a quadratic
    np.testing.assert_allclose(jac, a_mat + np.diag(x), rtol=0, atol=1e-8)
    assert len(calls) == 2 * x.size


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
    x = rng.uniform(0.2, 1.2, n_x)  # away from 0 so FD scale is sane
    u = rng.uniform(0.2, 1.2, n_u)
    h = 1e-6
    for j in range(n_x):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd = (_poly_eval(terms, xp, u) - _poly_eval(terms, xm, u)) / (2 * h)
        assert _poly_grad(terms, x, u, "x")[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
    for j in range(n_u):
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        fd = (_poly_eval(terms, x, up) - _poly_eval(terms, x, um)) / (2 * h)
        assert _poly_grad(terms, x, u, "u")[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_complementarity_violation():
    kinds = (ConstraintKind.EQUALITY, ConstraintKind.INEQUALITY)
    nu = np.array([5.0, 0.0])
    e = np.array([0.3, -2.0])  # equality residual is ignored here
    assert complementarity_violation(nu, e, kinds) == 0.0
    nu_bad = np.array([5.0, -1e-3])
    assert complementarity_violation(nu_bad, e, kinds) == pytest.approx(2e-3)
