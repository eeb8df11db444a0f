"""Optimal control problems in endpoint-cost form.

A problem couples vector dynamics ``xdot = f(x, u)`` on a finite horizon with
an endpoint cost ``E(x_a, x_b)`` and endpoint constraint rows; running costs
are staged on the definition and absorbed into an extra state by
:func:`augment_running_cost` (the appended state integrates L and enters the
endpoint cost at the right end).  All derivative information is supplied as
callbacks and can be checked against central finite differences with
:func:`validate`.

Node tables are the callback convention for the dynamics and the running
cost: ``X`` (m, n_x) and ``U`` (m, n_u) hold one node per row, and every
result has one row per node.  Endpoint callbacks take single points.  Steering
``xdot = u`` from 0 to 1 at least effort::

    OcpDefinition(
        "steer", n_x=1, n_u=1, horizon=(0.0, 1.0),
        dynamics=lambda X, U: U.copy(),                # (m, n_x)
        jac_fx=lambda X, U: np.zeros((len(X), 1, 1)),  # (m, n_x, n_x)
        jac_fu=lambda X, U: np.ones((len(X), 1, 1)),   # (m, n_x, n_u)
        endpoint_cost=lambda x_a, x_b: 0.0,
        grad_cost_xa=lambda x_a, x_b: np.zeros(1),
        grad_cost_xb=lambda x_a, x_b: np.zeros(1),
        constraints=pinned_endpoints(1, x_a_fixed=[0.0], x_b_fixed=[1.0]),
        running_cost=RunningCost(  # L = u^2: (m,), (m, n_x), (m, n_u)
            lambda X, U: U[:, 0] ** 2, lambda X, U: 0.0 * X, lambda X, U: 2.0 * U
        ),
    )

Callbacks must be pure: they are re-evaluated freely by transcriptions,
solvers, and verification, and results are assumed reproducible.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    BirktrajError,
    IncompleteDerivativesError,
    InvalidDomainError,
    NotFoundError,
    UnsupportedProblemError,
)

Array = np.ndarray

FD_STEP = 1e-6  # relative step of every central difference the package takes


class ConstraintKind(str, Enum):
    EQUALITY = "equality"
    INEQUALITY = "inequality"


@dataclass(frozen=True)
class EndpointConstraints:
    """Endpoint rows e(x_a, x_b); equality rows are pinned to zero, inequality
    rows impose e_i <= 0 with multiplier nu_i >= 0 and nu_i * e_i = 0."""

    fun: Callable[[Array, Array], Array]
    jac_xa: Callable[[Array, Array], Array]
    jac_xb: Callable[[Array, Array], Array]
    kinds: tuple[ConstraintKind, ...]

    @property
    def n_e(self) -> int:
        return len(self.kinds)

    def equality_mask(self) -> Array:
        return np.array([k is ConstraintKind.EQUALITY for k in self.kinds], dtype=bool)


def pinned_endpoints(
    n_x: int, x_a_fixed: Array | None = None, x_b_fixed: Array | None = None
) -> EndpointConstraints:
    """Equality rows x_a = given and/or x_b = given (row per state)."""
    x_a_fixed = None if x_a_fixed is None else np.asarray(x_a_fixed, dtype=float)
    x_b_fixed = None if x_b_fixed is None else np.asarray(x_b_fixed, dtype=float)
    n_a = 0 if x_a_fixed is None else n_x
    n_b = 0 if x_b_fixed is None else n_x
    eye, zero = np.eye(n_x), np.zeros((n_x, n_x))

    def fun(x_a, x_b):
        parts = []
        if x_a_fixed is not None:
            parts.append(x_a - x_a_fixed)
        if x_b_fixed is not None:
            parts.append(x_b - x_b_fixed)
        return np.concatenate(parts) if parts else np.zeros(0)

    ja = np.vstack([eye] * (n_a > 0) + [zero] * (n_b > 0)) if n_a + n_b else np.zeros((0, n_x))
    jb = np.vstack([zero] * (n_a > 0) + [eye] * (n_b > 0)) if n_a + n_b else np.zeros((0, n_x))
    return EndpointConstraints(
        fun=fun,
        jac_xa=lambda x_a, x_b: ja,
        jac_xb=lambda x_a, x_b: jb,
        kinds=(ConstraintKind.EQUALITY,) * (n_a + n_b),
    )


@dataclass(frozen=True)
class RunningCost:
    """Integrand L(x, u) on node tables, staged for Mayer reduction: ``fun``
    returns (m,), ``grad_x`` (m, n_x), ``grad_u`` (m, n_u); both gradients are
    required to augment."""

    fun: Callable[[Array, Array], Array]
    grad_x: Callable[[Array, Array], Array] | None = None
    grad_u: Callable[[Array, Array], Array] | None = None


@dataclass(frozen=True)
class OcpDefinition:
    """Dynamics callbacks take node tables ``X`` (m, n_x) and ``U`` (m, n_u):
    ``dynamics`` returns (m, n_x), ``jac_fx`` (m, n_x, n_x), ``jac_fu``
    (m, n_x, n_u), e.g. ``dynamics=lambda X, U: X @ A.T + U @ B.T`` with
    ``jac_fx=lambda X, U: np.broadcast_to(A, (len(X), n_x, n_x))``.  Endpoint
    callbacks take the single points ``x_a``, ``x_b``."""

    name: str
    n_x: int
    n_u: int
    horizon: tuple[float, float]
    dynamics: Callable[[Array, Array], Array]
    jac_fx: Callable[[Array, Array], Array]
    jac_fu: Callable[[Array, Array], Array]
    endpoint_cost: Callable[[Array, Array], float]
    grad_cost_xa: Callable[[Array, Array], Array]
    grad_cost_xb: Callable[[Array, Array], Array]
    constraints: EndpointConstraints
    running_cost: RunningCost | None = None
    # original state count when a cost state has been appended
    n_x_base: int | None = None

    def __post_init__(self):
        t0, tf = self.horizon
        if not (np.isfinite(t0) and np.isfinite(tf) and tf > t0):
            raise InvalidDomainError(f"horizon {self.horizon} must be finite with tf > t0")
        if self.n_x < 1 or self.n_u < 0:
            raise UnsupportedProblemError("need n_x >= 1 and n_u >= 0")

    @property
    def n_e(self) -> int:
        return self.constraints.n_e

    def hamiltonian_gradient(self, X: Array, U: Array, lam: Array) -> Array:
        """Gradient [f_x^T lam; f_u^T lam] of lam . f(x, u) with respect to
        (x, u) at every node, shaped (m, n_x + n_u)."""
        # stacked matmul repeats the single-node f_x^T lam arithmetic exactly
        lam_rows = lam[:, None, :]
        gx = (lam_rows @ self.jac_fx(X, U))[:, 0]
        if not self.n_u:
            return gx
        return np.concatenate([gx, (lam_rows @ self.jac_fu(X, U))[:, 0]], axis=1)

    def hamiltonian_curvatures(self, X: Array, U: Array, lam: Array) -> Array:
        """Central-difference Jacobians of :meth:`hamiltonian_gradient` at every
        node, shaped (m, n_x + n_u, n_x + n_u)."""
        n = self.n_x
        return _central_jacobian(
            lambda Y: self.hamiltonian_gradient(Y[:, :n], Y[:, n:], lam),
            np.concatenate([X, U], axis=1),
            FD_STEP,
        )

    def endpoint_lagrangian_gradient(self, x_a: Array, x_b: Array, nu: Array) -> Array:
        """Gradient [grad_xa; grad_xb] of E(x_a, x_b) + nu . e(x_a, x_b)."""
        g_xa = np.asarray(self.grad_cost_xa(x_a, x_b), dtype=float)
        g_xb = np.asarray(self.grad_cost_xb(x_a, x_b), dtype=float)
        if self.n_e:
            con = self.constraints
            g_xa = g_xa + np.asarray(con.jac_xa(x_a, x_b), dtype=float).T @ nu
            g_xb = g_xb + np.asarray(con.jac_xb(x_a, x_b), dtype=float).T @ nu
        return np.concatenate([g_xa, g_xb])

    def endpoint_lagrangian_curvature(self, x_a: Array, x_b: Array, nu: Array) -> Array:
        """Central-difference Jacobian of :meth:`endpoint_lagrangian_gradient`
        with respect to (x_a, x_b)."""
        n = self.n_x
        return _central_jacobian(
            lambda Y: self.endpoint_lagrangian_gradient(Y[0, :n], Y[0, n:], nu)[None],
            np.concatenate([x_a, x_b])[None],
            FD_STEP,
        )[0]


def augment_running_cost(
    ocp: OcpDefinition, running: RunningCost | None = None
) -> OcpDefinition:
    """Mayer reduction: append a state integrating L, add it to the endpoint cost.

    The new state starts at zero (appended equality row) and obeys
    xdot_{n_x} = L(x, u); the endpoint cost gains x_b[n_x].
    """
    running = running if running is not None else ocp.running_cost
    if running is None:
        raise IncompleteDerivativesError(f"problem {ocp.name!r} has no running cost to absorb")
    if running.grad_x is None or running.grad_u is None:
        raise IncompleteDerivativesError(
            "running-cost gradients are required for augmentation"
        )
    n = ocp.n_x

    def dynamics(X, U):
        return np.column_stack([ocp.dynamics(X[:, :n], U), running.fun(X[:, :n], U)])

    def jac_fx(X, U):
        out = np.zeros((len(X), n + 1, n + 1))
        out[:, :n, :n] = ocp.jac_fx(X[:, :n], U)
        out[:, n, :n] = running.grad_x(X[:, :n], U)
        return out

    def jac_fu(X, U):
        out = np.empty((len(X), n + 1, ocp.n_u))
        out[:, :n] = ocp.jac_fu(X[:, :n], U)
        out[:, n] = running.grad_u(X[:, :n], U)
        return out

    def endpoint_cost(x_a, x_b):
        return ocp.endpoint_cost(x_a[:n], x_b[:n]) + x_b[n]

    def grad_cost_xa(x_a, x_b):
        return np.concatenate([ocp.grad_cost_xa(x_a[:n], x_b[:n]), [0.0]])

    def grad_cost_xb(x_a, x_b):
        return np.concatenate([ocp.grad_cost_xb(x_a[:n], x_b[:n]), [1.0]])

    base = ocp.constraints

    def con_fun(x_a, x_b):
        return np.concatenate([base.fun(x_a[:n], x_b[:n]), [x_a[n]]])

    def con_jac_xa(x_a, x_b):
        out = np.zeros((base.n_e + 1, n + 1))
        out[: base.n_e, :n] = base.jac_xa(x_a[:n], x_b[:n])
        out[base.n_e, n] = 1.0
        return out

    def con_jac_xb(x_a, x_b):
        out = np.zeros((base.n_e + 1, n + 1))
        out[: base.n_e, :n] = base.jac_xb(x_a[:n], x_b[:n])
        return out

    constraints = EndpointConstraints(
        fun=con_fun,
        jac_xa=con_jac_xa,
        jac_xb=con_jac_xb,
        kinds=base.kinds + (ConstraintKind.EQUALITY,),
    )
    return OcpDefinition(
        name=ocp.name,
        n_x=n + 1,
        n_u=ocp.n_u,
        horizon=ocp.horizon,
        dynamics=dynamics,
        jac_fx=jac_fx,
        jac_fu=jac_fu,
        endpoint_cost=endpoint_cost,
        grad_cost_xa=grad_cost_xa,
        grad_cost_xb=grad_cost_xb,
        constraints=constraints,
        running_cost=None,
        n_x_base=n,
    )


# --- finite-difference validation -------------------------------------------


def _central_jacobian(fun: Callable[[Array], Array], Y: Array, step: float) -> Array:
    """Row-batched central differences.

    ``fun`` maps an (m, p) table to an (m, q) table row by row; the result is
    the (m, q, p) stack of row Jacobians at ``Y`` (p >= 1).  Two evaluations
    per column cover every row; row i steps ``step * max(1, |Y[i, j]|)`` in
    column j.
    """
    Y = np.asarray(Y, dtype=float)
    H = step * np.maximum(1.0, np.abs(Y))
    cols = []
    for j in range(Y.shape[1]):
        Yp, Ym = Y.copy(), Y.copy()
        Yp[:, j] += H[:, j]
        Ym[:, j] -= H[:, j]
        cols.append((fun(Yp) - fun(Ym)) / (2.0 * H[:, j, None]))
    return np.stack(cols, axis=2)


@dataclass(frozen=True)
class ValidationReport:
    tolerance: float
    worst: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.worst.values())

    def to_json_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "passed": self.passed,
            "worst_relative_error": dict(sorted(self.worst.items())),
        }


def validate(
    ocp: OcpDefinition,
    tol: float = 1e-5,
    n_points: int = 5,
    step: float = FD_STEP,
    seed: int = 0,
) -> ValidationReport:
    """Check every user Jacobian against central finite differences.

    Relative errors are max|analytic - FD| / max(1, max|FD|) over a fixed set
    of random evaluation points; deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    n, k = ocp.n_x, ocp.n_u
    # one point per row: x, u, x_a, x_b drawn in that order
    X, U, XA, XB = np.split(
        rng.uniform(-1.0, 1.0, (n_points, 3 * n + k)), [n, n + k, 2 * n + k], axis=1
    )
    worst: dict[str, float] = {}

    def check(block: str, user, fun, at: Array):
        # user and FD Jacobians as (n_points, q, p) tables; worst point kept
        fd = _central_jacobian(fun, at, step)
        err = np.max(np.abs(np.asarray(user) - fd), axis=(1, 2))
        worst[block] = float(np.max(err / np.maximum(1.0, np.max(np.abs(fd), axis=(1, 2)))))

    check("dynamics/x", ocp.jac_fx(X, U), lambda Y: ocp.dynamics(Y, U), X)
    if k:
        check("dynamics/u", ocp.jac_fu(X, U), lambda Y: ocp.dynamics(X, Y), U)
    endpoint = [
        (
            "endpoint_cost",
            lambda x_a, x_b: [ocp.endpoint_cost(x_a, x_b)],
            lambda x_a, x_b: [ocp.grad_cost_xa(x_a, x_b)],
            lambda x_a, x_b: [ocp.grad_cost_xb(x_a, x_b)],
        )
    ]
    if ocp.n_e:
        con = ocp.constraints
        endpoint.append(("constraints", con.fun, con.jac_xa, con.jac_xb))

    def by_point(cb):
        # a single-point endpoint callback mapped over the rows of (x_a, x_b)
        return lambda A, B: np.array([np.asarray(cb(a, b), dtype=float) for a, b in zip(A, B)])

    for name, *callbacks in endpoint:
        fun, jac_xa, jac_xb = map(by_point, callbacks)
        check(f"{name}/x_a", jac_xa(XA, XB), lambda Y: fun(Y, XB), XA)
        check(f"{name}/x_b", jac_xb(XA, XB), lambda Y: fun(XA, Y), XB)
    rc = ocp.running_cost
    if rc is not None and rc.grad_x is not None:
        check("running_cost/x", rc.grad_x(X, U)[:, None], lambda Y: rc.fun(Y, U)[:, None], X)
        if k:
            check("running_cost/u", rc.grad_u(X, U)[:, None], lambda Y: rc.fun(X, Y)[:, None], U)
    return ValidationReport(tolerance=tol, worst=worst)


# --- registry ----------------------------------------------------------------


def _double_integrator_energy() -> OcpDefinition:
    a_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    b_mat = np.array([[0.0], [1.0]])
    return OcpDefinition(
        name="double-integrator-energy",
        n_x=2,
        n_u=1,
        horizon=(0.0, 1.0),
        dynamics=lambda X, U: X @ a_mat.T + U @ b_mat.T,
        jac_fx=lambda X, U: np.broadcast_to(a_mat, (len(X), 2, 2)),
        jac_fu=lambda X, U: np.broadcast_to(b_mat, (len(X), 2, 1)),
        endpoint_cost=lambda x_a, x_b: 0.0,
        grad_cost_xa=lambda x_a, x_b: np.zeros(2),
        grad_cost_xb=lambda x_a, x_b: np.zeros(2),
        constraints=pinned_endpoints(2, x_a_fixed=[0.0, 0.0], x_b_fixed=[1.0, 0.0]),
        running_cost=RunningCost(
            fun=lambda X, U: 0.5 * U[:, 0] ** 2,
            grad_x=lambda X, U: np.zeros((len(X), 2)),
            grad_u=lambda X, U: U.copy(),
        ),
    )


def _scalar_lq() -> OcpDefinition:
    return OcpDefinition(
        name="scalar-lq",
        n_x=1,
        n_u=1,
        horizon=(0.0, 1.0),
        dynamics=lambda X, U: U.copy(),
        jac_fx=lambda X, U: np.zeros((len(X), 1, 1)),
        jac_fu=lambda X, U: np.ones((len(X), 1, 1)),
        endpoint_cost=lambda x_a, x_b: 0.0,
        grad_cost_xa=lambda x_a, x_b: np.zeros(1),
        grad_cost_xb=lambda x_a, x_b: np.zeros(1),
        constraints=pinned_endpoints(1, x_a_fixed=[0.0], x_b_fixed=[1.0]),
        running_cost=RunningCost(
            fun=lambda X, U: U[:, 0] ** 2,
            grad_x=lambda X, U: np.zeros((len(X), 1)),
            grad_u=lambda X, U: 2.0 * U,
        ),
    )


def _nonlinear_scalar() -> OcpDefinition:
    return OcpDefinition(
        name="nonlinear-scalar",
        n_x=1,
        n_u=1,
        horizon=(0.0, 1.0),
        dynamics=lambda X, U: -X**3 + U,
        jac_fx=lambda X, U: (-3.0 * X**2)[:, :, None],
        jac_fu=lambda X, U: np.ones((len(X), 1, 1)),
        endpoint_cost=lambda x_a, x_b: 0.0,
        grad_cost_xa=lambda x_a, x_b: np.zeros(1),
        grad_cost_xb=lambda x_a, x_b: np.zeros(1),
        constraints=pinned_endpoints(1, x_a_fixed=[1.0]),
        running_cost=RunningCost(
            fun=lambda X, U: 0.5 * (U[:, 0] ** 2 + X[:, 0] ** 2),
            grad_x=lambda X, U: X.copy(),
            grad_u=lambda X, U: U.copy(),
        ),
    )


def _zero_dynamics() -> OcpDefinition:
    return OcpDefinition(
        name="zero-dynamics",
        n_x=1,
        n_u=0,
        horizon=(0.0, 1.0),
        dynamics=lambda X, U: np.zeros((len(X), 1)),
        jac_fx=lambda X, U: np.zeros((len(X), 1, 1)),
        jac_fu=lambda X, U: np.zeros((len(X), 1, 0)),
        endpoint_cost=lambda x_a, x_b: float(x_b[0]) ** 2,
        grad_cost_xa=lambda x_a, x_b: np.zeros(1),
        grad_cost_xb=lambda x_a, x_b: np.array([2.0 * x_b[0]]),
        constraints=pinned_endpoints(1, x_a_fixed=[1.0]),
    )


_REGISTRY: dict[str, Callable[[], OcpDefinition]] = {
    "double-integrator-energy": _double_integrator_energy,
    "scalar-lq": _scalar_lq,
    "nonlinear-scalar": _nonlinear_scalar,
    "zero-dynamics": _zero_dynamics,
}


def registry(name: str) -> OcpDefinition:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise NotFoundError(
            f"unknown problem {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def registry_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form optimum in original (pre-augmentation) coordinates.

    ``state``/``costate`` map a time array to an (n_x, len(t)) table;
    ``control`` to (n_u, len(t)); ``cost_state`` is the running-cost integral
    along the optimum, for comparisons on augmented problems.
    """

    cost: float
    state: Callable[[Array], Array]
    control: Callable[[Array], Array] | None
    costate: Callable[[Array], Array] | None
    cost_state: Callable[[Array], Array] | None = None


def _double_integrator_solution() -> AnalyticSolution:
    return AnalyticSolution(
        cost=6.0,
        state=lambda t: np.vstack([3 * t**2 - 2 * t**3, 6 * t - 6 * t**2]),
        control=lambda t: np.vstack([6.0 - 12.0 * t]),
        costate=lambda t: np.vstack([-12.0 * np.ones_like(t), 12.0 * t - 6.0]),
        cost_state=lambda t: 18 * t - 36 * t**2 + 24 * t**3,
    )


def _scalar_lq_solution() -> AnalyticSolution:
    return AnalyticSolution(
        cost=1.0,
        state=lambda t: np.vstack([t]),
        control=lambda t: np.vstack([np.ones_like(t)]),
        costate=lambda t: np.vstack([-2.0 * np.ones_like(t)]),
        cost_state=lambda t: np.asarray(t, dtype=float).copy(),
    )


def _zero_dynamics_solution() -> AnalyticSolution:
    return AnalyticSolution(
        cost=1.0,
        state=lambda t: np.vstack([np.ones_like(t)]),
        control=None,
        costate=lambda t: np.vstack([2.0 * np.ones_like(t)]),
    )


_SOLUTIONS: dict[str, Callable[[], AnalyticSolution]] = {
    "double-integrator-energy": _double_integrator_solution,
    "scalar-lq": _scalar_lq_solution,
    "zero-dynamics": _zero_dynamics_solution,
}


def registry_solution(name: str) -> AnalyticSolution | None:
    if name not in _REGISTRY:
        raise NotFoundError(f"unknown problem {name!r}")
    builder = _SOLUTIONS.get(name)
    return builder() if builder else None


# --- JSON problem descriptions ------------------------------------------------
#
# Schema (all matrices row-major lists):
#   name, n_x, n_u, horizon: [t0, tf]
#   dynamics: {"A": .., "B": .., "c": ..}            linear sugar, or
#             {"terms": [[term, ...] per state]}      polynomial rows
#   term: {"coef": float, "x": [powers], "u": [powers]}
#   running_cost: {"terms": [term, ...]} | {"Q": .., "R": ..}   (optional)
#   endpoint_cost: {"terms": [{"coef", "xa": [powers], "xb": [powers]}]}  (optional)
#   constraints: [{"kind": "equality"|"inequality", "a": [..], "b": [..], "rhs": f}]
#     meaning  a . x_a + b . x_b - rhs  (=0 or <=0)


def _term_value(coef, powers: Array, values: Array):
    """coef * prod(values ** powers) along the last axis: one value per row of
    a node table, or one for a single point."""
    mask = powers > 0
    if not mask.any():
        return coef
    base = values[..., mask]
    # a full exponent table: numpy's power rounds differently for a broadcast
    # (stride-0) exponent, and a table row must match the single point exactly
    exps = np.broadcast_to(powers[mask], base.shape).copy()
    return coef * np.prod(base**exps, axis=-1)


def _poly_eval(terms, x: Array, u: Array) -> Array:
    total = np.zeros(x.shape[:-1])
    for coef, px, pu in terms:
        total += _term_value(_term_value(coef, px, x), pu, u)
    return total


def _poly_grad(terms, x: Array, u: Array, wrt: str) -> Array:
    target, other_val = (x, u) if wrt == "x" else (u, x)
    grad = np.zeros(target.shape)
    for coef, px, pu in terms:
        p_t, p_o = (px, pu) if wrt == "x" else (pu, px)
        base = _term_value(coef, p_o, other_val)
        for j in np.flatnonzero(p_t):
            rest = p_t.copy()
            rest[j] -= 1
            grad[..., j] += base * p_t[j] * _term_value(1.0, rest, target)
    return grad


# Row-by-row products (stacked matmul): each node's arithmetic is that of a
# single-node evaluation, whatever the number of rows in the table.
def _rowwise(mat: Array, Y: Array) -> Array:
    """mat @ y for every row y of Y."""
    return (mat @ Y[:, :, None])[:, :, 0]


def _quadratic(mat: Array, Y: Array) -> Array:
    """y @ mat @ y for every row y of Y."""
    return (Y[:, None, :] @ mat @ Y[:, :, None])[:, 0, 0]


def _parse_terms(raw, n_x: int, n_u: int, keys=("x", "u")):
    terms = []
    for entry in raw:
        if "coef" not in entry:
            raise UnsupportedProblemError(f"term {entry} has no 'coef'")
        px = np.asarray(entry.get(keys[0], [0] * n_x), dtype=int)
        pu = np.asarray(entry.get(keys[1], [0] * n_u), dtype=int)
        if px.shape != (n_x,) or pu.shape != (n_u,):
            raise UnsupportedProblemError(
                f"term power lists {keys[0]!r}/{keys[1]!r} need {n_x}/{n_u} entries"
            )
        terms.append((float(entry["coef"]), px, pu))
    return terms


def load_problem(source) -> OcpDefinition:
    """Build an OcpDefinition from a JSON file path, JSON text, or dict.

    A description with a missing field or a field of the wrong type raises
    UnsupportedProblemError.
    """
    if isinstance(source, dict):
        data = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        # JSON text; a path is never stat-ed for it (long text is no file name)
        data = json.loads(source)
    else:
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise NotFoundError(f"cannot read problem file {str(source)!r}: {exc}") from None
        data = json.loads(text)
    try:
        return _problem_from_dict(data)
    except BirktrajError:
        raise
    except KeyError as missing:
        raise UnsupportedProblemError(f"problem description missing {missing}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise UnsupportedProblemError(f"malformed problem description: {exc}") from None


def _count(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UnsupportedProblemError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _problem_from_dict(data: dict) -> OcpDefinition:
    n_x, n_u = _count(data, "n_x"), _count(data, "n_u")
    horizon = data["horizon"]
    dyn = data["dynamics"]
    name = str(data.get("name", "json-problem"))
    if not isinstance(horizon, (list, tuple)) or len(horizon) != 2:
        raise UnsupportedProblemError(f"horizon needs two entries [t0, tf], got {horizon!r}")
    horizon = tuple(float(t) for t in horizon)

    if "A" in dyn:
        a_mat = np.asarray(dyn["A"], dtype=float).reshape(n_x, n_x)
        b_mat = np.asarray(dyn.get("B", np.zeros((n_x, n_u))), dtype=float).reshape(n_x, n_u)
        c_vec = np.asarray(dyn.get("c", np.zeros(n_x)), dtype=float).reshape(n_x)
        dynamics = lambda X, U: _rowwise(a_mat, X) + _rowwise(b_mat, U) + c_vec  # noqa: E731
        jac_fx = lambda X, U: np.broadcast_to(a_mat, (len(X), n_x, n_x))  # noqa: E731
        jac_fu = lambda X, U: np.broadcast_to(b_mat, (len(X), n_x, n_u))  # noqa: E731
    elif "terms" in dyn:
        rows = [_parse_terms(row, n_x, n_u) for row in dyn["terms"]]
        if len(rows) != n_x:
            raise UnsupportedProblemError("dynamics needs one term list per state")
        dynamics = lambda X, U: np.stack([_poly_eval(r, X, U) for r in rows], axis=1)  # noqa: E731
        jac_fx = lambda X, U: np.stack([_poly_grad(r, X, U, "x") for r in rows], axis=1)  # noqa: E731
        jac_fu = lambda X, U: np.stack([_poly_grad(r, X, U, "u") for r in rows], axis=1)  # noqa: E731
    else:
        raise UnsupportedProblemError("dynamics must give either 'A' or 'terms'")

    running = None
    rc = data.get("running_cost")
    if rc is not None:
        if "Q" in rc or "R" in rc:
            q_mat = np.asarray(rc.get("Q", np.zeros((n_x, n_x))), dtype=float).reshape(n_x, n_x)
            r_mat = np.asarray(rc.get("R", np.zeros((n_u, n_u))), dtype=float).reshape(n_u, n_u)
            q_sym, r_sym = q_mat + q_mat.T, r_mat + r_mat.T
            running = RunningCost(
                fun=lambda X, U: _quadratic(q_mat, X) + _quadratic(r_mat, U),
                grad_x=lambda X, U: _rowwise(q_sym, X),
                grad_u=lambda X, U: _rowwise(r_sym, U),
            )
        elif "terms" in rc:
            terms = _parse_terms(rc["terms"], n_x, n_u)
            running = RunningCost(
                fun=lambda X, U: _poly_eval(terms, X, U),
                grad_x=lambda X, U: _poly_grad(terms, X, U, "x"),
                grad_u=lambda X, U: _poly_grad(terms, X, U, "u"),
            )
        else:
            raise UnsupportedProblemError("running_cost must give 'Q'/'R' or 'terms'")

    eterms = _parse_terms(
        data.get("endpoint_cost", {"terms": []})["terms"], n_x, n_x, keys=("xa", "xb")
    )

    kinds, a_rows, b_rows, rhs = [], [], [], []
    for row in data.get("constraints", []):
        kind = str(row.get("kind", "equality"))
        try:
            kinds.append(ConstraintKind(kind))
        except ValueError:
            raise UnsupportedProblemError(f"unknown constraint kind {kind!r}") from None
        a_rows.append(np.asarray(row.get("a", [0.0] * n_x), dtype=float))
        b_rows.append(np.asarray(row.get("b", [0.0] * n_x), dtype=float))
        if a_rows[-1].shape != (n_x,) or b_rows[-1].shape != (n_x,):
            raise UnsupportedProblemError(f"constraint 'a'/'b' need {n_x} entries each")
        rhs.append(float(row.get("rhs", 0.0)))
    a_mat_c = np.array(a_rows).reshape(len(kinds), n_x)
    b_mat_c = np.array(b_rows).reshape(len(kinds), n_x)
    rhs_v = np.array(rhs)

    return OcpDefinition(
        name=name,
        n_x=n_x,
        n_u=n_u,
        horizon=(horizon[0], horizon[1]),
        dynamics=dynamics,
        jac_fx=jac_fx,
        jac_fu=jac_fu,
        endpoint_cost=lambda x_a, x_b: float(_poly_eval(eterms, x_a, x_b)),
        grad_cost_xa=lambda x_a, x_b: _poly_grad(eterms, x_a, x_b, "x"),
        grad_cost_xb=lambda x_a, x_b: _poly_grad(eterms, x_a, x_b, "u"),
        constraints=EndpointConstraints(
            fun=lambda x_a, x_b: a_mat_c @ x_a + b_mat_c @ x_b - rhs_v,
            jac_xa=lambda x_a, x_b: a_mat_c,
            jac_xb=lambda x_a, x_b: b_mat_c,
            kinds=tuple(kinds),
        ),
        running_cost=running,
    )


def prepared(ocp: OcpDefinition) -> OcpDefinition:
    """Absorb any staged running cost; idempotent otherwise."""
    return augment_running_cost(ocp) if ocp.running_cost is not None else ocp


def constraint_violation(r: Array, eq: Array) -> Array:
    """Row-wise violation of constraint values ``r``: |r| on equality rows
    (``eq``), max(r, 0) on inequality rows r <= 0."""
    return np.where(eq, np.abs(r), np.maximum(r, 0.0))


def complementarity_violation(mu: Array, r: Array, eq: Array) -> float:
    """Worst violation of mu_i >= 0 and mu_i r_i = 0 over the inequality rows
    (``~eq``) of constraint values ``r``; 0.0 without inequality rows."""
    mu_in, r_in = mu[~eq], r[~eq]
    negative = np.max(-mu_in, initial=0.0)
    slack = np.max(np.abs(mu_in * r_in), initial=0.0)
    # 0.0 first: a tie returns +0.0, never the -0.0 that mu_i = 0.0 gives
    return float(max(0.0, negative, slack))
