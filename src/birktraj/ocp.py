"""Optimal control problems in endpoint-cost form.

A problem couples vector dynamics ``xdot = f(x, u)`` on a finite horizon with
an endpoint cost ``E(x_a, x_b)`` and endpoint constraint rows; running costs
are staged on the definition and absorbed into an extra state by
:func:`augment_running_cost` (the appended state integrates L and enters the
endpoint cost at the right end).  All derivative information is supplied as
callbacks and can be checked against central finite differences with
:func:`validate`.

Callbacks must be pure: they are re-evaluated freely by transcriptions,
solvers, and verification, and results are assumed reproducible.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    IncompleteDerivativesError,
    InvalidDomainError,
    NotFoundError,
    UnsupportedProblemError,
)

Array = np.ndarray


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


def no_constraints(n_x: int) -> EndpointConstraints:
    zero_rows = np.zeros((0, n_x))
    return EndpointConstraints(
        fun=lambda x_a, x_b: np.zeros(0),
        jac_xa=lambda x_a, x_b: zero_rows,
        jac_xb=lambda x_a, x_b: zero_rows,
        kinds=(),
    )


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
    """Integrand L(x, u) staged for Mayer reduction; gradients required to augment."""

    fun: Callable[[Array, Array], float]
    grad_x: Callable[[Array, Array], Array] | None = None
    grad_u: Callable[[Array, Array], Array] | None = None


@dataclass(frozen=True)
class OcpDefinition:
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

    def dynamics_table(self, X: Array, U: Array) -> Array:
        """f at every node: row i is f(X[i], U[i])."""
        f = np.empty(X.shape)
        for i, (x, u) in enumerate(zip(X, U)):
            f[i] = self.dynamics(x, u)
        return f

    def jacobian_tables(self, X: Array, U: Array) -> tuple[Array, Array]:
        """f_x and f_u at every node, shaped (m, n_x, n_x) and (m, n_x, n_u)."""
        m = len(X)
        fx = np.empty((m, self.n_x, self.n_x))
        fu = np.zeros((m, self.n_x, self.n_u))
        for i, (x, u) in enumerate(zip(X, U)):
            fx[i] = self.jac_fx(x, u)
            if self.n_u:
                fu[i] = self.jac_fu(x, u)
        return fx, fu

    def hamiltonian_gradient(self, x: Array, u: Array, lam: Array) -> Array:
        """Gradient [f_x^T lam; f_u^T lam] of lam . f(x, u) with respect to (x, u)."""
        gx = np.asarray(self.jac_fx(x, u), dtype=float).T @ lam
        if not self.n_u:
            return gx
        return np.concatenate([gx, np.asarray(self.jac_fu(x, u), dtype=float).T @ lam])

    def hamiltonian_curvatures(self, X: Array, U: Array, lam: Array, step: float) -> Array:
        """Central-difference Jacobians of :meth:`hamiltonian_gradient` at every
        node, shaped (m, n_x + n_u, n_x + n_u); zero where lam[i] is."""
        n = self.n_x
        out = np.zeros((len(X), n + self.n_u, n + self.n_u))
        for i, (x, u, lam_i) in enumerate(zip(X, U, lam)):
            if np.any(lam_i):
                out[i] = _central_jacobian(
                    lambda y: self.hamiltonian_gradient(y[:n], y[n:], lam_i),
                    np.concatenate([x, u]),
                    step,
                )
        return out

    def endpoint_lagrangian_gradient(self, x_a: Array, x_b: Array, nu: Array) -> Array:
        """Gradient [grad_xa; grad_xb] of E(x_a, x_b) + nu . e(x_a, x_b)."""
        g_xa = np.asarray(self.grad_cost_xa(x_a, x_b), dtype=float)
        g_xb = np.asarray(self.grad_cost_xb(x_a, x_b), dtype=float)
        if self.n_e:
            con = self.constraints
            g_xa = g_xa + np.asarray(con.jac_xa(x_a, x_b), dtype=float).T @ nu
            g_xb = g_xb + np.asarray(con.jac_xb(x_a, x_b), dtype=float).T @ nu
        return np.concatenate([g_xa, g_xb])

    def endpoint_lagrangian_curvature(
        self, x_a: Array, x_b: Array, nu: Array, step: float
    ) -> Array:
        """Central-difference Jacobian of :meth:`endpoint_lagrangian_gradient`
        with respect to (x_a, x_b)."""
        n = self.n_x
        return _central_jacobian(
            lambda y: self.endpoint_lagrangian_gradient(y[:n], y[n:], nu),
            np.concatenate([x_a, x_b]),
            step,
        )


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

    def dynamics(x, u):
        return np.concatenate([ocp.dynamics(x[:n], u), [running.fun(x[:n], u)]])

    def jac_fx(x, u):
        out = np.zeros((n + 1, n + 1))
        out[:n, :n] = ocp.jac_fx(x[:n], u)
        out[n, :n] = running.grad_x(x[:n], u)
        return out

    def jac_fu(x, u):
        return np.vstack([ocp.jac_fu(x[:n], u), running.grad_u(x[:n], u)[None, :]])

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


def _central_jacobian(fun: Callable[[Array], Array], x: Array, step: float) -> Array:
    """Central differences of ``fun`` at a non-empty ``x``: two evaluations per
    column, with step ``step * max(1, |x_j|)`` in column j."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2.0 * h))
    return np.stack(cols, axis=1)


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
    step: float = 1e-6,
    seed: int = 0,
) -> ValidationReport:
    """Check every user Jacobian against central finite differences.

    Relative errors are max|analytic - FD| / max(1, max|FD|) over a fixed set
    of random evaluation points; deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}

    def record(block: str, user: Array, fd: Array):
        user = np.atleast_2d(np.asarray(user, dtype=float))
        fd = np.atleast_2d(fd)
        err = np.max(np.abs(user - fd)) / max(1.0, float(np.max(np.abs(fd))))
        worst[block] = max(worst.get(block, 0.0), float(err))

    for _ in range(n_points):
        x = rng.uniform(-1.0, 1.0, ocp.n_x)
        u = rng.uniform(-1.0, 1.0, ocp.n_u)
        x_a = rng.uniform(-1.0, 1.0, ocp.n_x)
        x_b = rng.uniform(-1.0, 1.0, ocp.n_x)
        record(
            "dynamics/x",
            ocp.jac_fx(x, u),
            _central_jacobian(lambda xx: ocp.dynamics(xx, u), x, step),
        )
        if ocp.n_u:
            record(
                "dynamics/u",
                ocp.jac_fu(x, u),
                _central_jacobian(lambda uu: ocp.dynamics(x, uu), u, step),
            )
        record(
            "endpoint_cost/x_a",
            ocp.grad_cost_xa(x_a, x_b)[None, :],
            _central_jacobian(lambda xx: np.array([ocp.endpoint_cost(xx, x_b)]), x_a, step),
        )
        record(
            "endpoint_cost/x_b",
            ocp.grad_cost_xb(x_a, x_b)[None, :],
            _central_jacobian(lambda xx: np.array([ocp.endpoint_cost(x_a, xx)]), x_b, step),
        )
        if ocp.n_e:
            con = ocp.constraints
            record(
                "constraints/x_a",
                con.jac_xa(x_a, x_b),
                _central_jacobian(lambda xx: con.fun(xx, x_b), x_a, step),
            )
            record(
                "constraints/x_b",
                con.jac_xb(x_a, x_b),
                _central_jacobian(lambda xx: con.fun(x_a, xx), x_b, step),
            )
        if ocp.running_cost is not None and ocp.running_cost.grad_x is not None:
            rc = ocp.running_cost
            record(
                "running_cost/x",
                rc.grad_x(x, u)[None, :],
                _central_jacobian(lambda xx: np.array([rc.fun(xx, u)]), x, step),
            )
            if ocp.n_u:
                record(
                    "running_cost/u",
                    rc.grad_u(x, u)[None, :],
                    _central_jacobian(lambda uu: np.array([rc.fun(x, uu)]), u, step),
                )
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
        dynamics=lambda x, u: a_mat @ x + b_mat @ u,
        jac_fx=lambda x, u: a_mat,
        jac_fu=lambda x, u: b_mat,
        endpoint_cost=lambda x_a, x_b: 0.0,
        grad_cost_xa=lambda x_a, x_b: np.zeros(2),
        grad_cost_xb=lambda x_a, x_b: np.zeros(2),
        constraints=pinned_endpoints(2, x_a_fixed=[0.0, 0.0], x_b_fixed=[1.0, 0.0]),
        running_cost=RunningCost(
            fun=lambda x, u: 0.5 * float(u[0]) ** 2,
            grad_x=lambda x, u: np.zeros(2),
            grad_u=lambda x, u: np.array([u[0]]),
        ),
    )


def _scalar_lq() -> OcpDefinition:
    return OcpDefinition(
        name="scalar-lq",
        n_x=1,
        n_u=1,
        horizon=(0.0, 1.0),
        dynamics=lambda x, u: u.copy(),
        jac_fx=lambda x, u: np.zeros((1, 1)),
        jac_fu=lambda x, u: np.ones((1, 1)),
        endpoint_cost=lambda x_a, x_b: 0.0,
        grad_cost_xa=lambda x_a, x_b: np.zeros(1),
        grad_cost_xb=lambda x_a, x_b: np.zeros(1),
        constraints=pinned_endpoints(1, x_a_fixed=[0.0], x_b_fixed=[1.0]),
        running_cost=RunningCost(
            fun=lambda x, u: float(u[0]) ** 2,
            grad_x=lambda x, u: np.zeros(1),
            grad_u=lambda x, u: 2.0 * u,
        ),
    )


def _nonlinear_scalar() -> OcpDefinition:
    return OcpDefinition(
        name="nonlinear-scalar",
        n_x=1,
        n_u=1,
        horizon=(0.0, 1.0),
        dynamics=lambda x, u: np.array([-x[0] ** 3 + u[0]]),
        jac_fx=lambda x, u: np.array([[-3.0 * x[0] ** 2]]),
        jac_fu=lambda x, u: np.ones((1, 1)),
        endpoint_cost=lambda x_a, x_b: 0.0,
        grad_cost_xa=lambda x_a, x_b: np.zeros(1),
        grad_cost_xb=lambda x_a, x_b: np.zeros(1),
        constraints=pinned_endpoints(1, x_a_fixed=[1.0]),
        running_cost=RunningCost(
            fun=lambda x, u: 0.5 * (float(u[0]) ** 2 + float(x[0]) ** 2),
            grad_x=lambda x, u: x.copy(),
            grad_u=lambda x, u: u.copy(),
        ),
    )


def _zero_dynamics() -> OcpDefinition:
    return OcpDefinition(
        name="zero-dynamics",
        n_x=1,
        n_u=0,
        horizon=(0.0, 1.0),
        dynamics=lambda x, u: np.zeros(1),
        jac_fx=lambda x, u: np.zeros((1, 1)),
        jac_fu=lambda x, u: np.zeros((1, 0)),
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


def _term_value(coef: float, powers: Array, values: Array) -> float:
    mask = powers > 0
    if not mask.any():
        return coef
    return coef * float(np.prod(values[mask] ** powers[mask]))


def _poly_eval(terms, x: Array, u: Array) -> float:
    total = 0.0
    for coef, px, pu in terms:
        total += _term_value(_term_value(coef, px, x), pu, u)
    return total


def _poly_grad(terms, x: Array, u: Array, wrt: str) -> Array:
    target, other_val = (x, u) if wrt == "x" else (u, x)
    grad = np.zeros(target.size)
    for coef, px, pu in terms:
        p_t, p_o = (px, pu) if wrt == "x" else (pu, px)
        base = _term_value(coef, p_o, other_val)
        for j in range(target.size):
            if p_t[j] == 0:
                continue
            rest = p_t.copy()
            rest[j] -= 1
            grad[j] += base * p_t[j] * _term_value(1.0, rest, target)
    return grad


def _parse_terms(raw, n_x: int, n_u: int):
    terms = []
    for entry in raw:
        px = np.asarray(entry.get("x", [0] * n_x), dtype=int)
        pu = np.asarray(entry.get("u", [0] * n_u), dtype=int)
        if px.size != n_x or pu.size != n_u:
            raise UnsupportedProblemError("term power lists must match n_x/n_u")
        terms.append((float(entry["coef"]), px, pu))
    return terms


def load_problem(source) -> OcpDefinition:
    """Build an OcpDefinition from a JSON file path, JSON text, or dict."""
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
        n_x, n_u = int(data["n_x"]), int(data["n_u"])
        horizon = tuple(float(t) for t in data["horizon"])
        dyn = data["dynamics"]
        name = str(data.get("name", "json-problem"))
    except KeyError as missing:
        raise UnsupportedProblemError(f"problem description missing {missing}") from None

    if "A" in dyn:
        a_mat = np.asarray(dyn["A"], dtype=float).reshape(n_x, n_x)
        b_mat = np.asarray(dyn.get("B", np.zeros((n_x, n_u))), dtype=float).reshape(n_x, n_u)
        c_vec = np.asarray(dyn.get("c", np.zeros(n_x)), dtype=float).reshape(n_x)
        dynamics = lambda x, u: a_mat @ x + b_mat @ u + c_vec  # noqa: E731
        jac_fx = lambda x, u: a_mat  # noqa: E731
        jac_fu = lambda x, u: b_mat  # noqa: E731
    elif "terms" in dyn:
        rows = [_parse_terms(row, n_x, n_u) for row in dyn["terms"]]
        if len(rows) != n_x:
            raise UnsupportedProblemError("dynamics needs one term list per state")
        dynamics = lambda x, u: np.array([_poly_eval(r, x, u) for r in rows])  # noqa: E731
        jac_fx = lambda x, u: np.array([_poly_grad(r, x, u, "x") for r in rows])  # noqa: E731
        jac_fu = lambda x, u: np.array([_poly_grad(r, x, u, "u") for r in rows])  # noqa: E731
    else:
        raise UnsupportedProblemError("dynamics must give either 'A' or 'terms'")

    running = None
    rc = data.get("running_cost")
    if rc is not None:
        if "Q" in rc or "R" in rc:
            q_mat = np.asarray(rc.get("Q", np.zeros((n_x, n_x))), dtype=float).reshape(n_x, n_x)
            r_mat = np.asarray(rc.get("R", np.zeros((n_u, n_u))), dtype=float).reshape(n_u, n_u)
            running = RunningCost(
                fun=lambda x, u: float(x @ q_mat @ x + u @ r_mat @ u),
                grad_x=lambda x, u: (q_mat + q_mat.T) @ x,
                grad_u=lambda x, u: (r_mat + r_mat.T) @ u,
            )
        else:
            terms = _parse_terms(rc["terms"], n_x, n_u)
            running = RunningCost(
                fun=lambda x, u: _poly_eval(terms, x, u),
                grad_x=lambda x, u: _poly_grad(terms, x, u, "x"),
                grad_u=lambda x, u: _poly_grad(terms, x, u, "u"),
            )

    ec = data.get("endpoint_cost")
    if ec is None:
        endpoint_cost = lambda x_a, x_b: 0.0  # noqa: E731
        grad_xa = lambda x_a, x_b: np.zeros(n_x)  # noqa: E731
        grad_xb = lambda x_a, x_b: np.zeros(n_x)  # noqa: E731
    else:
        eterms = [
            (
                float(t["coef"]),
                np.asarray(t.get("xa", [0] * n_x), dtype=int),
                np.asarray(t.get("xb", [0] * n_x), dtype=int),
            )
            for t in ec["terms"]
        ]
        endpoint_cost = lambda x_a, x_b: _poly_eval(eterms, x_a, x_b)  # noqa: E731
        grad_xa = lambda x_a, x_b: _poly_grad(eterms, x_a, x_b, "x")  # noqa: E731
        grad_xb = lambda x_a, x_b: _poly_grad(eterms, x_a, x_b, "u")  # noqa: E731

    con_rows = data.get("constraints", [])
    if con_rows:
        kinds = []
        a_rows, b_rows, rhs = [], [], []
        for row in con_rows:
            kind = str(row.get("kind", "equality"))
            try:
                kinds.append(ConstraintKind(kind))
            except ValueError:
                raise UnsupportedProblemError(f"unknown constraint kind {kind!r}") from None
            a_rows.append(np.asarray(row.get("a", [0.0] * n_x), dtype=float))
            b_rows.append(np.asarray(row.get("b", [0.0] * n_x), dtype=float))
            rhs.append(float(row.get("rhs", 0.0)))
        a_mat_c = np.vstack(a_rows)
        b_mat_c = np.vstack(b_rows)
        rhs_v = np.array(rhs)
        constraints = EndpointConstraints(
            fun=lambda x_a, x_b: a_mat_c @ x_a + b_mat_c @ x_b - rhs_v,
            jac_xa=lambda x_a, x_b: a_mat_c,
            jac_xb=lambda x_a, x_b: b_mat_c,
            kinds=tuple(kinds),
        )
    else:
        constraints = no_constraints(n_x)

    return OcpDefinition(
        name=name,
        n_x=n_x,
        n_u=n_u,
        horizon=(horizon[0], horizon[1]),
        dynamics=dynamics,
        jac_fx=jac_fx,
        jac_fu=jac_fu,
        endpoint_cost=endpoint_cost,
        grad_cost_xa=grad_xa,
        grad_cost_xb=grad_xb,
        constraints=constraints,
        running_cost=running,
    )


def prepared(ocp: OcpDefinition) -> OcpDefinition:
    """Absorb any staged running cost; idempotent otherwise."""
    return augment_running_cost(ocp) if ocp.running_cost is not None else ocp


def complementarity_violation(
    nu: Array, e_vals: Array, kinds: tuple[ConstraintKind, ...]
) -> float:
    """Worst violation of nu_i >= 0 and nu_i * e_i = 0 over inequality rows."""
    worst = 0.0
    for i, kind in enumerate(kinds):
        if kind is ConstraintKind.EQUALITY:
            continue
        worst = max(worst, -float(nu[i]), abs(float(nu[i] * e_vals[i])))
    return worst
