"""Discrete costates: multiplier mapping, adjoint-system checks, indirect solves.

The discretized first-order system has two anchoring choices on the state side
and two on the costate side, each in a plain (pointwise) or weighted (Galerkin)
flavor — sixteen variants in all.  One square system, :class:`_IndirectSystem`,
holds all of them: each side's anchored rows come from the same
:class:`~birktraj.transcription.AnchoredBlock` the primal NLP uses, and the
Galerkin weighting is one row-scale vector.  :func:`solve_indirect` finds its
root; :func:`verify_pontryagin` evaluates its residual once at a given
(primal, dual) pair and reads the report blocks off the row slices.
Three variants are reachable from a converged NLP, whose multipliers
:func:`map_covectors` reads as costates with one rule:

    form a (plain)      ->  variant (a, b_star)
    form a_star         ->  variant (a_star, b_star)
    form a (scaled)     ->  variant (a, b)

Every other (form -> variant) pairing is refused by :func:`map_covectors`, and
reports for the remaining variants are marked experimental.  The weighted
anti-symmetry of the Birkhoff matrices holds only up to the integration-by-
parts defect, so costate residuals are judged against a tolerance with that
defect built in (see :func:`default_tolerance`).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .birkhoff import BirkhoffSystem, ibp_defect_norm
from .errors import (
    DegenerateWeightError,
    NoConvergenceError,
    ShapeError,
    UnsupportedMappingError,
    UnsupportedProblemError,
)
from .ocp import (
    FD_STEP,
    ConstraintKind,
    OcpDefinition,
    _central_jacobian,
    complementarity_violation,
    constraint_violation,
    prepared,
)
from .solver import NlpResult, check_tolerance, regularized_solve
from .transcription import (
    AnchoredBlock,
    FormTag,
    PrimalForm,
    PrimalSolution,
    consecutive_slices,
    endpoint_seed,
    set_node_blocks,
)

Array = np.ndarray

TOLERANCE_FLOOR = 1e-6  # no default verification tolerance is tighter
# residual infinity norm the indirect Newton iteration stops at, its iteration cap
INDIRECT_TOL, INDIRECT_MAX_ITER = 1e-10, 100

# the proven multiplier-to-costate routes: (form tag, scaled) -> (state, costate) variant
_ROUTES = {
    (FormTag.A, False): (FormTag.A, FormTag.B_STAR),
    (FormTag.A_STAR, False): (FormTag.A_STAR, FormTag.B_STAR),
    (FormTag.A, True): (FormTag.A, FormTag.B),
}


@dataclass(frozen=True)
class DualVariant:
    """Anchor/weighting choice for the state side and the costate side."""

    state_form: FormTag
    costate_form: FormTag

    def __post_init__(self):
        object.__setattr__(self, "state_form", FormTag(self.state_form))
        object.__setattr__(self, "costate_form", FormTag(self.costate_form))

    @property
    def verified(self) -> bool:
        return (self.state_form, self.costate_form) in _ROUTES.values()

    @property
    def experimental(self) -> bool:
        return not self.verified

    @staticmethod
    def parse(text: str) -> "DualVariant":
        parts = [p.strip() for p in str(text).split(",")]
        if len(parts) != 2:
            raise ShapeError(f"expected 'state,costate' pair, got {text!r}")
        return DualVariant(FormTag(parts[0]), FormTag(parts[1]))

    def __str__(self):
        return f"{self.state_form.value},{self.costate_form.value}"


@dataclass(frozen=True)
class DualTrajectory:
    """Discrete costate estimates at the nodes.

    ``costates`` and ``costate_derivs`` are (N+1, n_x) node tables; the
    interpolant anchored at ``costate_final`` with derivative values
    ``costate_derivs`` reproduces ``costates`` up to the reported residuals.
    """

    costates: Array
    costate_derivs: Array
    costate_initial: Array  # value at the left endpoint
    costate_final: Array  # value at the right endpoint
    endpoint: Array  # multipliers of the endpoint constraint rows

    def to_json_dict(self) -> dict:
        return {
            "costates": self.costates.tolist(),
            "costate_derivs": self.costate_derivs.tolist(),
            "costate_initial": self.costate_initial.tolist(),
            "costate_final": self.costate_final.tolist(),
            "endpoint": self.endpoint.tolist(),
        }

    def write_csv(self, path) -> None:
        m, n = self.costates.shape
        header = (
            ["node"]
            + [f"costate_{j}" for j in range(n)]
            + [f"costate_deriv_{j}" for j in range(n)]
        )
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for i in range(m):
                row = [i] + [f"{v:.17g}" for v in self.costates[i]]
                row += [f"{v:.17g}" for v in self.costate_derivs[i]]
                writer.writerow(row)


def verified_variant(form: PrimalForm) -> DualVariant:
    """The dual variant whose root system a converged solve of ``form``
    satisfies after :func:`map_covectors` (the three proven routes)."""
    route = _ROUTES.get((form.tag, form.scaled))
    if route is None:
        raise UnsupportedMappingError(
            f"no verified multiplier-to-costate map for form {form}"
        )
    return DualVariant(*route)


def map_covectors(result: NlpResult, form: PrimalForm, sys: BirkhoffSystem) -> DualTrajectory:
    """Read discrete costates off converged KKT multipliers.

    One rule serves the three proven routes.  Let omega = w on the plain and
    scaled forms and omega = 1 on the starred forms, whose rows already carry
    w.  The costates are -(dynamics multipliers)/omega, the costate
    derivatives Omega = (interpolation multipliers)/omega; the right-endpoint
    costate is lam_b = -(equivalency multipliers) and the left one follows
    from the costate grid-equivalency identity lam_a = lam_b - w^T Omega.
    The scaled form has the plain form's constraint rows, so it follows the
    plain rule.
    """
    verified_variant(form)  # raises for the unverified pairings
    if not result.converged:
        raise NoConvergenceError(
            f"covector mapping needs a converged result, got status {result.status.value!r}"
        )
    rows = result.rows
    if not rows:
        raise ShapeError("result carries no constraint row layout")
    w = sys.w_B
    if form.starred:
        omega = np.ones_like(w)  # exactly 1.0: dividing by it changes no bit
    elif np.any(w == 0.0):
        raise DegenerateWeightError("zero quadrature weight in costate normalization")
    else:
        omega = w
    mu, m = result.multipliers, w.size
    n_dyn, n_x = mu[rows["dynamics"]].size, mu[rows["grid_equivalency"]].size
    if n_dyn != m * n_x:
        raise ShapeError(
            f"result has {n_dyn // n_x} nodes, the Birkhoff system {m}; "
            f"map with the system the problem was transcribed on"
        )
    derivs = mu[rows["state_interpolation"]].reshape(m, -1) / omega[:, None]
    lam_b = -mu[rows["grid_equivalency"]]
    return DualTrajectory(
        costates=-mu[rows["dynamics"]].reshape(m, -1) / omega[:, None],
        costate_derivs=derivs,
        costate_initial=lam_b - w @ derivs,
        costate_final=lam_b,
        endpoint=mu[rows["endpoint"]].copy(),
    )


# --- adjoint-system verification -------------------------------------------------


@dataclass(frozen=True)
class PontryaginReport:
    """Infinity norms of every block of one variant's root system.

    ``hamiltonian_constancy`` is informational (autonomous problems make the
    node Hamiltonian constant in the limit) and does not gate ``passed``.
    """

    variant: DualVariant
    tolerance: float
    blocks: dict
    hamiltonian_constancy: float
    experimental: bool

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.blocks.values())

    def worst_block(self) -> tuple[str, float]:
        name = max(self.blocks, key=self.blocks.get)
        return name, self.blocks[name]

    def to_json_dict(self) -> dict:
        return {
            "variant": str(self.variant),
            "tolerance": self.tolerance,
            "blocks": dict(self.blocks),
            "hamiltonian_constancy": self.hamiltonian_constancy,
            "experimental": self.experimental,
            "passed": self.passed,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def default_tolerance(sys: BirkhoffSystem) -> float:
    """Costate residuals inherit the integration-by-parts defect; anything
    below ten times its norm is indistinguishable from that budget."""
    return max(TOLERANCE_FLOOR, 10.0 * ibp_defect_norm(sys))


def _inf_norm(a: Array) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def verify_pontryagin(
    ocp: OcpDefinition,
    primal: PrimalSolution,
    dual: DualTrajectory,
    sys: BirkhoffSystem,
    variant: DualVariant,
    tol: Optional[float] = None,
) -> PontryaginReport:
    """Evaluate one variant's root system at (primal, dual) and report norms.

    The blocks are read off the rows of the residual that :func:`solve_indirect`
    drives to zero; endpoint rows count only where they are violated.
    """
    p = prepared(ocp)
    m, n = sys.N + 1, p.n_x
    if primal.X.shape != (m, n) or dual.costates.shape != (m, n):
        raise ShapeError(
            f"trajectory shapes {primal.X.shape}/{dual.costates.shape} do not match "
            f"(N+1, n_x) = ({m}, {n})"
        )
    if tol is None:
        tol = default_tolerance(sys)
    check_tolerance(tol, "verification")
    system = _IndirectSystem(p, sys, variant)
    unweighted, f_tab = system.evaluate(system.pack_solution(primal, dual))
    r = unweighted * system.row_scale

    parts = {name: r[rows] for name, rows in system.rows.items()}
    e_vals, eq = parts["endpoint_feasibility"], p.constraints.equality_mask()
    parts["endpoint_feasibility"] = constraint_violation(e_vals, eq)
    blocks = {name: _inf_norm(a) for name, a in parts.items()}
    blocks["complementarity"] = complementarity_violation(dual.endpoint, e_vals, eq)

    ham = np.einsum("ij,ij->i", dual.costates, f_tab)
    return PontryaginReport(
        variant=variant,
        tolerance=float(tol),
        blocks=blocks,
        hamiltonian_constancy=_inf_norm(ham - np.mean(ham)),
        experimental=variant.experimental,
    )


# --- indirect solve ------------------------------------------------------------


def _recover_controls(ocp: OcpDefinition, X: Array, lam: Array) -> Array:
    """Newton on the Hamiltonian stationarity condition f_u^T lam = 0, from
    u = 0, on every node at once; a node leaves once its gradient is at most
    1e-12.

    The second derivative is probed by finite differences; a singular one at
    the seed point means the stationarity condition cannot be solved for u.
    """
    U = np.zeros((len(X), ocp.n_u))
    if ocp.n_u == 0:
        return U

    def grad(nodes, U_nodes):  # f_u^T lam at the given nodes
        return (lam[nodes, None, :] @ ocp.jac_fu(X[nodes], U_nodes))[:, 0]

    live = np.arange(len(X))
    for _ in range(25):
        g = grad(live, U[live])
        keep = np.max(np.abs(g), axis=1) > 1e-12
        live, g = live[keep], g[keep]
        if not live.size:
            break
        curv = _central_jacobian(lambda U_live: grad(live, U_live), U[live], FD_STEP)
        try:
            step = np.linalg.solve(curv, -g[:, :, None])
        except np.linalg.LinAlgError:
            raise UnsupportedProblemError(
                "Hamiltonian is not regular: stationarity not solvable for the control"
            ) from None
        U[live] += step[:, :, 0]
    return U


class _IndirectSystem:
    """Square root-finding system for one (ocp, grid, variant) triple.

    The residual is :meth:`evaluate`'s unweighted rows times ``row_scale``,
    the quadrature weights on the rows of each starred side.
    """

    def __init__(self, ocp: OcpDefinition, sys: BirkhoffSystem, variant: DualVariant):
        self.ocp = ocp
        self.sys = sys
        m, n, k, n_e = sys.N + 1, ocp.n_x, ocp.n_u, ocp.n_e
        self.m, self.n, self.n_e = m, n, n_e
        node, end = (m, n), (n,)
        self._shapes = {
            "X": node, "U": (m, k), "V": node, "lam": node, "om": node,
            "x_a": end, "x_b": end, "lam_a": end, "lam_b": end, "nu": (n_e,),
        }
        self.sl = consecutive_slices({nm: math.prod(s) for nm, s in self._shapes.items()})
        self.n_y = self.sl["nu"].stop
        # row blocks, named as in the verification report
        self.rows = consecutive_slices({
            "state_interpolation": m * n, "dynamics": m * n, "state_equivalency": n,
            "costate_interpolation": m * n, "adjoint": m * n, "control_stationarity": m * k,
            "costate_equivalency": n,
            "endpoint_feasibility": n_e, "transversality_initial": n, "transversality_final": n,
        })
        assert self.rows["transversality_final"].stop == self.n_y

        rows, sl = self.rows, self.sl
        self.state = AnchoredBlock(sys, variant.state_form, n)
        self.costate = AnchoredBlock(sys, variant.costate_form, n)
        self._state_layout = (
            (rows["state_interpolation"], rows["state_equivalency"]),
            (sl["X"], sl["V"], sl["x_a"], sl["x_b"]),
        )
        self._costate_layout = (
            (rows["costate_interpolation"], rows["costate_equivalency"]),
            (sl["lam"], sl["om"], sl["lam_a"], sl["lam_b"]),
        )
        self._weighted = []  # row blocks that carry their node's quadrature weight
        if variant.state_form.starred:
            self._weighted += [rows["state_interpolation"], rows["dynamics"]]
        if variant.costate_form.starred:
            self._weighted += [
                rows[name] for name in ("costate_interpolation", "adjoint", "control_stationarity")
            ]
        self.row_scale = np.ones(self.n_y)
        for s in self._weighted:
            self.row_scale[s] = np.repeat(sys.w_B, (s.stop - s.start) // m)

    def split(self, y: Array):
        """(X, U, V, lam, om, x_a, x_b, lam_a, lam_b, nu) as views into ``y``."""
        return tuple(y[self.sl[nm]].reshape(shape) for nm, shape in self._shapes.items())

    def pack(self, *blocks) -> Array:
        """Inverse of :meth:`split`: the ten blocks, in its order, as one vector."""
        y = np.concatenate([np.asarray(b, dtype=float).ravel() for b in blocks])
        if y.shape != (self.n_y,):
            raise ShapeError(f"unknowns have {y.size} entries, expected {self.n_y}")
        return y

    def pack_solution(self, primal: PrimalSolution, dual: DualTrajectory) -> Array:
        return self.pack(
            primal.X, primal.U, primal.V, dual.costates, dual.costate_derivs,
            primal.x_a, primal.x_b, dual.costate_initial, dual.costate_final, dual.endpoint,
        )

    def evaluate(self, y: Array):
        """(unweighted residual rows, dynamics table) at ``y``."""
        X, U, V, lam, om, x_a, x_b, lam_a, lam_b, nu = self.split(y)
        p, rows, n = self.ocp, self.rows, self.n
        f_tab = p.dynamics(X, U)
        g_ham = p.hamiltonian_gradient(X, U, lam)
        r = np.empty(self.n_y)
        r[rows["state_interpolation"]], r[rows["state_equivalency"]] = self.state.residual(
            X, V, x_a, x_b
        )
        r[rows["dynamics"]] = (V - f_tab).ravel()
        r[rows["costate_interpolation"]], r[rows["costate_equivalency"]] = (
            self.costate.residual(lam, om, lam_a, lam_b)
        )
        r[rows["adjoint"]] = (om + g_ham[:, :n]).ravel()
        r[rows["control_stationarity"]] = g_ham[:, n:].ravel()
        r[rows["endpoint_feasibility"]] = p.constraints.fun(x_a, x_b)
        g = p.endpoint_lagrangian_gradient(x_a, x_b, nu)
        r[rows["transversality_initial"]] = lam_a + g[:n]
        r[rows["transversality_final"]] = lam_b - g[n:]
        return r, f_tab

    def residual(self, y: Array) -> Array:
        return self.evaluate(y)[0] * self.row_scale

    def jacobian(self, y: Array) -> Array:
        X, U, _, lam, _, x_a, x_b, _, _, nu = self.split(y)
        p, sl, rows, n = self.ocp, self.sl, self.rows, self.n
        jac = np.zeros((self.n_y, self.n_y))
        self.state.write_partials(jac, *self._state_layout)
        self.costate.write_partials(jac, *self._costate_layout)

        # dynamics rows carry -f; adjoint and control rows carry f_x^T lam and
        # f_u^T lam: lam enters linearly, (x, u) through the dynamics
        # Jacobians, whose products are differentiated numerically
        r_dyn, r_adj = rows["dynamics"].start, rows["adjoint"].start
        r_ctl = rows["control_stationarity"].start
        np.fill_diagonal(jac[rows["dynamics"], sl["V"]], 1.0)
        np.fill_diagonal(jac[rows["adjoint"], sl["om"]], 1.0)
        fx_tab = p.jac_fx(X, U)
        set_node_blocks(jac, r_dyn, sl["X"].start, -fx_tab)
        set_node_blocks(jac, r_adj, sl["lam"].start, fx_tab.transpose(0, 2, 1))
        if p.n_u:
            fu_tab = p.jac_fu(X, U)
            set_node_blocks(jac, r_dyn, sl["U"].start, -fu_tab)
            set_node_blocks(jac, r_ctl, sl["lam"].start, fu_tab.transpose(0, 2, 1))
        curv = p.hamiltonian_curvatures(X, U, lam)
        set_node_blocks(jac, r_adj, sl["X"].start, curv[:, :n, :n])
        set_node_blocks(jac, r_adj, sl["U"].start, curv[:, :n, n:])
        set_node_blocks(jac, r_ctl, sl["X"].start, curv[:, n:, :n])
        set_node_blocks(jac, r_ctl, sl["U"].start, curv[:, n:, n:])

        tva, tvb = rows["transversality_initial"], rows["transversality_final"]
        j_xa = np.asarray(p.constraints.jac_xa(x_a, x_b), dtype=float)
        j_xb = np.asarray(p.constraints.jac_xb(x_a, x_b), dtype=float)
        jac[rows["endpoint_feasibility"], sl["x_a"]] = j_xa
        jac[rows["endpoint_feasibility"], sl["x_b"]] = j_xb
        jac[tva, sl["nu"]] = j_xa.T
        jac[tvb, sl["nu"]] = -j_xb.T
        np.fill_diagonal(jac[tva, sl["lam_a"]], 1.0)
        np.fill_diagonal(jac[tvb, sl["lam_b"]], 1.0)

        curv = p.endpoint_lagrangian_curvature(x_a, x_b, nu)
        x_ab = slice(sl["x_a"].start, sl["x_b"].stop)
        jac[tva, x_ab] += curv[:n]
        jac[tvb, x_ab] -= curv[n:]
        for s in self._weighted:
            jac[s] *= self.row_scale[s, None]
        return jac


def _default_indirect_init(system: _IndirectSystem) -> Array:
    p, sys = system.ocp, system.sys
    m, n = system.m, system.n
    x_a, x_b = endpoint_seed(p.constraints, n)
    t0, tf = p.horizon
    theta = (sys.grid.nodes - t0) / (tf - t0)
    X = x_a[None, :] + theta[:, None] * (x_b - x_a)[None, :]
    V = np.tile((x_b - x_a) / (tf - t0), (m, 1))
    lam_b = np.asarray(p.grad_cost_xb(x_a, x_b), dtype=float)
    lam = np.tile(lam_b, (m, 1))
    U = _recover_controls(p, X, lam)
    om, nu = np.zeros((m, n)), np.zeros(system.n_e)
    return system.pack(X, U, V, lam, om, x_a, x_b, lam_b, lam_b, nu)


def solve_indirect(
    ocp: OcpDefinition,
    sys: BirkhoffSystem,
    variant: DualVariant,
    init=None,
):
    """Damped-Newton root of the variant's full first-order system.

    Independent of the NLP solver: no objective, no multipliers — just the
    square system.  Returns ``(PrimalSolution, DualTrajectory)``.  ``init``
    may be a ``(PrimalSolution, DualTrajectory)`` pair (e.g. a direct solve's
    output) to warm-start; the default builds a linear-interpolation state
    profile with costates seeded from the endpoint-cost gradient.
    """
    p = prepared(ocp)
    if any(kind is not ConstraintKind.EQUALITY for kind in p.constraints.kinds):
        raise UnsupportedProblemError(
            "indirect solve requires all endpoint constraints to be equalities"
        )
    system = _IndirectSystem(p, sys, variant)
    y = _default_indirect_init(system) if init is None else system.pack_solution(*init)
    if not np.all(np.isfinite(y)):
        raise ShapeError("indirect initial point must be finite")
    r = system.residual(y)
    for _ in range(INDIRECT_MAX_ITER):
        if np.max(np.abs(r)) <= INDIRECT_TOL:
            break
        dy = regularized_solve(system.jacobian(y), -r, np.ones(system.n_y))
        if dy is None:
            raise NoConvergenceError("singular Newton matrix in indirect solve")
        norm0 = float(np.linalg.norm(r))
        alpha = 1.0
        while alpha >= 2.0**-30:
            y_try = y + alpha * dy
            r_try = system.residual(y_try)
            if np.all(np.isfinite(r_try)) and float(np.linalg.norm(r_try)) <= (
                1.0 - 1e-4 * alpha
            ) * norm0:
                y, r = y_try, r_try
                break
            alpha *= 0.5
        else:
            raise NoConvergenceError("indirect line search made no progress")
    if np.max(np.abs(r)) > INDIRECT_TOL:
        raise NoConvergenceError(
            f"indirect solve did not reach {INDIRECT_TOL:g} in {INDIRECT_MAX_ITER} iterations"
        )

    X, U, V, lam, om, x_a, x_b, lam_a, lam_b, nu = system.split(y)
    # the primal feasibility reads the unweighted state-side and endpoint rows
    unweighted, _ = system.evaluate(y)
    rows = system.rows
    state_side = np.r_[0 : rows["state_equivalency"].stop, rows["endpoint_feasibility"]]
    primal = PrimalSolution(
        X=X.copy(),
        U=U.copy(),
        V=V.copy(),
        x_a=x_a.copy(),
        x_b=x_b.copy(),
        objective=float(p.endpoint_cost(x_a, x_b)),
        feasibility=_inf_norm(unweighted[state_side]),
    )
    dual = DualTrajectory(
        costates=lam.copy(),
        costate_derivs=om.copy(),
        costate_initial=lam_a.copy(),
        costate_final=lam_b.copy(),
        endpoint=nu.copy(),
    )
    return primal, dual
