"""Discrete costates: multiplier mapping, adjoint-system checks, indirect solves.

The discretized first-order system has two anchoring choices on the state side
and two on the costate side, each in a plain (pointwise) or weighted (Galerkin)
flavor — sixteen variants in all.  One square system, :class:`_IndirectSystem`,
holds all of them: each side's anchored rows come from the same
:class:`~birktraj.transcription.AnchoredBlock` the primal NLP uses, and the
Galerkin weighting is one row-scale vector.  :func:`solve_indirect` finds its
root by Newton steps condensed through the identity blocks of both sides'
anchored rows by :meth:`~birktraj.transcription.AnchoredBlock.factor` and
:meth:`~birktraj.transcription.AnchoredBlock.eliminate`, the elimination the
primal NLP uses, so it never builds the square Jacobian; each Newton step
factors each side's condensing matrix once, LU-factoring only the diagonal
blocks of the states that F_x couples.  Both solve and verification take
the problem as defined, a staged running cost L read in
the Hamiltonian H = L + lam . f, so an LQ problem's system is linear, and
the (primal, dual) pairs carry the problem's own n_x states.
:func:`verify_pontryagin` evaluates the residual once at a given
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
    ConstraintKind,
    OcpDefinition,
    complementarity_violation,
    constraint_violation,
)
from .solver import NlpResult, check_tolerance, regularized_solve
from .transcription import (
    AnchoredBlock,
    FormTag,
    PrimalForm,
    PrimalSolution,
    add_unit_columns,
    check_horizon,
    consecutive_slices,
    require_finite,
    straight_line,
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


@dataclass(frozen=True, eq=False)
class DualTrajectory:
    """Discrete costate estimates at the nodes.

    ``costates`` and ``costate_derivs`` are (N+1, n_x) node tables; the
    interpolant anchored at ``costate_final`` with derivative values
    ``costate_derivs`` reproduces ``costates`` up to the reported residuals.
    Compared and hashed by identity, as arrays have no single truth value.
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
    if form.tag.starred:
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


def default_tolerance(sys: BirkhoffSystem) -> float:
    """Costate residuals inherit the integration-by-parts defect; anything
    below ten times its norm is indistinguishable from that budget."""
    return max(TOLERANCE_FLOOR, 10.0 * ibp_defect_norm(sys))


def _inf_norm(a: Array) -> float:
    return float(np.max(np.abs(a), initial=0.0))


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
    drives to zero, on ``ocp`` as given; endpoint rows count only where they
    are violated.  ``hamiltonian_constancy`` is the spread of the node values
    of H = L + lam . f.
    """
    if tol is None:
        tol = default_tolerance(sys)
    check_tolerance(tol, "verification")
    system = _IndirectSystem(ocp, sys, variant)
    unweighted, f_tab = system.evaluate(system.pack_solution(primal, dual))
    r = unweighted * system.row_scale

    parts = {name: r[rows] for name, rows in system.rows.items()}
    e_vals, eq = parts["endpoint_feasibility"], ocp.constraints.equality_mask()
    parts["endpoint_feasibility"] = constraint_violation(e_vals, eq)
    blocks = {name: _inf_norm(a) for name, a in parts.items()}
    blocks["complementarity"] = complementarity_violation(dual.endpoint, e_vals, eq)

    ham = np.einsum("ij,ij->i", dual.costates, f_tab)
    if ocp.running_cost is not None:
        ham += ocp.running_cost.fun(primal.X, primal.U)
    return PontryaginReport(
        variant=variant,
        tolerance=float(tol),
        blocks=blocks,
        hamiltonian_constancy=_inf_norm(ham - np.mean(ham)),
        experimental=variant.experimental,
    )


# --- indirect solve ------------------------------------------------------------


def _recover_controls(ocp: OcpDefinition, X: Array, lam: Array) -> Array:
    """Newton on the Hamiltonian stationarity condition H_u = L_u + f_u^T lam
    = 0 (L the staged running cost, if any), from u = 0, on every node at
    once; a node leaves once its gradient is at most 1e-12.

    H_u and its curvature H_uu are the u-parts of
    :meth:`~birktraj.ocp.OcpDefinition.hamiltonian_gradient` and
    :meth:`~birktraj.ocp.OcpDefinition.hamiltonian_curvatures` on the live
    nodes; a singular H_uu means the stationarity condition cannot be solved
    for u.
    """
    n, U = ocp.n_x, np.zeros((len(X), ocp.n_u))
    live = np.arange(len(X))
    for _ in range(25):
        g = ocp.hamiltonian_gradient(X[live], U[live], lam[live])[:, n:]
        keep = np.max(np.abs(g), axis=1, initial=0.0) > 1e-12
        live, g = live[keep], g[keep]
        if not live.size:
            break
        curv = ocp.hamiltonian_curvatures(X[live], U[live], lam[live])[:, n:, n:]
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

    Its unknowns are (X, U, V, lam, om, x_a, x_b, lam_a, lam_b, nu) for the
    problem's own n_x states.  The rows: both sides' interpolation and
    equivalency rows, the dynamics V = f, the adjoint om + H_x = 0 and the
    control stationarity H_u = 0 with H = L + lam . f (L the staged running
    cost, if any), the endpoint rows and the two
    transversality conditions.  The residual is :meth:`evaluate`'s
    unweighted rows times ``row_scale``, the quadrature weights on the rows
    of each starred side.  Its Jacobian is
    never built: :meth:`derivatives` evaluates the node blocks once,
    :meth:`jvp` multiplies by them and :meth:`newton_step` solves with them,
    condensed through the identity blocks of both sides' anchored rows.
    """

    def __init__(self, ocp: OcpDefinition, sys: BirkhoffSystem, variant: DualVariant):
        check_horizon(ocp, sys)
        self.ocp = ocp
        self.sys = sys
        m, n, k, n_e = sys.N + 1, ocp.n_x, ocp.n_u, ocp.n_e
        self.m, self.n, self.n_e = m, n, n_e
        node, end = (m, n), (n,)
        self._shapes = {
            "X": node, "U": (m, k), "V": node, "lam": node, "om": node,
            "x_a": end, "x_b": end, "lam_a": end, "lam_b": end, "nu": (n_e,),
        }
        self.sl = sl = consecutive_slices({nm: math.prod(s) for nm, s in self._shapes.items()})
        self.n_y = sl["nu"].stop
        # row blocks, named as in the verification report
        self.rows = rows = consecutive_slices({
            "state_interpolation": m * n, "dynamics": m * n, "state_equivalency": n,
            "costate_interpolation": m * n, "adjoint": m * n, "control_stationarity": m * k,
            "costate_equivalency": n,
            "endpoint_feasibility": n_e, "transversality_initial": n, "transversality_final": n,
        })
        assert rows["transversality_final"].stop == self.n_y

        self.state = AnchoredBlock(sys, variant.state_form)
        self.costate = AnchoredBlock(sys, variant.costate_form)
        # (anchor, opposite endpoint) of each side, by name
        self._state_ends = self.state.ends("x_a", "x_b")
        self._costate_ends = self.costate.ends("lam_a", "lam_b")
        # what the condensed step leaves: the unknowns p = (U, x_anchor,
        # lam_anchor, nu) and the rows that no side eliminates
        self._free = np.r_[
            sl["U"], sl[self._state_ends[0]], sl[self._costate_ends[0]], sl["nu"]
        ]
        self._reduced_rows = np.r_[
            rows["control_stationarity"], rows["endpoint_feasibility"].start:self.n_y
        ]

        weighted = []  # row blocks that carry their node's quadrature weight
        if variant.state_form.starred:
            weighted += [rows["state_interpolation"], rows["dynamics"]]
        if variant.costate_form.starred:
            weighted += [
                rows[name] for name in ("costate_interpolation", "adjoint", "control_stationarity")
            ]
        if weighted and np.any(sys.w_B == 0.0):
            raise DegenerateWeightError(
                f"zero quadrature weight; variant {variant} divides by the weights"
            )
        self.row_scale = np.ones(self.n_y)
        for s in weighted:
            self.row_scale[s] = np.repeat(sys.w_B, (s.stop - s.start) // m)

    def split(self, y: Array):
        """(X, U, V, lam, om, x_a, x_b, lam_a, lam_b, nu) as views into ``y``;
        a trailing axis of ``y`` (columns of unknowns) stays trailing."""
        return tuple(
            y[self.sl[nm]].reshape(shape + y.shape[1:]) for nm, shape in self._shapes.items()
        )

    def pack(self, *blocks) -> Array:
        """Inverse of :meth:`split`: the ten blocks, in its order, as one vector."""
        return np.concatenate([np.asarray(b, dtype=float).ravel() for b in blocks])

    def pack_solution(self, primal: PrimalSolution, dual: DualTrajectory) -> Array:
        """The unknowns at (primal, dual); ShapeError names a block of
        another shape."""
        given = (
            primal.X, primal.U, primal.V, dual.costates, dual.costate_derivs,
            primal.x_a, primal.x_b, dual.costate_initial, dual.costate_final, dual.endpoint,
        )
        for (name, shape), block in zip(self._shapes.items(), given):
            if np.shape(block) != shape:
                raise ShapeError(f"{name} has shape {np.shape(block)}, expected {shape}")
        return self.pack(*given)

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

    def derivatives(self, y: Array):
        """The blocks of the Jacobian at ``y`` that depend on it: F_x, F_u, the
        Hamiltonian curvatures (node blocks), the endpoint rows' Jacobians
        and the endpoint Lagrangian's curvature.  Every callback the
        Jacobian needs, called once.  Raises EvaluationError, naming the
        block and the node, where a block is not finite."""
        X, U, _, lam, _, x_a, x_b, _, _, nu = self.split(y)
        p, con = self.ocp, self.ocp.constraints
        return (
            require_finite("dynamics Jacobian F_x", p.jac_fx(X, U)),
            require_finite("dynamics Jacobian F_u", p.jac_fu(X, U)),
            require_finite("Hamiltonian curvature", p.hamiltonian_curvatures(X, U, lam)),
            require_finite("endpoint constraint Jacobian in x_a",
                           np.asarray(con.jac_xa(x_a, x_b), dtype=float), at_nodes=False),
            require_finite("endpoint constraint Jacobian in x_b",
                           np.asarray(con.jac_xb(x_a, x_b), dtype=float), at_nodes=False),
            require_finite("endpoint Lagrangian curvature",
                           p.endpoint_lagrangian_curvature(x_a, x_b, nu), at_nodes=False),
        )

    def jvp(self, blocks, dy: Array) -> Array:
        """J dy for the unweighted rows of :meth:`evaluate`, with J from the
        ``blocks`` of :meth:`derivatives`; the columns of a 2-D ``dy`` are
        taken one by one."""
        fx, fu, curv, j_xa, j_xb, k_end = blocks
        cols = dy.reshape(self.n_y, -1)
        X, U, V, lam, om, x_a, x_b, lam_a, lam_b, nu = self.split(cols)
        rows, n, c = self.rows, self.n, cols.shape[1]
        # dynamics rows carry -f; adjoint and control rows carry f_x^T lam and
        # f_u^T lam: linear in lam, curved in (x, u)
        XU = np.concatenate([X, U], axis=1)
        out = np.empty(cols.shape)
        out[rows["state_interpolation"]], out[rows["state_equivalency"]] = self.state.residual(
            X, V, x_a, x_b
        )
        out[rows["dynamics"]] = (V - fx @ X - fu @ U).reshape(-1, c)
        out[rows["costate_interpolation"]], out[rows["costate_equivalency"]] = (
            self.costate.residual(lam, om, lam_a, lam_b)
        )
        out[rows["adjoint"]] = (om + fx.transpose(0, 2, 1) @ lam + curv[:, :n] @ XU).reshape(-1, c)
        out[self._reduced_rows] = self._reduced_jvp(blocks, cols)
        return out.reshape(dy.shape)

    def _reduced_jvp(self, blocks, cols: Array) -> Array:
        """The rows ``_reduced_rows`` of :meth:`jvp` for the (n_y, c)
        ``cols``: control stationarity, endpoint feasibility and
        transversality, the rows that no side of the condensed step
        eliminates."""
        fx, fu, curv, j_xa, j_xb, k_end = blocks
        X, U, V, lam, om, x_a, x_b, lam_a, lam_b, nu = self.split(cols)
        n, c = self.n, cols.shape[1]
        x_ab = np.concatenate([x_a, x_b])
        return np.concatenate([
            (fu.transpose(0, 2, 1) @ lam + curv[:, n:] @ np.concatenate([X, U], axis=1)).reshape(
                -1, c
            ),
            j_xa @ x_a + j_xb @ x_b,
            lam_a + k_end[:n] @ x_ab + j_xa.T @ nu,
            lam_b - k_end[n:] @ x_ab - j_xb.T @ nu,
        ])

    def newton_step(self, y: Array, r: Array) -> Array:
        """The Newton step dy, J dy = -r, for the residual ``r`` at ``y``.

        It is found on the unweighted rows, since a square system's Newton
        step does not depend on the row scaling, and condensed through the
        identity blocks of the rows.  The dynamics rows give
        dV = F_x dX + F_u dU - r_dyn and the adjoint rows
        dom = -F_x^T dlam - H_xx dX - H_xu dU - r_adj; the state side then
        solves with the factor of M_s = I - (B_s (x) I) F_x for dX, the
        costate side with that of M_c = I + (B_c (x) I) F_x^T for dlam, and
        each side's equivalency rows give its endpoint opposite the anchor.
        Each side is one :meth:`AnchoredBlock.factor`, block lower
        triangular over the groups of states F_x couples, and one
        :meth:`AnchoredBlock.eliminate`, the state side's first, so a zero
        pivot of M_s raises before M_c is factored; the state side takes the
        unit dU columns as the F_u outer products of
        :meth:`AnchoredBlock.control_columns`.  What is left is square in
        p = (dU, x_anchor, lam_anchor, nu) over the control stationarity,
        endpoint and transversality rows, of order (N+1) n_u + 2 n_x + n_e,
        is evaluated on those rows alone and is solved by
        :func:`solver.regularized_solve` (+d where singular).  The step must
        meet |J dy + r| <= 1e-8 (1 + |r|) on the row-scaled rows.  Raises
        NoConvergenceError on a zero pivot of M_s or M_c, an unsolvable
        reduced system or a step that fails that check or is not finite.
        """
        blocks = self.derivatives(y)
        fx, fu, curv = blocks[:3]
        m, n, n_p = self.m, self.n, self._free.size
        unweighted = r / self.row_scale
        r_of = {name: unweighted[s] for name, s in self.rows.items()}
        # a unit step in each free unknown, then the step at p = 0, where r enters
        cols = np.zeros((self.n_y, n_p + 1))
        cols[self._free, np.arange(n_p)] = 1.0
        part = dict(zip(self._shapes, self.split(cols)))
        X, U, V, lam, om = (part[nm] for nm in ("X", "U", "V", "lam", "om"))

        G = -fx.transpose(0, 2, 1)
        # the state side first: a zero pivot of M_s leaves M_c unfactored
        state = self.state.factor(fx)
        costate = None if state is None else self.costate.factor(G)
        if costate is None:
            raise NoConvergenceError("singular Newton matrix in indirect solve")
        # F_u dU at the unit dU columns, as outer products with B
        mk = m * fu.shape[2]
        self.state.control_columns(fu, X[..., :mk])
        add_unit_columns(V, fu)
        V[..., -1] -= r_of["dynamics"].reshape(m, n)
        anchor, other = self._state_ends
        self.state.eliminate(state, fx, X, V, part[anchor], part[other],
                             r_of["state_interpolation"], r_of["state_equivalency"], mk)
        om[...] = -(curv[:, :n] @ np.concatenate([X, U], axis=1))
        om[..., -1] -= r_of["adjoint"].reshape(m, n)
        anchor, other = self._costate_ends
        self.costate.eliminate(costate, G, lam, om, part[anchor], part[other],
                               r_of["costate_interpolation"], r_of["costate_equivalency"])

        reduced = self._reduced_jvp(blocks, cols)
        reduced[:, -1] += unweighted[self._reduced_rows]
        p = regularized_solve(reduced[:, :-1], -reduced[:, -1], np.ones(n_p))
        if p is None:
            raise NoConvergenceError("singular Newton matrix in indirect solve")
        dy = cols[:, :-1] @ p + cols[:, -1]
        # a non-finite dy fails the test too
        backward = np.max(np.abs(self.jvp(blocks, dy) * self.row_scale + r))
        if not backward <= 1e-8 * (1.0 + np.max(np.abs(r))):
            raise NoConvergenceError("singular Newton matrix in indirect solve")
        return dy


def _default_indirect_init(system: _IndirectSystem) -> Array:
    p, m, n = system.ocp, system.m, system.n
    X, V, x_a, x_b = straight_line(p, system.sys.grid.nodes)
    lam_b = np.asarray(p.grad_cost_xb(x_a, x_b), dtype=float)
    lam = np.tile(lam_b, (m, 1))
    U = _recover_controls(p, X, lam)
    om, nu = np.zeros((m, n)), np.zeros(system.n_e)
    return system.pack(X, U, V, lam, om, x_a, x_b, lam_b, lam_b, nu)


def solve_indirect(ocp: OcpDefinition, sys: BirkhoffSystem, variant: DualVariant):
    """Damped-Newton root of the variant's full first-order system.

    Independent of the NLP solver: no objective, no multipliers — just the
    square system of :class:`_IndirectSystem` on ``ocp`` as given.  A staged
    running cost L enters through the Hamiltonian H = L + lam . f, so on an
    LQ problem the system is linear and one step solves it.  Each step is
    :meth:`_IndirectSystem.newton_step`, with one LU of the reduced system
    over (U, x_anchor, lam_anchor, nu) and, per side, one of order
    (N+1) |S| for each group S of states that F_x couples
    (:meth:`~birktraj.transcription.AnchoredBlock.factor`).

    Returns ``(PrimalSolution, DualTrajectory)`` over the problem's own
    n_x states, the pair :func:`verify_pontryagin` reads; the objective is
    the NLP's, E + w^T L (:meth:`~birktraj.ocp.OcpDefinition.quadrature_cost`).
    The Newton iteration starts from a linear-interpolation state profile
    with costates seeded from the endpoint-cost gradient.
    """
    if any(kind is not ConstraintKind.EQUALITY for kind in ocp.constraints.kinds):
        raise UnsupportedProblemError(
            "indirect solve requires all endpoint constraints to be equalities"
        )
    system = _IndirectSystem(ocp, sys, variant)
    y = _default_indirect_init(system)
    r = system.residual(y)
    for _ in range(INDIRECT_MAX_ITER):
        if np.max(np.abs(r)) <= INDIRECT_TOL:
            break
        dy = system.newton_step(y, r)
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

    # the primal feasibility reads the unweighted state-side and endpoint rows
    unweighted, _ = system.evaluate(y)
    rows = system.rows
    state_side = np.r_[0 : rows["state_equivalency"].stop, rows["endpoint_feasibility"]]
    X, U, V, lam, om, x_a, x_b, lam_a, lam_b, nu = (b.copy() for b in system.split(y))
    primal = PrimalSolution(
        X=X, U=U, V=V, x_a=x_a, x_b=x_b,
        objective=ocp.quadrature_cost(X, U, x_a, x_b, sys.w_B),
        feasibility=_inf_norm(unweighted[state_side]),
    )
    dual = DualTrajectory(
        costates=lam,
        costate_derivs=om,
        costate_initial=lam_a,
        costate_final=lam_b,
        endpoint=nu,
    )
    return primal, dual
