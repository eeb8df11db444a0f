"""Transcription of endpoint-cost problems into dense NLPs on a Birkhoff basis.

Four anchored forms are supported.  Form ``a`` pins the state interpolant to
the left endpoint value x_a, form ``b`` to x_b; the starred forms impose the
same rows premultiplied by the quadrature weights (Galerkin weighting), which
is implemented as a row scaling of the plain residuals so the two code paths
agree bit for bit.  Independently of the form tag, ``scaled=True`` replaces
the node variables by their weight-scaled counterparts (w o X, w o U, w o V)
while keeping the constraint set unchanged.

Decision vector layout (stored order):
    [X.ravel()  (node-major), U.ravel(), V.ravel(), x_a, x_b]
with X, V of shape (N+1, n_x) and U of shape (N+1, n_u); total length
(N+1)(2 n_x + n_u) + 2 n_x.

Constraint rows, in order:
    state interpolation   (N+1) n_x   X - x_anchor 1 - B_anchor V
    dynamics              (N+1) n_x   V - f(X, U)
    grid equivalency            n_x   x_b - x_a - w^T V
    endpoint rows               n_e   e(x_a, x_b)   (equality or <= 0)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .birkhoff import BirkhoffSystem
from .errors import (
    DegenerateWeightError,
    DomainMismatchError,
    EvaluationError,
    NotFoundError,
    ShapeError,
    UnsupportedGridError,
    UnsupportedProblemError,
)
from .ocp import OcpDefinition, constraint_violation, prepared

Array = np.ndarray


class FormTag(str, Enum):
    A = "a"
    B = "b"
    A_STAR = "a_star"
    B_STAR = "b_star"

    @property
    def starred(self) -> bool:
        """Rows premultiplied by the quadrature weights (Galerkin weighting)."""
        return self in (FormTag.A_STAR, FormTag.B_STAR)

    @property
    def anchored_left(self) -> bool:
        return self in (FormTag.A, FormTag.A_STAR)


@dataclass(frozen=True)
class PrimalForm:
    tag: FormTag
    scaled: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tag", FormTag(self.tag))
        if self.scaled and self.tag not in (FormTag.A, FormTag.B):
            raise UnsupportedProblemError(
                "variable scaling is defined only for the plain a/b forms"
            )

    @property
    def starred(self) -> bool:
        return self.tag.starred

    def __str__(self):
        return self.tag.value + ("+scaled" if self.scaled else "")


@dataclass(frozen=True)
class PrimalSolution:
    X: Array
    U: Array
    V: Array
    x_a: Array
    x_b: Array
    objective: float
    feasibility: float

    def equivalency_gap(self, w_B: Array) -> float:
        return float(np.max(np.abs(self.x_b - self.x_a - w_B @ self.V)))

    def to_json_dict(self) -> dict:
        return {
            "X": self.X.tolist(),
            "U": self.U.tolist(),
            "V": self.V.tolist(),
            "x_a": self.x_a.tolist(),
            "x_b": self.x_b.tolist(),
            "objective": self.objective,
            "feasibility": self.feasibility,
        }


def consecutive_slices(sizes: dict) -> dict:
    """Back-to-back slices with the given sizes, by name."""
    edges = np.cumsum([0, *sizes.values()]).tolist()
    return {nm: slice(a, b) for nm, a, b in zip(sizes, edges, edges[1:])}


def set_node_blocks(out: Array, row0: int, col0: int, blocks: Array) -> None:
    """Write ``blocks[i]`` (p x q) as the i-th diagonal block of ``out`` whose
    first block starts at (row0, col0)."""
    m, p, q = blocks.shape
    i = np.arange(m)[:, None, None]
    out[row0 + i * p + np.arange(p)[:, None], col0 + i * q + np.arange(q)] = blocks


class AnchoredBlock:
    """Anchored interpolation rows of one side, with their constant partials.

    For node values ``Y`` (N+1, n), node derivatives ``D`` and endpoint values
    ``left``/``right``: interpolation rows ``Y - anchor 1 - B D`` (node-major)
    and equivalency rows ``right - left - w^T D``, anchored at ``left`` with
    B_a for a/a_star and at ``right`` with B_b for b/b_star.  The NLP's state
    side and both sides of the indirect system use it; Galerkin weighting is
    the caller's row scaling.
    """

    def __init__(self, sys: BirkhoffSystem, tag: FormTag, n: int):
        self.anchored_left = FormTag(tag).anchored_left
        self.B = sys.B_a if self.anchored_left else sys.B_b
        self.w = sys.w_B
        self.n = n

    def residual(self, values: Array, derivs: Array, left: Array, right: Array):
        """(interpolation rows, equivalency rows), both flat."""
        anchor = left if self.anchored_left else right
        return (
            (values - anchor[None, :] - self.B @ derivs).ravel(),
            right - left - self.w @ derivs,
        )

    @cached_property
    def _partials(self):
        # constant; built on the first Jacobian, never for a residual alone
        eye = np.eye(self.n)
        return (
            eye,
            -np.kron(self.B, eye),
            -np.tile(eye, (self.w.size, 1)),
            -np.kron(self.w[None, :], eye),
        )

    def write_partials(self, jac: Array, rows, cols) -> None:
        """Write the partials into ``jac`` at ``rows`` = (interpolation,
        equivalency) and ``cols`` = (values, derivs, left, right) slices."""
        interp, equiv = rows
        values, derivs, left, right = cols
        eye, d_interp, d_anchor, d_equiv = self._partials
        np.fill_diagonal(jac[interp, values], 1.0)
        jac[interp, derivs] = d_interp
        jac[interp, left if self.anchored_left else right] = d_anchor
        jac[equiv, right] = eye
        jac[equiv, left] = -eye
        jac[equiv, derivs] = d_equiv


class DiscretizedNlp:
    """Dense NLP view of one problem/grid/form triple.

    Immutable after construction; residual and Jacobian evaluation are pure
    and reentrant (dynamics callbacks are assumed pure).
    """

    def __init__(self, ocp: OcpDefinition, sys: BirkhoffSystem, form: PrimalForm):
        self.ocp = ocp
        self.sys = sys
        self.form = form
        self.n_x = ocp.n_x
        self.n_u = ocp.n_u
        self.n_e = ocp.n_e
        self.n_nodes = sys.N + 1

        m, n = self.n_nodes, self.n_x
        self.slice_x, self.slice_u, self.slice_v, self.slice_xa, self.slice_xb = (
            consecutive_slices({"X": m * n, "U": m * self.n_u, "V": m * n, "x_a": n, "x_b": n})
        ).values()
        self.n_z = self.slice_xb.stop
        # row blocks by name; the solver hands this layout on with its multipliers
        self.rows = rows = consecutive_slices({
            "state_interpolation": m * n, "dynamics": m * n, "grid_equivalency": n,
            "endpoint": self.n_e,
        })
        self.n_eq_core = rows["grid_equivalency"].stop  # interpolation + dynamics + equivalency
        self.n_rows = rows["endpoint"].stop

        mask = np.ones(self.n_rows, dtype=bool)
        mask[rows["endpoint"]] = ocp.constraints.equality_mask()
        self.equality_mask = mask

        w = sys.w_B
        if form.scaled and np.any(w == 0.0):
            raise DegenerateWeightError("zero quadrature weight; cannot scale variables")
        self._w = w
        self._w_rep = np.repeat(w, n)  # node-major broadcast per state
        # Galerkin row weighting for the starred forms; ones elsewhere so the
        # scaled path multiplies by exactly 1.0 and stays bit-identical
        scale = np.ones(self.n_rows)
        if form.starred:
            scale[rows["state_interpolation"]] = self._w_rep
            scale[rows["dynamics"]] = self._w_rep
        self._row_scale = scale

        # stored variables are w o (X, U, V) when scaled: derivatives wrt them
        # carry the inverse weights
        self._col_scale = None
        if form.scaled:
            col = np.ones(self.n_z)
            col[self.slice_x] = 1.0 / self._w_rep
            col[self.slice_v] = 1.0 / self._w_rep
            col[self.slice_u] = np.repeat(1.0 / w, self.n_u)
            self._col_scale = col

        self.state = AnchoredBlock(sys, form.tag, n)
        self._state_layout = (
            (rows["state_interpolation"], rows["grid_equivalency"]),
            (self.slice_x, self.slice_v, self.slice_xa, self.slice_xb),
        )

    # --- variable packing -----------------------------------------------------

    def unpack(self, z: Array):
        """Stored vector -> physical (X, U, V, x_a, x_b)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n_z,):
            raise ShapeError(f"expected decision vector of length {self.n_z}")
        m, n = self.n_nodes, self.n_x
        X = z[self.slice_x].reshape(m, n)
        U = z[self.slice_u].reshape(m, self.n_u)
        V = z[self.slice_v].reshape(m, n)
        if self.form.scaled:
            X = X / self._w[:, None]
            U = U / self._w[:, None]
            V = V / self._w[:, None]
        else:
            X, U, V = X.copy(), U.copy(), V.copy()
        return X, U, V, z[self.slice_xa].copy(), z[self.slice_xb].copy()

    def pack(self, X, U, V, x_a, x_b) -> Array:
        """Physical matrices -> stored vector (applies variable scaling)."""
        X, U, V = (np.asarray(a, dtype=float) for a in (X, U, V))
        if self.form.scaled:
            X = X * self._w[:, None]
            U = U * self._w[:, None]
            V = V * self._w[:, None]
        return np.concatenate(
            [X.ravel(), U.ravel(), V.ravel(), np.asarray(x_a, float), np.asarray(x_b, float)]
        )

    # --- objective --------------------------------------------------------------

    def objective(self, z: Array) -> float:
        _, _, _, x_a, x_b = self.unpack(z)
        return float(self.ocp.endpoint_cost(x_a, x_b))

    def objective_gradient(self, z: Array) -> Array:
        _, _, _, x_a, x_b = self.unpack(z)
        g = np.zeros(self.n_z)
        g[self.slice_xa] = self.ocp.grad_cost_xa(x_a, x_b)
        g[self.slice_xb] = self.ocp.grad_cost_xb(x_a, x_b)
        return g

    # --- constraints --------------------------------------------------------------

    def constraints(self, z: Array) -> Array:
        X, U, V, x_a, x_b = self.unpack(z)
        f = self.ocp.dynamics(X, U)
        bad = ~np.isfinite(f).all(axis=1)
        if bad.any():
            raise EvaluationError(
                f"dynamics returned non-finite values at node {int(np.argmax(bad))}"
            )
        rows = self.rows
        r = np.empty(self.n_rows)
        r[rows["state_interpolation"]], r[rows["grid_equivalency"]] = self.state.residual(
            X, V, x_a, x_b
        )
        r[rows["dynamics"]] = (V - f).ravel()
        r[rows["endpoint"]] = self.ocp.constraints.fun(x_a, x_b)
        return r * self._row_scale

    def jacobian(self, z: Array) -> Array:
        """Dense Jacobian of the (row-scaled) constraints wrt stored variables."""
        X, U, _, x_a, x_b = self.unpack(z)
        jac = np.zeros((self.n_rows, self.n_z))
        self.state.write_partials(jac, *self._state_layout)

        dyn, end = self.rows["dynamics"], self.rows["endpoint"]
        np.fill_diagonal(jac[dyn, self.slice_v], 1.0)
        set_node_blocks(jac, dyn.start, self.slice_x.start, -self.ocp.jac_fx(X, U))
        if self.n_u:
            set_node_blocks(jac, dyn.start, self.slice_u.start, -self.ocp.jac_fu(X, U))

        con = self.ocp.constraints
        jac[end, self.slice_xa] = con.jac_xa(x_a, x_b)
        jac[end, self.slice_xb] = con.jac_xb(x_a, x_b)

        jac *= self._row_scale[:, None]
        if self._col_scale is not None:
            jac *= self._col_scale[None, :]
        return jac

    # --- Lagrangian pieces used by the solver ------------------------------------

    def lagrangian_hessian(self, z: Array, mu: Array, fd_step: float = 1e-6) -> Array:
        """Hessian of F + mu^T c wrt stored variables.

        Interpolation and equivalency rows are linear and drop out; the
        dynamics rows contribute a node-block-diagonal term obtained by
        central differences of the analytic Jacobians, the endpoint terms a
        single (x_a, x_b) block.
        """
        X, U, _, x_a, x_b = self.unpack(z)
        n = self.n_x
        hess = np.zeros((self.n_z, self.n_z))
        # dynamics rows carry -f
        dyn = self.rows["dynamics"]
        mu_dyn = -(mu[dyn] * self._row_scale[dyn]).reshape(X.shape)
        blocks = self.ocp.hamiltonian_curvatures(X, U, mu_dyn, fd_step)
        blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
        x0, u0 = self.slice_x.start, self.slice_u.start
        set_node_blocks(hess, x0, x0, blocks[:, :n, :n])
        set_node_blocks(hess, x0, u0, blocks[:, :n, n:])
        set_node_blocks(hess, u0, x0, blocks[:, n:, :n])
        set_node_blocks(hess, u0, u0, blocks[:, n:, n:])

        block = self.ocp.endpoint_lagrangian_curvature(
            x_a, x_b, mu[self.rows["endpoint"]], fd_step
        )
        iab = slice(self.slice_xa.start, self.slice_xb.stop)
        hess[iab, iab] += 0.5 * (block + block.T)

        if self._col_scale is not None:
            hess *= self._col_scale[:, None]
            hess *= self._col_scale[None, :]
        return hess

    # --- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        def span(s: slice):
            return [s.start or 0, s.stop]

        return {
            "problem": self.ocp.name,
            "form": {"tag": self.form.tag.value, "scaled": self.form.scaled},
            "sizes": {
                "N": self.sys.N,
                "n_x": self.n_x,
                "n_u": self.n_u,
                "n_e": self.n_e,
                "decision": self.n_z,
                "constraint_rows": self.n_rows,
                "equality_rows": int(np.count_nonzero(self.equality_mask)),
            },
            "layout": {
                "X": span(self.slice_x),
                "U": span(self.slice_u),
                "V": span(self.slice_v),
                "x_a": span(self.slice_xa),
                "x_b": span(self.slice_xb),
            },
            "rows": {name: span(s) for name, s in self.rows.items()},
            # the constant blocks are fully determined by the grid
            "constant_matrices": "by reference: rebuild from the grid entry",
            "grid": self.sys.grid.to_json_dict(),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def transcribe(ocp: OcpDefinition, sys: BirkhoffSystem, form: PrimalForm) -> DiscretizedNlp:
    """Discretize; staged running costs are absorbed into a cost state first."""
    if not sys.grid.endpoint_inclusive:
        raise UnsupportedGridError("transcription requires an endpoint-inclusive grid")
    dom = sys.grid.domain
    if not np.allclose(dom, ocp.horizon, rtol=1e-12, atol=1e-12):
        raise DomainMismatchError(
            f"grid domain {tuple(dom)} does not match problem horizon {ocp.horizon}"
        )
    return DiscretizedNlp(prepared(ocp), sys, form)


# --- initial guesses ---------------------------------------------------------

GUESS_STRATEGIES = ("constant-midpoint", "linear-endpoint-interpolation", "user-supplied")


def endpoint_seed(con, n: int):
    """Gauss-Newton on the equality endpoint rows from the origin; gives the
    pinned values exactly for linear boundary conditions."""
    x_a, x_b = np.zeros(n), np.zeros(n)
    eq = con.equality_mask()
    if not eq.any():
        return x_a, x_b
    for _ in range(8):
        r = np.asarray(con.fun(x_a, x_b), dtype=float)[eq]
        if np.max(np.abs(r)) < 1e-12:
            break
        jac = np.hstack(
            [
                np.asarray(con.jac_xa(x_a, x_b), dtype=float)[eq],
                np.asarray(con.jac_xb(x_a, x_b), dtype=float)[eq],
            ]
        )
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        x_a = x_a + step[:n]
        x_b = x_b + step[n:]
    return x_a, x_b


def initial_guess(nlp: DiscretizedNlp, strategy: str = "constant-midpoint", user=None) -> Array:
    if strategy == "user-supplied":
        z = np.asarray(user, dtype=float)
        if z.shape != (nlp.n_z,):
            raise ShapeError(
                f"user guess has shape {z.shape}, expected ({nlp.n_z},)"
            )
        if not np.all(np.isfinite(z)):
            raise ShapeError("user guess contains non-finite entries")
        return z.copy()
    if strategy not in GUESS_STRATEGIES:
        raise NotFoundError(f"unknown guess strategy {strategy!r}; use one of {GUESS_STRATEGIES}")

    m, n = nlp.n_nodes, nlp.n_x
    x_a, x_b = endpoint_seed(nlp.ocp.constraints, n)
    U = np.zeros((m, nlp.n_u))
    if strategy == "constant-midpoint":
        X = np.tile(0.5 * (x_a + x_b), (m, 1))
        V = np.zeros((m, n))
    else:
        t0, tf = nlp.ocp.horizon
        theta = (nlp.sys.grid.nodes - t0) / (tf - t0)
        X = x_a[None, :] + theta[:, None] * (x_b - x_a)[None, :]
        V = np.tile((x_b - x_a) / (tf - t0), (m, 1))
    z = nlp.pack(X, U, V, x_a, x_b)
    assert np.all(np.isfinite(z))
    return z


def extract_primal(nlp: DiscretizedNlp, z: Array) -> PrimalSolution:
    X, U, V, x_a, x_b = nlp.unpack(z)
    viol = constraint_violation(nlp.constraints(z), nlp.equality_mask)
    return PrimalSolution(
        X=X,
        U=U,
        V=V,
        x_a=x_a,
        x_b=x_b,
        objective=nlp.objective(z),
        feasibility=float(np.max(viol)) if viol.size else 0.0,
    )
