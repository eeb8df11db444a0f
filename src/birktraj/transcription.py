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

Each row block but the endpoint rows is the identity in one variable block
(X, V and the endpoint opposite the anchor), so
:meth:`DiscretizedNlp.newton_step` eliminates those variables from the
solver's Newton-KKT system: it factors M = I - (B (x) I) F_x, of order
(N+1) n_x and conditioned like the O(1)-norm Birkhoff matrix B, and a
reduced KKT over (U, x_anchor) and the working endpoint rows (the condensing
of multiple shooting, Bock and Plitt 1984).  The factor of M is kept while
the dynamics blocks F_x do not change.  When M or the reduced KKT is singular
it returns None and the solver takes its dense, regularized step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

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
from .solver import checked_solve

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


def _node_block_index(m: int, p: int, q: int, row0: int, col0: int):
    i = np.arange(m)[:, None, None]
    return row0 + i * p + np.arange(p)[:, None], col0 + i * q + np.arange(q)


def set_node_blocks(out: Array, row0: int, col0: int, blocks: Array) -> None:
    """Write ``blocks[i]`` (p x q) as the i-th diagonal block of ``out`` whose
    first block starts at (row0, col0)."""
    out[_node_block_index(*blocks.shape, row0, col0)] = blocks


def node_blocks(mat: Array, row0: int, col0: int, m: int, p: int, q: int) -> Array:
    """The m diagonal blocks (p x q) of ``mat`` from (row0, col0): the inverse
    of :func:`set_node_blocks`."""
    return mat[_node_block_index(m, p, q, row0, col0)]


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


def _lu_solve(lu: Array, piv: Array, b: Array, trans: int = 0) -> Array:
    """``dgetrs`` on a copy of ``piv``: scipy's wrapper shifts the pivots to
    1-based indices in place for the duration of the call, so a memoized
    ``piv`` shared between threads would be read shifted by one."""
    x, _ = lapack.dgetrs(lu, piv.copy(), b, trans=trans)
    return x


class DiscretizedNlp:
    """Dense NLP view of one problem/grid/form triple.

    Residual and derivative evaluation are pure and reentrant (dynamics
    callbacks are assumed pure).  The one state kept across calls is a
    one-slot memo of :meth:`newton_step`: the F_x/F_u blocks of the last
    Jacobian it condensed, the LU factor of M and the r-free columns of T,
    never the Jacobian or the Hessian.  Those are functions of the blocks
    alone and are reused only when the blocks are bitwise the same, so every
    result has the bits a fresh NLP gives; the slot holds one tuple, replaced
    whole, so concurrent calls each read a consistent entry.  No call writes
    into an entry: the triangular solves pass LAPACK a copy of the pivots
    (see :func:`_lu_solve`), since scipy's ``dgetrs`` shifts them in place.
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
        if form.tag.starred:
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
        if form.tag.anchored_left:
            self._anchor_other = (self.slice_xa, self.slice_xb, 1.0)
        else:
            self._anchor_other = (self.slice_xb, self.slice_xa, -1.0)
        self._memo = None  # the condensation of the last F_x/F_u: see newton_step
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
        return self.unweighted_constraints(z) * self._row_scale

    def unweighted_constraints(self, z: Array) -> Array:
        """The constraint rows before the Galerkin weighting of the starred
        forms: the same residuals on every form."""
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
        return r

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

    def lagrangian_hessian(self, z: Array, mu: Array) -> Array:
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
        blocks = self.ocp.hamiltonian_curvatures(X, U, mu_dyn)
        blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
        x0, u0 = self.slice_x.start, self.slice_u.start
        set_node_blocks(hess, x0, x0, blocks[:, :n, :n])
        set_node_blocks(hess, x0, u0, blocks[:, :n, n:])
        set_node_blocks(hess, u0, x0, blocks[:, n:, :n])
        set_node_blocks(hess, u0, u0, blocks[:, n:, n:])

        block = self.ocp.endpoint_lagrangian_curvature(x_a, x_b, mu[self.rows["endpoint"]])
        iab = slice(self.slice_xa.start, self.slice_xb.stop)
        hess[iab, iab] += 0.5 * (block + block.T)

        if self._col_scale is not None:
            hess *= self._col_scale[:, None]
            hess *= self._col_scale[None, :]
        return hess

    # --- condensed Newton step -----------------------------------------------------

    def _dynamics_blocks(self, jac: Array):
        """Node blocks (F_x, F_u) of the dynamics Jacobian, in physical
        variables, read off the dynamics rows of the stored Jacobian."""
        m, n, nu = self.n_nodes, self.n_x, self.n_u
        row0 = self.rows["dynamics"].start
        # minus the row weight (starred) times the column weight (scaled) of each node
        weight = -self._row_scale[row0:row0 + m * n:n]
        if self._col_scale is not None:
            weight = weight / self._w
        fx = node_blocks(jac, row0, self.slice_x.start, m, n, n) / weight[:, None, None]
        fu = node_blocks(jac, row0, self.slice_u.start, m, n, nu) / weight[:, None, None]
        return fx, fu

    def condensing_matrix(self, jac: Array) -> Array:
        """M = I - (B (x) I) F_x, the matrix the condensed Newton step factors;
        its conditioning follows that of the Birkhoff matrix B."""
        fx, _ = self._dynamics_blocks(jac)
        mn = self.n_nodes * self.n_x
        return np.eye(mn) - np.einsum("ij,jab->iajb", self.state.B, fx).reshape(mn, mn)

    def _condensation(self, jac: Array):
        """(F_x, F_u, lu, piv, T) of ``jac``: its dynamics blocks, the LU
        factor of M and the r-free columns of T (the dU and dx_anchor
        columns).  Taken from the memo while F_x is bitwise the one it holds
        (the factor) and F_u too (T); None when M is singular, which is never
        memoized."""
        fx, fu = self._dynamics_blocks(jac)
        memo = self._memo
        if memo is not None and fx.tobytes() == memo[0].tobytes():
            if fu.tobytes() == memo[1].tobytes():
                return memo
            lu, piv = memo[2], memo[3]
        else:
            self._memo = memo = None  # the old factor and T go before new ones are built
            lu, piv, info = lapack.dgetrf(self.condensing_matrix(jac))
            if info != 0:
                return None
        m, n, nu = self.n_nodes, self.n_x, self.n_u
        mn, n_p = m * n, m * nu + n
        v_free = np.zeros((mn, n_p))  # dV - F_x dX
        set_node_blocks(v_free, 0, 0, fu)
        rhs_x = (self.state.B @ v_free.reshape(m, -1)).reshape(m, n, n_p)
        rhs_x[:, :, m * nu:] += np.eye(n)
        t_x = _lu_solve(lu, piv, rhs_x.reshape(mn, n_p))
        t_v = np.einsum("iab,ibp->iap", fx, t_x.reshape(m, n, n_p))
        t_v += v_free.reshape(m, n, n_p)
        anchor, other, sign = self._anchor_other
        T = np.zeros((self.n_z, n_p))
        T[self.slice_x] = t_x
        T[self.slice_u, :m * nu] = np.eye(m * nu)
        T[self.slice_v] = t_v.reshape(mn, n_p)
        T[anchor, m * nu:] = np.eye(n)
        T[other] = T[anchor] + sign * np.tensordot(self._w, t_v, 1)
        memo = (fx, fu, lu, piv, T)
        self._memo = memo  # swapped whole: a concurrent call sees one entry
        return memo

    def newton_step(self, hess: Array, jac: Array, g: Array, r: Array, working: Array):
        """The Newton-KKT step [[H, J_w^T], [J_w, 0]] [dz, mu_w] = [-g, -r_w]
        of the solver, condensed through the identity blocks of the rows.

        The dynamics rows give dV = F_x dX + F_u dU - r2, the interpolation
        rows M dX = 1 dx_anchor + (B (x) I)(F_u dU - r2) - r1 and the
        equivalency rows the other endpoint, so dz = T p + t in the free
        unknowns p = (dU, dx_anchor).  Only M, of order (N+1) n_x, and the
        reduced KKT [[T^T H T, (E T)^T], [E T, 0]] over p and the working
        endpoint rows E are factored; the eliminated multipliers follow by
        back-substitution in the columns of x_other, X and V.  M and T depend
        on the Jacobian only through its F_x/F_u blocks, so the factor of M is
        reused while F_x is unchanged and T while F_u is unchanged too (the
        NLP's one-slot memo); t, the step at p = 0, takes one solve with that
        factor per call.  Works in physical variables, since the solution
        does not depend on the row and column scaling.  A 1-D ``hess`` is the
        diagonal of H; with H = I and r = 0, mu_w are the least-squares
        multipliers argmin ||g + J_w^T mu||.  Returns (dz, mu_w), or None when
        M is singular, the reduced KKT fails :func:`solver.checked_solve` or a
        result is not finite; the solver then takes its dense, regularized
        step.
        """
        if not np.all(self._row_scale):
            return None  # a zero Galerkin weight: the weighted rows are void
        condensed = self._condensation(jac)
        if condensed is None:
            return None
        fx, _, lu, piv, T = condensed
        m, n = self.n_nodes, self.n_x
        rows, col = self.rows, self._col_scale
        r = r / self._row_scale
        if col is not None:
            g = g / col
            hess = hess / (col * col if hess.ndim == 1 else np.outer(col, col))
        r1, r2, r3 = (r[rows[k]] for k in ("state_interpolation", "dynamics", "grid_equivalency"))
        ends = rows["endpoint"].start + np.flatnonzero(working[rows["endpoint"]])
        B, w = self.state.B, self._w
        _, other, sign = self._anchor_other

        # t, the step at p = 0: the one column of the condensation that r enters
        r2 = r2.reshape(m, n)
        t_x = _lu_solve(lu, piv, (B @ -r2 - r1.reshape(m, n)).ravel())
        t_v = np.einsum("iab,ib->ia", fx, t_x.reshape(m, n)) - r2
        t = np.zeros(self.n_z)
        t[self.slice_x] = t_x
        t[self.slice_v] = t_v.ravel()
        t[other] = sign * (w @ t_v - r3)

        # H is zero outside the rows/columns the curvature reaches; the
        # endpoint rows and the x_a, x_b columns carry no scaling
        hit = np.flatnonzero(hess if hess.ndim == 1 else np.any(hess, axis=0))
        t_hit = T[hit]
        if hess.ndim == 1:  # the diagonal of H
            h_hit = hess[hit]
            ht, ht_t = h_hit[:, None] * t_hit, h_hit * t[hit]
        else:
            h_hit = hess[np.ix_(hit, hit)]
            ht, ht_t = h_hit @ t_hit, h_hit @ t[hit]
        e_rows = jac[ends]
        e_t = e_rows @ T
        kkt = np.block([[t_hit.T @ ht, e_t.T], [e_t, np.zeros((ends.size, ends.size))]])
        rhs = -np.concatenate([t_hit.T @ ht_t + T.T @ g, r[ends] + e_rows @ t])
        sol = checked_solve(kkt, rhs)
        if sol is None:
            return None
        p, mu4 = sol[:T.shape[1]], sol[T.shape[1]:]
        dz = T @ p + t

        s = g.copy()  # H dz + g
        s[hit] += ht @ p + ht_t
        mu3 = -sign * (s[other] + e_rows[:, other].T @ mu4)
        s_x, s_v = s[self.slice_x].reshape(m, n), s[self.slice_v].reshape(m, n)
        w_mu3 = np.outer(w, mu3)
        y = -s_x + np.einsum("iba,ib->ia", fx, w_mu3 - s_v)
        mu1 = _lu_solve(lu, piv, y.ravel(), trans=1)
        mu2 = (-s_v + B.T @ mu1.reshape(m, n) + w_mu3).ravel()
        mu = np.concatenate([mu1, mu2, mu3, mu4]) / self._row_scale[working]
        if col is not None:
            dz = dz / col
        if not (np.all(np.isfinite(dz)) and np.all(np.isfinite(mu))):
            return None
        return dz, mu


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

GUESS_STRATEGIES = ("constant-midpoint", "linear-endpoint-interpolation")


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


def straight_line(ocp: OcpDefinition, nodes: Array):
    """The straight line between the endpoint seed values over ``nodes``:
    (X, V, x_a, x_b), with the node table X and its constant slope V."""
    x_a, x_b = endpoint_seed(ocp.constraints, ocp.n_x)
    t0, tf = ocp.horizon
    theta = (nodes - t0) / (tf - t0)
    X = x_a[None, :] + theta[:, None] * (x_b - x_a)[None, :]
    V = np.tile((x_b - x_a) / (tf - t0), (len(nodes), 1))
    return X, V, x_a, x_b


def initial_guess(nlp: DiscretizedNlp, strategy: str = "constant-midpoint") -> Array:
    if strategy not in GUESS_STRATEGIES:
        raise NotFoundError(f"unknown guess strategy {strategy!r}; use one of {GUESS_STRATEGIES}")
    m = nlp.n_nodes
    X, V, x_a, x_b = straight_line(nlp.ocp, nlp.sys.grid.nodes)
    if strategy == "constant-midpoint":
        X = np.tile(0.5 * (x_a + x_b), (m, 1))
        V = np.zeros((m, nlp.n_x))
    z = nlp.pack(X, np.zeros((m, nlp.n_u)), V, x_a, x_b)
    assert np.all(np.isfinite(z))
    return z


def extract_primal(nlp: DiscretizedNlp, z: Array) -> PrimalSolution:
    """The node tables and endpoints of ``z``, its objective and its
    feasibility: the worst violation of the unweighted rows, so every form
    reports it on one scale."""
    X, U, V, x_a, x_b = nlp.unpack(z)
    viol = constraint_violation(nlp.unweighted_constraints(z), nlp.equality_mask)
    return PrimalSolution(
        X=X,
        U=U,
        V=V,
        x_a=x_a,
        x_b=x_b,
        objective=nlp.objective(z),
        feasibility=float(np.max(viol)) if viol.size else 0.0,
    )
