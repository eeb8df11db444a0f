"""Transcription of optimal control problems into NLPs on a Birkhoff basis.

Four anchored forms are supported.  Form ``a`` pins the state interpolant to
the left endpoint value x_a, form ``b`` to x_b; the starred forms impose the
same rows premultiplied by the quadrature weights (Galerkin weighting), which
is implemented as a row scaling of the plain residuals so the two code paths
agree bit for bit.  Independently of the form tag, ``scaled=True`` replaces
the node variables by their weight-scaled counterparts (w o X, w o U, w o V)
while keeping the constraint set unchanged.  Every form stores s o (X, U, V)
for a node scale s, w when scaled and ones otherwise, so the six forms share
one code path and the unscaled ones keep their bits (x * 1.0 = x / 1.0 = x).

Decision vector layout (stored order):
    [X.ravel()  (node-major), U.ravel(), V.ravel(), x_a, x_b]
with X, V of shape (N+1, n_x) and U of shape (N+1, n_u); total length
(N+1)(2 n_x + n_u) + 2 n_x.

Objective: E(x_a, x_b) + w^T L(X, U), a staged running cost L by the
quadrature weights w on every form, with no cost state.

Constraint rows, in order:
    state interpolation   (N+1) n_x   X - x_anchor 1 - B_anchor V
    dynamics              (N+1) n_x   V - f(X, U)
    grid equivalency            n_x   x_b - x_a - w^T V
    endpoint rows               n_e   e(x_a, x_b)   (equality or <= 0)

Each row block but the endpoint rows is the identity in one variable block
(X, V and the endpoint opposite the anchor), so the solver's Newton-KKT
system, :meth:`DiscretizedNlp.newton_system`, eliminates those variables
once per iterate by :meth:`AnchoredBlock.condense`, which the indirect solver
in ``dual`` calls for both of its sides too: it factors M = I - (B (x) I)
F_x, conditioned like the O(1)-norm Birkhoff matrix B, LU-factoring only the
diagonal blocks of the groups of states that F_x couples.  The estimate and
the step then solve one reduced KKT over (U, x_anchor) and the working
endpoint rows (the condensing of multiple shooting, Bock and Plitt 1984),
whose T^T H T both fill from node blocks of H: the step's Hessian of the
Lagrangian, the estimate's d_i (I + C_i^T C_i) with C_i = [F_x F_u].
The constraint Jacobian (:class:`NodeJacobian`) and the Hessian of the
Lagrangian are node blocks, so no n_rows x n_z or n_z x n_z matrix is built
in a solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator

from .birkhoff import BirkhoffSystem
from .errors import (
    DegenerateWeightError,
    DomainMismatchError,
    EvaluationError,
    NoConvergenceError,
    NotFoundError,
    ShapeError,
    UnsupportedProblemError,
)
from .ocp import OcpDefinition, constraint_violation
from .solver import regularized_solve

Array = np.ndarray


class FormTag(str, Enum):
    A = "a"
    B = "b"
    A_STAR = "a_star"
    B_STAR = "b_star"

    @classmethod
    def _missing_(cls, value):
        tags = ", ".join(tag.value for tag in cls)
        raise UnsupportedProblemError(f"unknown form tag {value!r} (expected one of {tags})")

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


def add_unit_columns(table: Array, blocks: Array) -> Array:
    """Add (m, p, k) node ``blocks`` to an (m, p, c) node ``table`` at each
    node's own unit control columns: ``blocks[j]`` at columns j k .. j k +
    k - 1 of node j.  This is ``blocks`` times the first m k unit columns of
    a table of node controls, without the product."""
    m, p, k = blocks.shape
    s_node, s_row, s_col = table.strides
    # one node on is one node and k columns on: in bounds while m k <= c
    at_units = as_strided(table, (m, p, k), (s_node + k * s_col, s_row, s_col))
    at_units += blocks
    return table


class AnchoredBlock:
    """Anchored interpolation rows of one side.

    For node values ``Y`` (N+1, n), node derivatives ``D`` and endpoint values
    ``left``/``right``: interpolation rows ``Y - anchor 1 - B D`` (node-major)
    and equivalency rows ``right - left - w^T D``, anchored at ``left`` with
    B_a for a/a_star and at ``right`` with B_b for b/b_star.  The NLP's state
    side and both sides of the indirect system use it; Galerkin weighting is
    the caller's row scaling.

    The anchor side is data: ``sign`` is +1 anchored left and -1 anchored
    right (the equivalency row gives other - anchor = sign w^T D), and
    :meth:`ends` orders a (left, right) pair as (anchor, other).

    :meth:`condense` is the one elimination of these rows for both Newton
    solvers.  A block does not change after it is built.
    """

    def __init__(self, sys: BirkhoffSystem, tag: FormTag):
        anchored_left = FormTag(tag).anchored_left
        self.B = sys.B_a if anchored_left else sys.B_b
        self.w = sys.w_B
        self.sign = 1.0 if anchored_left else -1.0

    def ends(self, left, right) -> tuple:
        """(anchor, other) of a (left, right) pair, and (left, right) of an
        (anchor, other) pair: the swap is its own inverse."""
        return (left, right) if self.sign > 0 else (right, left)

    def residual(self, values: Array, derivs: Array, left: Array, right: Array):
        """(interpolation rows, equivalency rows), the first flat; a trailing
        axis of columns stays trailing.  The rows are linear, so at a
        direction they are also the Jacobian times it."""
        anchor, _ = self.ends(left, right)
        D = derivs.reshape(len(derivs), -1)  # one row per node, its columns side by side
        interp = values - anchor[None] - (self.B @ D).reshape(derivs.shape)
        return (
            interp.reshape(-1, *values.shape[2:]),
            right - left - (self.w @ D).reshape(left.shape),
        )

    def residual_transpose(self, interp: Array, equiv: Array):
        """The transpose of :meth:`residual`'s rows applied to multipliers
        ``interp`` (N+1, n) and ``equiv`` (n): their gradients wrt (values,
        derivs, left, right)."""
        d_anchor, d_other = self.ends(-equiv, equiv)  # from the equivalency rows
        return (
            interp,
            -(self.B.T @ interp) - np.outer(self.w, equiv),
            *self.ends(d_anchor - interp.sum(axis=0), d_other),
        )

    def condensing_matrix(self, blocks: Array) -> Array:
        """I - (B (x) I) blockdiag(``blocks``), for (N+1, k, k) node blocks:
        what is left of the interpolation rows of k states once their node
        derivatives are eliminated through rows that give them as ``blocks``
        times the node values.  Its conditioning follows that of B."""
        m, k = blocks.shape[:2]
        return np.eye(m * k) - np.einsum("ij,jab->iajb", self.B, blocks).reshape(m * k, m * k)

    def factor(self, G: Array):
        """The :class:`CondensingFactor` of M = I - (B (x) I) blockdiag(G)
        for (N+1, n, n) node blocks G, or None on an exactly zero pivot.

        State i reads state j where some G[:, i, j] is nonzero.  The states
        fall into the strongly connected components of that graph, and M is
        block lower triangular over them in an order where each reads only
        earlier ones (Duff and Reid 1978).  Only the diagonal blocks
        I - (B (x) I) G_SS of order (N+1) |S| are LU-factored, and none where
        G_SS is zero; a fully coupled G is one group, one LU of M."""
        groups = []
        for rows, coupled, cols in _solve_order(G.any(axis=0).tobytes(), G.shape[1]):
            lu = piv = None
            if coupled:
                lu, piv, info = lapack.dgetrf(self.condensing_matrix(G[:, rows][:, :, rows]))
                if info != 0:
                    return None
            groups.append((rows, lu, piv, cols, None if cols is None else G[:, rows][:, :, cols]))
        return CondensingFactor(self.B, tuple(groups))

    def condense(self, G, controls, values, derivs, anchor, other, r_interp, r_equiv):
        """Solve the interpolation and equivalency rows in every column of the
        (N+1, n, c) node tables ``values`` and ``derivs`` and the (n, c)
        endpoint tables ``anchor`` and ``other``, given the anchor and the
        derivatives as G values + the ``derivs`` on entry (G: node blocks).

        The first (N+1) k columns are unit control columns, k =
        ``controls.shape[2]``: their derivs on entry are ``controls`` (node
        blocks) times those units, written here by :func:`add_unit_columns`,
        so B takes them as the outer products B[:, j] (x) controls[j] and
        multiplies only the other columns.  Fills ``values``, completes
        ``derivs`` and sets ``other``, the endpoint opposite the anchor;
        ``r_interp`` and ``r_equiv`` enter the last column.  One solve with
        :meth:`factor` of G.  Returns that factor, or None on an exactly zero
        pivot."""
        factor = self.factor(G)
        if factor is None:
            return None
        m, n, c = values.shape
        k = controls.shape[2]
        mk, sign = m * k, self.sign
        # the right-hand side, built in values and solved there; B[i, j]
        # controls[j, a, l] at column j k + l, with that axis innermost
        np.multiply(
            np.repeat(self.B, k, axis=1)[:, None, :],
            controls.transpose(1, 0, 2).reshape(n, mk),
            out=values[..., :mk],
        )
        values[..., mk:] = (self.B @ derivs[..., mk:].reshape(m, -1)).reshape(m, n, c - mk)
        values += anchor
        values[..., -1] -= r_interp.reshape(m, n)
        factor.solve(values)
        derivs[..., :mk] = 0.0
        add_unit_columns(derivs, controls)
        derivs += G @ values
        other[...] = anchor + sign * (self.w @ derivs.reshape(m, -1)).reshape(n, c)
        other[:, -1] -= sign * r_equiv
        return factor


def _span(indices: list):
    """Sorted state ``indices`` as a slice where they are consecutive, so that
    indexing with them takes a view, else as an index array."""
    if indices[-1] - indices[0] == len(indices) - 1:
        return slice(indices[0], indices[-1] + 1)
    return np.array(indices)


@lru_cache(maxsize=256)
def _solve_order(pattern: bytes, n: int) -> tuple:
    """The groups of :meth:`AnchoredBlock.factor` for the (n, n) boolean
    coupling ``pattern`` (state i reads state j where [i, j]), as
    (states, whether they read each other, the earlier states they read or
    None), in solve order and without the groups that solve as I: the
    strongly connected components of the graph, each reading only states of
    earlier ones.  Cached, since it depends on the pattern alone."""
    reads = np.frombuffer(pattern, dtype=bool).reshape(n, n).tolist()
    reach = [{i} | {j for j in range(n) if reads[i][j]} for i in range(n)]
    grown = True
    while grown:  # transitive closure
        grown = False
        for r in reach:
            wider = r.union(*(reach[j] for j in r))
            grown |= len(wider) > len(r)
            r |= wider
    components, placed = [], set()
    for i in range(n):
        if i not in placed:
            components.append([j for j in sorted(reach[i]) if i in reach[j]])
            placed.update(components[-1])
    # a group that reads another reaches strictly more states; ties keep index order
    components.sort(key=lambda states: len(reach[states[0]]))
    order = []
    for states in components:
        coupled = any(reads[i][j] for i in states for j in states)
        sources = sorted({j for i in states for j in range(n) if reads[i][j]} - set(states))
        if coupled or sources:
            order.append((_span(states), coupled, _span(sources) if sources else None))
    return tuple(order)


class CondensingFactor:
    """LU factor of M = I - (B (x) I) blockdiag(G), block lower triangular
    over the groups of states that G couples; built by
    :meth:`AnchoredBlock.factor` and not changed after.

    ``groups`` holds, in solve order, (states, lu, piv, sources, coupling)
    for every group that is not the identity: its states, the LU of its
    diagonal block (None where G_SS is zero), the earlier states it reads
    (None if none) and G at (states, sources).  A set of states is a slice
    where they are consecutive, else an index array.
    """

    def __init__(self, B: Array, groups: tuple):
        self.B = B
        self.groups = groups

    def solve(self, rhs: Array, trans: bool = False) -> Array:
        """M^-1 rhs, or M^-T rhs when ``trans``, for an (N+1, n, c) node
        table ``rhs``, written over ``rhs`` and returned: block
        substitution, forward or, transposed, backward over the groups.  One
        group of every state is one LU solve with M's factor."""
        m, c, B = len(rhs), rhs.shape[2], self.B
        for states, lu, piv, sources, coupling in self.groups[::-1] if trans else self.groups:
            if sources is not None and not trans:
                rhs[:, states] += (B @ (coupling @ rhs[:, sources]).reshape(m, -1)).reshape(
                    m, -1, c
                )
            if lu is not None:  # dgetrs shifts piv in place; a copy lets threads share it
                rhs[:, states] = lapack.dgetrs(
                    lu, piv.copy(), rhs[:, states].reshape(-1, c), trans=int(trans)
                )[0].reshape(m, -1, c)
            if sources is not None and trans:
                rhs[:, sources] += coupling.transpose(0, 2, 1) @ (
                    B.T @ rhs[:, states].reshape(m, -1)
                ).reshape(m, -1, c)
        return rhs


class NodeJacobian(LinearOperator):
    """The constraint Jacobian of a :class:`DiscretizedNlp` at one iterate, as
    node blocks: ``fx`` (N+1, n_x, n_x) and ``fu`` (N+1, n_x, n_u), F_x and
    F_u in physical variables, and ``e_xa``, ``e_xb`` (n_e, n_x), the
    endpoint rows; the other rows are constant.  As a linear operator it is
    the matrix wrt stored variables, with the row and column scaling of the
    form: ``J @ v`` and ``J.T @ mu`` are node-block products, so the matrix,
    where one is wanted, is ``J @ np.eye(n_z)``.  Not changed after it is
    built.
    """

    def __init__(self, nlp: "DiscretizedNlp", fx: Array, fu: Array, e_xa: Array, e_xb: Array):
        super().__init__(float, (nlp.n_rows, nlp.n_z))
        self.nlp, self.fx, self.fu, self.e_xa, self.e_xb = nlp, fx, fu, e_xa, e_xb

    def _matvec(self, v: Array) -> Array:
        nlp = self.nlp
        X, U, V, x_a, x_b = nlp.unpack(np.ravel(v))
        out = np.empty(nlp.n_rows)
        rows = nlp.rows
        out[rows["state_interpolation"]], out[rows["grid_equivalency"]] = nlp.state.residual(
            X, V, x_a, x_b
        )
        out[rows["dynamics"]] = (V - np.einsum("iab,ib->ia", self.fx, X)
                                 - np.einsum("iab,ib->ia", self.fu, U)).ravel()
        out[rows["endpoint"]] = self.e_xa @ x_a + self.e_xb @ x_b
        return out * nlp._row_scale

    def _rmatvec(self, mu: Array) -> Array:
        nlp = self.nlp
        m, n, rows = nlp.n_nodes, nlp.n_x, nlp.rows
        mu = np.ravel(mu) * nlp._row_scale
        dyn, end = mu[rows["dynamics"]].reshape(m, n), mu[rows["endpoint"]]
        X, V, x_a, x_b = nlp.state.residual_transpose(
            mu[rows["state_interpolation"]].reshape(m, n), mu[rows["grid_equivalency"]]
        )
        # the dynamics rows carry -f
        out = np.concatenate([
            (X - np.einsum("iab,ia->ib", self.fx, dyn)).ravel(),
            -np.einsum("iab,ia->ib", self.fu, dyn).ravel(),
            (V + dyn).ravel(),
            x_a + self.e_xa.T @ end,
            x_b + self.e_xb.T @ end,
        ])
        return out * nlp._col_scale


class DiscretizedNlp:
    """NLP view of one problem/grid/form triple.

    Residual and derivative evaluation are pure and reentrant (dynamics
    callbacks are assumed pure), and the NLP keeps no state across calls:
    one iterate's linearization is the value :meth:`newton_system` returns.
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
        if (form.scaled or form.tag.starred) and np.any(w == 0.0):
            raise DegenerateWeightError(
                f"zero quadrature weight; form {form} divides by the weights"
            )
        self._w = w
        # Galerkin row weighting for the starred forms; ones elsewhere so the
        # other forms multiply by exactly 1.0 and stay bit-identical
        scale = np.ones(self.n_rows)
        if form.tag.starred:  # node-major, one weight per state
            scale[rows["state_interpolation"]] = scale[rows["dynamics"]] = np.repeat(w, n)
        self._row_scale = scale

        # stored variables are s o (X, U, V) with the node scale s = w on the
        # scaled forms, ones elsewhere: derivatives wrt them carry the column
        # scale 1/s, and the unscaled forms multiply and divide by exactly 1.0
        s = w if form.scaled else np.ones(m)
        self._node_scale = s
        col = np.ones(self.n_z)
        col[self.slice_x] = col[self.slice_v] = np.repeat(1.0 / s, n)
        col[self.slice_u] = np.repeat(1.0 / s, self.n_u)
        self._col_scale = col

        self.state = AnchoredBlock(sys, form.tag)
        self._ab = slice(self.slice_xa.start, self.n_z)  # (x_a, x_b)
        # the rows of the condensing T: all but those of U, which are units
        self._t_rows = np.r_[self.slice_x, self.slice_v.start:self.n_z]

    # --- variable packing -----------------------------------------------------

    def unpack(self, z: Array):
        """Stored vector -> physical (X, U, V, x_a, x_b)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n_z,):
            raise ShapeError(f"expected decision vector of length {self.n_z}")
        m, n, s = self.n_nodes, self.n_x, self._node_scale[:, None]
        return (
            z[self.slice_x].reshape(m, n) / s,
            z[self.slice_u].reshape(m, self.n_u) / s,
            z[self.slice_v].reshape(m, n) / s,
            z[self.slice_xa].copy(),
            z[self.slice_xb].copy(),
        )

    def pack(self, X, U, V, x_a, x_b) -> Array:
        """Physical matrices -> stored vector (applies the node scale)."""
        X, U, V = (np.asarray(a, dtype=float) * self._node_scale[:, None] for a in (X, U, V))
        return np.concatenate(
            [X.ravel(), U.ravel(), V.ravel(), np.asarray(x_a, float), np.asarray(x_b, float)]
        )

    # --- objective --------------------------------------------------------------

    def objective(self, z: Array) -> float:
        """E(x_a, x_b) + w^T L(X, U): a staged running cost L by quadrature."""
        X, U, _, x_a, x_b = self.unpack(z)
        return self.ocp.quadrature_cost(X, U, x_a, x_b, self._w)

    def objective_gradient(self, z: Array) -> Array:
        """The gradient of :meth:`objective` wrt stored variables: w_i times
        L's gradient at node i, and E's at the endpoints."""
        X, U, _, x_a, x_b = self.unpack(z)
        g = np.zeros(self.n_z)
        g[self.slice_xa] = self.ocp.grad_cost_xa(x_a, x_b)
        g[self.slice_xb] = self.ocp.grad_cost_xb(x_a, x_b)
        rc = self.ocp.running_cost
        if rc is not None:
            g[self.slice_x] = (self._w[:, None] * rc.grad_x(X, U)).ravel()
            g[self.slice_u] = (self._w[:, None] * rc.grad_u(X, U)).ravel()
            g *= self._col_scale
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

    def jacobian(self, z: Array) -> NodeJacobian:
        """The Jacobian of the (row-scaled) constraints wrt stored variables,
        as the node blocks of a :class:`NodeJacobian`.  Raises
        EvaluationError when a block is not finite."""
        X, U, _, x_a, x_b = self.unpack(z)
        fx = self.ocp.jac_fx(X, U)
        fu = self.ocp.jac_fu(X, U)
        bad = ~(np.isfinite(fx).all(axis=(1, 2)) & np.isfinite(fu).all(axis=(1, 2)))
        if bad.any():
            raise EvaluationError(
                f"dynamics Jacobian returned non-finite values at node {int(np.argmax(bad))}"
            )
        con = self.ocp.constraints
        e_xa = np.asarray(con.jac_xa(x_a, x_b), dtype=float)
        e_xb = np.asarray(con.jac_xb(x_a, x_b), dtype=float)
        if not (np.isfinite(e_xa).all() and np.isfinite(e_xb).all()):
            raise EvaluationError("endpoint constraint Jacobian returned non-finite values")
        return NodeJacobian(self, fx, fu, e_xa, e_xb)

    # --- Lagrangian pieces used by the solver ------------------------------------

    def lagrangian_hessian(self, z: Array, mu: Array):
        """Hessian of F + mu^T c wrt physical variables, as node blocks
        (K, K_end): K[i] (n_x + n_u square) over node i's (x, u) and K_end
        (2 n_x square) over (x_a, x_b); it is zero elsewhere.

        Interpolation and equivalency rows are linear and drop out; K is
        the curvature of w_i L + mu_dyn . f at each node (the running cost
        and the dynamics rows), obtained by central differences of the
        analytic gradients, and K_end that of the endpoint terms.
        :meth:`hessian_times` applies them to a vector.
        """
        X, U, _, x_a, x_b = self.unpack(z)
        # dynamics rows carry -f
        dyn = self.rows["dynamics"]
        mu_dyn = -(mu[dyn] * self._row_scale[dyn]).reshape(X.shape)
        K = self.ocp.hamiltonian_curvatures(X, U, mu_dyn, self._w)
        k_end = self.ocp.endpoint_lagrangian_curvature(x_a, x_b, mu[self.rows["endpoint"]])
        return 0.5 * (K + K.transpose(0, 2, 1)), 0.5 * (k_end + k_end.T)

    def hessian_times(self, hess, v: Array) -> Array:
        """H v in physical variables for a vector ``v``, ``hess`` as
        :meth:`lagrangian_hessian` returns it."""
        K, k_end = hess
        m, n = self.n_nodes, self.n_x
        xu = np.concatenate(
            [v[self.slice_x].reshape(m, n), v[self.slice_u].reshape(m, self.n_u)], axis=1
        )
        kv = np.einsum("iab,ib->ia", K, xu)
        out = np.zeros(self.n_z)
        out[self.slice_x], out[self.slice_u] = kv[:, :n].ravel(), kv[:, n:].ravel()
        out[self._ab] = k_end @ v[self._ab]
        return out

    # --- condensed Newton step -----------------------------------------------------

    def newton_system(self, jac: NodeJacobian, r: Array) -> NewtonSystem | None:
        """The solver's Newton-KKT system at the iterate with Jacobian ``jac``
        and constraint values ``r``, or None when M has an exactly zero pivot.

        The system is condensed through the identity blocks of the rows.  The
        dynamics rows give dV = F_x dX + F_u dU - r2, the interpolation rows
        M dX = 1 dx_anchor + (B (x) I)(F_u dU - r2) - r1 and the equivalency
        rows the other endpoint, so dz = T p + t in the free unknowns
        p = (dU, dx_anchor), t the step at p = 0.  One call of
        :meth:`AnchoredBlock.condense` factors M and solves T's columns (dU's
        as outer products) and t's, where r enters, over the rows of X, V,
        x_a and x_b.  Works in physical variables: the scaling cancels.
        """
        m, n, n_u = self.n_nodes, self.n_x, self.n_nodes * self.n_u
        mn, c = m * n, n_u + n + 1
        r = r / self._row_scale
        r1, r2, r3 = (r[self.rows[k]] for k in ("state_interpolation", "dynamics",
                                                "grid_equivalency"))
        # a unit step in each free unknown (the dU columns, then dx_anchor),
        # then t, solved in place in T's rows X, V, x_a, x_b; dx_anchor moves no V
        T = np.empty((2 * mn + 2 * n, c))
        X, V = T[:mn].reshape(m, n, c), T[mn:2 * mn].reshape(m, n, c)
        V[..., n_u:-1], V[..., -1] = 0.0, -r2.reshape(m, n)
        ends = T[2 * mn:].reshape(2, n, c)  # x_a, x_b
        anchor, other = self.state.ends(*ends)
        anchor[...] = np.eye(n, c, n_u)
        factor = self.state.condense(jac.fx, jac.fu, X, V, anchor, other, r1, r3)
        return None if factor is None else NewtonSystem(self, jac, factor, T, r)


@dataclass(frozen=True, eq=False)
class NewtonSystem:
    """One iterate's condensed Newton-KKT system, from
    :meth:`DiscretizedNlp.newton_system`: the factor of M, ``T`` with t as
    its last column and the unweighted constraint values ``r``.  It does not
    change after it is built, so it serves any number of calls, from any
    thread.  :meth:`estimate` and :meth:`step` are one :meth:`_solve`, which
    fills T^T H T from node blocks of H."""

    nlp: DiscretizedNlp
    jac: NodeJacobian
    factor: CondensingFactor
    T: Array
    r: Array

    def estimate(self, g: Array, working: Array) -> Array | None:
        """The least-squares multipliers argmin ||g + J_w^T mu|| of the
        optimality test: mu_w of the system with H = I in stored variables,
        D = 1 / col^2 in physical ones, and r = 0, so t = 0.  T's columns
        satisfy dV = C_i (dX, dU) at node i, C_i = [F_x F_u], so T^T D T is
        the fill of node blocks d_i (I + C_i^T C_i) and k_end = I, d_i = s_i^2
        for the node scale s (w on the scaled forms, ones elsewhere)."""
        nlp, col, s = self.nlp, self.nlp._col_scale, self.nlp._node_scale
        C = np.concatenate([self.jac.fx, self.jac.fu], axis=2)
        K = (s * s)[:, None, None] * (np.eye(C.shape[2]) + C.transpose(0, 2, 1) @ C)
        solved = self._solve((K, np.eye(2 * nlp.n_x)), lambda v: v / (col * col),
                             g, working, 0.0, np.zeros(nlp.n_rows))
        return None if solved is None else solved[1]

    def step(self, hess, g: Array, working: Array):
        """(dz, mu_w) of [[H, J_w^T], [J_w, 0]] [dz, mu_w] = [-g, -r_w], or
        None, for ``hess`` as :meth:`DiscretizedNlp.lagrangian_hessian`
        returns it: K over each node's (x, u), k_end over (x_a, x_b)."""
        return self._solve(hess, partial(self.nlp.hessian_times, hess), g, working,
                           self.T[:, -1], self.r)

    def _solve(self, hess, times, g: Array, working: Array, t: Array, r: Array):
        """(dz, mu_w) for the H with node blocks ``hess`` = (K, k_end) and
        products ``times``, t (over T's rows) and r: the reduced KKT
        [[T^T H T, (E T)^T], [E T, 0]] over p and the working endpoint rows E
        in one array, with T^T H T = T_X^T (H T)_X + (H T)_U + T_end^T k_end
        T_end, by :func:`solver.regularized_solve`, then the other
        multipliers by back-substitution in the columns of x_other, X and V.
        None if no shift makes it solvable or a result is not finite."""
        nlp, T, fx, col = self.nlp, self.T[:, :-1], self.jac.fx, self.nlp._col_scale
        m, n, n_u = nlp.n_nodes, nlp.n_x, nlp.n_nodes * nlp.n_u
        mn, n_p, t_rows = m * n, T.shape[1], nlp._t_rows
        g = g / col
        e_work = working[nlp.rows["endpoint"]]
        e_rows = np.hstack([self.jac.e_xa, self.jac.e_xb])[e_work]  # over (x_a, x_b)
        # the endpoint opposite the anchor, within (x_a, x_b)
        sign, (_, other) = nlp.state.sign, nlp.state.ends(slice(n), slice(n, 2 * n))

        K, k_end = hess
        kkt = np.zeros((n_p + len(e_rows),) * 2)
        tht, tx, t_end = kkt[:n_p, :n_p], T[:mn].reshape(m, n, n_p), T[2 * mn:]
        ht_x = add_unit_columns(K[:, :n, :n] @ tx, K[:, :n, n:])
        ht_u = add_unit_columns(K[:, n:, :n] @ tx, K[:, n:, n:])
        np.matmul(T[:mn].T, ht_x.reshape(mn, n_p), out=tht)
        tht += t_end.T @ (k_end @ t_end)
        tht[:n_u] += ht_u.reshape(n_u, n_p)
        kkt[n_p:, :n_p] = e_rows @ t_end
        kkt[:n_p, n_p:] = kkt[n_p:, :n_p].T
        dz = np.zeros(nlp.n_z)  # t, until p is solved
        dz[t_rows] = t
        s = times(dz) + g  # H t + g
        t_s = T.T @ s[t_rows]
        t_s[:n_u] += s[nlp.slice_u]
        rhs = -np.concatenate([t_s, r[nlp.rows["endpoint"]][e_work] + e_rows @ dz[nlp._ab]])
        sol = regularized_solve(kkt, rhs, np.concatenate([np.ones(n_p), -np.ones(len(e_rows))]))
        if sol is None:
            return None
        p, mu4 = sol[:n_p], sol[n_p:]
        dz[t_rows] += T @ p
        dz[nlp.slice_u] = p[:n_u]

        s = times(dz) + g  # H dz + g
        mu3 = -sign * (s[nlp._ab][other] + e_rows[:, other].T @ mu4)
        s_x, s_v = s[nlp.slice_x].reshape(m, n), s[nlp.slice_v].reshape(m, n)
        w_mu3 = np.outer(nlp._w, mu3)
        y = -s_x + np.einsum("iba,ib->ia", fx, w_mu3 - s_v)
        mu1 = self.factor.solve(y[:, :, None], trans=True).ravel()
        mu2 = (-s_v + nlp.state.B.T @ mu1.reshape(m, n) + w_mu3).ravel()
        mu = np.concatenate([mu1, mu2, mu3, mu4]) / nlp._row_scale[working]
        dz = dz / col
        return (dz, mu) if np.all(np.isfinite(dz)) and np.all(np.isfinite(mu)) else None


def check_horizon(ocp: OcpDefinition, sys: BirkhoffSystem) -> None:
    """Raise DomainMismatchError unless the grid spans the problem's horizon."""
    dom = sys.grid.domain
    if not np.allclose(dom, ocp.horizon, rtol=1e-12, atol=1e-12):
        raise DomainMismatchError(f"grid domain {dom} does not match problem horizon {ocp.horizon}")


def transcribe(ocp: OcpDefinition, sys: BirkhoffSystem, form: PrimalForm) -> DiscretizedNlp:
    """Discretize the problem as given; a staged running cost L enters the
    objective as the quadrature w^T L(X, U) (:meth:`DiscretizedNlp.objective`),
    so an LQ problem is a QP."""
    check_horizon(ocp, sys)
    return DiscretizedNlp(ocp, sys, form)


# --- initial guesses ---------------------------------------------------------

GUESS_STRATEGIES = ("constant-midpoint", "linear-endpoint-interpolation")


def endpoint_seed(con, n: int):
    """Gauss-Newton on the equality endpoint rows from the origin; gives the
    pinned values exactly for linear boundary conditions.  Raises
    EvaluationError when the rows or their Jacobian are not finite, and
    NoConvergenceError when a step leaves the finite numbers."""
    x_a, x_b = np.zeros(n), np.zeros(n)
    eq = con.equality_mask()
    for _ in range(8):
        r = np.asarray(con.fun(x_a, x_b), dtype=float)[eq]
        if np.max(np.abs(r), initial=0.0) < 1e-12:
            break
        jac = np.hstack([np.asarray(con.jac_xa(x_a, x_b), dtype=float)[eq],
                         np.asarray(con.jac_xb(x_a, x_b), dtype=float)[eq]])
        if not (np.isfinite(r).all() and np.isfinite(jac).all()):
            raise EvaluationError(
                "endpoint constraints or their Jacobian returned non-finite values"
            )
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        x_a, x_b = x_a + step[:n], x_b + step[n:]
        if not (np.isfinite(x_a).all() and np.isfinite(x_b).all()):
            raise NoConvergenceError("the endpoint seed overflowed: no finite initial guess")
    return x_a, x_b


def straight_line(ocp: OcpDefinition, nodes: Array):
    """The straight line between the endpoint seed values over ``nodes``:
    (X, V, x_a, x_b), with the node table X and its constant slope V.
    Raises NoConvergenceError when the line leaves the finite numbers."""
    x_a, x_b = endpoint_seed(ocp.constraints, ocp.n_x)
    t0, tf = ocp.horizon
    theta = (nodes - t0) / (tf - t0)
    with np.errstate(over="ignore", invalid="ignore"):
        X = x_a[None, :] + theta[:, None] * (x_b - x_a)[None, :]
        V = np.tile((x_b - x_a) / (tf - t0), (len(nodes), 1))
    if not (np.isfinite(X).all() and np.isfinite(V).all()):
        raise NoConvergenceError("the straight-line seed overflowed: no finite initial guess")
    return X, V, x_a, x_b


def initial_guess(nlp: DiscretizedNlp, strategy: str = "constant-midpoint") -> Array:
    if strategy not in GUESS_STRATEGIES:
        raise NotFoundError(f"unknown guess strategy {strategy!r}; use one of {GUESS_STRATEGIES}")
    m = nlp.n_nodes
    X, V, x_a, x_b = straight_line(nlp.ocp, nlp.sys.grid.nodes)
    if strategy == "constant-midpoint":
        X = np.tile(0.5 * (x_a + x_b), (m, 1))
        V = np.zeros((m, nlp.n_x))
    return nlp.pack(X, np.zeros((m, nlp.n_u)), V, x_a, x_b)


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
        feasibility=float(np.max(viol, initial=0.0)),
    )
