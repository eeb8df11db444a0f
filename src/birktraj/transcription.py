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
system, :meth:`DiscretizedNlp.newton_system`, eliminates those variables:
dz = t + Z p over the free unknowns p = (U, x_anchor), Z = [T; I_U] the
coordinate basis of reduced SQP (Biegler, Nocedal and Schmid 1995).  It
factors M = I - (B (x) I) F_x once per iterate by
:meth:`AnchoredBlock.factor`, which, with :meth:`AnchoredBlock.eliminate`,
the indirect solver in ``dual`` calls for both of its sides too; M is
conditioned like the O(1)-norm Birkhoff
matrix B, and only the diagonal blocks of the groups of states that F_x
couple are LU-factored.  T is an operator, not a matrix: Z P and Z^T S
are one solve with that factor each, over a few columns.  The system binds
its iterate's gradient g: t and one adjoint over n + 1 columns (Z^T g, T's
endpoint rows and their multipliers) are solved once, so the multiplier
estimate solves only a least-squares problem over the n_e columns of the
working endpoint rows.  The step solves one reduced KKT over (U, x_anchor)
and the working endpoint rows (the condensing of multiple shooting, Bock
and Plitt 1984); its Z^T H Z reads T's rows only for the states where the
Hessian of the Lagrangian curves (and those they read), so a problem whose
states carry no curvature solves none of them.  A small system fills
Z^T H Z, solving those rows over every p column, and factors the whole
reduced KKT; a large one never forms it: block preconditioned conjugate
gradients on its control block (Gould, Hribar and Nocedal 2001), which take
as many iterations at N = 1024 as at N = 16, and a Schur complement over
x_anchor and the endpoint rows.
The constraint Jacobian (:class:`NodeJacobian`) and the Hessian of the
Lagrangian are node blocks, so no n_rows x n_z or n_z x n_z matrix is built
in a solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import lapack

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

# NewtonSystem.step solves its reduced KKT matrix-free where it has at least
# KRYLOV_MIN_ORDER unknowns p, plus one for every KRYLOV_ROWS_PER_ORDER rows
# of T that the Hessian curves, and fills and factors it below that: the
# crossover of the two step times on the registry problems, prepared, on
# LGL grids at N = 32 to 512
KRYLOV_MIN_ORDER = 128
KRYLOV_ROWS_PER_ORDER = 4
# the conjugate gradients of that solve stop at this relative residual, and
# give up after this many iterations
KRYLOV_TOL = 1e-13
KRYLOV_MAX_ITER = 40


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


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """A solved NLP's node tables, endpoints, objective and feasibility;
    compared and hashed by identity, as arrays have no single truth value."""

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


def require_finite(what: str, table, at_nodes: bool = True) -> Array:
    """``table`` as an array, or EvaluationError if it holds a non-finite
    value, naming ``what`` and, for a node table (``at_nodes``: one row per
    node), the first such node."""
    table = np.asarray(table)
    bad = ~np.isfinite(table)
    if bad.any():
        at = f" at node {int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))}" if at_nodes else ""
        raise EvaluationError(f"{what} returned non-finite values{at}")
    return table


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

    :meth:`factor`, :meth:`control_columns` and :meth:`eliminate` are the
    one elimination of these rows for both Newton solvers.  A block does
    not change after it is built.
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
        groups, pattern = [], G.any(axis=0).tobytes()
        for rows, coupled, cols in _solve_order(pattern, G.shape[1]):
            lu = piv = None
            if coupled:
                lu, piv, info = lapack.dgetrf(self.condensing_matrix(G[:, rows][:, :, rows]))
                if info != 0:
                    return None
            groups.append((rows, lu, piv, cols, None if cols is None else G[:, rows][:, :, cols]))
        return CondensingFactor(self.B, tuple(groups), pattern)

    def control_columns(self, controls: Array, out: Array) -> Array:
        """(B (x) I) times ``controls`` (N+1, n, k node blocks) at the unit
        control columns, written into the (N+1, n, (N+1) k) table ``out``:
        B[i, j] controls[j, a, l] at node i, state a, column j k + l, the
        outer products B[:, j] (x) controls[j], with no B multiply."""
        m, n, k = controls.shape
        # splitting out's column axis into (node, control) takes a view
        np.multiply(self.B[:, None, :, None], controls.transpose(1, 0, 2),
                    out=out.reshape(m, n, m, k))
        return out

    def eliminate(self, factor, G, values, derivs, anchor, other, r_interp, r_equiv, built=0):
        """Solve the interpolation and equivalency rows with ``factor``, the
        :meth:`factor` of the node blocks G, in every column of the (N+1, n,
        c) node tables ``values`` and ``derivs`` and the (n, c) endpoint
        tables ``anchor`` and ``other``, given the anchor and the derivatives
        as G values + the ``derivs`` on entry: fills ``values``, completes
        ``derivs`` and sets ``other``, the endpoint opposite the anchor;
        ``r_interp`` and ``r_equiv`` enter the last column.  The first
        ``built`` columns of ``values`` already hold their (B (x) I) derivs,
        as :meth:`control_columns` writes them for unit control columns."""
        m, n, c = values.shape
        values[..., built:] = (self.B @ derivs[..., built:].reshape(m, -1)).reshape(
            m, n, c - built
        )
        values += anchor
        values[..., -1] -= r_interp.reshape(m, n)
        factor.solve(values)
        derivs += G @ values
        other[...] = anchor + self.sign * (self.w @ derivs.reshape(m, -1)).reshape(n, c)
        other[:, -1] -= self.sign * r_equiv


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


@lru_cache(maxsize=256)
def _through_plan(pattern: bytes, curved: bytes) -> tuple:
    """:meth:`CondensingFactor.through` for the coupling ``pattern`` of
    :func:`_solve_order` and the boolean mask ``curved`` over its n states,
    as (states, ((group index, its states, its sources), ...)): the kept
    groups in solve order, their state sets as places among ``states``.
    Cached, since it depends on the two patterns alone."""
    need = np.frombuffer(curved, dtype=bool).copy()
    order, kept = _solve_order(pattern, need.size), []
    for i in reversed(range(len(order))):
        rows, _, sources = order[i]
        if need[rows].any():  # a group's states read each other
            need[rows] = True
            if sources is not None:
                need[sources] = True
            kept.append(i)
    place = np.cumsum(need) - 1  # a needed state's place among them

    def placed(sel):
        return None if sel is None else _span(place[sel].tolist())

    states = np.flatnonzero(need)
    states.flags.writeable = False
    return states, tuple((i, placed(order[i][0]), placed(order[i][2])) for i in kept[::-1])


class CondensingFactor:
    """LU factor of M = I - (B (x) I) blockdiag(G), block lower triangular
    over the groups of states that G couples; built by
    :meth:`AnchoredBlock.factor` and not changed after.

    ``groups`` holds, in solve order, (states, lu, piv, sources, coupling)
    for every group that is not the identity: its states, the LU of its
    diagonal block (None where G_SS is zero), the earlier states it reads
    (None if none) and G at (states, sources).  A set of states is a slice
    where they are consecutive, else an index array.  ``pattern`` is G's
    coupling pattern, which :meth:`through` reads; the factor it returns
    has none.
    """

    def __init__(self, B: Array, groups: tuple, pattern: bytes):
        self.B = B
        self.groups = groups
        self.pattern = pattern

    def through(self, curved: Array) -> tuple:
        """(states, factor) for a boolean mask ``curved`` over the n states:
        ``states`` are those and every state they read, directly or through
        others, as sorted indices, and ``factor`` solves M's rows of those
        states alone, for a node table over them in that order.  It keeps
        the groups of those states and skips the rest, so no state is no
        group and no solve."""
        states, plan = _through_plan(self.pattern, curved.tobytes())
        groups = self.groups
        return states, CondensingFactor(self.B, tuple(
            (rows, groups[i][1], groups[i][2], sources, groups[i][4])
            for i, rows, sources in plan
        ), None)

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


class NodeJacobian:
    """The constraint Jacobian of a :class:`DiscretizedNlp` at one iterate, as
    node blocks: ``fx`` (N+1, n_x, n_x) and ``fu`` (N+1, n_x, n_u), F_x and
    F_u in physical variables, and ``e_xa``, ``e_xb`` (n_e, n_x), the
    endpoint rows; the other rows are constant.  It acts as the matrix wrt
    stored variables, with the row and column scaling of the form: ``J @ v``
    and ``J.T @ mu`` are node-block products, of a vector or of each column
    of a matrix, so the matrix, where one is wanted, is ``J @ np.eye(n_z)``.
    Not changed after it is built.
    """

    def __init__(self, nlp: "DiscretizedNlp", fx: Array, fu: Array, e_xa: Array, e_xb: Array):
        self.nlp, self.fx, self.fu, self.e_xa, self.e_xb = nlp, fx, fu, e_xa, e_xb
        self.shape = (nlp.n_rows, nlp.n_z)

    def __matmul__(self, v: Array) -> Array:
        return _by_columns(self._matvec, v)

    @property
    def T(self) -> "_TransposedJacobian":
        return _TransposedJacobian(self)

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


def _by_columns(product, v: Array) -> Array:
    """``product`` of the vector ``v``, or of each column of the matrix ``v``."""
    v = np.asarray(v)
    return product(v) if v.ndim == 1 else np.column_stack([product(col) for col in v.T])


class _TransposedJacobian:
    """``J.T`` of a :class:`NodeJacobian` ``J``: its ``@`` is J's transposed
    node-block product."""

    def __init__(self, jac: NodeJacobian):
        self.jac = jac
        self.shape = jac.shape[::-1]

    def __matmul__(self, mu: Array) -> Array:
        return _by_columns(self.jac._rmatvec, mu)


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
        # each node's (x, u) in z, the rows and columns of its K
        self._xu = np.hstack([np.arange(self.slice_x.start, self.slice_x.stop).reshape(m, n),
                              np.arange(self.slice_u.start, self.slice_u.stop).reshape(m, self.n_u)])
        # the condensing T has the columns p = (dU, dx_anchor); its x_anchor
        # rows are units, and x_other is this slice of (x_a, x_b)
        self._n_p = m * self.n_u + n
        self._t_anchor = np.eye(n, self._n_p, m * self.n_u)
        self._ab_other = self.state.ends(slice(n), slice(n, 2 * n))[1]
        self._z_ends = self.state.ends(self.slice_xa, self.slice_xb)  # (x_anchor, x_other)

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
        f = require_finite("dynamics", self.ocp.dynamics(X, U))
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
        con = self.ocp.constraints
        return NodeJacobian(
            self,
            require_finite("dynamics Jacobian F_x", self.ocp.jac_fx(X, U)),
            require_finite("dynamics Jacobian F_u", self.ocp.jac_fu(X, U)),
            require_finite("endpoint constraint Jacobian in x_a",
                           np.asarray(con.jac_xa(x_a, x_b), dtype=float), at_nodes=False),
            require_finite("endpoint constraint Jacobian in x_b",
                           np.asarray(con.jac_xb(x_a, x_b), dtype=float), at_nodes=False),
        )

    # --- Lagrangian pieces used by the solver ------------------------------------

    def lagrangian_hessian(self, z: Array, mu: Array):
        """Hessian of F + mu^T c wrt physical variables, as node blocks
        (K, K_end): K[i] (n_x + n_u square) over node i's (x, u) and K_end
        (2 n_x square) over (x_a, x_b); it is zero elsewhere.

        Interpolation and equivalency rows are linear and drop out; K is
        the curvature of w_i L + mu_dyn . f at each node (the running cost
        and the dynamics rows) and K_end that of the endpoint terms, both
        complex steps of the analytic gradients, exact to rounding: one
        call of :meth:`~birktraj.ocp.OcpDefinition.hamiltonian_gradient`
        for every node and column, and 2 n_x single-point endpoint
        gradients.  :meth:`hessian_times` applies them to a vector.  Raises
        EvaluationError when a table is not finite.
        """
        X, U, _, x_a, x_b = self.unpack(z)
        # dynamics rows carry -f
        dyn = self.rows["dynamics"]
        mu_dyn = -(mu[dyn] * self._row_scale[dyn]).reshape(X.shape)
        K = require_finite("Hamiltonian curvature",
                           self.ocp.hamiltonian_curvatures(X, U, mu_dyn, self._w))
        k_end = require_finite(
            "endpoint Lagrangian curvature",
            self.ocp.endpoint_lagrangian_curvature(x_a, x_b, mu[self.rows["endpoint"]]),
            at_nodes=False,
        )
        return 0.5 * (K + K.transpose(0, 2, 1)), 0.5 * (k_end + k_end.T)

    def hessian_times(self, hess, v: Array) -> Array:
        """H v in physical variables for a vector ``v``, ``hess`` as
        :meth:`lagrangian_hessian` returns it."""
        K, k_end = hess
        out = np.zeros(self.n_z)
        out[self._xu] = np.einsum("iab,ib->ia", K, v[self._xu])
        out[self._ab] = k_end @ v[self._ab]
        return out

    # --- condensed Newton step -----------------------------------------------------

    def newton_system(self, jac: NodeJacobian, r: Array, g: Array) -> NewtonSystem | None:
        """The solver's Newton-KKT system at the iterate with Jacobian ``jac``,
        constraint values ``r`` and objective gradient ``g``, or None when M
        has an exactly zero pivot.

        The system is condensed through the identity blocks of the rows.  The
        dynamics rows give dV = F_x dX + F_u dU - r2, the interpolation rows
        M dX = 1 dx_anchor + (B (x) I)(F_u dU - r2) - r1 and the equivalency
        rows the other endpoint, so dz = Z p + t in the free unknowns
        p = (dU, dx_anchor), t the step at p = 0; Z is T over X, V, x_a and
        x_b and the identity over U.  This factors M once
        (:meth:`AnchoredBlock.factor`) and builds the :class:`NewtonSystem`,
        which solves with that factor twice.  Works in physical variables:
        the scaling cancels.
        """
        factor = self.state.factor(jac.fx)
        if factor is None:
            return None
        return NewtonSystem(self, jac, factor, r / self._row_scale, g / self._col_scale)


class NewtonSystem:
    """One iterate's condensed Newton-KKT system, from
    :meth:`DiscretizedNlp.newton_system`, in physical variables: the factor
    of M, the unweighted constraint values ``r``, the objective gradient
    ``g``, the endpoint rows ``e_ab`` over (x_a, x_b) and what the iterate
    fixes, computed once here by two solves with the factor: ``t``, the
    step at p = 0, and, from one :meth:`adjoint` over n + 1 columns,
    ``ztg`` = Z^T g, ``t_end``, T over (x_a, x_b), and the multipliers
    ``mu_g`` at g and ``mu_other`` at each unit vector in x_other (T's
    x_anchor rows are units and its x_other rows that adjoint at those
    unit vectors).  Z = [T; I_U] is an operator, :meth:`forward` Z P and
    :meth:`adjoint` Z^T S, one solve with the factor each, and is stored
    nowhere; :meth:`step`, on a small system, solves T's X rows over
    every p column only for the states where the Hessian curves, and on a
    large one applies them to a few columns.  It does not change after it is
    built, so it serves any number of calls, from any thread."""

    def __init__(self, nlp: DiscretizedNlp, jac: NodeJacobian, factor: CondensingFactor,
                 r: Array, g: Array):
        self.nlp, self.jac, self.factor, self.r, self.g = nlp, jac, factor, r, g
        self.e_ab = np.hstack([jac.e_xa, jac.e_xb])
        self.t = self._eliminated(np.zeros((nlp._n_p, 1)), r)[:, 0]
        n = nlp.n_x
        cols = np.zeros((nlp.n_z, n + 1))
        cols[:, 0] = g
        cols[nlp._z_ends[1], 1:] = np.eye(n)
        zts, mu = self.adjoint(cols)
        self.ztg, self.mu_g, self.mu_other = zts[:, 0], mu[:, 0], mu[:, 1:]
        self.t_end = np.concatenate(nlp.state.ends(nlp._t_anchor, zts[:, 1:].T))

    def _eliminated(self, P: Array, r: Array) -> Array:
        """Z P, physical, for (n_p, k) columns ``P``, with the step at p = 0
        for the unweighted constraint values ``r`` added to the last column
        (t for the iterate's, nothing for r = 0): one
        :meth:`AnchoredBlock.eliminate` with the factor of M."""
        nlp, jac = self.nlp, self.jac
        m, n, n_u = nlp.n_nodes, nlp.n_x, nlp.n_nodes * nlp.n_u
        k = P.shape[1]
        out = np.empty((nlp.n_z, k))
        out[nlp.slice_u] = P[:n_u]
        X, V = out[nlp.slice_x].reshape(m, n, k), out[nlp.slice_v].reshape(m, n, k)
        np.matmul(jac.fu, P[:n_u].reshape(m, nlp.n_u, k), out=V)
        V[..., -1] -= r[nlp.rows["dynamics"]].reshape(m, n)
        anchor, other = out[nlp._z_ends[0]], out[nlp._z_ends[1]]
        anchor[...] = P[n_u:]
        nlp.state.eliminate(self.factor, jac.fx, X, V, anchor, other,
                            r[nlp.rows["state_interpolation"]], r[nlp.rows["grid_equivalency"]])
        return out

    def forward(self, P: Array) -> Array:
        """Z P, physical, for (n_p, k) columns ``P`` over p = (dU,
        dx_anchor): T P in the rows of X, V, x_a and x_b and P's dU in
        those of U.  One solve with the factor of M."""
        return self._eliminated(P, np.zeros(self.nlp.n_rows))

    def adjoint(self, S: Array):
        """(Z^T S, mu) for physical (n_z, k) columns ``S``: Z^T S = T^T S +
        S's U rows, over p = (dU, dx_anchor), and the unweighted
        interpolation, dynamics and equivalency multipliers mu that zero
        S + J^T mu in X, V and x_other, whose rest over p Z^T S is (reduced
        SQP with a coordinate basis).  Back-substitution through the
        identity blocks of those rows and one transposed solve with the
        factor of M."""
        nlp, jac = self.nlp, self.jac
        m, n, k = nlp.n_nodes, nlp.n_x, S.shape[1]
        mn, n_u = m * n, m * nlp.n_u
        anchor, other = S[nlp._z_ends[0]], S[nlp._z_ends[1]]
        mu = np.empty((2 * mn + n, k))
        mu3 = np.multiply(other, -nlp.state.sign, out=mu[2 * mn:])
        v = nlp._w[:, None, None] * mu3 - S[nlp.slice_v].reshape(m, n, k)  # w mu3 - s_V
        mu1 = np.matmul(jac.fx.transpose(0, 2, 1), v, out=mu[:mn].reshape(m, n, k))
        mu1 -= S[nlp.slice_x].reshape(m, n, k)
        self.factor.solve(mu1, trans=True)
        mu2 = mu[mn:2 * mn].reshape(m, n, k)
        np.matmul(nlp.state.B.T, mu1.reshape(m, -1), out=mu2.reshape(m, -1))
        mu2 += v
        zts = np.empty((nlp._n_p, k))
        zts[:n_u] = S[nlp.slice_u] - (jac.fu.transpose(0, 2, 1) @ mu2).reshape(n_u, k)
        zts[n_u:] = anchor + other - mu1.sum(axis=0)
        return zts, mu

    def estimate(self, working: Array) -> Array | None:
        """The coordinate-basis multipliers of the optimality test (reduced
        SQP with a coordinate basis; Biegler, Nocedal and Schmid 1995).
        mu_4 over the working endpoint rows E is the minimum-norm
        least-squares solution of (E T)^T mu_4 = -Z^T g over p = (U,
        x_anchor), and the other multipliers zero g + J^T mu in X, V and
        x_other.  In physical variables, so the stored-variable metric does
        not enter; wherever some multipliers make g + J_w^T mu vanish, these
        do.  It solves nothing with the factor of M: Z^T g, T_end and, by
        linearity, those multipliers are the system's.  None if a result is
        not finite."""
        nlp = self.nlp
        e_rows = self.e_ab[working[nlp.rows["endpoint"]]]
        et = e_rows @ self.t_end
        if not (np.all(np.isfinite(et)) and np.all(np.isfinite(self.ztg))):
            return None
        mu4 = np.linalg.lstsq(et.T, -self.ztg, rcond=None)[0]
        mu = self._multipliers(
            self.mu_g + self.mu_other @ (e_rows[:, nlp._ab_other].T @ mu4), mu4, working
        )
        return mu if np.all(np.isfinite(mu)) else None

    def step(self, hess, working: Array):
        """(dz, mu_w) of [[H, J_w^T], [J_w, 0]] [dz, mu_w] = [-g, -r_w], or
        None, for ``hess`` as :meth:`DiscretizedNlp.lagrangian_hessian`
        returns it: K over each node's (x, u), k_end over (x_a, x_b).

        What is left is the reduced KKT [[A, C^T], [C, 0]] over p and the
        working endpoint rows E, A = Z^T H Z and C = E T_end, with the
        right-hand side -(Z^T (H t + g), r_E + E t), Z^T (H t + g) from one
        single-column :meth:`adjoint`.  Only the states whose rows of K are
        not all zero, and the states they read, enter A through T's rows
        (:meth:`CondensingFactor.through`).  A system of at least
        KRYLOV_MIN_ORDER unknowns p, plus one for every KRYLOV_ROWS_PER_ORDER
        such rows of T, solves it matrix-free (:meth:`_ReducedKkt.krylov`),
        refined once where its residual is not KRYLOV_TOL of the
        right-hand side; a smaller one, or one where the conjugate gradients
        give up, fills it (:meth:`_ReducedKkt.dense`).  Then
        dz = t + Z p comes from one :meth:`forward` and the other
        multipliers from one more :meth:`adjoint` at H dz + g + E^T mu_E,
        which is also the residual of A's rows.  None if no shift makes the
        system solvable or a result is not finite."""
        nlp = self.nlp
        e_work = working[nlp.rows["endpoint"]]
        e_rows, r_e = self.e_ab[e_work], self.r[nlp.rows["endpoint"]][e_work]
        reduced = _ReducedKkt(self, hess, e_rows, -np.concatenate([
            self.adjoint((nlp.hessian_times(hess, self.t) + self.g)[:, None])[0][:, 0],
            r_e + e_rows @ self.t[nlp._ab],
        ]))
        sol = None
        if nlp._n_p >= KRYLOV_MIN_ORDER + reduced.curved_rows // KRYLOV_ROWS_PER_ORDER:
            solved = reduced.krylov()
            if solved is not None:
                sol, correct = solved
                dz, zts, mu = self._recovered(hess, sol, e_rows)
                residual = -np.concatenate([zts, r_e + e_rows @ dz[nlp._ab]])
                # refine once where the residual is not at rounding level
                if np.max(np.abs(residual)) > KRYLOV_TOL * np.max(np.abs(reduced.rhs)):
                    delta = correct(residual)
                    sol = None if delta is None else sol + delta
                    if sol is not None:
                        dz, _, mu = self._recovered(hess, sol, e_rows)
        if sol is None:
            sol = reduced.dense()
            if sol is None:
                return None
            dz, _, mu = self._recovered(hess, sol, e_rows)
        mu = self._multipliers(mu, sol[nlp._n_p:], working)
        dz = dz / nlp._col_scale
        return (dz, mu) if np.all(np.isfinite(dz)) and np.all(np.isfinite(mu)) else None

    def _recovered(self, hess, sol: Array, e_rows: Array):
        """(dz, Z^T s, mu) for the reduced KKT's solution ``sol`` = (p,
        mu_E): dz = t + Z p and the :meth:`adjoint` of s = H dz + g + E^T
        mu_E, whose Z^T s is A p + Z^T (H t + g) + C^T mu_E, the residual
        of A's rows, and whose mu are the other multipliers (the endpoint
        rows' x_anchor part enters Z^T s alone)."""
        nlp = self.nlp
        p, mu4 = sol[:nlp._n_p], sol[nlp._n_p:]
        dz = self.t + self.forward(p[:, None])[:, 0]
        s = nlp.hessian_times(hess, dz) + self.g
        s[nlp._ab] += e_rows.T @ mu4
        zts, mu = self.adjoint(s[:, None])
        return dz, zts[:, 0], mu[:, 0]

    def _multipliers(self, mu: Array, mu4: Array, working: Array) -> Array:
        """mu_w, in the rows of the form, from the unweighted interpolation,
        dynamics and equivalency multipliers ``mu`` and ``mu4`` over the
        working endpoint rows."""
        return np.concatenate([mu, mu4]) / self.nlp._row_scale[working]


def _node_product(blocks: Array, table: Array, out: Array) -> Array:
    """``out`` += ``blocks`` @ ``table`` for (m, a, b) node blocks and an (m,
    b, k) node table, returned: no product where b is 0, and where b is 1 a
    broadcast product, which numpy runs about twice as fast as the stack of
    (a, 1) @ (1, k) matrix products (and slower than the stack for b >
    1)."""
    if blocks.shape[2] == 1:
        out += blocks * table
    elif blocks.shape[2]:
        out += blocks @ table
    return out


def _pcg(times, rhs: Array, diag: Array):
    """(X, iterations) with ``times(X)`` = ``rhs``, (n, k) columns, by
    conjugate gradients preconditioned by the positive ``diag``, every
    column at once with its own step lengths, each until its residual is
    KRYLOV_TOL of its right-hand side in norm; ``times`` maps (n, j)
    columns to (n, j).  None where some p^T A p <= 0 or after
    KRYLOV_MAX_ITER iterations: A is not positive definite, or the column
    has not converged."""
    x, r = np.zeros_like(rhs), rhs.copy()
    stop = KRYLOV_TOL**2 * np.einsum("ij,ij->j", rhs, rhs)
    z = r / diag[:, None]
    d, rz = z.copy(), np.einsum("ij,ij->j", r, z)
    for it in range(KRYLOV_MAX_ITER + 1):
        live = np.flatnonzero(np.einsum("ij,ij->j", r, r) > stop)
        if not live.size:
            return x, it
        if it == KRYLOV_MAX_ITER:
            return None
        dl = d[:, live]
        q = times(dl)
        dq = np.einsum("ij,ij->j", dl, q)
        if not np.all(dq > 0.0):
            return None
        alpha = rz[live] / dq
        x[:, live] += alpha * dl
        r[:, live] -= alpha * q
        z = r[:, live] / diag[:, None]
        rz_new = np.einsum("ij,ij->j", r[:, live], z)
        d[:, live] = z + (rz_new / rz[live]) * dl
        rz[live] = rz_new


class _ReducedKkt:
    """The reduced KKT [[A, C^T], [C, 0]] sol = ``rhs`` of one
    :meth:`NewtonSystem.step` over p = (dU, dx_anchor) and the working
    endpoint rows ``e_rows`` E: A = Z^T H Z and C = E T_end.  H curves in
    T's rows only through the states C, those whose rows of K are not all
    zero, and the states they read (:meth:`CondensingFactor.through`), and
    T's rows of those states are T_C P = M_C^-1 [(B (x) I) F_u,C P_U + 1
    (x) P_a,C], with M_C^-1 their part of M's factor.

    :meth:`dense` solves T_C over every p column, fills A and factors the
    whole matrix; :meth:`krylov` only applies A (:meth:`times`), to block
    conjugate gradients on A's U block, and factors a Schur complement over
    x_anchor and E."""

    def __init__(self, system: NewtonSystem, hess, e_rows: Array, rhs: Array):
        nlp = system.nlp
        self.system, self.rhs = system, rhs
        self.K, self.k_end = hess
        n = nlp.n_x
        self.states, self.upto = system.factor.through(self.K[:, :n].any(axis=(0, 2)))
        self.curved_rows = nlp.n_nodes * self.states.size
        self.c_end = e_rows @ system.t_end  # C
        # the node blocks of K and F_u at those states, which A P reads
        k_c = self.K[:, self.states]
        self.k_cc, self.k_cu = k_c[:, :, self.states], k_c[:, :, n:]
        self.k_uc = self.K[:, n:][:, :, self.states]
        self.fu_c = system.jac.fu[:, self.states]

    def dense(self) -> Array | None:
        """The solution by one fill and :func:`solver.regularized_solve`, or
        None: T_C over every p column, then Z^T H Z = T_C^T (H Z)_C +
        T_end^T k_end T_end + (H Z)_U, one GEMM and the control rows."""
        system, K, states = self.system, self.K, self.states
        nlp, t_end = system.nlp, system.t_end
        m, n, n_p, n_u = nlp.n_nodes, nlp.n_x, nlp._n_p, nlp.n_nodes * nlp.n_u
        mc, n_w = self.curved_rows, len(self.c_end)
        # T's rows of those states and of (x_a, x_b) over every p column, and H Z there
        t_c, ht_c = np.empty((2, mc + 2 * n, n_p))
        tx, hx = (a[:mc].reshape(m, states.size, n_p) for a in (t_c, ht_c))
        nlp.state.control_columns(self.fu_c, tx[..., :n_u])
        tx[..., n_u:] = np.eye(n)[states]
        self.upto.solve(tx)
        hx[...] = 0.0
        add_unit_columns(_node_product(self.k_cc, tx, hx), self.k_cu)
        t_c[mc:] = t_end
        np.matmul(self.k_end, t_end, out=ht_c[mc:])
        kkt = np.zeros((n_p + n_w,) * 2)
        tht = kkt[:n_p, :n_p]
        np.matmul(t_c.T, ht_c, out=tht)
        tht_u = tht[:n_u].reshape(m, nlp.n_u, n_p)  # a view: it splits tht's row axis
        add_unit_columns(_node_product(self.k_uc, tx, tht_u), K[:, n:, n:])
        kkt[n_p:, :n_p] = self.c_end
        kkt[:n_p, n_p:] = self.c_end.T
        solved = regularized_solve(kkt, self.rhs, np.concatenate([np.ones(n_p), -np.ones(n_w)]))
        return None if solved is None else solved[0]

    def times(self, PU: Array, Pa: Array | None = None) -> Array:
        """A P for the (n_p, k) columns P = (``PU``, ``Pa``), Pa zero where
        None: T_C P, H there, and T_C^T Y = [F_u,C^T (B^T (x) I) M_C^-T Y;
        sum_i (M_C^-T Y)_i at the states C], with T_end for the endpoint
        rows.  Two solves with M_C's factor, none where no state curves."""
        nlp, K, B = self.system.nlp, self.K, self.system.nlp.state.B
        m, n, n_u, k = nlp.n_nodes, nlp.n_x, nlp.n_u, PU.shape[1]
        pu = PU.reshape(m, n_u, k)
        out = np.zeros((nlp._n_p, k))
        out_u = out[:m * n_u].reshape(m, n_u, k)  # a view
        _node_product(K[:, n:, n:], pu, out_u)
        if self.curved_rows:
            c = self.states.size
            X = _node_product(self.fu_c, pu, np.zeros((m, c, k)))
            X = (B @ X.reshape(m, -1)).reshape(m, c, k)
            if Pa is not None:
                X += Pa[self.states]
            self.upto.solve(X)
            _node_product(self.k_uc, X, out_u)
            Y = _node_product(self.k_cu, pu, _node_product(self.k_cc, X, np.zeros((m, c, k))))
            self.upto.solve(Y, trans=True)
            _node_product(self.fu_c.transpose(0, 2, 1),
                          (B.T @ Y.reshape(m, -1)).reshape(m, c, k), out_u)
            out[m * n_u:][self.states] += Y.sum(axis=0)
        if self.k_end.any():
            t_end = self.system.t_end
            ends = t_end[:, :m * n_u] @ PU
            if Pa is not None:
                ends += t_end[:, m * n_u:] @ Pa
            out += t_end.T @ (self.k_end @ ends)
        return out

    def krylov(self):
        """(solution, correct), or None where the conjugate gradients give
        up.  Block PCG on A's U block A_UU, preconditioned by |diag K_uu|,
        solves the right-hand side's U rows and the columns L = [A_Ua,
        C_U^T] together, the Schur complement S = D - L^T A_UU^-1 L of
        order n_x + n_E is factored by :func:`solver.regularized_solve`,
        D = [[A_aa, C_a^T], [C_a, 0]], and p_U is back-substituted.
        ``correct(residual)`` is the solution's change for a residual of
        the whole system, by one single-column PCG and that factor, or
        None."""
        system, K = self.system, self.K
        nlp, n = system.nlp, system.nlp.n_x
        n_u = nlp.n_nodes * nlp.n_u
        diag = np.abs(np.diagonal(K[:, n:, n:], axis1=1, axis2=2)).ravel()
        if not np.all(diag > 0.0):
            return None

        def a_uu(Y):
            return self.times(Y)[:n_u]

        anchor_cols = self.times(np.zeros((n_u, n)), np.eye(n))  # A's x_anchor columns
        c_u, c_a = self.c_end[:, :n_u], self.c_end[:, n_u:]
        L = np.hstack([anchor_cols[:n_u], c_u.T])
        solved = _pcg(a_uu, np.column_stack([self.rhs[:n_u], L]), diag)
        if solved is None:
            return None
        y0, Y = solved[0][:, 0], solved[0][:, 1:]
        schur = np.block([[anchor_cols[n_u:], c_a.T],
                          [c_a, np.zeros((len(c_a),) * 2)]]) - L.T @ Y
        q_solved = regularized_solve(schur, self.rhs[n_u:] - L.T @ y0,
                                     np.concatenate([np.ones(n), -np.ones(len(c_a))]))
        if q_solved is None:
            return None
        q, (lu, piv) = q_solved

        def correct(residual):
            got = _pcg(a_uu, residual[:n_u, None], diag)
            if got is None:
                return None
            y = got[0][:, 0]
            dq = lapack.dgetrs(lu, piv, residual[n_u:] - L.T @ y)[0]
            return np.concatenate([y - Y @ dq, dq])

        return np.concatenate([y0 - Y @ q, q]), correct


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
