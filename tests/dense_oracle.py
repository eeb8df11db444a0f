"""The dense oracle: whole-matrix counterparts of what the package does by
node blocks, for the tests to compare against.

* :class:`SimpleNlp`, an ad-hoc NLP with a dense Jacobian, whose
  :class:`DenseSystem` takes :func:`dense_estimate` by pivoted QR and
  :func:`dense_newton_step` on the full KKT matrix;
* :func:`dense_coordinate_estimate`, a DiscretizedNlp's coordinate-basis
  multipliers from its whole Jacobian by a dense LU and pivoted QR;
* :func:`fd_lagrangian_hessian`, the Hessian of the Lagrangian by central
  differences of its gradient;
* :func:`assembled_jacobian`, a DiscretizedNlp's constraint Jacobian built
  whole from its callbacks with Kronecker products;
* :func:`assembled_hessian`, its Hessian of the Lagrangian placed whole from
  the node blocks of ``lagrangian_hessian``;
* :func:`step_path`, which makes a NewtonSystem's step take its dense path,
  the one that fills and factors the whole reduced KKT, or its Krylov path
  at any size.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, lstsq, lu_factor, lu_solve

from birktraj import transcription
from birktraj.ocp import FD_STEP, _central_jacobian
from birktraj.solver import regularized_solve

Array = np.ndarray


@dataclass(frozen=True)
class SimpleNlp:
    """Ad-hoc NLP with a dense Jacobian; the interface of DiscretizedNlp."""

    n_z: int
    objective: Callable[[Array], float]
    objective_gradient: Callable[[Array], Array]
    constraints: Callable[[Array], Array] = lambda z: np.zeros(0)
    jacobian: Callable[[Array], Array] | None = None
    equality_mask: Array = field(default_factory=lambda: np.zeros(0, dtype=bool))
    rows: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.jacobian is None:
            object.__setattr__(self, "jacobian", lambda z: np.zeros((0, self.n_z)))

    def lagrangian_hessian(self, z: Array, mu: Array) -> Array:
        return fd_lagrangian_hessian(self, z, mu)

    def newton_system(self, jac: Array, r: Array, g: Array):
        return DenseSystem(jac, r, g)


@dataclass(frozen=True, eq=False)
class DenseSystem:
    """The Newton-KKT system of a dense Jacobian ``jac``, constraint values
    ``r`` and objective gradient ``g``, with the two solves of
    ``DiscretizedNlp.newton_system``."""

    jac: Array
    r: Array
    g: Array

    def estimate(self, working: Array) -> Array:
        return dense_estimate(self.jac, self.g, working)

    def step(self, hess: Array, working: Array):
        return dense_newton_step(hess, self.jac, self.g, self.r, working)


def fd_lagrangian_hessian(nlp, z: Array, mu: Array) -> Array:
    """The Hessian of F + mu^T c wrt stored variables by central differences
    of its gradient, symmetrized."""

    def grad_l(zz):
        g = nlp.objective_gradient(zz)
        return g + nlp.jacobian(zz).T @ mu if mu.size else g

    hess = _central_jacobian(lambda Z: grad_l(Z[0])[None], z[None], FD_STEP)[0]
    return 0.5 * (hess + hess.T)


def dense_estimate(jac: Array, g: Array, working: Array) -> Array:
    """The least-squares multipliers argmin ||g + J_w^T mu|| by
    rank-revealing pivoted QR (LAPACK gelsy), minimum-norm on dependent
    rows."""
    jac_w = jac[working]
    cutoff = np.finfo(float).eps * max(jac_w.shape)
    return lstsq(jac_w.T, -g, cond=cutoff, lapack_driver="gelsy")[0]


def dense_coordinate_estimate(nlp, jac: Array, g: Array, working: Array) -> Array:
    """The coordinate-basis multipliers of a DiscretizedNlp from its whole
    constraint Jacobian ``jac`` wrt stored variables (as
    :func:`assembled_jacobian` builds it) and gradient ``g``.  With the
    interpolation, dynamics and equivalency rows A and the working endpoint
    rows E, A's columns of X, V and the endpoint opposite the anchor
    (subscript e) are square: mu_A = -A_e^-T (g_e + E_e^T mu_E) by a dense
    LU zeroes those components of g + J_w^T mu, and mu_E is the
    minimum-norm least-squares solution of the rest, over U and the anchor,
    by pivoted QR (LAPACK gelsy) in physical variables: the stored rows
    divided by their column scale."""
    n_a = nlp.rows["grid_equivalency"].stop
    other = nlp.slice_xb if nlp.form.tag.anchored_left else nlp.slice_xa
    elim = np.r_[nlp.slice_x, nlp.slice_v, other]
    free = np.setdiff1d(np.arange(nlp.n_z), elim)
    jac_w = np.asarray(jac)[working]
    A, E = jac_w[:n_a], jac_w[n_a:]
    factor = lu_factor(A[:, elim])
    # A_e^-T [g_e, E_e^T]: mu_A as an affine function of mu_E
    y = lu_solve(factor, np.column_stack([g[elim], E[:, elim].T]), trans=1)
    col = stored_column_scale(nlp)
    col = np.ones(nlp.n_z) if col is None else col
    reduced = (np.column_stack([g[free], E[:, free].T]) - A[:, free].T @ y) / col[free, None]
    cutoff = np.finfo(float).eps * max(reduced.shape)
    mu_e = lstsq(reduced[:, 1:], -reduced[:, 0], cond=cutoff, lapack_driver="gelsy")[0]
    return np.concatenate([-(y[:, 0] + y[:, 1:] @ mu_e), mu_e])


def dense_newton_step(hess: Array, jac: Array, g: Array, r: Array, working: Array):
    """The Newton-KKT step on the full matrices by ``regularized_solve``.
    Returns (dz, mu_w), or None when no shift makes the matrix solvable."""
    jac_w = jac[working]
    m, n = jac_w.shape
    kkt = np.block([[hess, jac_w.T], [jac_w, np.zeros((m, m))]])
    signs = np.concatenate([np.ones(n), -np.ones(m)])
    solved = regularized_solve(kkt, np.concatenate([-g, -r[working]]), signs)
    return None if solved is None else (solved[0][:n], solved[0][n:])


def stored_column_scale(nlp) -> Array | None:
    """The inverse weights by which derivatives wrt the scaled variables
    w o (X, U, V) carry, ones at (x_a, x_b); None on an unscaled form."""
    if not nlp.form.scaled:
        return None
    inv, n, k = 1.0 / nlp.sys.w_B, nlp.n_x, nlp.n_u
    return np.concatenate([np.repeat(inv, n), np.repeat(inv, k), np.repeat(inv, n),
                           np.ones(2 * n)])


def assembled_jacobian(nlp, z: Array) -> Array:
    """The constraint Jacobian of a DiscretizedNlp at ``z`` wrt stored
    variables: the partials of its rows (interpolation, dynamics,
    equivalency, endpoint) over (X, U, V, x_a, x_b) as Kronecker products
    and block diagonals, times the Galerkin row weights of the starred
    forms, then times the inverse weights of the scaled variables."""
    X, U, _, x_a, x_b = nlp.unpack(z)
    m, n, k, n_e = nlp.n_nodes, nlp.n_x, nlp.n_u, nlp.n_e
    w, eye = nlp.sys.w_B, np.eye(n)
    left = nlp.form.tag.anchored_left
    B = nlp.sys.B_a if left else nlp.sys.B_b
    anchor = -np.tile(eye, (m, 1))
    zero = np.zeros
    con = nlp.ocp.constraints
    fu = nlp.ocp.jac_fu(X, U) if k else zero((m, n, 0))
    jac = np.block([
        [np.eye(m * n), zero((m * n, m * k)), -np.kron(B, eye),
         anchor if left else zero((m * n, n)), zero((m * n, n)) if left else anchor],
        [-block_diag(*nlp.ocp.jac_fx(X, U)), -block_diag(*fu).reshape(m * n, m * k),
         np.eye(m * n), zero((m * n, 2 * n))],
        [zero((n, m * (n + k))), -np.kron(w[None, :], eye), -eye, eye],
        [zero((n_e, m * (2 * n + k))), np.reshape(con.jac_xa(x_a, x_b), (n_e, n)),
         np.reshape(con.jac_xb(x_a, x_b), (n_e, n))],
    ])
    if nlp.form.tag.starred:
        jac[: 2 * m * n] *= np.tile(np.repeat(w, n), 2)[:, None]
    col = stored_column_scale(nlp)
    if col is not None:
        jac *= col[None, :]
    return jac


def assembled_hessian(nlp, hess) -> Array:
    """The Hessian of the Lagrangian of a DiscretizedNlp wrt stored variables
    from its node blocks ``hess`` = (K, K_end): the (x, u) quarters of K as
    block diagonals over (X, U), K_end over (x_a, x_b) and zero on V, then
    times the inverse weights of the scaled variables on both sides."""
    K, k_end = hess
    m, n, k = nlp.n_nodes, nlp.n_x, nlp.n_u
    quarters = [[block_diag(*K[:, rows, cols]).reshape(m * p, m * q)
                 for cols, q in ((slice(n), n), (slice(n, None), k))]
                for rows, p in ((slice(n), n), (slice(n, None), k))]
    zero = np.zeros
    out = np.block([
        [*quarters[0], zero((m * n, m * n + 2 * n))],
        [*quarters[1], zero((m * k, m * n + 2 * n))],
        [zero((m * n, nlp.n_z))],
        [zero((2 * n, m * (2 * n + k))), k_end],
    ])
    col = stored_column_scale(nlp)
    if col is not None:
        out *= col[:, None]
        out *= col[None, :]
    return out


def step_path(monkeypatch, path: str) -> list:
    """Make every ``NewtonSystem.step`` take ``path``, "krylov" or "dense",
    whatever its size, and return a list that gains an entry for each dense
    fill and factor, the Krylov path's fallback included."""
    if path == "krylov":
        monkeypatch.setattr(transcription, "KRYLOV_MIN_ORDER", 0)
        monkeypatch.setattr(transcription, "KRYLOV_ROWS_PER_ORDER", sys.maxsize)
    else:
        monkeypatch.setattr(transcription, "KRYLOV_MIN_ORDER", sys.maxsize)
    filled, dense = [], transcription._ReducedKkt.dense
    monkeypatch.setattr(transcription._ReducedKkt, "dense",
                        lambda self: filled.append(1) or dense(self))
    return filled
