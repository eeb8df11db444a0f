"""The dense oracle: whole-matrix counterparts of what the package does by
node blocks, for the tests to compare against.

* :class:`SimpleNlp`, an ad-hoc NLP with a dense Jacobian, solved by
  :func:`dense_newton_step` on the full KKT matrix;
* :func:`fd_lagrangian_hessian`, the Hessian of the Lagrangian by central
  differences of its gradient;
* :func:`assembled_jacobian`, a DiscretizedNlp's constraint Jacobian built
  whole from its callbacks with Kronecker products.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, lstsq

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

    def newton_system(self, jac: Array):
        return lambda hess, g, r, working: dense_newton_step(hess, jac, g, r, working)


def fd_lagrangian_hessian(nlp, z: Array, mu: Array) -> Array:
    """The Hessian of F + mu^T c wrt stored variables by central differences
    of its gradient, symmetrized."""

    def grad_l(zz):
        g = nlp.objective_gradient(zz)
        return g + nlp.jacobian(zz).T @ mu if mu.size else g

    hess = _central_jacobian(lambda Z: grad_l(Z[0])[None], z[None], FD_STEP)[0]
    return 0.5 * (hess + hess.T)


def dense_newton_step(hess: Array, jac: Array, g: Array, r: Array, working: Array):
    """The Newton-KKT step on the full matrices by ``regularized_solve``;
    the estimate call takes mu_w by rank-revealing pivoted QR (LAPACK gelsy),
    minimum-norm on dependent rows, and dz = -(g + J_w^T mu_w).  Returns
    (dz, mu_w), or None when no shift makes the matrix solvable."""
    jac_w = jac[working]
    if hess.ndim == 1:
        cutoff = np.finfo(float).eps * max(jac_w.shape)
        mu = lstsq(jac_w.T, -g, cond=cutoff, lapack_driver="gelsy")[0]
        return -(g + jac_w.T @ mu), mu
    m, n = jac_w.shape
    kkt = np.block([[hess, jac_w.T], [jac_w, np.zeros((m, m))]])
    signs = np.concatenate([np.ones(n), -np.ones(m)])
    sol = regularized_solve(kkt, np.concatenate([-g, -r[working]]), signs)
    return None if sol is None else (sol[:n], sol[n:])


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
    if nlp.form.scaled:
        jac *= np.concatenate([np.repeat(1.0 / w, n), np.repeat(1.0 / w, k),
                               np.repeat(1.0 / w, n), np.ones(2 * n)])[None, :]
    return jac
