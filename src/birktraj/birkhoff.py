"""Birkhoff interpolation systems on Lobatto grids.

Given nodes tau_0 .. tau_N, the a-form basis functions satisfy

    B_j^a(tau_0) = 0,        d/dtau B_j^a(tau_i) = delta_ij,

so an a-form interpolant is anchored at the left endpoint value and driven by
node derivatives; the b-form mirrors this at the right endpoint.  Each basis
function is the antiderivative of the corresponding Lagrange cardinal function,
shifted to vanish at its anchor, which is what this module constructs — in
Chebyshev coefficient space, so interpolants can be evaluated anywhere without
matrix lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.fft import dct
from scipy.linalg import lu_factor, lu_solve

from .errors import (
    DomainError,
    IllConditionedBasisError,
    InvalidOrderError,
    ShapeError,
    UnsupportedGridError,
)
from .grid import Grid, GridKind, MAX_ORDER, legendre_values, to_reference

# residual ceiling on the cardinal property |T c - I| of the modal transform
MODAL_RESIDUAL_TOL = 1e-10
# agreement required between the two independent quadrature-weight routes
WEIGHT_CROSSCHECK_TOL = 1e-12


@dataclass(frozen=True)
class ModalBasis:
    """Chebyshev representation of the cardinal functions and antiderivatives.

    Attributes
    ----------
    cardinal_coeffs : (N+1, N+1) array
        Column j holds the Chebyshev coefficients of the j-th Lagrange
        cardinal function on the reference interval.
    antiderivative_coeffs : (N+2, N+1) array
        Column j holds the coefficients of its antiderivative L_j, normalized
        so L_j(-1) = 0.
    residual : float
        Max abs deviation from the cardinal property (node values vs. the
        identity) actually achieved by the transform.
    """

    cardinal_coeffs: np.ndarray
    antiderivative_coeffs: np.ndarray
    residual: float


@dataclass(frozen=True)
class BirkhoffSystem:
    """Birkhoff matrices, quadrature weights and differentiation matrix.

    All matrices act on the physical domain of ``grid``.  Row i of ``B_a``
    holds B_j^a(tau_i); ``w_B`` holds the integrals of the cardinal functions,
    which on an endpoint-inclusive grid coincide with the last row of ``B_a``.
    ``B_b = B_a - 1 w_B^T`` exactly.
    """

    grid: Grid
    B_a: np.ndarray
    B_b: np.ndarray
    w_B: np.ndarray
    D: np.ndarray
    modal: ModalBasis

    @property
    def N(self) -> int:
        return self.grid.N

    @property
    def scale(self) -> float:
        a, b = self.grid.domain
        return 0.5 * (b - a)

    def to_reference_coord(self, tau):
        return self.grid.affine_map().to_reference(tau)

    def to_json_dict(self) -> dict:
        return {
            "grid": self.grid.to_json_dict(),
            "B_a": self.B_a.tolist(),
            "B_b": self.B_b.tolist(),
            "w_B": self.w_B.tolist(),
            "D": self.D.tolist(),
        }


def _modal_from_cgl_values(vals: np.ndarray) -> np.ndarray:
    """Node values at ascending CGL nodes -> Chebyshev coefficients (DCT-I)."""
    n = vals.shape[0] - 1
    coef = dct(vals[::-1, ...], type=1, axis=0) / n
    coef[0, ...] *= 0.5
    coef[n, ...] *= 0.5
    return coef


def _cgl_cardinal_coeffs(s: np.ndarray, t_mat: np.ndarray) -> np.ndarray:
    # The DCT inverts the Vandermonde at exact cosine nodes; one refinement
    # step re-targets the stored floating-point nodes.
    n = s.size - 1
    coef = _modal_from_cgl_values(np.eye(n + 1))
    coef += _modal_from_cgl_values(np.eye(n + 1) - t_mat @ coef)
    return coef


def _solved_cardinal_coeffs(s: np.ndarray, kind: GridKind, t_mat: np.ndarray) -> np.ndarray:
    """Cardinal coefficients by a row-weighted Vandermonde solve.

    Rows are scaled by sqrt of the interpolatory quadrature weights (LGL) so
    the scaled Vandermonde is nearly orthogonal; iterative refinement keeps
    the cardinal-property residual near roundoff while the solve contracts.
    """
    n = s.size - 1
    if kind is GridKind.LEGENDRE_GAUSS_LOBATTO:
        p_n = legendre_values(n, s)
        row_w = 2.0 / (n * (n + 1) * p_n**2)
    else:
        row_w = np.ones(n + 1)
    r = np.sqrt(row_w)
    lu = lu_factor(t_mat * r[:, None])
    coef = lu_solve(lu, np.diag(r))
    best, best_err = coef, np.inf
    for _ in range(5):
        resid = np.eye(n + 1) - t_mat @ coef
        err = float(np.max(np.abs(resid)))
        if not err < best_err:
            break
        best, best_err = coef, err
        if err < 64.0 * np.finfo(float).eps:
            break
        coef = coef + lu_solve(lu, resid * r[:, None])
    return best


def _cheb_moments(n: int) -> np.ndarray:
    """integral of T_k over [-1, 1] for k = 0 .. n."""
    k = np.arange(n + 1)
    den = 1.0 - k.astype(float) ** 2
    den[k == 1] = 1.0  # avoid 0/0; the odd entries are zeroed below
    return np.where(k % 2 == 0, 2.0 / den, 0.0)


def _antiderivative_basis(modal: ModalBasis, s) -> np.ndarray:
    """L_j(s) for every cardinal antiderivative j, as one Vandermonde product.

    Returns shape ``np.shape(s) + (N+1,)``; a scalar ``s`` gives one row.
    """
    s = np.asarray(s, dtype=float)
    coeffs = modal.antiderivative_coeffs
    vander = cheb.chebvander(s.ravel(), coeffs.shape[0] - 1)
    return (vander @ coeffs).reshape(s.shape + (coeffs.shape[1],))


def build_modal_basis(grid: Grid) -> ModalBasis:
    """Transform node space to Chebyshev coefficient space for ``grid``.

    The stored residual is the root-mean-square defect of the interpolation
    conditions over all (N+1)^2 node/column pairs; construction fails above
    ``MODAL_RESIDUAL_TOL``.  On Lobatto grids the per-entry defect sits at
    roundoff; equispaced grids cross the gate near N = 40 because the
    cardinal functions' coefficients outgrow what float64 storage resolves.
    """
    ref, _ = to_reference(grid)
    s = ref.nodes
    n = ref.N
    t_mat = cheb.chebvander(s, n)
    if grid.kind is GridKind.CHEBYSHEV_GAUSS_LOBATTO:
        coef = _cgl_cardinal_coeffs(s, t_mat)
    else:
        coef = _solved_cardinal_coeffs(s, grid.kind, t_mat)
    resid = float(np.sqrt(np.mean((t_mat @ coef - np.eye(n + 1)) ** 2)))
    if resid > MODAL_RESIDUAL_TOL:
        raise IllConditionedBasisError(
            f"modal transform residual {resid:.3e} exceeds {MODAL_RESIDUAL_TOL:.1e} "
            f"on {grid.kind.value} grid with N = {n}"
        )
    anti = cheb.chebint(coef, m=1, k=0, lbnd=-1.0, axis=0)
    return ModalBasis(cardinal_coeffs=coef, antiderivative_coeffs=anti, residual=resid)


def build_diff_matrix(grid: Grid) -> np.ndarray:
    """Differentiation matrix by the barycentric formula.

    Pairwise differences are capacity-scaled before the weight products so the
    barycentric weights stay representable at large N; the diagonal uses the
    negative row-sum trick.
    """
    ref, amap = to_reference(grid)
    s = ref.nodes
    diff = 2.0 * (s[:, None] - s[None, :])
    np.fill_diagonal(diff, 1.0)
    beta = 1.0 / np.prod(diff, axis=1)
    with np.errstate(divide="ignore"):
        d = (beta[None, :] / beta[:, None]) / (s[:, None] - s[None, :])
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d / amap.scale


def build_birkhoff(grid: Grid) -> BirkhoffSystem:
    """Construct the full Birkhoff system for an endpoint-inclusive grid."""
    if grid.N > MAX_ORDER:
        raise InvalidOrderError(f"N = {grid.N} exceeds the build cap {MAX_ORDER}")
    if not grid.endpoint_inclusive:
        raise UnsupportedGridError(
            "Birkhoff transcription requires a grid containing both endpoints"
        )
    modal = build_modal_basis(grid)
    ref, amap = to_reference(grid)
    s = ref.nodes
    h = amap.scale

    b_a_ref = _antiderivative_basis(modal, s)
    b_a_ref[0, :] = 0.0  # L_j(-1) = 0 by construction; pin the anchor row
    # s[-1] is exactly 1.0 and T_k(1) = 1 exactly, so the last row is the
    # endpoint sum L_j(1), the integral of each cardinal function
    w_ref = b_a_ref[-1]

    # independent route: weights as Chebyshev moments of the cardinal series,
    # which never pass through the antiderivative coefficients.  Both routes
    # are linear in the coefficients, so the budget scales with the basis
    # residual (storage roundoff dominates on equispaced grids).
    w_alt = _cheb_moments(grid.N) @ modal.cardinal_coeffs
    moment_tol = max(WEIGHT_CROSSCHECK_TOL, (grid.N + 1.0) * modal.residual)
    moment_gap = float(np.max(np.abs(w_alt - w_ref)))
    if moment_gap > moment_tol:
        raise IllConditionedBasisError(
            "quadrature weight cross-check failed: endpoint and moment routes "
            f"disagree by {moment_gap:.3e}"
        )

    b_a = h * b_a_ref
    w = h * w_ref
    b_b = b_a - w[None, :]
    return BirkhoffSystem(
        grid=grid, B_a=b_a, B_b=b_b, w_B=w, D=build_diff_matrix(grid), modal=modal
    )


def quadrature(w_B: np.ndarray, fvals: np.ndarray) -> float:
    """Integral of the interpolant of ``fvals``: dot(w_B, fvals)."""
    w_B = np.asarray(w_B, dtype=float)
    fvals = np.asarray(fvals, dtype=float)
    if w_B.ndim != 1 or w_B.shape != fvals.shape:
        raise ShapeError(f"weight/value shapes differ: {w_B.shape} vs {fvals.shape}")
    return float(np.dot(w_B, fvals))


def ibp_defect(sys: BirkhoffSystem) -> np.ndarray:
    """Integration-by-parts defect matrix W_B B_b + B_a^T W_B.

    Zero only in the quadrature-exact limit; its norm is the natural tolerance
    budget for costate checks derived from discrete multipliers.
    """
    w = sys.w_B
    return w[:, None] * sys.B_b + sys.B_a.T * w[None, :]


def ibp_defect_norm(sys: BirkhoffSystem) -> float:
    return float(np.linalg.norm(ibp_defect(sys), np.inf))


def _reference_coords(sys: BirkhoffSystem, tau) -> np.ndarray:
    s = np.asarray(sys.to_reference_coord(tau), dtype=float)
    if np.any(s < -1.0 - 1e-12) or np.any(s > 1.0 + 1e-12):
        raise DomainError(f"evaluation point outside domain {sys.grid.domain}")
    return np.clip(s, -1.0, 1.0)


def eval_state_interpolant(x_a: float, V: np.ndarray, sys: BirkhoffSystem, tau):
    """a-form interpolant x_a + sum_j V_j B_j^a(tau), evaluated modally."""
    V = np.asarray(V, dtype=float)
    if V.shape != (sys.N + 1,):
        raise ShapeError(f"V must have shape ({sys.N + 1},), got {V.shape}")
    s = _reference_coords(sys, tau)
    return x_a + sys.scale * (_antiderivative_basis(sys.modal, s) @ V)


def eval_costate_interpolant(lam_b: float, Omega: np.ndarray, sys: BirkhoffSystem, tau):
    """b-form interpolant lam_b + sum_j Omega_j B_j^b(tau)."""
    Omega = np.asarray(Omega, dtype=float)
    if Omega.shape != (sys.N + 1,):
        raise ShapeError(f"Omega must have shape ({sys.N + 1},), got {Omega.shape}")
    s = _reference_coords(sys, tau)
    return lam_b + (sys.scale * _antiderivative_basis(sys.modal, s) - sys.w_B) @ Omega
