"""Birkhoff interpolation systems on Lobatto grids.

Given nodes tau_0 .. tau_N, the a-form basis functions satisfy

    B_j^a(tau_0) = 0,        d/dtau B_j^a(tau_i) = delta_ij,

so an a-form interpolant is anchored at the left endpoint value and driven by
node derivatives; the b-form mirrors this at the right endpoint.  Each basis
function is the antiderivative of the corresponding Lagrange cardinal function,
shifted to vanish at its anchor, which is what this module constructs — in
Chebyshev coefficient space, so interpolants can be evaluated anywhere without
matrix lookups.  No node family needs an O(N^3) solve for those coefficients
but the uniform one: CGL inverts its Vandermonde by a DCT, and LGL takes them in
closed form from discrete Legendre orthogonality and the Legendre-to-Chebyshev
connection coefficients.

Every node family is antisymmetric on the reference interval, and
``T_k(-s) = (-1)^k T_k(s)`` holds bit for bit, so the build evaluates
Chebyshev series only on the left half of the nodes: row ``N - i`` of a
product is the even-degree sum minus the odd-degree sum of row ``i``.  For
the same reason it computes the cardinal coefficients, and checks their
residual, only on the left half of the columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.fft import dct
from scipy.linalg import lu_factor, lu_solve
from scipy.special import legendre_p_all

from .errors import DomainError, IllConditionedBasisError, ShapeError
from .grid import AffineMap, Grid, GridKind

# residual ceiling on the cardinal property |T c - I| of the modal transform
MODAL_RESIDUAL_TOL = 1e-10
# agreement required between the two independent quadrature-weight routes
WEIGHT_CROSSCHECK_TOL = 1e-12


@dataclass(frozen=True)
class ModalBasis:
    """Chebyshev representation of the cardinal functions' antiderivatives.

    The cardinal functions' own coefficients are released once the build has
    cross-checked the quadrature weights with them (``build_birkhoff``).

    Attributes
    ----------
    antiderivative_coeffs : (N+2, N+1) array
        Column j holds the Chebyshev coefficients of the antiderivative L_j
        of the j-th Lagrange cardinal function on the reference interval,
        normalized so L_j(-1) = 0.
    residual : float
        Root-mean-square deviation from the cardinal property (node values
        vs. the identity) actually achieved by the transform.
    """

    antiderivative_coeffs: np.ndarray
    residual: float


@dataclass(frozen=True)
class BirkhoffSystem:
    """Birkhoff matrices, quadrature weights and differentiation matrix.

    All matrices act on the physical domain of ``grid``.  Row i of ``B_a``
    holds B_j^a(tau_i); ``w_B`` holds the integrals of the cardinal functions,
    which coincide with the last row of ``B_a``.
    Only ``B_a`` and ``w_B`` are stored: ``B_b = B_a - 1 w_B^T`` and the
    differentiation matrix ``D`` are computed on each read and not cached, so
    a reader that drops them frees them.
    """

    grid: Grid
    B_a: np.ndarray
    w_B: np.ndarray
    modal: ModalBasis

    @property
    def B_b(self) -> np.ndarray:
        return self.B_a - self.w_B[None, :]

    @property
    def D(self) -> np.ndarray:
        return build_diff_matrix(self.grid)

    @property
    def N(self) -> int:
        return self.grid.N

    @property
    def scale(self) -> float:
        a, b = self.grid.domain
        return 0.5 * (b - a)

    def to_reference_coord(self, tau):
        amap = self.grid.affine_map()
        return (np.asarray(tau, dtype=float) - amap.center) / amap.scale

    def to_json_dict(self) -> dict:
        return {
            "grid": self.grid.to_json_dict(),
            "B_a": self.B_a.tolist(),
            "B_b": self.B_b.tolist(),
            "w_B": self.w_B.tolist(),
            "D": self.D.tolist(),
        }


def _reference_nodes(grid: Grid) -> tuple[np.ndarray, AffineMap]:
    """The nodes of ``grid`` mapped back onto [-1, 1], and its affine map.

    The ends are exactly -1 and 1, and the nodes exactly antisymmetric: the
    mirrored build reads row ``N - i`` off row ``i``, and the roundoff of the
    map out to the domain and back would otherwise break the symmetry.
    """
    amap = grid.affine_map()
    s = (grid.nodes - amap.center) / amap.scale
    s[0], s[-1] = -1.0, 1.0
    return 0.5 * (s - s[::-1]), amap


def _half_vandermonde(s: np.ndarray) -> np.ndarray:
    """Chebyshev Vandermonde of degree N+1 on the left half of the nodes."""
    n = s.size - 1
    return cheb.chebvander(s[: n // 2 + 1], n + 1)


def _mirrored_product(vander: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """``chebvander(s, deg) @ coeffs`` at all N+1 antisymmetric nodes ``s``.

    ``vander`` holds the rows of the left half (``_half_vandermonde``) and
    ``deg + 1 = coeffs.shape[0]``.  With E and O the products over the even
    and odd degrees, row i is ``E_i + O_i`` and row ``N - i`` is
    ``E_i - O_i``; the middle row of an even N has ``O = 0`` exactly.  E is
    formed in place in the upper rows of the result, so one product is the
    only temporary.
    """
    deg = coeffs.shape[0]
    m = vander.shape[0]
    out = np.empty((n + 1,) + coeffs.shape[1:])
    even = np.matmul(vander[:, 0:deg:2], coeffs[0::2], out=out[:m])
    odd = vander[:, 1:deg:2] @ coeffs[1::2]
    # the lower rows first, while the upper ones still hold E; an even N's
    # middle row is in both halves, so it is left to the upper rows' E + O
    np.subtract(even[: n + 1 - m], odd[: n + 1 - m], out=out[m:][::-1])
    even += odd
    return out


def _modal_from_cgl_values(vals: np.ndarray) -> np.ndarray:
    """Node values at ascending CGL nodes -> Chebyshev coefficients (DCT-I)."""
    n = vals.shape[0] - 1
    coef = dct(vals[::-1, ...], type=1, axis=0) / n
    coef[0, ...] *= 0.5
    coef[n, ...] *= 0.5
    return coef


def _mirror_columns(left: np.ndarray, n: int) -> np.ndarray:
    """All N+1 cardinal columns from the left ``N//2 + 1``.

    On antisymmetric nodes cardinal function ``N - j`` is cardinal function
    j reflected, ``l_{N-j}(s) = l_j(-s)``, and ``T_k(-s) = (-1)^k T_k(s)``,
    so ``coef[k, N - j] = (-1)^k coef[k, j]``.
    """
    m = left.shape[1]
    coef = np.empty((left.shape[0], n + 1))
    coef[:, n + 1 - m :] = left[:, ::-1]
    coef[1::2, n + 1 - m :] *= -1.0
    coef[:, :m] = left
    return coef


def _cgl_cardinal_coeffs(vander: np.ndarray, n: int) -> np.ndarray:
    """Left cardinal columns on CGL nodes by a DCT.

    The DCT inverts the Vandermonde at exact cosine nodes; one refinement
    step re-targets the stored floating-point nodes.
    """
    unit = np.eye(n + 1, vander.shape[0])
    left = _modal_from_cgl_values(unit)
    defect = np.subtract(unit, _mirrored_product(vander, left, n), out=unit)
    left += _modal_from_cgl_values(defect)
    return left


def _lgl_cardinal_coeffs(s: np.ndarray) -> np.ndarray:
    """Left cardinal columns on LGL nodes in closed form, without a solve.

    LGL quadrature is exact to degree 2N-1, so the Legendre coefficients of
    cardinal function j are ``w_j P_k(s_j) / gamma_k`` with
    ``gamma_k = 2/(2k+1)`` and the discrete norm ``gamma_N = 2/N``.  The
    Legendre-to-Chebyshev connection matrix ``A`` carries them into the
    Chebyshev basis: ``A[m, k] = (2 - delta_m0) lam[(k-m)/2] lam[(k+m)/2]``
    for even ``k - m >= 0``, with ``lam[i] = prod_{l=1..i} (2l-1)/(2l)``, the
    form in which the 1/pi of the Gamma-function expression cancels.  On
    the degrees of one parity the first factor is a Toeplitz matrix and the
    second a Hankel one, so both are strided views of ``lam``; no index
    array is gathered.
    """
    n = s.size - 1
    half = s[: n // 2 + 1]
    legendre = legendre_p_all(n, half)[0]
    w = 2.0 / (n * (n + 1) * legendre[n] ** 2)
    k = np.arange(n + 1)
    gamma = 2.0 / (2 * k + 1.0)
    gamma[n] = 2.0 / n
    legendre *= w[None, :] / gamma[:, None]

    # lam behind N//2 zeros: with k = parity + 2b and m = parity + 2a,
    # A[m, k] / (2 - delta_m0) is lam[b - a] (zero for b < a) times
    # lam[parity + a + b], and the Toeplitz factor is a flipped Hankel view
    pad = n // 2
    padded = np.zeros(pad + n + 1)
    lam = padded[pad:]
    lam[0] = 1.0
    lam[1:] = np.cumprod((2 * k[1:] - 1.0) / (2 * k[1:]))
    left = np.empty((n + 1, half.size))
    for parity in (0, 1):  # A couples only degrees of equal parity
        r = (n + 2 - parity) // 2  # the degrees parity, parity + 2, .. <= N
        toeplitz = _hankel_view(padded, pad + 1 - r, r)[::-1]
        hankel = _hankel_view(padded, pad + parity, r)
        left[parity::2] = (toeplitz * hankel) @ legendre[parity::2]
    left[1:] *= 2.0
    return left


def _hankel_view(buf: np.ndarray, start: int, r: int) -> np.ndarray:
    """The r x r view ``H[a, b] = buf[start + a + b]`` of a contiguous array."""
    step = buf.itemsize
    return np.ndarray((r, r), buf.dtype, buf, start * step, (step, step))


def _solved_cardinal_coeffs(t_mat: np.ndarray, m: int) -> np.ndarray:
    """Left ``m`` cardinal columns on uniform nodes by a Vandermonde solve.

    Iterative refinement keeps the cardinal-property residual near roundoff
    while the solve contracts.  The columns right of them are their mirror,
    as on the Lobatto grids (``_mirror_columns``), so they are not solved.
    """
    unit = np.eye(t_mat.shape[0], m)
    lu = lu_factor(t_mat)
    coef = lu_solve(lu, unit)
    best, best_err = coef, np.inf
    for _ in range(5):
        resid = unit - t_mat @ coef
        err = float(np.max(np.abs(resid)))
        if not err < best_err:
            break
        best, best_err = coef, err
        if err < 64.0 * np.finfo(float).eps:
            break
        coef = coef + lu_solve(lu, resid)
    return best


def _cheb_moments(n: int) -> np.ndarray:
    """integral of T_k over [-1, 1] for k = 0 .. n."""
    k = np.arange(n + 1)
    den = 1.0 - k.astype(float) ** 2
    den[k == 1] = 1.0  # avoid 0/0; the odd entries are zeroed below
    return np.where(k % 2 == 0, 2.0 / den, 0.0)


def _antiderivative_coeffs(coef: np.ndarray) -> np.ndarray:
    """Antiderivative coefficients of each column, vanishing at s = -1.

    Row r >= 1 is ``c[r-1] / (2r) - c[r+1] / (2r)``, with ``c[0]`` rather
    than ``c[0] / 2`` in row 1 and no ``c[r+1]`` past the degree; these are
    the operations of ``chebint`` in its order, so the rows agree bit for
    bit.  Row 0 is ``sum_{r>=1} (-1)^(r+1) a_r`` over those rows ``a_r``,
    which makes each series vanish at -1, since ``T_r(-1) = (-1)^r``.
    """
    n = coef.shape[0] - 1
    anti = np.empty((n + 2,) + coef.shape[1:])
    two_r = 2.0 * np.arange(1, n + 2)[:, None]
    anti[1] = coef[0]
    np.divide(coef[1:], two_r[1:], out=anti[2:])
    # the c[r+1] / (2r) in two blocks of rows, so that the temporary is
    # half a matrix
    mid = n // 2 + 1
    for lo, hi in ((1, mid), (mid, n)):
        anti[lo:hi] -= coef[lo + 1 : hi + 1] / two_r[lo - 1 : hi - 1]
    signs = np.ones(n + 1)
    signs[1::2] = -1.0
    anti[0] = signs @ anti[1:]
    return anti


def _antiderivative_basis(modal: ModalBasis, s) -> np.ndarray:
    """L_j(s) for every cardinal antiderivative j, as one Vandermonde product.

    Returns shape ``np.shape(s) + (N+1,)``; a scalar ``s`` gives one row.
    """
    s = np.asarray(s, dtype=float)
    coeffs = modal.antiderivative_coeffs
    vander = cheb.chebvander(s.ravel(), coeffs.shape[0] - 1)
    return (vander @ coeffs).reshape(s.shape + (coeffs.shape[1],))


def _modal_basis(kind: GridKind, s: np.ndarray, vander: np.ndarray) -> tuple[np.ndarray, float]:
    """Cardinal coefficients on the reference nodes ``s`` and their residual,
    with ``vander`` the nodes' :func:`_half_vandermonde`.

    Column j of the (N+1, N+1) coefficients holds the Chebyshev coefficients
    of the j-th Lagrange cardinal function.  CGL coefficients come from a
    DCT, LGL ones in closed form, uniform ones from a refined Vandermonde
    solve; each route yields the left ``N//2 + 1`` columns, and the rest are
    their mirror ``coef[k, N-j] = (-1)^k coef[k, j]`` (``_mirror_columns``).
    The residual is the root-mean-square defect of the interpolation
    conditions over all (N+1)^2 node/column pairs.  The defect of column
    ``N - j`` is that of column j with its rows reversed, so only the left
    columns are evaluated, by the mirrored product on the left half of the
    nodes (``_mirrored_product``), and each stands for its mirror too.
    Construction fails above ``MODAL_RESIDUAL_TOL``.  On Lobatto grids the
    per-entry defect sits at roundoff; equispaced grids cross the gate near
    N = 40 because the cardinal functions' coefficients outgrow what float64
    storage resolves.
    """
    n = s.size - 1
    m = n // 2 + 1
    if kind is GridKind.CHEBYSHEV_GAUSS_LOBATTO:
        left = _cgl_cardinal_coeffs(vander, n)
    elif kind is GridKind.LEGENDRE_GAUSS_LOBATTO:
        left = _lgl_cardinal_coeffs(s)
    else:
        # the full Vandermonde, exactly, in chebvander's column-major layout:
        # the refinement's BLAS rounding, which the solve amplifies to 1e-10
        # on equispaced nodes, depends on it
        t_mat = _mirrored_product(vander, np.eye(n + 1), n)
        left = _solved_cardinal_coeffs(np.asfortranarray(t_mat), m)
    defect = _mirrored_product(vander, left, n)
    defect.ravel()[:: m + 1][:m] -= 1.0
    # each column stands for its mirror too, but for an even N's middle
    # column, which is its own mirror
    middle = defect[:, n + 1 - m :]
    squares = 2.0 * np.vdot(defect, defect) - np.vdot(middle, middle)
    resid = float(np.sqrt(squares)) / (n + 1)
    if not resid <= MODAL_RESIDUAL_TOL:
        raise IllConditionedBasisError(
            f"modal transform residual {resid:.3e} exceeds {MODAL_RESIDUAL_TOL:.1e} "
            f"on {kind.value} grid with N = {n}"
        )
    return _mirror_columns(left, n), resid


def _diff_matrix(s: np.ndarray, scale: float) -> np.ndarray:
    n = s.size - 1
    m = n // 2 + 1
    diff = 2.0 * (s[:m, None] - s[None, :])
    diff.flat[:: n + 2] = 1.0
    logs = np.abs(diff)
    np.log(logs, out=logs)
    log_half = np.sum(logs, axis=1)
    del logs
    # on antisymmetric nodes row N - i has the differences of row i, negated
    # and reversed, so the same log-product
    log_prod = np.concatenate([log_half, log_half[n - m :: -1]])
    # d_ij = (prod_i / prod_j) / (s_i - s_j), built in place in the upper
    # rows; the nodes ascend, so prod_i has the sign (-1)^(N - i), and
    # (-1)^N cancels
    sign = (-1.0) ** np.arange(s.size)
    out = np.empty((n + 1, n + 1))
    d = np.subtract.outer(log_half, log_prod, out=out[:m])
    np.exp(d, out=d)
    d *= sign[:m, None]
    d *= sign[None, :]
    d *= 2.0  # diff holds 2 (s_i - s_j), and 1 on the diagonal
    d /= diff
    d.flat[:: n + 2] = 0.0
    d.flat[:: n + 2] = -np.sum(d, axis=1)
    d /= scale
    # the lower rows mirror the upper ones; an even N's middle row stays
    np.negative(out[: n + 1 - m][::-1, ::-1], out=out[m:])
    return out


def build_diff_matrix(grid: Grid) -> np.ndarray:
    """Differentiation matrix by the barycentric formula.

    Pairwise differences are capacity-scaled, and the weight products are
    taken as sums of logarithms: the products themselves stay moderate, but
    their partial products overflow from N ~ 1000.  The diagonal uses the
    negative row-sum trick.  Only the upper half of the rows is computed,
    in place in the result; the rest is the mirror ``D[N-i, N-j] = -D[i, j]``.
    This is the one code path for D: ``BirkhoffSystem.D`` calls it on each
    read.
    """
    s, amap = _reference_nodes(grid)
    return _diff_matrix(s, amap.scale)


def build_birkhoff(grid: Grid) -> BirkhoffSystem:
    """Construct the full Birkhoff system on ``grid``.

    Every grid holds both ends of its domain and is capped at ``MAX_ORDER``
    (:class:`~birktraj.grid.Grid`); the build raises
    :class:`~birktraj.errors.IllConditionedBasisError` where the basis cannot
    be trusted, as on uniform grids from N ~ 40.
    """
    s, amap = _reference_nodes(grid)
    h = amap.scale
    vander = _half_vandermonde(s)
    coef, resid = _modal_basis(grid.kind, s, vander)
    anti = _antiderivative_coeffs(coef)
    # s[-1] is exactly 1.0 and T_k(1) = 1 exactly, so the endpoint sums
    # L_j(1), the integrals of the cardinal functions, are the column sums
    # of the antiderivative coefficients
    w_ref = np.ones(anti.shape[0]) @ anti

    # independent route: weights as Chebyshev moments of the cardinal series,
    # which never pass through the antiderivative coefficients.  Both routes
    # are linear in the coefficients, so the budget scales with the basis
    # residual (storage roundoff dominates on equispaced grids).  The
    # cardinal coefficients have no other reader and are released here.
    w_alt = _cheb_moments(grid.N) @ coef
    del coef
    moment_tol = max(WEIGHT_CROSSCHECK_TOL, (grid.N + 1.0) * resid)
    moment_gap = float(np.max(np.abs(w_alt - w_ref)))
    if moment_gap > moment_tol:
        raise IllConditionedBasisError(
            "quadrature weight cross-check failed: endpoint and moment routes "
            f"disagree by {moment_gap:.3e}"
        )

    b_a = _mirrored_product(vander, anti, grid.N)  # on [-1, 1] until scaled
    b_a[0, :] = 0.0  # L_j(-1) = 0 by construction; pin the anchor row
    b_a[-1] = w_ref  # the last row is the endpoint sum
    b_a *= h
    return BirkhoffSystem(
        grid=grid, B_a=b_a, w_B=h * w_ref, modal=ModalBasis(anti, resid)
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
