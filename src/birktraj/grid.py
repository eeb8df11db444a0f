"""Collocation grids: Lobatto node families and affine domain maps.

All node families are generated on the reference interval [-1, 1] and mapped
affinely onto the requested domain.  The two Lobatto families include both
interval endpoints; uniform grids are kept for negative testing only (spectral
accuracy degrades on them as N grows).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import eval_legendre

from .errors import InvalidDomainError, InvalidOrderError, UnsupportedGridError

MAX_ORDER = 4096


class GridKind(str, Enum):
    CHEBYSHEV_GAUSS_LOBATTO = "cgl"
    LEGENDRE_GAUSS_LOBATTO = "lgl"
    UNIFORM = "uniform"


def _as_kind(kind) -> GridKind:
    if isinstance(kind, GridKind):
        return kind
    try:
        return GridKind(str(kind).lower())
    except ValueError:
        raise UnsupportedGridError(f"unknown grid kind {kind!r}") from None


@dataclass(frozen=True)
class AffineMap:
    """tau = center + scale * s between a physical domain and [-1, 1]."""

    center: float
    scale: float

    def to_reference(self, tau):
        return (np.asarray(tau, dtype=float) - self.center) / self.scale


@dataclass(frozen=True)
class Grid:
    """Strictly increasing nodes tau_0 < ... < tau_N on a finite domain."""

    kind: GridKind
    nodes: np.ndarray
    domain: tuple[float, float]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
            raise InvalidDomainError(f"domain {self.domain} must be finite with a < b")
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidOrderError("a grid needs at least two nodes (N >= 1)")
        if not np.all(np.isfinite(nodes)):
            raise InvalidDomainError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidDomainError("grid nodes must be strictly increasing")
        if nodes[0] < a or nodes[-1] > b:
            raise InvalidDomainError("grid nodes must lie inside the domain")

    @property
    def N(self) -> int:
        return self.nodes.size - 1

    @property
    def endpoint_inclusive(self) -> bool:
        return self.nodes[0] == self.domain[0] and self.nodes[-1] == self.domain[1]

    def affine_map(self) -> AffineMap:
        a, b = self.domain
        return AffineMap(center=0.5 * (a + b), scale=0.5 * (b - a))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "N": self.N,
            "domain": [self.domain[0], self.domain[1]],
            "nodes": self.nodes.tolist(),
        }


def _cgl_reference_nodes(n: int) -> np.ndarray:
    s = -np.cos(np.pi * np.arange(n + 1) / n)
    return s


def _lgl_reference_nodes(n: int) -> np.ndarray:
    """Roots of (1 - s^2) P'_n(s) by Newton iteration on the left half.

    The interior roots are the zeros of the Jacobi polynomial P^(1,1)_{n-1};
    the Gatteschi-Pittaluga approximation of their angles seeds Newton within
    1e-4 at n = 3 and 1e-9 at n = 1024, so at most three passes run.  P_n and
    P_{n-1} come from ``scipy.special.eval_legendre``, whose degree recurrence
    is a C loop.  The right half is the exact mirror of the left one.
    """
    # theta_k = phi_k - 3 cot(phi_k) / (8 rho^2), phi_k = (k + 1/4) pi / rho,
    # rho = n + 1/2: the angle of the k-th interior node from s = -1
    k = np.arange(1, (n - 1) // 2 + 1)
    rho = n + 0.5
    phi = (k + 0.25) * np.pi / rho
    s = -np.cos(phi - 3.0 / (8.0 * rho**2) / np.tan(phi))
    for _ in range(100):
        p, p_prev = eval_legendre(n, s), eval_legendre(n - 1, s)
        step = (s * p - p_prev) / ((n + 1) * p)
        s = s - step
        if np.max(np.abs(step), initial=0.0) <= 1e-15:
            break
    middle = [0.0] if n % 2 == 0 else []
    return np.concatenate([[-1.0], s, middle, -s[::-1], [1.0]])


def make_grid(kind, N: int, domain=(-1.0, 1.0)) -> Grid:
    """Build an N-th order grid (N + 1 nodes) of the given family.

    Nodes are generated on [-1, 1], symmetrized so the family's node symmetry
    holds to machine precision, then mapped affinely onto the domain with the
    endpoints assigned exactly.
    """
    kind = _as_kind(kind)
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise InvalidOrderError(f"N must be an integer >= 1, got {N!r}")
    if N > MAX_ORDER:
        raise InvalidOrderError(f"N = {N} exceeds the build cap {MAX_ORDER}")
    a, b = float(domain[0]), float(domain[1])
    if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
        raise InvalidDomainError(f"domain {domain!r} must be finite with a < b")

    if kind is GridKind.CHEBYSHEV_GAUSS_LOBATTO:
        s = _cgl_reference_nodes(N)
    elif kind is GridKind.LEGENDRE_GAUSS_LOBATTO:
        s = _lgl_reference_nodes(N)
    else:
        s = np.linspace(-1.0, 1.0, N + 1)
    # enforce exact antisymmetry and exact endpoints on the reference interval
    s = 0.5 * (s - s[::-1])
    s[0], s[-1] = -1.0, 1.0

    tau = 0.5 * (a + b) + 0.5 * (b - a) * s
    tau[0], tau[-1] = a, b
    return Grid(kind=kind, nodes=tau, domain=(a, b))


def to_reference(grid: Grid) -> tuple[Grid, AffineMap]:
    """Map a grid onto [-1, 1]; returns the mapped grid and the affine map."""
    amap = grid.affine_map()
    s = amap.to_reference(grid.nodes)
    if grid.endpoint_inclusive:
        s = s.copy()
        s[0], s[-1] = -1.0, 1.0
    return Grid(kind=grid.kind, nodes=s, domain=(-1.0, 1.0)), amap
