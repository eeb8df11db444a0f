"""Collocation grids: Lobatto node families and affine domain maps.

All node families are generated on the reference interval [-1, 1] and mapped
affinely onto the requested domain.  The two Lobatto families include both
interval endpoints; uniform grids are kept for negative testing only (spectral
accuracy degrades on them as N grows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Grid:
    """The N-th order grid of one node family on a finite domain.

    A grid is the triple ``(kind, N, domain)``; its N + 1 ``nodes`` are
    derived from it, so two grids with the same triple compare and hash
    equal.  The nodes are generated on [-1, 1], symmetrized so the family's
    node symmetry holds to machine precision, then mapped affinely onto the
    domain with the endpoints assigned exactly.
    """

    kind: GridKind
    N: int
    domain: tuple[float, float]
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, N, domain = _as_kind(self.kind), self.N, self.domain
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
        tau.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "domain", (a, b))
        object.__setattr__(self, "nodes", tau)

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
    """The N-th order grid (N + 1 nodes) of the given family on ``domain``."""
    return Grid(kind, N, domain)
