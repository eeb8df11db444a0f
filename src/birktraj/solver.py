"""Dense Newton-KKT solver for the transcribed problems.

Works against a small structural interface: ``n_z``, ``objective``,
``objective_gradient``, ``constraints``, ``jacobian``, ``equality_mask`` and
(optionally) ``lagrangian_hessian`` and ``rows``, a name -> slice map of the
constraint row blocks that the result carries along with its multipliers.
The multiplier convention is L = F + mu^T c over the constraint rows exactly
as the problem emits them; inequality rows are c <= 0 with mu >= 0 at a
solution.

The algorithm is a textbook exact-Hessian Newton-KKT iteration with an
l1-merit backtracking line search and an active-set treatment of the (few)
endpoint inequality rows.  Everything is deterministic: identical inputs
produce bit-identical iterates.

The optimality test on each iteration uses least-squares multipliers,
argmin ||g + J_w^T mu|| over the working rows.  They come from a Cholesky
factor of J_w J_w^T with one correction step (the corrected semi-normal
equations), which is as accurate as QR while J_w is well conditioned, as the
Birkhoff rows keep it.  When the factorization fails or the condition
estimate of J_w J_w^T is below GRAM_RCOND_MIN (rank-deficient or nearly
dependent working rows), pivoted QR gives the minimum-norm multipliers.

The Newton step solves [[H, J_w^T], [J_w, 0]] by LU; only when that fails is
it shifted to [[H + dI, J_w^T], [J_w, -dI]], d doubling from
REGULARIZATION_FLOOR (the primal-dual shift of Waechter and Biegler 2006,
whose -dI block makes dependent working rows solvable).  The indirect solver
shares this rule, :func:`regularized_solve`, with +dI throughout.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import lapack, lstsq

from .errors import EvaluationError, ShapeError, UnsupportedProblemError
from .ocp import FD_STEP, _central_jacobian, complementarity_violation, constraint_violation

Array = np.ndarray

# equality rows are met to a tolerance, never exactly; anything tighter than
# sqrt(machine eps) is refused
MIN_FEASIBILITY_TOL = float(np.sqrt(np.finfo(float).eps))
COMPLEMENTARITY_TOL = 1e-9
REGULARIZATION_FLOOR = 1e-8
REGULARIZATION_SHIFTS = 10
# below this reciprocal condition estimate of J_w J_w^T the multipliers come
# from pivoted QR instead of the (squared-condition) normal equations
GRAM_RCOND_MIN = 1e-10


def check_tolerance(tol: float, what: str) -> None:
    """Refuse nan, infinite and non-positive tolerances (nan passes any < test)."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise UnsupportedProblemError(f"{what} tolerance {tol:g} is not a finite positive number")


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 60
    tol_stat: float = 1e-9
    tol_feas: float = 2e-8

    def __post_init__(self):
        if self.max_iter < 0:
            raise UnsupportedProblemError(f"iteration cap {self.max_iter} below 0")
        check_tolerance(self.tol_stat, "stationarity")
        check_tolerance(self.tol_feas, "feasibility")
        if self.tol_feas < MIN_FEASIBILITY_TOL:
            raise UnsupportedProblemError(
                f"feasibility tolerance {self.tol_feas:g} below sqrt(machine eps)"
            )


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITER = "max-iter"
    LINE_SEARCH_FAILURE = "line-search-failure"
    INFEASIBLE = "infeasible"


@dataclass
class NlpResult:
    z: Array
    status: SolveStatus
    iterations: int
    kkt_residual: float
    multipliers: Array  # one per constraint row, solver convention
    rows: dict = field(default_factory=dict)  # the problem's row blocks, by name
    log: list[dict] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


@dataclass(frozen=True)
class SimpleNlp:
    """Ad-hoc NLP for tests and experiments; same interface as DiscretizedNlp."""

    n_z: int
    objective: Callable[[Array], float]
    objective_gradient: Callable[[Array], Array]
    constraints: Callable[[Array], Array] = lambda z: np.zeros(0)
    jacobian: Callable[[Array], Array] | None = None
    equality_mask: Array = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __post_init__(self):
        if self.jacobian is None:
            object.__setattr__(self, "jacobian", lambda z: np.zeros((0, self.n_z)))


def _fd_lagrangian_hessian(nlp, z: Array, mu: Array) -> Array:
    def grad_l(zz):
        g = nlp.objective_gradient(zz)
        r_jac = nlp.jacobian(zz)
        return g + np.asarray(r_jac).T @ mu if mu.size else g

    hess = _central_jacobian(lambda Z: grad_l(Z[0])[None], z[None], FD_STEP)[0]
    return 0.5 * (hess + hess.T)


def _lagrangian_hessian(nlp, z, mu):
    fn = getattr(nlp, "lagrangian_hessian", None)
    if fn is not None:
        return fn(z, mu)
    return _fd_lagrangian_hessian(nlp, z, mu)


def _kkt_measures(g: Array, jac: Array, r: Array, mu: Array, eq: Array):
    """(stationarity, feasibility, complementarity) infinity norms."""
    stat = float(np.max(np.abs(g + jac.T @ mu))) if mu.size else float(np.max(np.abs(g)))
    feas = float(np.max(constraint_violation(r, eq))) if r.size else 0.0
    return stat, feas, complementarity_violation(mu, r, eq)


def kkt_residual(nlp, z: Array, multipliers: Array) -> float:
    """max of stationarity, feasibility, complementarity infinity norms."""
    mu = np.asarray(multipliers, dtype=float)
    eq = np.asarray(nlp.equality_mask, dtype=bool)
    g, jac = nlp.objective_gradient(z), np.asarray(nlp.jacobian(z))
    return float(max(_kkt_measures(g, jac, nlp.constraints(z), mu, eq)))


def _merit(f: float, r: Array, eq: Array, rho: float) -> float:
    if not r.size:
        return f
    return f + rho * float(np.sum(constraint_violation(r, eq)))


def _multiplier_estimate(jac_w: Array, g: Array) -> Array:
    """Least-squares multipliers, argmin ||g + J_w^T mu||, of the working rows.

    Fast route: Cholesky on G = J_w J_w^T, solve G mu = -J_w g, then one
    correction step mu += G^-1 J_w (-g - J_w^T mu) with the same factor (the
    corrected semi-normal equations, Bjorck 1987), which takes away the error
    of the squared condition number.  When G is not positive definite or its
    reciprocal condition estimate is below GRAM_RCOND_MIN, rank-revealing
    pivoted QR (LAPACK gelsy) gives the minimum-norm solution instead.
    """
    gram = jac_w @ jac_w.T
    norm_1 = lapack.dlange("1", gram)
    # G is symmetric, so its transpose is G in the Fortran order LAPACK
    # factors in place, without a copy
    factor, info = lapack.dpotrf(gram.T, overwrite_a=True)
    if info == 0:
        rcond, info = lapack.dpocon(factor, norm_1)
        if info == 0 and rcond >= GRAM_RCOND_MIN:
            mu = lapack.dpotrs(factor, -(jac_w @ g))[0]
            return mu + lapack.dpotrs(factor, jac_w @ (-g - jac_w.T @ mu))[0]
    cutoff = np.finfo(float).eps * max(jac_w.shape)
    return lstsq(jac_w.T, -g, cond=cutoff, lapack_driver="gelsy")[0]


def regularized_solve(matrix: Array, rhs: Array, signs: Array) -> Array | None:
    """Solve ``matrix @ x = rhs`` by LU.  Only when LU fails (a singular
    matrix, a non-finite x, or a backward error above 1e-8 (1 + ||rhs||_inf))
    retry with ``matrix + d diag(signs)``, d = REGULARIZATION_FLOOR doubling at
    most REGULARIZATION_SHIFTS times.  Returns x, or None if every try fails."""
    tol = 1e-8 * (1.0 + np.max(np.abs(rhs)))
    for shift in (0.0, *REGULARIZATION_FLOOR * 2.0 ** np.arange(REGULARIZATION_SHIFTS)):
        shifted = matrix + np.diag(shift * signs) if shift else matrix
        try:
            sol = np.linalg.solve(shifted, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(sol)) and np.max(np.abs(shifted @ sol - rhs)) <= tol:
            return sol
    return None


def _solve_kkt(hess: Array, jac_w: Array, g: Array, r_w: Array):
    """Newton step: [[H, J^T], [J, 0]] [dz, mu] = [-g, -r], shifted to
    [[H + dI, J^T], [J, -dI]] only when it is singular.  Returns (dz, mu),
    or (None, None) when no shift makes it solvable."""
    n, m = g.size, r_w.size
    kkt = np.block([[hess, jac_w.T], [jac_w, np.zeros((m, m))]])
    signs = np.concatenate([np.ones(n), -np.ones(m)])
    sol = regularized_solve(kkt, np.concatenate([-g, -r_w]), signs)
    return (None, None) if sol is None else (sol[:n], sol[n:])


def solve(nlp, z0: Array, options: SolverOptions | None = None) -> NlpResult:
    opts = options or SolverOptions()
    z = np.asarray(z0, dtype=float).copy()
    if z.shape != (nlp.n_z,):
        raise ShapeError(f"initial point has shape {z.shape}, expected ({nlp.n_z},)")
    if not np.all(np.isfinite(z)):
        raise ShapeError("initial point must be finite")

    eq = np.asarray(nlp.equality_mask, dtype=bool)
    n_rows = eq.size
    ineq_idx = np.flatnonzero(~eq)
    active = np.zeros(n_rows, dtype=bool)  # over all rows; only ineq entries used
    mu_full = np.zeros(n_rows)
    log: list[dict] = []
    rho = 1.0
    iters = 0
    drops = 0
    status = SolveStatus.MAX_ITER

    def finish(status_, kkt):
        return NlpResult(
            z=z,
            status=status_,
            iterations=iters,
            kkt_residual=kkt,
            multipliers=mu_full,
            rows=dict(getattr(nlp, "rows", {})),
            log=log,
        )

    while True:
        try:
            r = nlp.constraints(z)
            jac = np.asarray(nlp.jacobian(z), dtype=float)
            f = nlp.objective(z)
            g = nlp.objective_gradient(z)
        except EvaluationError:
            return finish(SolveStatus.INFEASIBLE, np.inf)
        if not (np.isfinite(f) and np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
            return finish(SolveStatus.INFEASIBLE, np.inf)

        # refresh the working set: violated inequality rows join it
        if ineq_idx.size:
            active[ineq_idx] |= r[ineq_idx] > opts.tol_feas
        working = eq | active
        jac_w = jac[working]
        r_w = r[working]

        # least-squares multipliers for the optimality test
        mu_full = np.zeros(n_rows)
        if working.any():
            mu_full[working] = _multiplier_estimate(jac_w, g)
        stat, feas, comp = _kkt_measures(g, jac, r, mu_full, eq)

        if stat <= opts.tol_stat and feas <= opts.tol_feas and comp <= COMPLEMENTARITY_TOL:
            status = SolveStatus.CONVERGED
            break
        # release an active row whose multiplier went negative
        if ineq_idx.size and active.any() and drops <= 2 * n_rows + 10:
            act = np.flatnonzero(active)
            worst = act[np.argmin(mu_full[act])]
            if mu_full[worst] < -COMPLEMENTARITY_TOL and r[worst] < opts.tol_feas:
                active[worst] = False
                drops += 1
                continue
        if iters >= opts.max_iter:
            status = SolveStatus.MAX_ITER
            break

        dz, mu_w_new = _solve_kkt(_lagrangian_hessian(nlp, z, mu_full), jac_w, g, r_w)
        if dz is None:
            return finish(SolveStatus.LINE_SEARCH_FAILURE, max(stat, feas, comp))

        if mu_w_new.size:
            rho = max(rho, 2.0 * float(np.max(np.abs(mu_w_new))) + 1.0)
        merit0 = _merit(f, r, eq, rho)
        descent = float(g @ dz) - rho * float(np.sum(np.abs(r_w)))
        alpha = 1.0
        accepted = False
        while alpha >= 2.0**-40:
            z_try = z + alpha * dz
            try:
                f_try = nlp.objective(z_try)
                r_try = nlp.constraints(z_try)
            except EvaluationError:
                alpha *= 0.5
                continue
            if np.isfinite(f_try) and np.all(np.isfinite(r_try)):
                if _merit(f_try, r_try, eq, rho) <= merit0 + 1e-4 * alpha * min(descent, 0.0):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            if feas > 1e3 * opts.tol_feas:
                return finish(SolveStatus.INFEASIBLE, max(stat, feas, comp))
            return finish(SolveStatus.LINE_SEARCH_FAILURE, max(stat, feas, comp))

        z = z + alpha * dz
        iters += 1
        log.append(
            {
                "iter": iters,
                "merit": merit0,
                "step": alpha,
                "stationarity": stat,
                "feasibility": feas,
                "complementarity": comp,
            }
        )

    kkt = max(stat, feas, comp)
    return finish(status, kkt)


def write_iteration_log(result: NlpResult, path) -> None:
    fields = ["iter", "merit", "step", "stationarity", "feasibility", "complementarity"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in result.log:
            writer.writerow(
                [row["iter"]] + [f"{row[k]:.17g}" for k in fields[1:]]
            )
