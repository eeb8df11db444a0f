"""Newton-KKT solver for the transcribed problems.

Works against a small structural interface, with no optional members:
``n_z``, ``objective``, ``objective_gradient``, ``constraints``,
``jacobian``, ``equality_mask``, ``lagrangian_hessian``, ``newton_system``
and ``rows``, a name -> slice map of the constraint row blocks that the
result carries along with its multipliers.  ``jacobian(z)`` is called once
per iterate and may return any linear operator J (a matrix, or
DiscretizedNlp's node blocks): the solver takes only ``J.T @ mu`` from it
and hands it to ``newton_system``.  ``constraints`` and ``objective`` are
called once per point the solve tries: an accepted line-search trial's
values serve the next iterate.  ``constraints`` and ``jacobian`` raise
EvaluationError where a callback gives non-finite values, and the solve
then ends ``infeasible``.
The multiplier convention is L = F + mu^T c over the constraint rows exactly
as the problem emits them; inequality rows are c <= 0 with mu >= 0 at a
solution.

The algorithm is a textbook exact-Hessian Newton-KKT iteration with an
l1-merit backtracking line search and an active-set treatment of the (few)
endpoint inequality rows.  Everything is deterministic: identical inputs
produce bit-identical iterates.

Each problem owns its whole Newton-KKT solve.  ``newton_system(jac, r, g)``
is one iterate's linearization with its objective gradient g, or None where
it has no Newton step.  Over the working rows it answers ``step(hess,
working) -> (dz, mu_w) | None`` for [[H, J_w^T], [J_w, 0]] [dz, mu_w] =
[-g, -r_w], ``hess`` as ``lagrangian_hessian`` returns it, and
``estimate(working) -> mu_w | None``, the multipliers of the optimality
test, chosen by the system:
DiscretizedNlp's are coordinate-basis multipliers, and a dense system may
take the least-squares ones argmin ||g + J_w^T mu||; wherever some
multipliers make g + J_w^T mu vanish, both do.  A None ends the solve
``line-search-failure``.  ``solve`` releases an iterate's system before
the next Jacobian is built.
DiscretizedNlp condenses the system through the identity blocks of its
rows; a problem with a dense Jacobian can solve it whole.  A singular
system is shifted to [[H + dI, J_w^T], [J_w, -dI]], d doubling from
REGULARIZATION_FLOOR (the primal-dual shift of Waechter and Biegler 2006,
whose -dI block makes dependent working rows solvable), and the shifted
solution is refined once against the unshifted matrix:
:func:`regularized_solve`, which the indirect solver shares, with +dI
throughout, for the reduced system of its condensed Newton step.  Every
solve through :func:`regularized_solve` is refined once with its own factor;
the diagonal-block solves of ``CondensingFactor.solve`` are not refined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .errors import EvaluationError, ShapeError, UnsupportedProblemError
from .ocp import complementarity_violation, constraint_violation
from .output import write_csv

Array = np.ndarray

# equality rows are met to a tolerance, never exactly; anything tighter than
# sqrt(machine eps) is refused
MIN_FEASIBILITY_TOL = float(np.sqrt(np.finfo(float).eps))
COMPLEMENTARITY_TOL = 1e-9
REGULARIZATION_FLOOR = 1e-8
REGULARIZATION_SHIFTS = 10


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


def _kkt_measures(g: Array, jac: Array, r: Array, mu: Array, eq: Array):
    """(stationarity, feasibility, complementarity) infinity norms."""
    stat = float(np.max(np.abs(g + jac.T @ mu)))
    feas = float(np.max(constraint_violation(r, eq), initial=0.0))
    return stat, feas, complementarity_violation(mu, r, eq)


def kkt_residual(nlp, z: Array, multipliers: Array) -> float:
    """max of stationarity, feasibility, complementarity infinity norms."""
    mu = np.asarray(multipliers, dtype=float)
    eq = np.asarray(nlp.equality_mask, dtype=bool)
    g, jac = nlp.objective_gradient(z), nlp.jacobian(z)
    return float(max(_kkt_measures(g, jac, nlp.constraints(z), mu, eq)))


def _merit(f: float, r: Array, eq: Array, rho: float) -> float:
    return f + rho * float(np.sum(constraint_violation(r, eq)))


def _lu_solve(matrix: Array, rhs: Array):
    """x with ``matrix @ x = rhs`` by LU, refined once with the same factor,
    together with that factor, as (x, (lu, piv)); None when that fails: a
    zero pivot, a non-finite x, or a backward error above
    1e-8 (1 + ||rhs||_inf)."""
    lu, piv, info = lapack.dgetrf(matrix)
    if info != 0:
        return None
    sol = lapack.dgetrs(lu, piv, rhs)[0]
    if not np.all(np.isfinite(sol)):
        return None
    sol += lapack.dgetrs(lu, piv, rhs - matrix @ sol)[0]
    tol = 1e-8 * (1.0 + np.max(np.abs(rhs)))
    if np.all(np.isfinite(sol)) and np.max(np.abs(matrix @ sol - rhs)) <= tol:
        return sol, (lu, piv)
    return None


def regularized_solve(matrix: Array, rhs: Array, signs: Array) -> Array | None:
    """:func:`_lu_solve`'s x, and only when that fails retry with
    ``matrix + d diag(signs)``, d = REGULARIZATION_FLOOR doubling at most
    REGULARIZATION_SHIFTS times.  A shifted solution, O(d |x|) off the
    system asked for, is refined once against ``matrix`` with the shifted
    factor.  Returns x, or None if every try fails."""
    for shift in (0.0, *REGULARIZATION_FLOOR * 2.0 ** np.arange(REGULARIZATION_SHIFTS)):
        solved = _lu_solve(matrix + np.diag(shift * signs) if shift else matrix, rhs)
        if solved is not None:
            sol, (lu, piv) = solved
            if shift:
                sol += lapack.dgetrs(lu, piv, rhs - matrix @ sol)[0]
            return sol
    return None


def solve(nlp, z0: Array, options: SolverOptions | None = None) -> NlpResult:
    opts = options or SolverOptions()
    z = np.asarray(z0, dtype=float).copy()
    if z.shape != (nlp.n_z,):
        raise ShapeError(f"initial point has shape {z.shape}, expected ({nlp.n_z},)")
    if not np.all(np.isfinite(z)):
        raise ShapeError("initial point must be finite")

    eq = np.asarray(nlp.equality_mask, dtype=bool)
    n_rows = eq.size
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
            rows=dict(nlp.rows),
            log=log,
        )

    # later iterates take r and f from their accepted line-search trial
    try:
        r, f = nlp.constraints(z), nlp.objective(z)
    except EvaluationError:
        return finish(SolveStatus.INFEASIBLE, np.inf)
    if not (np.isfinite(f) and np.all(np.isfinite(r))):
        return finish(SolveStatus.INFEASIBLE, np.inf)
    while True:
        try:
            jac = nlp.jacobian(z)
            g = nlp.objective_gradient(z)
        except EvaluationError:
            return finish(SolveStatus.INFEASIBLE, np.inf)
        system = nlp.newton_system(jac, r, g)
        if system is None:
            return finish(SolveStatus.LINE_SEARCH_FAILURE, np.inf)

        # refresh the working set: violated inequality rows join it
        active |= ~eq & (r > opts.tol_feas)
        while True:
            working = eq | active
            # the system's multipliers for the optimality test
            mu_full = np.zeros(n_rows)
            estimate = system.estimate(working)
            if estimate is None:
                return finish(SolveStatus.LINE_SEARCH_FAILURE, np.inf)
            mu_full[working] = estimate
            stat, feas, comp = _kkt_measures(g, jac, r, mu_full, eq)
            converged = (stat <= opts.tol_stat and feas <= opts.tol_feas
                         and comp <= COMPLEMENTARITY_TOL)
            if converged or not (active.any() and drops <= 2 * n_rows + 10):
                break
            # release an active row whose multiplier went negative, and
            # estimate again on the same linearization
            act = np.flatnonzero(active)
            worst = act[np.argmin(mu_full[act])]
            if not (mu_full[worst] < -COMPLEMENTARITY_TOL and r[worst] < opts.tol_feas):
                break
            active[worst] = False
            drops += 1
        if converged:
            status = SolveStatus.CONVERGED
            break
        if iters >= opts.max_iter:
            status = SolveStatus.MAX_ITER
            break

        step = system.step(nlp.lagrangian_hessian(z, mu_full), working)
        del system  # so the next linearization is built without this one alive
        if step is None:
            return finish(SolveStatus.LINE_SEARCH_FAILURE, max(stat, feas, comp))
        dz, mu_w_new = step

        rho = max(rho, 2.0 * float(np.max(np.abs(mu_w_new), initial=0.0)) + 1.0)
        merit0 = _merit(f, r, eq, rho)
        descent = float(g @ dz) - rho * float(np.sum(np.abs(r[working])))
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

        z, f, r = z_try, f_try, r_try
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

    return finish(status, max(stat, feas, comp))


def write_iteration_log(result: NlpResult, path) -> None:
    fields = ["iter", "merit", "step", "stationarity", "feasibility", "complementarity"]
    write_csv(path, fields, ([row[k] for k in fields] for row in result.log))
