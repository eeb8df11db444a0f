"""Dense Newton-KKT solver for the transcribed problems.

Works against a small structural interface: ``n_z``, ``objective``,
``objective_gradient``, ``constraints``, ``jacobian``, ``equality_mask`` and
(optionally) ``lagrangian_hessian`` / ``relabel``.  The multiplier convention
is L = F + mu^T c over the constraint rows exactly as the problem emits them;
inequality rows are c <= 0 with mu >= 0 at a solution.

The algorithm is a textbook exact-Hessian Newton-KKT iteration with an
l1-merit backtracking line search and an active-set treatment of the (few)
endpoint inequality rows.  Everything is deterministic: identical inputs
produce bit-identical iterates.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EvaluationError, ShapeError
from .ocp import _central_jacobian
from .transcription import CovectorMultipliers

Array = np.ndarray


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 60
    tol_stat: float = 1e-9
    tol_feas: float = 2e-8
    tol_comp: float = 1e-9
    regularization_floor: float = 1e-8
    verbose: bool = False


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
    covectors: CovectorMultipliers | None
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


def _fd_lagrangian_hessian(nlp, z: Array, mu: Array, step: float = 1e-6) -> Array:
    def grad_l(zz):
        g = nlp.objective_gradient(zz)
        r_jac = nlp.jacobian(zz)
        return g + np.asarray(r_jac).T @ mu if mu.size else g

    hess = _central_jacobian(grad_l, z, step)
    return 0.5 * (hess + hess.T)


def _lagrangian_hessian(nlp, z, mu):
    fn = getattr(nlp, "lagrangian_hessian", None)
    if fn is not None:
        return fn(z, mu)
    return _fd_lagrangian_hessian(nlp, z, mu)


def kkt_residual(nlp, z: Array, multipliers) -> float:
    """max of stationarity, feasibility, complementarity infinity norms."""
    if isinstance(multipliers, CovectorMultipliers):
        multipliers = nlp.unrelabel(multipliers)
    mu = np.asarray(multipliers, dtype=float)
    r = nlp.constraints(z)
    jac = np.asarray(nlp.jacobian(z))
    g = nlp.objective_gradient(z)
    eq = np.asarray(nlp.equality_mask, dtype=bool)
    stat = np.max(np.abs(g + jac.T @ mu)) if mu.size else np.max(np.abs(g))
    feas = 0.0
    comp = 0.0
    if r.size:
        viol = np.where(eq, np.abs(r), np.maximum(r, 0.0))
        feas = float(np.max(viol))
        if (~eq).any():
            mu_in, r_in = mu[~eq], r[~eq]
            comp = float(max(np.max(-mu_in, initial=0.0), np.max(np.abs(mu_in * r_in))))
    return float(max(stat, feas, comp))


def _merit(f: float, r: Array, eq: Array, rho: float) -> float:
    if not r.size:
        return f
    viol = np.where(eq, np.abs(r), np.maximum(r, 0.0))
    return f + rho * float(np.sum(viol))


def _solve_kkt(hess: Array, jac_w: Array, g: Array, r_w: Array, floor: float):
    """Newton step: [[H, J^T], [J, 0]] [dz, mu] = [-g, -r], with a doubling
    diagonal shift on H when the system is singular.  Returns (dz, mu, shift)
    or (None, None, None) after ten failed shifts."""
    n, m = g.size, r_w.size
    rhs = np.concatenate([-g, -r_w])
    shift = 0.0
    for attempt in range(11):
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = hess + shift * np.eye(n)
        if m:
            kkt[:n, n:] = jac_w.T
            kkt[n:, :n] = jac_w
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = None
        if sol is not None and np.all(np.isfinite(sol)):
            backward = np.max(np.abs(kkt @ sol - rhs))
            if backward <= 1e-8 * (1.0 + np.max(np.abs(rhs))):
                return sol[:n], sol[n:], shift
        shift = floor if shift == 0.0 else 2.0 * shift
    return None, None, None


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
        covectors = nlp.relabel(mu_full) if hasattr(nlp, "relabel") else None
        return NlpResult(
            z=z,
            status=status_,
            iterations=iters,
            kkt_residual=kkt,
            multipliers=mu_full,
            covectors=covectors,
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
            mu_w, *_ = np.linalg.lstsq(jac_w.T, -g, rcond=None)
            mu_full[working] = mu_w
        stat = float(np.max(np.abs(g + jac.T @ mu_full))) if n_rows else float(np.max(np.abs(g)))
        viol = np.where(eq, np.abs(r), np.maximum(r, 0.0)) if n_rows else np.zeros(0)
        feas = float(np.max(viol)) if n_rows else 0.0
        comp = 0.0
        if ineq_idx.size:
            mu_in, r_in = mu_full[ineq_idx], r[ineq_idx]
            comp = float(max(np.max(-mu_in, initial=0.0), np.max(np.abs(mu_in * r_in))))

        if stat <= opts.tol_stat and feas <= opts.tol_feas and comp <= opts.tol_comp:
            status = SolveStatus.CONVERGED
            break
        # release an active row whose multiplier went negative
        if ineq_idx.size and active.any() and drops <= 2 * n_rows + 10:
            act = np.flatnonzero(active)
            worst = act[np.argmin(mu_full[act])]
            if mu_full[worst] < -opts.tol_comp and r[worst] < opts.tol_feas:
                active[worst] = False
                drops += 1
                continue
        if iters >= opts.max_iter:
            status = SolveStatus.MAX_ITER
            break

        hess = _lagrangian_hessian(nlp, z, mu_full)
        dz = mu_w_new = None
        floor = opts.regularization_floor
        for _ in range(4):
            dz, mu_w_new, shift = _solve_kkt(hess, jac_w, g, r_w, floor)
            if dz is None:
                break
            descent = float(g @ dz) - rho * float(np.sum(np.abs(r_w)))
            if descent < -1e-16 or not r_w.size:
                break
            # not a descent direction for the merit: convexify harder
            hess = hess + max(floor, 1e-4) * np.eye(nlp.n_z)
            floor *= 16.0
        if dz is None:
            return finish(SolveStatus.LINE_SEARCH_FAILURE, max(stat, feas, comp))

        if mu_w_new is not None and mu_w_new.size:
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
        if opts.verbose:
            print(
                f"[{iters:3d}] merit={merit0:.6e} step={alpha:.3e} "
                f"stat={stat:.3e} feas={feas:.3e} comp={comp:.3e}"
            )

    kkt = max(stat, feas, comp)
    return finish(status, kkt)


def write_iteration_log(result: NlpResult, path) -> None:
    fields = ["iter", "merit", "step", "stationarity", "feasibility", "complementarity"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in result.log:
            writer.writerow(
                [row["iter"]] + [f"{row[k]:.17g}" for k in fields[1:]]
            )
