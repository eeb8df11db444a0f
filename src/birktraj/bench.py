"""Conditioning and convergence studies with reproducible CSV output.

Two harnesses:

* :func:`cond_study` tracks how the interpolation operators scale with grid
  order.  The differentiation matrix ``D`` and the left-anchored integration
  matrix ``B_a`` are both structurally singular (``D`` annihilates constants,
  the first row of ``B_a`` is zero), so a raw singular-value ratio is
  meaningless.  The reported figure is the largest singular value of the
  anchored core instead: rows ``1..N`` of ``B_a`` (the part that actually
  enters the solved linear system, paired with the anchor column) and the
  whole of ``D``.  Under that convention ``B_a`` stays O(1) while ``D`` grows
  like N^2, which is the trade the harness exists to demonstrate.  Each
  largest singular value comes from a Lanczos iteration on an 8-vector basis
  (a dense SVD up to order 8), and the Birkhoff system is released before
  ``D`` is built, so one point holds about three (N+1)^2 matrices at most.
  The KKT matrix of a transcribed linear-quadratic problem is invertible, so
  the usual ratio applies there.

* :func:`convergence_study` measures solve accuracy against a reference: the
  closed-form optimum when the problem registry has one, otherwise an
  indirect (Pontryagin root-finding) solve on a finer grid, evaluated through
  its own interpolant.

All CSV writers emit fixed-format rows ordered by (kind, N) and never include
timings, so repeated runs are byte-identical.  Each CSV gets a companion
gnuplot script for log-log inspection; plotting itself needs no extra
dependency here.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import svds

from .birkhoff import (
    build_birkhoff,
    build_diff_matrix,
    eval_costate_interpolant,
    eval_state_interpolant,
)
from .dual import (
    DualVariant,
    map_covectors,
    solve_indirect,
    verified_variant,
    verify_pontryagin,
)
from .errors import BirktrajError, UnsupportedMappingError
from .grid import make_grid
from .ocp import registry, registry_solution
from .output import write_csv, write_text
from .solver import solve
from .transcription import (
    GUESS_STRATEGIES,
    PrimalForm,
    extract_primal,
    initial_guess,
    transcribe,
)

__all__ = [
    "CondStudyRow",
    "ConvergenceRow",
    "cond_study",
    "convergence_study",
    "loglog_slope",
    "solve_with_fallback",
    "write_cond_csv",
    "write_cond_gnuplot",
    "write_convergence_csv",
    "write_convergence_gnuplot",
]

# registry problem behind the optional KKT conditioning column
_COND_PROBLEM = "scalar-lq"


@dataclass(frozen=True)
class CondStudyRow:
    """One grid order in a conditioning sweep.

    ``cond_B_a`` and ``cond_D`` are largest singular values under the core
    convention described in the module docstring; ``cond_kkt`` is the full
    singular-value ratio of the transcribed LQ saddle-point matrix (None when
    not requested).  ``build_seconds`` is measurement metadata and stays out
    of the CSV.
    """

    kind: str
    N: int
    cond_B_a: float
    cond_D: float
    cond_kkt: float | None
    build_seconds: float
    note: str = ""


@dataclass(frozen=True)
class ConvergenceRow:
    kind: str
    N: int
    cost_error: float
    state_error: float
    costate_error: float
    pontryagin_residual: float
    converged: bool
    note: str = ""


def _require_ascending(N_list) -> list[int]:
    orders = [int(N) for N in N_list]
    if not orders:
        raise ValueError("need at least one grid order")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError(f"grid orders must be strictly ascending, got {orders}")
    return orders


def solve_with_fallback(nlp, options=None):
    """Try the guess strategies in a fixed order; return the first converged
    result (or the last attempt)."""
    res = None
    for strategy in GUESS_STRATEGIES:
        res = solve(nlp, initial_guess(nlp, strategy), options)
        if res.converged:
            return res
    return res


def cond_study(kind: str, N_list, include_kkt: bool = False) -> list[CondStudyRow]:
    """Singular-value growth of the core operators over ascending grid orders.

    Systems are built on the reference domain (-1, 1).  Orders whose system
    cannot be built (beyond the hard cap, or a basis too ill-conditioned to
    certify) produce a row with NaN figures and an explanatory note rather
    than aborting the sweep.  ``include_kkt`` additionally transcribes and
    solves the registry LQ problem at each order and reports the
    singular-value ratio of its KKT matrix; that column is optional because
    the dense decomposition dominates the runtime at large N.  The two
    operator columns need only the largest singular value, which
    :func:`_sigma_max` finds by Lanczos iteration rather than a full SVD.
    """
    rows = []
    for N in _require_ascending(N_list):
        start = time.perf_counter()
        try:
            grid = make_grid(kind, N, (-1.0, 1.0))
            sys = build_birkhoff(grid)
        except BirktrajError as exc:
            rows.append(
                CondStudyRow(
                    kind=kind,
                    N=N,
                    cond_B_a=np.nan,
                    cond_D=np.nan,
                    cond_kkt=np.nan if include_kkt else None,
                    build_seconds=time.perf_counter() - start,
                    note=f"skipped: {exc}",
                )
            )
            continue
        # first row of B_a is structurally zero; the anchored core is rows 1..N.
        # The system is released before D is built, so the two never coexist.
        cond_B_a = _sigma_max(sys.B_a[1:, :])
        del sys
        cond_D = _sigma_max(build_diff_matrix(grid))
        cond_kkt = None
        note = ""
        if include_kkt:
            try:
                cond_kkt = _kkt_condition(kind, N)
            except BirktrajError as exc:
                cond_kkt = np.nan
                note = f"kkt skipped: {exc}"
        rows.append(
            CondStudyRow(
                kind=kind,
                N=N,
                cond_B_a=cond_B_a,
                cond_D=cond_D,
                cond_kkt=cond_kkt,
                build_seconds=time.perf_counter() - start,
                note=note,
            )
        )
    return rows


# Lanczos basis size: 8 vectors cost fewer matrix-vector products to the
# same 1e-14 agreement with a dense SVD than ARPACK's default of 20
_LANCZOS_VECTORS = 8


def _sigma_max(a: np.ndarray) -> float:
    """Largest singular value by ARPACK's Lanczos iteration.

    The basis holds ``_LANCZOS_VECTORS`` vectors; a matrix whose smaller
    dimension is no larger than that takes a dense SVD instead.  The start
    vector is fixed, so repeated runs give the same bytes, and not constant,
    because constants span the null space of ``D``.
    """
    if min(a.shape) <= _LANCZOS_VECTORS:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    v0 = np.random.default_rng(0).standard_normal(min(a.shape))
    sigma = svds(a, k=1, ncv=_LANCZOS_VECTORS, return_singular_vectors=False, v0=v0)
    return float(sigma[0])


def _kkt_condition(kind: str, N: int) -> float:
    """sigma_max/sigma_min of [[H, J^T], [J, 0]] for the LQ registry problem
    at the converged primal-dual point, its columns the products the Newton
    step uses: ``J @ e_j`` and ``hessian_times`` of each unit vector."""
    ocp = registry(_COND_PROBLEM)
    sys = build_birkhoff(make_grid(kind, N, ocp.horizon))
    nlp = transcribe(ocp, sys, PrimalForm("a"))
    res = solve_with_fallback(nlp)
    if not res.converged:
        raise BirktrajError(f"LQ solve for the KKT column ended {res.status.value}")
    hess, eye = nlp.lagrangian_hessian(res.z, res.multipliers), np.eye(nlp.n_z)
    H = np.stack([nlp.hessian_times(hess, e) for e in eye], axis=1)
    J = nlp.jacobian(res.z) @ eye
    kkt = np.block([[H, J.T], [J, np.zeros((J.shape[0], J.shape[0]))]])
    sigma = np.linalg.svd(kkt, compute_uv=False)
    return float(sigma[0] / sigma[-1])


def loglog_slope(orders, values) -> float:
    """Least-squares slope of log(value) against log(N); NaN rows are dropped."""
    orders = np.asarray(orders, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = np.isfinite(values) & (values > 0)
    if keep.sum() < 2:
        raise ValueError("slope fit needs at least two finite positive points")
    return float(np.polyfit(np.log(orders[keep]), np.log(values[keep]), 1)[0])


# --- convergence ----------------------------------------------------------------


def convergence_study(
    problem: str,
    form,
    kind: str,
    N_list,
    oracle_order: int | None = None,
) -> list[ConvergenceRow]:
    """Solve ``problem`` at each order and measure errors against a reference.

    The reference is the registry's closed-form optimum when one exists;
    otherwise an indirect solve at ``oracle_order`` (default: the largest
    requested order) provides it, solved from its own default start, with no
    direct solve, and always built on an LGL grid so the fine-order basis
    stays certifiable.  Errors are sup-norms at the study nodes; the
    ``pontryagin_residual`` column is the worst verification block of the
    mapped covectors.  Non-convergence at an order is recorded in that row,
    not raised.
    """
    orders = _require_ascending(N_list)
    form = form if isinstance(form, PrimalForm) else PrimalForm(form)
    ocp = registry(problem)

    reference = _reference_functions(problem, ocp, orders, oracle_order)

    rows = []
    for N in orders:
        try:
            sys = build_birkhoff(make_grid(kind, N, ocp.horizon))
            nlp = transcribe(ocp, sys, form)
        except BirktrajError as exc:
            rows.append(_failed_row(kind, N, f"skipped: {exc}"))
            continue
        res = solve_with_fallback(nlp)
        if not res.converged:
            rows.append(_failed_row(kind, N, f"solver ended {res.status.value}"))
            continue
        primal = extract_primal(nlp, res.z)
        t = sys.grid.nodes
        cost_err = abs(primal.objective - reference["cost"])
        state_err = float(np.max(np.abs(primal.X - reference["state"](t).T)))
        costate_err = np.nan
        residual = np.nan
        note = ""
        try:
            dual = map_covectors(res, form, sys)
            costate_err = float(np.max(np.abs(dual.costates - reference["costate"](t).T)))
            report = verify_pontryagin(ocp, primal, dual, sys, verified_variant(form))
            residual = report.worst_block()[1]
        except UnsupportedMappingError as exc:
            note = str(exc)
        rows.append(
            ConvergenceRow(
                kind=kind,
                N=N,
                cost_error=cost_err,
                state_error=state_err,
                costate_error=costate_err,
                pontryagin_residual=residual,
                converged=True,
                note=note,
            )
        )
    return rows


def _failed_row(kind: str, N: int, note: str) -> ConvergenceRow:
    return ConvergenceRow(
        kind=kind,
        N=N,
        cost_error=np.nan,
        state_error=np.nan,
        costate_error=np.nan,
        pontryagin_residual=np.nan,
        converged=False,
        note=note,
    )


def _reference_functions(problem, ocp, orders, oracle_order):
    """Closed-form reference, or an indirect fine-grid solve shaped like one:
    a root of the first-order system that shares no iterate with the NLP."""
    sol = registry_solution(problem)
    if sol is not None and sol.costate is not None:
        return {"cost": sol.cost, "state": sol.state, "costate": sol.costate}

    order = int(oracle_order) if oracle_order is not None else max(orders)
    osys = build_birkhoff(make_grid("lgl", order, ocp.horizon))
    oprimal, odual = solve_indirect(ocp, osys, DualVariant("a", "b_star"))

    def state(t):
        return np.vstack(
            [
                eval_state_interpolant(oprimal.x_a[j], oprimal.V[:, j], osys, t)
                for j in range(ocp.n_x)
            ]
        )

    def costate(t):
        return np.vstack(
            [
                eval_costate_interpolant(
                    odual.costate_final[j], odual.costate_derivs[:, j], osys, t
                )
                for j in range(ocp.n_x)
            ]
        )

    return {"cost": oprimal.objective, "state": state, "costate": costate}


# --- reproducible output --------------------------------------------------------


def write_cond_csv(rows, path) -> None:
    ordered = sorted(rows, key=lambda r: (r.kind, r.N))
    write_csv(
        path,
        ["kind", "N", "cond_B_a", "cond_D", "cond_kkt", "note"],
        [(r.kind, r.N, r.cond_B_a, r.cond_D, r.cond_kkt, r.note) for r in ordered],
    )


def write_convergence_csv(rows, path) -> None:
    ordered = sorted(rows, key=lambda r: (r.kind, r.N))
    write_csv(
        path,
        [
            "kind",
            "N",
            "cost_error",
            "state_error",
            "costate_error",
            "pontryagin_residual",
            "converged",
            "note",
        ],
        [
            (
                r.kind,
                r.N,
                r.cost_error,
                r.state_error,
                r.costate_error,
                r.pontryagin_residual,
                int(r.converged),
                r.note,
            )
            for r in ordered
        ],
    )


_GNUPLOT_COND = """\
# log-log growth of the core operators; run: gnuplot {script}
set datafile separator ","
set logscale xy
set xlabel "N"
set ylabel "largest singular value"
set key left top
plot "{csv}" using 2:3 skip 1 with linespoints title "B_a core", \\
     "{csv}" using 2:4 skip 1 with linespoints title "D"
pause -1
"""

_GNUPLOT_CONV = """\
# error decay against the reference solution; run: gnuplot {script}
set datafile separator ","
set logscale xy
set xlabel "N"
set ylabel "sup error"
set key right top
plot "{csv}" using 2:3 skip 1 with linespoints title "cost", \\
     "{csv}" using 2:4 skip 1 with linespoints title "state", \\
     "{csv}" using 2:5 skip 1 with linespoints title "costate"
pause -1
"""


def _write_gnuplot(template: str, csv_path, script_path) -> None:
    write_text(
        script_path,
        template.format(
            csv=os.path.basename(str(csv_path)), script=os.path.basename(str(script_path))
        ),
    )


def write_cond_gnuplot(csv_path, script_path) -> None:
    _write_gnuplot(_GNUPLOT_COND, csv_path, script_path)


def write_convergence_gnuplot(csv_path, script_path) -> None:
    _write_gnuplot(_GNUPLOT_CONV, csv_path, script_path)
