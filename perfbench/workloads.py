"""The three benchmark workloads, their seeded inputs and per-case checks.

Every call into birktraj goes through a module attribute (``tr.transcribe``,
``bench.solve_with_fallback``, ...), so the tracer in ``tracing.py`` can time
the calls from outside by patching those attributes.

A case *fails* when it does not end with a verified result: the solve did not
converge, a ``BirktrajError`` was raised, the batch evaluation budget ran out,
or a check did not pass.  A failed case is *wrong* when the program delivered
an answer that an independent check rejects (registry oracle, conditioning
slopes, convergence errors) or when it raised something other than a
``BirktrajError``; a wrong case makes the run's ``correct`` false.
"""

from __future__ import annotations

import json
import random
import traceback
from dataclasses import dataclass, field

import numpy as np
from birktraj import bench, birkhoff, dual, errors, grid, ocp, transcription as tr

# registry answers must match the closed form this closely (seed error <= 1.3e-14)
ORACLE_TOL = 1e-8
# conditioning trade: B_a core slope ~ 0, D slope ~ 2 (seed: -0.004/1.98 LGL)
SLOPE_TOL = 0.1
# convergence study on LGL reaches machine precision by N = 32 (seed: <= 1.1e-13)
CONVERGENCE_TOL = 1e-10

# Batch problems get this many NLP constraint evaluations (one per Newton
# iteration plus one per line-search trial, over both guess strategies).
# Converged batch cases at seed mostly use 6-52.  The cases that crawl with
# line-search steps of 1/128 or less use 200-2800 and cost 1-30 s each; a run
# that waited for them would mostly measure how many such cases its seed drew.
BATCH_EVALUATION_BUDGET = 60


@dataclass
class Case:
    id: str
    kind: str  # "pipeline", "cond", "indirect" or "convergence"
    spec: dict


@dataclass
class Outcome:
    verified: bool = False
    wrong: bool = False
    reason: str = ""
    extra: dict = field(default_factory=dict)


class BudgetExhausted(Exception):
    pass


class BudgetNlp:
    """NLP proxy that raises once ``limit`` constraint evaluations are used."""

    def __init__(self, nlp, limit: int):
        self._nlp = nlp
        self._left = limit

    def constraints(self, z):
        if self._left <= 0:
            raise BudgetExhausted("evaluation budget exhausted")
        self._left -= 1
        return self._nlp.constraints(z)

    def __getattr__(self, attr):
        return getattr(self._nlp, attr)


def parse_form(text: str) -> tr.PrimalForm:
    if text == "a+scaled":
        return tr.PrimalForm("a", scaled=True)
    return tr.PrimalForm(text)


# --- case runners -------------------------------------------------------------


def _oracle_error(name: str, objective: float, costates, nodes) -> float | None:
    """Largest objective/costate deviation from the registry closed form."""
    sol = ocp.registry_solution(name)
    if sol is None or sol.costate is None:
        return None
    ref = sol.costate(nodes).T
    cost_err = abs(objective - sol.cost)
    lam_err = float(np.max(np.abs(costates[:, : ref.shape[1]] - ref)))
    return max(cost_err, lam_err)


def run_pipeline(spec: dict) -> Outcome:
    """build -> transcribe -> solve_with_fallback -> map -> verify."""
    if "registry" in spec:
        problem = ocp.prepared(ocp.registry(spec["registry"]))
    else:
        problem = ocp.prepared(ocp.load_problem(spec["problem"]))
    form = parse_form(spec["form"])
    system = birkhoff.build_birkhoff(grid.make_grid(spec["grid"], spec["N"], problem.horizon))
    nlp = tr.transcribe(problem, system, form)
    res = bench.solve_with_fallback(BudgetNlp(nlp, spec["budget"]) if "budget" in spec else nlp)
    if not res.converged:
        return Outcome(reason=f"solve ended {res.status.value}")
    primal = tr.extract_primal(nlp, res.z)
    costates = dual.map_covectors(res, form, system)
    report = dual.verify_pontryagin(
        problem, primal, costates, system, dual.verified_variant(form),
        tol=dual.default_tolerance(system),
    )
    if not report.passed:
        block, value = report.worst_block()
        return Outcome(reason=f"verification failed: {block} = {value:.3e}")
    if "registry" in spec:
        err = _oracle_error(
            spec["registry"], primal.objective, costates.costates, system.grid.nodes
        )
        if err is not None and not err <= ORACLE_TOL:
            return Outcome(wrong=True, reason=f"oracle error {err:.3e}")
    return Outcome(verified=True)


def run_indirect(spec: dict) -> Outcome:
    problem = ocp.registry(spec["registry"])
    system = birkhoff.build_birkhoff(grid.make_grid("lgl", spec["N"], problem.horizon))
    variant = dual.DualVariant.parse(spec["variant"])
    primal, costates = dual.solve_indirect(problem, system, variant)
    report = dual.verify_pontryagin(
        problem, primal, costates, system, variant, tol=dual.default_tolerance(system)
    )
    if not report.passed:
        block, value = report.worst_block()
        return Outcome(reason=f"verification failed: {block} = {value:.3e}")
    err = _oracle_error(spec["registry"], primal.objective, costates.costates, system.grid.nodes)
    if err is not None and not err <= ORACLE_TOL:
        return Outcome(wrong=True, reason=f"oracle error {err:.3e}")
    return Outcome(verified=True)


def run_cond(spec: dict) -> Outcome:
    (row,) = bench.cond_study(spec["grid"], [spec["N"]])
    extra = {"cond_B_a": row.cond_B_a, "cond_D": row.cond_D, "build_seconds": row.build_seconds}
    if row.note:
        return Outcome(reason=row.note, extra=extra)
    return Outcome(verified=True, extra=extra)


def run_convergence(spec: dict) -> Outcome:
    rows = bench.convergence_study(spec["problem"], spec["form"], spec["grid"], spec["orders"])
    bad = [r for r in rows if not r.converged]
    if bad:
        return Outcome(reason=f"N={bad[0].N}: {bad[0].note}")
    last = rows[-1]
    worst = max(last.cost_error, last.state_error, last.costate_error)
    if not worst <= CONVERGENCE_TOL:
        return Outcome(wrong=True, reason=f"N={last.N} error {worst:.3e}")
    return Outcome(verified=True)


RUNNERS = {
    "pipeline": run_pipeline,
    "indirect": run_indirect,
    "cond": run_cond,
    "convergence": run_convergence,
}


def run_case(case: Case) -> Outcome:
    try:
        return RUNNERS[case.kind](case.spec)
    except (errors.BirktrajError, BudgetExhausted) as exc:
        return Outcome(reason=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a crash is a defect of the program: report, keep going
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Outcome(
            wrong=True,
            reason=f"crash {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})",
        )


# --- workloads ----------------------------------------------------------------


class Workload:
    """A seeded case list, run in whole passes.

    ``tail_percentile`` is fixed per workload so the metric means the same
    thing in every run: the highest of 50/75/80/90/95/99 with at least ten
    distinct cases beyond it, or the slowest case (100) when a run holds
    fewer than twenty distinct cases.

    Within a pass each case runs up to ``repeats`` times, a round apart (see
    ``run_passes`` in ``run.py``).  The fastest time of a case is kept.
    """

    tail_percentile = 100.0
    repeats = 3

    def __init__(self, seed: int):
        self.seed = seed

    def block(self, index: int) -> list[Case]:
        raise NotImplementedError

    def finish_pass(self, cases: list[Case], outcomes: list[Outcome]) -> None:
        """Checks that need the whole pass; may mark outcomes failed."""


class Ladder(Workload):
    """Registry problems at the ROADMAP ladder sizes, LGL grids, form a.

    The seed only orders the cases: the ladder is the fixed reference point.
    """

    SIZES = (
        ("double-integrator-energy", (32, 64, 128)),
        ("scalar-lq", (64, 128, 256)),
        ("nonlinear-scalar", (64, 128, 256)),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        cases = [
            Case(f"ladder-{name}-N{N}", "pipeline",
                 {"registry": name, "N": N, "grid": "lgl", "form": "a"})
            for name, sizes in self.SIZES
            for N in sizes
        ]
        random.Random(f"ladder:{seed}").shuffle(cases)
        self.cases = cases

    def block(self, index: int) -> list[Case]:
        return self.cases


class Studies(Workload):
    """What a ``bench`` user runs: conditioning points, indirect solves, a
    convergence study.  The seed only orders the cases."""

    tail_percentile = 80.0
    # the lgl N = 1024 point runs once a pass (7-9 s); a fourth round of the
    # other cases still fits two passes in 55 s
    repeats = 4
    COND = (("lgl", (16, 32, 64, 128, 256, 512, 1024)), ("cgl", (16, 32, 64, 128, 256, 512)))
    VARIANTS = ("a,b_star", "a_star,b_star", "a,b")
    INDIRECT_N = (16, 32, 64)

    def __init__(self, seed: int):
        super().__init__(seed)
        cases = [
            Case(f"cond-{kind}-N{N}", "cond", {"grid": kind, "N": N})
            for kind, sizes in self.COND
            for N in sizes
        ]
        cases += [
            Case(f"indirect-{name}-{variant}-N{N}", "indirect",
                 {"registry": name, "variant": variant, "N": N})
            for name in ocp.registry_names()
            for variant in self.VARIANTS
            for N in self.INDIRECT_N
        ]
        cases.append(
            Case("convergence-nonlinear-scalar-a-lgl", "convergence",
                 {"problem": "nonlinear-scalar", "form": "a", "grid": "lgl",
                  "orders": [4, 8, 16, 32]})
        )
        random.Random(f"studies:{seed}").shuffle(cases)
        self.cases = cases

    def block(self, index: int) -> list[Case]:
        return self.cases

    def finish_pass(self, cases, outcomes) -> None:
        for kind, _ in self.COND:
            points: dict[int, list[Outcome]] = {}  # N -> outcomes of its repeats
            for c, o in zip(cases, outcomes):
                if c.kind == "cond" and c.spec["grid"] == kind and o.verified:
                    points.setdefault(c.spec["N"], []).append(o)
            if len(points) < 2:
                continue
            orders = sorted(points)
            first = [points[N][0] for N in orders]
            slope_b = bench.loglog_slope(orders, [o.extra["cond_B_a"] for o in first])
            slope_d = bench.loglog_slope(orders, [o.extra["cond_D"] for o in first])
            if abs(slope_b) <= SLOPE_TOL and abs(slope_d - 2.0) <= SLOPE_TOL:
                continue
            for o in (o for N in orders for o in points[N]):
                o.verified = False
                o.wrong = True
                o.reason = f"{kind} slopes B_a {slope_b:+.3f}, D {slope_d:+.3f}"


# --- batch problem class --------------------------------------------------------

DYNAMICS = ("linear", "polynomial")
ENDPOINTS = ("pinned", "inequality", "free")
GRIDS = ("lgl", "cgl", "uniform")
FORMS = ("a", "a_star", "a+scaled")
CELLS = tuple((d, e, g, f) for d in DYNAMICS for e in ENDPOINTS for g in GRIDS for f in FORMS)


def _unit(n: int, i: int) -> list[float]:
    row = [0.0] * n
    row[i] = 1.0
    return row


def _power(n: int, i: int, p: int) -> list[int]:
    row = [0] * n
    row[i] = p
    return row


def batch_problem(
    rng: random.Random, name: str, dynamics: str, endpoint: str, n_x: int, n_u: int
) -> dict:
    """One random problem of the batch class as a ``load_problem`` dict.

    Coefficients are rounded to four decimals so the JSON stays readable;
    the dict depends only on the generator state.
    """

    def draw(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    b_mat = [[draw(-1.0, 1.0) for _ in range(n_u)] for _ in range(n_x)]
    for row in b_mat:  # every state is driven by some control
        if max(abs(b) for b in row) < 0.3:
            row[0] = 1.0 if row[0] >= 0.0 else -1.0
    if dynamics == "linear":
        dyn = {"A": [[draw(-1.0, 1.0) for _ in range(n_x)] for _ in range(n_x)], "B": b_mat}
    else:  # cubic damping plus control
        dyn = {"terms": [
            [{"coef": -draw(0.2, 2.0), "x": _power(n_x, i, 3), "u": [0] * n_u}]
            + [{"coef": b_mat[i][j], "x": [0] * n_x, "u": _power(n_u, j, 1)}
               for j in range(n_u)]
            for i in range(n_x)
        ]}
    problem = {
        "name": name,
        "n_x": n_x,
        "n_u": n_u,
        "horizon": [0.0, draw(0.5, 2.0)],
        "dynamics": dyn,
        "running_cost": {
            "Q": [[draw(0.1, 1.0) if i == j else 0.0 for j in range(n_x)] for i in range(n_x)],
            "R": [[draw(0.5, 2.0) if i == j else 0.0 for j in range(n_u)] for i in range(n_u)],
        },
    }
    rows = [{"kind": "equality", "a": _unit(n_x, i), "rhs": draw(-1.0, 1.0)} for i in range(n_x)]
    if endpoint == "pinned":
        rows += [{"kind": "equality", "b": _unit(n_x, i), "rhs": draw(-1.0, 1.0)}
                 for i in range(n_x)]
    elif endpoint == "inequality":
        rows.append({"kind": "inequality", "b": [draw(-1.0, 1.0) for _ in range(n_x)],
                     "rhs": draw(-0.5, 0.5)})
    else:  # free right end with a quadratic pull towards a target
        terms = []
        for i in range(n_x):
            k, target = draw(0.5, 5.0), draw(-1.0, 1.0)
            terms.append({"coef": k, "xb": _power(n_x, i, 2)})
            terms.append({"coef": round(-2.0 * k * target, 4), "xb": _power(n_x, i, 1)})
        problem["endpoint_cost"] = {"terms": terms}
    problem["constraints"] = rows
    return problem


class Batch(Workload):
    """Seeded random small problems passed as JSON dicts through load_problem.

    Each block holds every (dynamics, endpoint, grid, form) cell once, in a
    seeded order.  N (8..24), n_x (1..3) and n_u (1..2) are drawn as seeded
    permutations of balanced lists, so every block has the same mix of sizes
    and differs from the others in pairing and in every coefficient.
    """

    tail_percentile = 90.0
    # distinct cases, each run once: repeats would cut the number of problems
    # a run draws, and with it how well the failed fraction is measured
    repeats = 1
    BLOCKS = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.blocks = [self._make_block(b) for b in range(self.BLOCKS)]

    def _make_block(self, b: int) -> list[Case]:
        rng = random.Random(f"batch:{self.seed}:{b}")
        n = len(CELLS)

        def balanced(values):
            drawn = [values[i % len(values)] for i in range(n)]
            rng.shuffle(drawn)
            return drawn

        cells = list(CELLS)
        rng.shuffle(cells)
        sizes = balanced(range(8, 25))
        n_xs = balanced((1, 2, 3))
        n_us = balanced((1, 2))
        cases = []
        for k, (dynamics, endpoint, kind, form) in enumerate(cells):
            case_id = f"batch-s{self.seed}-b{b}-{k:02d}"
            problem = batch_problem(rng, case_id, dynamics, endpoint, n_xs[k], n_us[k])
            cases.append(Case(case_id, "pipeline", {
                "problem": problem,
                "grid": kind,
                "N": sizes[k],
                "form": form,
                "budget": BATCH_EVALUATION_BUDGET,
            }))
        return cases

    def block(self, index: int) -> list[Case]:
        return self.blocks[index % self.BLOCKS]

    def problems_json(self) -> list[str]:
        return [json.dumps(c.spec["problem"], sort_keys=True) for blk in self.blocks for c in blk]


WORKLOADS = {"ladder": Ladder, "batch": Batch, "studies": Studies}

# one tiny case per layer, run before timing so lazy set-up is paid in setup_s
WARMUP = (
    Case("warmup-pipeline", "pipeline",
         {"registry": "scalar-lq", "N": 8, "grid": "lgl", "form": "a"}),
    Case("warmup-json", "pipeline",
         {"problem": {"n_x": 1, "n_u": 1, "horizon": [0.0, 1.0],
                      "dynamics": {"A": [[0.0]], "B": [[1.0]]},
                      "running_cost": {"R": [[1.0]]},
                      "constraints": [{"a": [1.0], "rhs": 0.0}, {"b": [1.0], "rhs": 1.0}]},
          "N": 8, "grid": "cgl", "form": "a_star"}),
    Case("warmup-indirect", "indirect", {"registry": "scalar-lq", "variant": "a,b_star", "N": 8}),
    Case("warmup-cond", "cond", {"grid": "lgl", "N": 8}),
)
