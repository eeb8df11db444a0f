"""Command-line front end: solve, verify, indirect, bench, grids.

Every command reads one :class:`RunConfig` resolved in three layers —
documented defaults, then command-line flags, then an optional JSON config
file (the file wins where both are given).  Outputs are UTF-8 JSON/CSV with
fixed field order and no timestamps, so re-running a command with the same
configuration reproduces the files byte for byte.

Exit codes: 0 solved (and verified, where verification applies); 1 the
numerical work itself failed; 2 solved but the optimality check did not pass;
64 the configuration is unusable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys as _sys
from dataclasses import dataclass

import numpy as np

from .bench import (
    cond_study,
    convergence_study,
    loglog_slope,
    solve_with_fallback,
    write_cond_csv,
    write_cond_gnuplot,
    write_convergence_csv,
    write_convergence_gnuplot,
)
from .birkhoff import build_birkhoff
from .dual import (
    DualVariant,
    map_covectors,
    solve_indirect,
    verified_variant,
    verify_pontryagin,
)
from .errors import (
    BirktrajError,
    DomainMismatchError,
    InvalidDomainError,
    InvalidOrderError,
    NotFoundError,
    ShapeError,
    UnsupportedGridError,
    UnsupportedMappingError,
    UnsupportedProblemError,
)
from .grid import make_grid
from .ocp import load_problem, prepared, registry, registry_names
from .solver import SolverOptions
from .transcription import (
    DEFAULT_FEASIBILITY_TOL,
    PrimalForm,
    extract_primal,
    transcribe,
)

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_VERIFY_FAILED = 2
EXIT_BAD_CONFIG = 64

_KINDS = ("cgl", "lgl", "uniform")
_FORMS = ("a", "b", "a_star", "b_star")

# errors that mean "this configuration cannot be run", as opposed to a
# computation that ran and failed
_CONFIG_ERRORS = (
    NotFoundError,
    UnsupportedGridError,
    UnsupportedProblemError,
    UnsupportedMappingError,
    InvalidOrderError,
    InvalidDomainError,
    DomainMismatchError,
    ShapeError,
    ValueError,
)


@dataclass(frozen=True)
class RunConfig:
    """One command's worth of settings; every field has a usable default
    except ``problem``, which solve-like commands require."""

    problem: str | None = None
    kind: str = "lgl"
    N: int = 32
    form: str = "a"
    scaled: bool = False
    variant: str | None = None
    tol_feas: float = DEFAULT_FEASIBILITY_TOL
    tol_stat: float = 1e-9
    tol_verify: float | None = None
    max_iter: int = 60
    out: str = "."

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"grid kind must be one of {_KINDS}, got {self.kind!r}")
        if self.form not in _FORMS:
            raise ValueError(f"form must be one of {_FORMS}, got {self.form!r}")
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "scaled", bool(self.scaled))
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")

    def solver_options(self) -> SolverOptions:
        return SolverOptions(
            max_iter=self.max_iter, tol_stat=self.tol_stat, tol_feas=self.tol_feas
        )


def resolve_config(args) -> RunConfig:
    """defaults < flags < config file, per the documented precedence."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    merged = {
        k: v for k, v in vars(args).items() if k in fields and v is not None
    }
    path = getattr(args, "config", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - fields)
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        merged.update(raw)
    return RunConfig(**merged)


def _load_ocp(config: RunConfig):
    if config.problem is None:
        raise NotFoundError(
            f"no problem given; pass --problem with a registry name "
            f"{registry_names()} or a JSON file path"
        )
    if config.problem.endswith(".json") or os.sep in config.problem:
        return prepared(load_problem(config.problem))
    return prepared(registry(config.problem))


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_trajectory_csv(path, nodes, X, U, costates=None) -> None:
    header = ["t"]
    header += [f"x_{j}" for j in range(X.shape[1])]
    header += [f"u_{j}" for j in range(U.shape[1])]
    cols = [np.asarray(nodes), *X.T, *U.T]
    if costates is not None:
        header += [f"costate_{j}" for j in range(costates.shape[1])]
        cols += list(costates.T)
    lines = [",".join(header)]
    for i in range(len(nodes)):
        lines.append(",".join(format(float(c[i]), ".17g") for c in cols))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _verification_variant(config: RunConfig, form: PrimalForm) -> DualVariant:
    if config.variant is not None:
        return DualVariant.parse(config.variant)
    return verified_variant(form)


# --- commands --------------------------------------------------------------------


def cmd_solve(config: RunConfig, args=None) -> int:
    try:
        ocp = _load_ocp(config)
        system = build_birkhoff(make_grid(config.kind, config.N, ocp.horizon))
        form = PrimalForm(config.form, scaled=config.scaled)
        nlp = transcribe(ocp, system, form, feas_tol=config.tol_feas)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG

    res = solve_with_fallback(nlp, config.solver_options())
    if not res.converged:
        print(f"solver failed: {res.status.value} after {res.iterations} iterations",
              file=_sys.stderr)
        return EXIT_SOLVER_FAILURE
    primal = extract_primal(nlp, res.z)

    dual = report = None
    try:
        dual = map_covectors(res, form, system)
        variant = _verification_variant(config, form)
        report = verify_pontryagin(ocp, primal, dual, system, variant, tol=config.tol_verify)
    except UnsupportedMappingError:
        pass  # forms without a proven route solve fine but skip verification
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG

    payload = {
        "problem": ocp.name,
        "grid": system.grid.to_json_dict(),
        "form": {"tag": form.tag.value, "scaled": form.scaled},
        "status": res.status.value,
        "iterations": res.iterations,
        "kkt_residual": res.kkt_residual,
        "primal": primal.to_json_dict(),
        "dual": dual.to_json_dict() if dual is not None else None,
        "verification": report.to_json_dict() if report is not None else None,
    }
    _write_json(_out_path(config, "solution.json"), payload)
    _write_trajectory_csv(
        _out_path(config, "trajectory.csv"),
        system.grid.nodes,
        primal.X,
        primal.U,
        dual.costates if dual is not None else None,
    )

    if report is None:
        print(f"objective {primal.objective:.12g}; no covector route for "
              f"form {form.tag.value}, verification skipped")
        return EXIT_OK
    name, worst = report.worst_block()
    print(f"objective {primal.objective:.12g}; verification "
          f"{'PASS' if report.passed else 'FAIL'} "
          f"(worst block {name} = {worst:.3e}, tolerance {report.tolerance:.3e})")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_verify(config: RunConfig, args=None) -> int:
    try:
        ocp = _load_ocp(config)
        system = build_birkhoff(make_grid(config.kind, config.N, ocp.horizon))
        form = PrimalForm(config.form, scaled=config.scaled)
        nlp = transcribe(ocp, system, form, feas_tol=config.tol_feas)
        variant = _verification_variant(config, form)
        verified_variant(form)  # forms without a route are a config error here
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG

    res = solve_with_fallback(nlp, config.solver_options())
    if not res.converged:
        print(f"solver failed: {res.status.value}", file=_sys.stderr)
        return EXIT_SOLVER_FAILURE
    primal = extract_primal(nlp, res.z)
    dual = map_covectors(res, form, system)
    report = verify_pontryagin(ocp, primal, dual, system, variant, tol=config.tol_verify)

    _write_json(_out_path(config, "report.json"), report.to_json_dict())
    for name in sorted(report.blocks):
        print(f"  {name:24s} {report.blocks[name]:.6e}")
    print(f"verification {'PASS' if report.passed else 'FAIL'} at tolerance "
          f"{report.tolerance:.3e} (variant {report.variant})")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_indirect(config: RunConfig, args=None) -> int:
    try:
        ocp = _load_ocp(config)
        system = build_birkhoff(make_grid(config.kind, config.N, ocp.horizon))
        variant = (DualVariant.parse(config.variant)
                   if config.variant is not None else DualVariant("a", "b_star"))
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        primal, dual = solve_indirect(ocp, system, variant)
    except UnsupportedProblemError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG
    except BirktrajError as exc:
        print(f"indirect solve failed: {exc}", file=_sys.stderr)
        return EXIT_SOLVER_FAILURE

    payload = {
        "problem": ocp.name,
        "grid": system.grid.to_json_dict(),
        "variant": str(variant),
        "primal": primal.to_json_dict(),
        "dual": dual.to_json_dict(),
    }
    _write_json(_out_path(config, "indirect.json"), payload)
    _write_trajectory_csv(
        _out_path(config, "indirect_trajectory.csv"),
        system.grid.nodes, primal.X, primal.U, dual.costates,
    )
    print(f"indirect objective {primal.objective:.12g}; "
          f"feasibility {primal.feasibility:.3e}")
    return EXIT_OK


def cmd_bench(config: RunConfig, args) -> int:
    try:
        if args.study == "cond":
            orders = args.orders or [8, 16, 32, 64, 128, 256, 512]
            rows = cond_study(config.kind, orders, include_kkt=args.include_kkt)
            csv = _out_path(config, "conditioning.csv")
            write_cond_csv(rows, csv)
            write_cond_gnuplot(csv, _out_path(config, "conditioning.gp"))
            names = [r.N for r in rows]
            print(f"wrote {csv}; slopes: B_a core "
                  f"{loglog_slope(names, [r.cond_B_a for r in rows]):+.4f}, "
                  f"D {loglog_slope(names, [r.cond_D for r in rows]):+.4f}")
        else:
            if config.problem is None:
                raise NotFoundError("convergence study needs --problem")
            orders = args.orders or [4, 8, 16, 32]
            form = PrimalForm(config.form, scaled=config.scaled)
            rows = convergence_study(
                config.problem, form, config.kind, orders,
                oracle_order=args.oracle_order,
            )
            csv = _out_path(config, "convergence.csv")
            write_convergence_csv(rows, csv)
            write_convergence_gnuplot(csv, _out_path(config, "convergence.gp"))
            done = sum(r.converged for r in rows)
            print(f"wrote {csv}; {done}/{len(rows)} orders converged")
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG
    return EXIT_OK


def cmd_grids(config: RunConfig, args) -> int:
    try:
        grid = make_grid(config.kind, config.N, args.domain)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        system = build_birkhoff(grid)
    except BirktrajError as exc:
        print(f"build failed: {exc}", file=_sys.stderr)
        return EXIT_SOLVER_FAILURE
    path = _out_path(config, "system.json")
    _write_json(path, system.to_json_dict())
    print(f"wrote {path} ({config.kind}, N={config.N}, "
          f"domain [{grid.domain[0]:g}, {grid.domain[1]:g}])")
    return EXIT_OK


# --- argument plumbing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # the documented contract reports unusable configuration as 64
    def error(self, message):
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def _orders(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _domain(text: str) -> tuple[float, float]:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 2:
        raise ValueError("domain must be 't0,tf'")
    return parts[0], parts[1]


def _add_common(sub: argparse.ArgumentParser, with_problem: bool = True) -> None:
    if with_problem:
        sub.add_argument("--problem", help="registry name or JSON problem path")
    sub.add_argument("--grid", dest="kind", choices=_KINDS, help="grid family")
    sub.add_argument("--N", type=int, help="grid order (default 32)")
    sub.add_argument("--form", choices=_FORMS, help="primal form (default a)")
    sub.add_argument("--scaled", action=argparse.BooleanOptionalAction,
                     help="weight the node constraint blocks")
    sub.add_argument("--variant", help="verification variant, e.g. 'a,b_star'")
    sub.add_argument("--tol-feas", type=float, dest="tol_feas",
                     help="feasibility tolerance")
    sub.add_argument("--tol-stat", type=float, dest="tol_stat",
                     help="stationarity tolerance")
    sub.add_argument("--tol-verify", type=float, dest="tol_verify",
                     help="optimality-check tolerance (default: defect-budgeted)")
    sub.add_argument("--max-iter", type=int, dest="max_iter", help="iteration cap")
    sub.add_argument("--out", help="output directory (default '.')")
    sub.add_argument("--config", help="JSON config file; overrides flags")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="birktraj",
        description="Trajectory optimization on Birkhoff-interpolation grids.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", parents=[], help="transcribe, solve, verify")
    _add_common(solve)
    solve.set_defaults(handler=cmd_solve)

    verify = commands.add_parser("verify", help="solve and report optimality blocks")
    _add_common(verify)
    verify.set_defaults(handler=cmd_verify)

    indirect = commands.add_parser(
        "indirect", help="root-find the discretized optimality system"
    )
    _add_common(indirect)
    indirect.set_defaults(handler=cmd_indirect)

    bench = commands.add_parser("bench", help="conditioning / convergence studies")
    _add_common(bench)
    bench.add_argument("--study", choices=("cond", "convergence"), default="cond")
    bench.add_argument("--orders", type=_orders,
                       help="comma-separated ascending grid orders")
    bench.add_argument("--include-kkt", action="store_true", dest="include_kkt",
                       help="add the (expensive) KKT conditioning column")
    bench.add_argument("--oracle-order", type=int, dest="oracle_order",
                       help="grid order of the indirect reference solve")
    bench.set_defaults(handler=cmd_bench)

    grids = commands.add_parser("grids", help="build and dump one Birkhoff system")
    _add_common(grids, with_problem=False)
    grids.add_argument("--domain", type=_domain, default=(-1.0, 1.0),
                       help="'t0,tf' (default reference domain)")
    grids.set_defaults(handler=cmd_grids)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG
    return args.handler(config, args)


if __name__ == "__main__":
    _sys.exit(main())
