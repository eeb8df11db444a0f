"""Command-line front end: solve, verify, indirect, bench, grids.

Each command takes only the flags it reads (``_COMMANDS``), plus ``--config
FILE``.  Settings resolve in three layers: the defaults in ``_FLAGS``, then
the command-line flags, then the JSON config file.  The file's keys are the
flags' destinations (``kind`` for ``--grid``, ``tol_feas`` for
``--tol-feas``, ...); :func:`parse_args` turns them into flags and parses
them after the command line with the same parser, so the file wins and its
values pass the same checks.  Outputs are UTF-8 JSON/CSV with fixed field
order and no timestamps, so re-running a command with the same configuration
reproduces the files byte for byte.

Exit codes, all mapped in :func:`main`: 0 solved (and verified, where
verification applies); 1 the numerical work itself failed, a grid whose basis
cannot be built included; 2 solved but the optimality check did not pass; 64
the configuration is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys as _sys

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
from .errors import BirktrajError, NotFoundError, UnsupportedMappingError
from .grid import make_grid
from .ocp import load_problem, registry, registry_names
from .output import write_csv, write_json
from .solver import SolverOptions, check_tolerance
from .transcription import PrimalForm, extract_primal, transcribe

__all__ = ["main", "parse_args"]

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_VERIFY_FAILED = 2
EXIT_BAD_CONFIG = 64

_KINDS = ("cgl", "lgl", "uniform")
_FORMS = ("a", "b", "a_star", "b_star")

# errors that mean "this configuration cannot be run", as opposed to a
# computation that ran and failed; the package's own (UnsupportedProblemError,
# ShapeError, InvalidOrderError, ...) are ValueErrors, NotFoundError a KeyError
_CONFIG_ERRORS = (NotFoundError, ValueError, OSError)


def _load_ocp(config):
    if config.problem is None:
        raise NotFoundError(
            f"no problem given; pass --problem with a registry name "
            f"{registry_names()} or a JSON file path"
        )
    if config.problem.endswith(".json") or os.sep in config.problem:
        return load_problem(config.problem)
    return registry(config.problem)


def _out_path(config, name: str) -> str:
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


def _write_trajectory_csv(path, nodes, X, U, costates=None) -> None:
    tables = {"x": X, "u": U}
    if costates is not None:
        tables["costate"] = costates
    header = ["t"] + [f"{name}_{j}" for name, tab in tables.items() for j in range(tab.shape[1])]
    write_csv(path, header, np.column_stack([nodes, *tables.values()]))


def _verification_variant(variant: DualVariant | None, form: PrimalForm) -> DualVariant:
    return variant if variant is not None else verified_variant(form)


def _transcribed(config):
    """The set-up shared by solve and verify: load, build, form, options,
    the --variant given (or None), transcribe.  Every setting is checked
    here, before any solve."""
    ocp = _load_ocp(config)
    system = build_birkhoff(make_grid(config.kind, config.N, ocp.horizon))
    form = PrimalForm(config.form, scaled=config.scaled)
    options = SolverOptions(
        max_iter=config.max_iter, tol_stat=config.tol_stat, tol_feas=config.tol_feas
    )
    if config.tol_verify is not None:
        check_tolerance(config.tol_verify, "verification")
    variant = DualVariant.parse(config.variant) if config.variant is not None else None
    return ocp, system, form, options, variant, transcribe(ocp, system, form)


# --- commands --------------------------------------------------------------------


def cmd_solve(config) -> int:
    ocp, system, form, options, variant, nlp = _transcribed(config)
    res = solve_with_fallback(nlp, options)
    if not res.converged:
        print(f"solver failed: {res.status.value} after {res.iterations} iterations",
              file=_sys.stderr)
        return EXIT_SOLVER_FAILURE
    primal = extract_primal(nlp, res.z)

    dual = report = None
    try:
        dual = map_covectors(res, form, system)
        variant = _verification_variant(variant, form)
        report = verify_pontryagin(ocp, primal, dual, system, variant, tol=config.tol_verify)
    except UnsupportedMappingError:
        pass  # forms without a proven route solve fine but skip verification

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
    write_json(_out_path(config, "solution.json"), payload)
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


def cmd_verify(config) -> int:
    ocp, system, form, options, variant, nlp = _transcribed(config)
    variant = _verification_variant(variant, form)
    verified_variant(form)  # forms without a route are a config error here

    res = solve_with_fallback(nlp, options)
    if not res.converged:
        print(f"solver failed: {res.status.value}", file=_sys.stderr)
        return EXIT_SOLVER_FAILURE
    primal = extract_primal(nlp, res.z)
    dual = map_covectors(res, form, system)
    report = verify_pontryagin(ocp, primal, dual, system, variant, tol=config.tol_verify)

    write_json(_out_path(config, "report.json"), report.to_json_dict())
    for name in sorted(report.blocks):
        print(f"  {name:24s} {report.blocks[name]:.6e}")
    print(f"verification {'PASS' if report.passed else 'FAIL'} at tolerance "
          f"{report.tolerance:.3e} (variant {report.variant})")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_indirect(config) -> int:
    ocp = _load_ocp(config)
    system = build_birkhoff(make_grid(config.kind, config.N, ocp.horizon))
    variant = (DualVariant.parse(config.variant)
               if config.variant is not None else DualVariant("a", "b_star"))
    primal, dual = solve_indirect(ocp, system, variant)

    payload = {
        "problem": ocp.name,
        "grid": system.grid.to_json_dict(),
        "variant": str(variant),
        "primal": primal.to_json_dict(),
        "dual": dual.to_json_dict(),
    }
    write_json(_out_path(config, "indirect.json"), payload)
    _write_trajectory_csv(
        _out_path(config, "indirect_trajectory.csv"),
        system.grid.nodes, primal.X, primal.U, dual.costates,
    )
    print(f"indirect objective {primal.objective:.12g}; "
          f"feasibility {primal.feasibility:.3e}")
    return EXIT_OK


def cmd_bench(config) -> int:
    if config.study == "cond":
        orders = config.orders or [8, 16, 32, 64, 128, 256, 512]
        rows = cond_study(config.kind, orders, include_kkt=config.include_kkt)
        csv = _out_path(config, "conditioning.csv")
        write_cond_csv(rows, csv)
        write_cond_gnuplot(csv, _out_path(config, "conditioning.gp"))
        built = [r for r in rows if np.isfinite(r.cond_B_a)]
        if len(built) < 2:  # a slope needs two built orders
            print(f"wrote {csv}; {len(built)} order(s) built, no slopes")
        else:
            names = [r.N for r in built]
            print(f"wrote {csv}; slopes: B_a core "
                  f"{loglog_slope(names, [r.cond_B_a for r in built]):+.4f}, "
                  f"D {loglog_slope(names, [r.cond_D for r in built]):+.4f}")
    else:
        if config.problem is None:
            raise NotFoundError("convergence study needs --problem")
        orders = config.orders or [4, 8, 16, 32]
        form = PrimalForm(config.form, scaled=config.scaled)
        rows = convergence_study(
            config.problem, form, config.kind, orders,
            oracle_order=config.oracle_order,
        )
        csv = _out_path(config, "convergence.csv")
        write_convergence_csv(rows, csv)
        write_convergence_gnuplot(csv, _out_path(config, "convergence.gp"))
        done = sum(r.converged for r in rows)
        print(f"wrote {csv}; {done}/{len(rows)} orders converged")
    return EXIT_OK


def cmd_grids(config) -> int:
    grid = make_grid(config.kind, config.N, config.domain)
    system = build_birkhoff(grid)
    path = _out_path(config, "system.json")
    write_json(path, system.to_json_dict())
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


_BOOL = argparse.BooleanOptionalAction

# destination (the config-file key) -> flag and its add_argument arguments
_FLAGS = {
    "problem": ("--problem", {"help": "registry name or JSON problem path"}),
    "study": ("--study", {"choices": ("cond", "convergence"), "default": "cond",
                        "help": "which study (default cond)"}),
    "kind": ("--grid", {"choices": _KINDS, "default": "lgl", "help": "grid family"}),
    "N": ("--N", {"type": int, "default": 32, "help": "grid order (default 32)"}),
    "orders": ("--orders", {"type": _orders,
                            "help": "comma-separated ascending grid orders"}),
    "domain": ("--domain", {"type": _domain, "default": (-1.0, 1.0),
                            "help": "'t0,tf' (default reference domain)"}),
    "form": ("--form", {"choices": _FORMS, "default": "a",
                        "help": "primal form (default a)"}),
    "scaled": ("--scaled", {"action": _BOOL, "default": False,
                            "help": "scale the node variables by the quadrature weights"}),
    "include_kkt": ("--include-kkt", {"action": _BOOL, "default": False,
                                      "help": "add the (expensive) KKT conditioning "
                                              "column (cond study)"}),
    "oracle_order": ("--oracle-order", {"type": int,
                                        "help": "grid order of the indirect reference "
                                                "solve (convergence study)"}),
    "variant": ("--variant", {"help": "verification variant, e.g. 'a,b_star'"}),
    "tol_feas": ("--tol-feas", {"type": float, "default": SolverOptions.tol_feas,
                                "help": "feasibility tolerance"}),
    "tol_stat": ("--tol-stat", {"type": float, "default": SolverOptions.tol_stat,
                                "help": "stationarity tolerance"}),
    "tol_verify": ("--tol-verify", {"type": float, "help": "optimality-check "
                                    "tolerance (default: defect-budgeted)"}),
    "max_iter": ("--max-iter", {"type": int, "default": SolverOptions.max_iter,
                                "help": "iteration cap"}),
    "out": ("--out", {"default": ".", "help": "output directory (default '.')"}),
}

_SOLVE_FLAGS = ("problem", "kind", "N", "form", "scaled", "variant",
                "tol_feas", "tol_stat", "tol_verify", "max_iter", "out")

# command -> handler, help text, the flags it reads
_COMMANDS = {
    "solve": (cmd_solve, "transcribe, solve, verify", _SOLVE_FLAGS),
    "verify": (cmd_verify, "solve and report optimality blocks", _SOLVE_FLAGS),
    "indirect": (cmd_indirect, "root-find the discretized optimality system",
                 ("problem", "kind", "N", "variant", "out")),
    "bench": (cmd_bench, "conditioning / convergence studies",
              ("study", "kind", "orders", "include_kkt", "problem", "form", "scaled",
               "oracle_order", "out")),
    "grids": (cmd_grids, "build and dump one Birkhoff system",
              ("kind", "N", "domain", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="birktraj",
        description="Trajectory optimization on Birkhoff-interpolation grids.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, dests) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        for dest in dests:
            flag, kwargs = _FLAGS[dest]
            sub.add_argument(flag, dest=dest, **kwargs)
        sub.add_argument("--config", help="JSON config file keyed by flag "
                         "destination; overrides flags")
        sub.set_defaults(handler=handler)
    return parser


def _config_flags(path: str, command: str) -> list[str]:
    """The settings of a JSON config file, written as ``command``'s flags."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(raw) - set(_COMMANDS[command][2]))
    if unknown:
        raise ValueError(f"unknown config keys {unknown} for {command}")
    flags = []
    for dest, value in raw.items():
        flag, kwargs = _FLAGS[dest]
        boolean = kwargs.get("action") is _BOOL
        if boolean and type(value) is bool:
            flags.append(flag if value else "--no-" + flag[2:])
        elif not boolean and type(value) in (str, int, float, list):
            text = ",".join(map(str, value)) if type(value) is list else str(value)
            flags.append(f"{flag}={text}")  # '=': a value may start with '-'
        else:
            raise ValueError(f"config key {dest!r} cannot take {value!r}")
    return flags


# a value such as '-1,1' or '-1e-3': argparse takes any word that starts with
# '-' and is not a plain number for an option
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1,1`` -> ``--flag=-1,1``, so a value may start with '-'."""
    out = []
    for word in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and _NEGATIVE_VALUE.match(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def parse_args(argv=None) -> argparse.Namespace:
    """Defaults < command-line flags < the ``--config`` file."""
    argv = _attach_negative_values(_sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    return parser.parse_args(argv + _config_flags(args.config, args.command))


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.handler(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_CONFIG
    except BirktrajError as exc:
        print(f"failed: {exc}", file=_sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    _sys.exit(main())
