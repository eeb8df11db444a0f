#!/usr/bin/env python3
"""birktraj benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; birktraj is imported from ``src/``.
With ``--trace 0`` the run is untraced and the last line carries the
end-to-end metrics.  With ``--trace 1`` the workload runs untraced for half
of ``--seconds``, then the same runs are replayed with spans recorded; the last
line carries the per-layer metrics.  Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_PASSES = 2
# after the first round of a pass, a case runs again in later rounds while it
# has used less than this in the pass, up to its workload's ``repeats`` runs
REPEAT_BUDGET_S = 2.0


# One BLAS thread, well under nproc.  On a 2-CPU x86_64 container, two
# OpenBLAS threads made one 32-node indirect solve take 22-142 ms (median 45)
# against 19-32 ms (median 24) with one, and ran the large ladder solves no
# faster; the many small dense solves of `studies` and `batch` set the pace.
BLAS_THREADS = 1


def cap_blas_threads() -> int:
    """Set the BLAS thread cap; must run before numpy is imported."""
    cap = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


# One cold set-up in a fresh interpreter: import birktraj and the workloads,
# make the workload's cases and run the warm-up cases.
SETUP_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
    "import workloads; workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])); "
    "[workloads.run_case(c) for c in workloads.WARMUP]; print(time.perf_counter() - t)"
)


def setup_seconds(src: str, workload: str, seed: int) -> float:
    """Time of one cold set-up in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, src, HERE, workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(seed: int, cap: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": cap,
        "seed": seed,
        "git_commit": git_commit(),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_passes(workload, run_case, seconds=None, schedule=None, tracer=None, after_pass=None):
    """Run whole passes over the workload's cases.

    A pass runs every case once, in order, then runs further rounds in the
    same order, where a case runs again while it has used less than
    ``REPEAT_BUDGET_S`` in the pass, up to the workload's ``repeats`` runs.
    The runs of one case are a round apart rather than back to back, so a
    burst of load from other processes rarely covers all of them.

    Without ``schedule``: at least ``MIN_PASSES`` passes, then new ones until
    the next would end after ``seconds``.  With ``schedule`` (as returned by
    an earlier call): exactly the same runs, in the same order.
    ``after_pass`` is called after each pass, outside the pass times.

    Returns [(case, outcome, wall seconds)], the schedule (one (block index,
    [case positions run]) per pass) and the summed pass times.
    """
    records = []
    done = []
    pass_times = []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        index = len(done) if schedule is None else schedule[len(done)][0]
        cases = workload.block(index)
        ran, outcomes = [], []

        def execute(pos: int) -> float:
            if tracer is not None:
                tracer.case_id = len(records) + len(outcomes)
            t0 = time.perf_counter()
            outcome = run_case(cases[pos])
            dt = time.perf_counter() - t0
            ran.append(pos)
            outcomes.append((outcome, dt))
            return dt

        if schedule is None:
            spent = [execute(pos) for pos in range(len(cases))]
            for _ in range(workload.repeats - 1):
                for pos in range(len(cases)):
                    if spent[pos] < REPEAT_BUDGET_S:
                        spent[pos] += execute(pos)
        else:
            for pos in schedule[len(done)][1]:
                execute(pos)
        workload.finish_pass([cases[pos] for pos in ran], [o for o, _ in outcomes])
        records += [(cases[pos], o, dt) for pos, (o, dt) in zip(ran, outcomes)]
        pass_times.append(time.perf_counter() - t_pass)
        done.append((index, ran))
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        if schedule is None:
            if len(done) >= MIN_PASSES and elapsed + statistics.fmean(pass_times) > seconds:
                return records, done, sum(pass_times)
        elif len(done) == len(schedule):
            return records, done, sum(pass_times)


def end_to_end(workload, records, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.

    ``verified_per_s`` counts every run: verified runs per second of case
    time.  The per-case times count each distinct case once, at its fastest
    run: on a shared machine one 0.6 s solve took 0.55-0.83 s in consecutive
    runs, and the fastest run filters that out.  Batch cases run once each.
    """
    best: dict[str, float] = {}
    for case, _, dt in records:
        best[case.id] = min(dt, best.get(case.id, dt))
    times = list(best.values())
    q = workload.tail_percentile
    tail = percentile(times, q)
    tail_info = {"percentile": q, "cases": len(times), "beyond": sum(t > tail for t in times)}
    verified = sum(o.verified for _, o, _ in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verified_per_s": (verified / sum(dt for _, _, dt in records), "1/s"),
        "verified_fraction": (verified / len(records), "ratio"),
        "case_p50_s": (percentile(times, 50.0), "s"),
        "case_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, tail_info


def per_layer(summary, n_cases: int, overhead: float, cond_build_s: float) -> dict:
    s = summary

    def per_case(x):
        return x / n_cases

    in_solve = s.in_solve
    trials = in_solve("transcription.constraints") - in_solve("transcription.jacobian")
    iterations = s.value_of("solver.solve")
    callbacks = [n for n in s.names if n.startswith("ocp.") and n not in
                 ("ocp.registry", "ocp.load_problem", "ocp.prepared")]
    rows = {
        "grid.make_s": (s.total_of("grid.make_grid"), "s/case"),
        "grid.calls": (s.calls_of("grid.make_grid"), "count/case"),
        "grid.self_s": (s.layer_self("grid"), "s/case"),
        "ocp.load_s": (sum(s.total_of(n) for n in
                           ("ocp.registry", "ocp.load_problem", "ocp.prepared")), "s/case"),
        "ocp.callback_s": (sum(s.total_of(n) for n in callbacks), "s/case"),
        "ocp.dynamics_calls": (s.calls_of("ocp.dynamics"), "count/case"),
        "ocp.jac_fx_calls": (s.calls_of("ocp.jac_fx"), "count/case"),
        "ocp.jac_fu_calls": (s.calls_of("ocp.jac_fu"), "count/case"),
        "ocp.self_s": (s.layer_self("ocp"), "s/case"),
        "birkhoff.build_s": (s.total_of("birkhoff.build_birkhoff"), "s/case"),
        "birkhoff.calls": (s.calls_of("birkhoff.build_birkhoff"), "count/case"),
        "birkhoff.failed": (s.failed_of("birkhoff.build_birkhoff"), "count/case"),
        "birkhoff.self_s": (s.layer_self("birkhoff"), "s/case"),
        "transcription.transcribe_s": (s.total_of("transcription.transcribe"), "s/case"),
        "transcription.constraints_s": (s.total_of("transcription.constraints"), "s/case"),
        "transcription.constraints_calls": (s.calls_of("transcription.constraints"), "count/case"),
        "transcription.jacobian_s": (s.total_of("transcription.jacobian"), "s/case"),
        "transcription.jacobian_calls": (s.calls_of("transcription.jacobian"), "count/case"),
        "transcription.hessian_s": (s.total_of("transcription.lagrangian_hessian"), "s/case"),
        "transcription.hessian_calls": (s.calls_of("transcription.lagrangian_hessian"),
                                        "count/case"),
        "transcription.objective_s": (s.total_of("transcription.objective")
                                      + s.total_of("transcription.objective_gradient"), "s/case"),
        "transcription.extract_s": (s.total_of("transcription.extract_primal"), "s/case"),
        "transcription.self_s": (s.layer_self("transcription"), "s/case"),
        "solver.solve_s": (s.total_of("solver.solve"), "s/case"),
        "solver.self_s": (s.self_of("solver.solve"), "s/case"),
        "solver.calls": (s.calls_of("solver.solve"), "count/case"),
        "solver.iterations": (iterations, "count/case"),
        "solver.linesearch_trials": (trials, "count/case"),
        "solver.failed": (s.failed_of("solver.solve"), "count/case"),
        "solver.fallback_retries": (s.fallback_solves - s.calls_of("bench.solve_with_fallback"),
                                    "count/case"),
        "dual.map_s": (s.total_of("dual.map_covectors"), "s/case"),
        "dual.verify_s": (s.total_of("dual.verify_pontryagin"), "s/case"),
        "dual.verify_failed": (s.failed_of("dual.verify_pontryagin"), "count/case"),
        "dual.indirect_s": (s.total_of("dual.solve_indirect"), "s/case"),
        "dual.indirect_calls": (s.calls_of("dual.solve_indirect"), "count/case"),
        "dual.indirect_failed": (s.failed_of("dual.solve_indirect"), "count/case"),
        "dual.self_s": (s.layer_self("dual"), "s/case"),
        "bench.cond_s": (s.total_of("bench.cond_study"), "s/case"),
        "bench.cond_build_s": (cond_build_s, "s/case"),
        "bench.convergence_s": (s.total_of("bench.convergence_study"), "s/case"),
        "bench.self_s": (s.layer_self("bench"), "s/case"),
    }
    metrics = {k: (per_case(v), u) for k, (v, u) in rows.items()}
    metrics["solver.step_acceptance"] = (iterations / max(trials, 1.0), "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def layer_table(summary, n_cases: int, wall: float) -> list[str]:
    """Self time per layer (share of the traced wall time), then every span."""
    lines = [f"{'layer':36s} {'self s/case':>12s} {'share':>7s}"]
    rows = summary.layer_rows() + [("outside any span", wall - summary.top_level_time)]
    for layer, self_t in rows:
        lines.append(f"{layer:36s} {self_t / n_cases:12.6f} {self_t / wall:7.1%}")
    lines.append(f"{'span':36s} {'calls/case':>11s} {'incl s/case':>12s} {'self s/case':>12s}")
    for name, calls, total, self_t in summary.rows():
        lines.append(
            f"{name:36s} {calls / n_cases:11.1f} {total / n_cases:12.6f} {self_t / n_cases:12.6f}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "batch", "studies"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap = cap_blas_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "birktraj", "__init__.py")):
        print(f"error: no birktraj sources under {src}", file=sys.stderr)
        return 2

    # Cold set-ups, one before the timed passes and one after each pass, so
    # that their median is not one moment's speed of a shared machine.  A
    # traced run reports no setup_s and runs none.
    setups = []

    def probe_setup():
        setups.append(setup_seconds(src, args.workload, args.seed))

    if not args.trace:
        probe_setup()
    sys.path.insert(0, src)
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    for case in workloads.WARMUP:
        workloads.run_case(case)

    env = environment(args.seed, cap)
    print("environment " + json.dumps(env, sort_keys=True))

    seconds = args.seconds / 2 if args.trace else args.seconds
    records, schedule, elapsed = run_passes(
        workload, workloads.run_case, seconds=seconds,
        after_pass=None if args.trace else probe_setup,
    )
    failures = [(c.id, o.reason) for c, o, _ in records if not o.verified]
    wrong = [c.id for c, o, _ in records if o.wrong]
    result = {
        "workload": args.workload,
        "environment": env,
        "setup_s": setups,
        "timed_s": elapsed,
        "cases": [
            {"id": c.id, "seconds": dt, "verified": o.verified, "wrong": o.wrong,
             "reason": o.reason}
            for c, o, dt in records
        ],
    }

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_records, _, traced_elapsed = run_passes(
                workload, workloads.run_case, schedule=schedule, tracer=tracer
            )
        summary = tracer.summary()
        n_cases = len(traced_records)
        cond_build_s = sum(
            o.extra.get("build_seconds", 0.0) for c, o, _ in traced_records if c.kind == "cond"
        )
        metrics = per_layer(summary, n_cases, traced_elapsed / elapsed, cond_build_s)
        table = layer_table(summary, n_cases, traced_elapsed)
        result["trace"] = {
            "untraced_s": elapsed,
            "traced_s": traced_elapsed,
            "spans": len(tracer),
            "layer_table": table,
        }
    else:
        metrics, tail_info = end_to_end(workload, records, statistics.median(setups))
        result["tail"] = tail_info
        table = None

    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["failed_fraction"] = len(failures) / len(records)
    result["failed_cases"] = [{"id": i, "reason": r} for i, r in failures]
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.trace:
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))

    print(f"workload {args.workload}: {len(records)} cases in {elapsed:.3f} s, "
          f"{len(failures)} failed (failed_fraction {len(failures) / len(records):.4f}), "
          f"{len(wrong)} wrong")
    if not args.trace:
        print(f"case_tail_s is p{tail_info['percentile']:g} of {tail_info['cases']} "
              f"distinct cases ({tail_info['beyond']} beyond it)")
    for case_id, reason in failures:
        print(f"  failed {case_id}: {reason}")
    if table is not None:
        print(f"traced {n_cases} cases in {traced_elapsed:.3f} s "
              f"(untraced {elapsed:.3f} s), {len(tracer)} spans")
        for line in table:
            print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
