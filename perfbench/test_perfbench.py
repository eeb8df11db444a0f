"""Smoke tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs at a tiny size with its checks; the metric names a run
prints must equal the names in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from birktraj import load_problem, ocp  # noqa: E402


class TinyLadder(workloads.Ladder):
    SIZES = (("double-integrator-energy", (8,)), ("scalar-lq", (8,)), ("nonlinear-scalar", (8,)))


class TinyStudies(workloads.Studies):
    COND = (("lgl", (16, 32, 64)), ("cgl", (16, 32, 64)))
    INDIRECT_N = (8,)


class TinyBatch(workloads.Batch):
    BLOCKS = 1

    def _make_block(self, b):
        return super()._make_block(b)[:6]


TINY = {"ladder": TinyLadder, "batch": TinyBatch, "studies": TinyStudies}


def _benchmark_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[key]}


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_its_checks(name):
    wl = TINY[name](seed=1)
    cases = wl.block(0)
    outcomes = [workloads.run_case(c) for c in cases]
    wl.finish_pass(cases, outcomes)
    assert not any(o.wrong for o in outcomes), [o.reason for o in outcomes]
    if name != "batch":  # registry problems and studies all verify at these sizes
        assert all(o.verified for o in outcomes), [o.reason for o in outcomes]
    assert all(o.verified or o.reason for o in outcomes)


def test_batch_inputs_are_byte_identical_per_seed():
    first = workloads.Batch(7).problems_json()
    assert first == workloads.Batch(7).problems_json()
    assert first != workloads.Batch(8).problems_json()
    block = workloads.Batch(7).block(0)
    assert {tuple(c.spec[k] for k in ("grid", "form")) for c in block} == {
        (g, f) for g in workloads.GRIDS for f in workloads.FORMS
    }
    for case in block:
        problem = load_problem(case.spec["problem"])
        assert 1 <= problem.n_x <= 3 and 1 <= problem.n_u <= 2
        assert 8 <= case.spec["N"] <= 24


def test_oracle_mismatch_is_wrong(monkeypatch):
    real = ocp.registry_solution

    def shifted(name):
        sol = real(name)
        return sol.__class__(sol.cost + 1e-6, sol.state, sol.control, sol.costate)

    monkeypatch.setattr(ocp, "registry_solution", shifted)
    case = workloads.Case("x", "pipeline", {"registry": "scalar-lq", "N": 8, "grid": "lgl",
                                            "form": "a"})
    outcome = workloads.run_case(case)
    assert outcome.wrong and not outcome.verified and "oracle" in outcome.reason


def test_flat_conditioning_slope_is_wrong():
    wl = TinyStudies(seed=0)
    cases = [c for c in wl.block(0) if c.kind == "cond"]
    outcomes = [workloads.run_case(c) for c in cases]
    for o in outcomes:
        o.extra["cond_D"] = 1.0  # D no longer grows like N^2
    wl.finish_pass(cases, outcomes)
    assert all(o.wrong and "slopes" in o.reason for o in outcomes)


def test_budget_exhaustion_is_a_failure_not_wrong():
    case = workloads.Case("x", "pipeline", {"registry": "double-integrator-energy", "N": 8,
                                            "grid": "lgl", "form": "a", "budget": 3})
    outcome = workloads.run_case(case)
    assert not outcome.verified and not outcome.wrong and "Budget" in outcome.reason


def test_traced_replay_runs_the_same_cases(monkeypatch):
    """Repeat counts depend on measured time; the replay must not."""
    monkeypatch.setattr(run, "REPEAT_BUDGET_S", 0.1)
    wl = TinyLadder(seed=0)
    ids = [c.id for c in wl.block(0)]
    slow = {ids[0]: 0.06, ids[1]: 0.0}  # runs 2 and 3 times in the timed run

    def timed_case(case):
        run.time.sleep(slow.get(case.id, 0.001))
        return workloads.Outcome(verified=True)

    records, schedule, _ = run.run_passes(wl, timed_case, seconds=0.0)
    assert [sum(c.id == i for c, _, _ in records) for i in ids[:2]] == [2 * 2, 2 * 3]

    slow.update({ids[0]: 0.0, ids[1]: 0.06})  # the traced run is slower elsewhere
    replayed, _, _ = run.run_passes(wl, timed_case, schedule=schedule)
    assert [c.id for c, _, _ in replayed] == [c.id for c, _, _ in records]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(monkeypatch, capsys, trace, key):
    monkeypatch.setitem(workloads.WORKLOADS, "ladder", TinyLadder)
    assert run.main(["--workload", "ladder", "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    line = _last_json(capsys.readouterr().out)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == _benchmark_names(key)
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
