"""Spans recorded from outside birktraj, around the calls into each layer.

Nothing in the package is changed.  While a :class:`Tracer` is installed:

* the public functions listed in ``TRACED_FUNCTIONS`` are replaced, in every
  birktraj module that refers to them, by wrappers that record a span; the
  layers call one another through these module attributes, so the calls made
  inside the package (``bench.solve_with_fallback`` calling ``solve``,
  ``transcribe`` calling ``prepared``, ...) are timed too;
* ``transcribe`` returns a :class:`TracedNlp` proxy whose evaluation methods
  record spans;
* problems returned by ``registry`` and ``load_problem`` get their callbacks
  wrapped with ``dataclasses.replace`` before anything prepares them, so the
  Mayer augmentation closes over the wrapped callbacks.

A span is (name, start, end, parent span, case id, status).  Spans live in
compact arrays in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("grid", "birkhoff", "ocp", "transcription", "solver", "dual", "bench")

TRACED_FUNCTIONS = (
    ("grid", "make_grid"),
    ("birkhoff", "build_birkhoff"),
    ("ocp", "registry"),
    ("ocp", "load_problem"),
    ("ocp", "prepared"),
    ("transcription", "transcribe"),
    ("transcription", "initial_guess"),
    ("transcription", "extract_primal"),
    ("solver", "solve"),
    ("dual", "map_covectors"),
    ("dual", "verify_pontryagin"),
    ("dual", "solve_indirect"),
    ("bench", "solve_with_fallback"),
    ("bench", "cond_study"),
    ("bench", "convergence_study"),
)

NLP_METHODS = (
    "constraints",
    "jacobian",
    "objective",
    "objective_gradient",
    "lagrangian_hessian",
)

OCP_CALLBACKS = ("dynamics", "jac_fx", "jac_fu")
RUNNING_COST_CALLBACKS = ("fun", "grad_x", "grad_u")

# span status
OK, RAISED, REPORTED_FAILURE = 0, 1, 2


def _solve_status(result):
    return (OK if result.converged else REPORTED_FAILURE), float(result.iterations)


def _verify_status(report):
    return (OK if report.passed else REPORTED_FAILURE), 0.0


_RESULT_STATUS = {
    "solver.solve": _solve_status,
    "dual.verify_pontryagin": _verify_status,
}


class TracedNlp:
    """Proxy for a transcribed NLP whose evaluation methods record spans."""

    def __init__(self, nlp, tracer: "Tracer"):
        self._nlp = nlp
        for method in NLP_METHODS:
            fn = getattr(nlp, method, None)
            if fn is not None:
                setattr(self, method, tracer.wrap(f"transcription.{method}", fn))

    def __getattr__(self, attr):
        return getattr(self._nlp, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.status = array("b")
        self.value = array("d")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.case_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        inspect = _RESULT_STATUS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.case.append(self.case_id)
            self.status.append(RAISED)
            self.value.append(0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open.pop()
                self.start[i] = t0
                self.end[i] = t1
            if inspect is None:
                self.status[i] = OK
            else:
                self.status[i], self.value[i] = inspect(out)
            return out

        return traced

    def traced_problem(self, ocp):
        """Same problem with every user callback wrapped."""
        fields = {cb: self.wrap(f"ocp.{cb}", getattr(ocp, cb)) for cb in OCP_CALLBACKS}
        rc = ocp.running_cost
        if rc is not None:
            fields["running_cost"] = dataclasses.replace(
                rc,
                **{
                    cb: self.wrap(f"ocp.running_{cb}", getattr(rc, cb))
                    for cb in RUNNING_COST_CALLBACKS
                    if getattr(rc, cb) is not None
                },
            )
        return dataclasses.replace(ocp, **fields)

    def _replacement(self, layer: str, fname: str, fn):
        traced = self.wrap(f"{layer}.{fname}", fn)
        if (layer, fname) == ("transcription", "transcribe"):
            return lambda *a, **k: TracedNlp(traced(*a, **k), self)
        if layer == "ocp" and fname in ("registry", "load_problem"):
            return lambda *a, **k: self.traced_problem(traced(*a, **k))
        return traced

    @contextmanager
    def installed(self):
        """Patch the layer functions into every birktraj module; undo on exit."""
        modules = [importlib.import_module(f"birktraj.{m}") for m in LAYERS]
        by_name = dict(zip(LAYERS, modules))
        saved = []
        try:
            for layer, fname in TRACED_FUNCTIONS:
                original = getattr(by_name[layer], fname)
                replacement = self._replacement(layer, fname, original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        saved.append((mod, fname, original))
                        setattr(mod, fname, replacement)
            yield self
        finally:
            for mod, fname, original in reversed(saved):
                setattr(mod, fname, original)

    # --- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "case": np.frombuffer(self.case, dtype=np.int32).copy(),
            "status": np.frombuffer(self.status, dtype=np.int8).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        data = self.arrays()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **data)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())


class SpanSummary:
    """Per-name totals of a span table: calls, inclusive time, self time."""

    def __init__(self, names: list[str], spans: dict):
        self.names = names
        n_names = len(names)
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        covered = np.zeros(dur.size)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered

        self.calls = np.bincount(name, minlength=n_names)
        self.total = np.bincount(name, weights=dur, minlength=n_names)
        self.self_time = np.bincount(name, weights=self_time, minlength=n_names)
        self.raised = np.bincount(name, weights=spans["status"] == RAISED, minlength=n_names)
        self.reported = np.bincount(
            name, weights=spans["status"] == REPORTED_FAILURE, minlength=n_names
        )
        self.value = np.bincount(name, weights=spans["value"], minlength=n_names)

        # spans nested (at any depth) inside a solve: one step of depth per sweep
        solve_id = self._id("solver.solve")
        up = np.where(has_parent, parent, 0)
        inside = np.zeros(dur.size, dtype=bool)
        while True:
            deeper = has_parent & ((name[up] == solve_id) | inside[up])
            if np.array_equal(deeper, inside):
                break
            inside = deeper
        self.calls_in_solve = np.bincount(name[inside], minlength=n_names)
        self.top_level_time = float(dur[~has_parent].sum())

        # solves started directly by solve_with_fallback
        fallback_id = self._id("bench.solve_with_fallback")
        direct = has_parent & (name == solve_id)
        direct[direct] = name[parent[direct]] == fallback_id
        self.fallback_solves = int(np.count_nonzero(direct))

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def _pick(self, table, name: str) -> float:
        i = self._id(name)
        return float(table[i]) if i >= 0 else 0.0

    def calls_of(self, name: str) -> float:
        return self._pick(self.calls, name)

    def total_of(self, name: str) -> float:
        return self._pick(self.total, name)

    def self_of(self, name: str) -> float:
        return self._pick(self.self_time, name)

    def failed_of(self, name: str) -> float:
        return self._pick(self.raised, name) + self._pick(self.reported, name)

    def value_of(self, name: str) -> float:
        return self._pick(self.value, name)

    def in_solve(self, name: str) -> float:
        return self._pick(self.calls_in_solve, name)

    def layer_self(self, layer: str) -> float:
        return float(
            sum(self.self_time[i] for i, n in enumerate(self.names) if n.split(".")[0] == layer)
        )

    def layer_rows(self):
        """(layer, self s) for every layer, largest first."""
        return sorted(((layer, self.layer_self(layer)) for layer in LAYERS), key=lambda r: -r[1])

    def rows(self):
        """(name, calls, inclusive s, self s) for every span name, by self time."""
        out = [
            (n, int(self.calls[i]), float(self.total[i]), float(self.self_time[i]))
            for i, n in enumerate(self.names)
        ]
        return sorted(out, key=lambda r: -r[3])
