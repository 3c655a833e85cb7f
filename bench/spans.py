"""In-memory span tracing of the seqcontext package, installed from outside it.

``Tracer.install`` replaces every public function of the nine package modules
on each namespace that binds it, so the name a caller looks up (for example
``seqcontext.equivalence_lp.solve_lp`` or ``seqcontext.sequence.evolve_average``)
runs through a wrapper. The wrapper records one span per call: name, start,
end, parent span, operation id and outcome. ``uninstall`` restores the
original functions. Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("operators", "ensembles", "sequence", "sampling", "planner", "equivalence_lp", "simplex", "selfcheck", "cli")

RAISED = 1
NOT_OPTIMAL = 2
NESTED = 4  # a span of the same name is already open: its time is already counted once

# Values kept with a span, computed from the call's arguments.
NOTES = {
    "cli.main": lambda argv=None: argv[0] if argv else None,
    # 2^n density matrices of dim^2 complex128 entries, dim = 2^(n // 2)
    "sequence.run_sequence": lambda n, q, etas: 2**n * 4 ** (n // 2) * 16,
}

SELFCHECKS = (
    "check_anticommutation",
    "check_povm_completeness",
    "check_visibility_lemma",
    "check_sandwich",
    "check_equivalence_preserved",
    "check_lp_oracle",
)
SUBCOMMANDS = ("witness", "chain", "plan", "anonymous", "lp", "sample", "sweep", "verify")

LAYER_METRICS = (
    ("operators.build_observables.s", "s"),
    ("ensembles.build_preparation.calls", "count"),
    ("ensembles.build_preparation.self_s", "s"),
    ("sequence.marginal_probability.calls", "count"),
    ("sequence.marginal_probability.self_s", "s"),
    ("sequence.evolve_average.calls", "count"),
    ("sequence.evolve_average.self_s", "s"),
    ("sequence.run_sequence.s", "s"),
    ("sequence.state_bytes", "bytes"),
    ("sampling.sample_counts.calls", "count"),
    ("sampling.sample_counts.s", "s"),
    ("planner.critical_chain.calls", "count"),
    ("planner.critical_chain.self_s", "s"),
    ("planner.anonymous_optimum.s", "s"),
    ("equivalence_lp.enforce_equivalences.s", "s"),
    ("equivalence_lp.enforce_equivalences.self_s", "s"),
    ("simplex.solve_lp.primary.s", "s"),
    ("simplex.solve_lp.tiebreak.s", "s"),
    ("simplex.solve_lp.calls", "count"),
    ("simplex.solve_lp.failed", "count"),
    ("simplex.tiebreak.useful_ratio", "ratio"),
    *((f"selfcheck.{name}.s", "s") for name in SELFCHECKS),
    *((f"cli.{name}.s", "s") for name in SUBCOMMANDS),
    ("cli.self_s", "s"),
)


class Tracer:
    """Span recorder. Columns are parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.flags = array("b")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.op_id = -1  # operation the next spans belong to; -1 is set-up
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        note = NOTES.get(name)
        names, parents, ops, flags = self.name, self.parent, self.op, self.flags
        starts, ends, stack, active = self.start, self.end, self._stack, self._active
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            flags.append(NESTED if active[nid] else 0)
            if note is not None:
                tracer.notes[idx] = note(*args, **kwargs)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flags[idx] |= RAISED
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1
            if getattr(result, "status", "optimal") != "optimal":
                flags[idx] |= NOT_OPTIMAL
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("seqcontext")
        modules = [importlib.import_module(f"seqcontext.{short}") for short in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(fn, f"{short}.{attr}")
        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(namespace, attr, wrappers[value])
                    self._patched.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another in a single thread, so their
    durations never overlap and their sum is the covered part of the parent.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)


def summary(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds (outermost spans only), self seconds, failed calls."""
    name = np.asarray(tracer.name, dtype=np.int64)
    flags = np.asarray(tracer.flags, dtype=np.int64)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    self_s = self_times(tracer.start, tracer.end, tracer.parent)
    outer = (flags & NESTED) == 0
    size = len(tracer.names)
    calls = np.bincount(name, minlength=size)
    busy = np.bincount(name[outer], weights=dur[outer], minlength=size)
    own = np.bincount(name, weights=self_s, minlength=size)
    failed = np.bincount(name[(flags & (RAISED | NOT_OPTIMAL)) != 0], minlength=size)
    return {
        label: {"calls": int(calls[i]), "s": float(busy[i]), "self_s": float(own[i]), "failed": int(failed[i])}
        for i, label in enumerate(tracer.names)
    }


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in LAYER_METRICS, as name -> (value, unit)."""
    table = summary(tracer)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0}
    values: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        span, _, key = metric.rpartition(".")
        if key in empty:
            values[metric] = table.get(span, empty)[key]

    ids = tracer._ids
    name = np.asarray(tracer.name, dtype=np.int64)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    parent = list(tracer.parent)

    # Within enforce_equivalences the first solve_lp is the primary solve, the second the tie-break.
    phase_s = {"primary": 0.0, "tiebreak": 0.0}
    tiebreaks = useful = 0
    enforce = ids.get("equivalence_lp.enforce_equivalences", -1)
    seen: dict[int, int] = {}
    for idx in np.flatnonzero(name == ids.get("simplex.solve_lp", -1)):
        up = parent[idx]
        if up < 0 or name[up] != enforce:
            continue
        seen[up] = seen.get(up, 0) + 1
        phase = "primary" if seen[up] == 1 else "tiebreak"
        phase_s[phase] += float(dur[idx])
        if phase == "tiebreak":
            tiebreaks += 1
            useful += not tracer.flags[idx] & (RAISED | NOT_OPTIMAL)
    values["simplex.solve_lp.primary.s"] = phase_s["primary"]
    values["simplex.solve_lp.tiebreak.s"] = phase_s["tiebreak"]
    values["simplex.tiebreak.useful_ratio"] = useful / tiebreaks if tiebreaks else 0.0

    run_ids = np.flatnonzero(name == ids.get("sequence.run_sequence", -1))
    values["sequence.state_bytes"] = float(max((tracer.notes[i] for i in run_ids), default=0))

    main = ids.get("cli.main", -1)
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.s"] = float(
            sum(dur[i] for i in np.flatnonzero(name == main) if tracer.notes.get(i) == sub)
        )
    values["cli.self_s"] = sum(v["self_s"] for k, v in table.items() if k.startswith("cli."))
    return {metric: (values[metric], unit) for metric, unit in LAYER_METRICS}
