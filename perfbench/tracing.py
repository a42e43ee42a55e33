"""Spans and counts at the boundaries between hamdelay's modules.

The tracer wraps public functions at the name each caller looks them up
under (`hamdelay.solvers.vector_field`, `hamdelay.cli.enumerate_chords`,
`DiscreteCurve.from_function`, ...), so the program itself is unchanged.
Every wrapped call records a span (name, start, end, parent, operation id)
in memory; counts are taken at the same boundaries.  A span's self time is
its duration minus the time its child spans cover, and a layer's self time
is the sum over its spans; the layer is the part of the span name before
the first dot, which is the module name.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from time import perf_counter

import numpy as np

import hamdelay.action
import hamdelay.cli
import hamdelay.solvers
import hamdelay.transforms
from hamdelay.hamiltonians import StructuredHamiltonian
from hamdelay.solvers import SolveFailure
from hamdelay.transforms import DiscreteCurve

LAYERS = ("cli", "solvers", "hamiltonians", "delaygen", "transforms", "action", "geometry")
ROOT = "cli.op"


def _rows(arr, trailing=2):
    shape = np.shape(arr)
    return math.prod(shape[:-trailing]) if len(shape) > trailing else 1


def _count_shoot(c, args, kwargs, result):
    c["solvers.shoot_residual.rows"] += _rows(args[2])
    c["solvers.rk4_steps"] += _n_steps(args, kwargs)


def _count_integrate(c, args, kwargs, result):
    c["solvers.rk4_steps"] += _n_steps(args, kwargs)


def _n_steps(args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg", hamdelay.solvers.IntegratorConfig())
    return cfg.n_steps


def _count_vector_field(c, args, kwargs, result):
    c["hamiltonians.vector_field.rows"] += _rows(args[2])


def _count_rhs_eval(c, args, kwargs, result):
    c["delaygen.rhs_eval.points"] += int(np.size(args[2]))


def _count_from_function(c, args, kwargs, result):
    c["transforms.from_function.points"] += result.samples.shape[0]


def _count_enumerate(c, args, kwargs, result):
    d = result.diagnostics
    c["solvers.seeds"] += d["seeds"]
    c["solvers.seeds_solved"] += d["solved"]
    c["solvers.chords_kept"] += result.count()
    for reason, n in d["failures"].items():
        c[f"solvers.failures.{reason}"] += n


def _count_periodic(c, args, kwargs, result):
    if isinstance(result, SolveFailure):
        c["solvers.solve_periodic_delay.failed"] += 1


# (owner, attribute, span name, count hook); owners are modules or classes.
PATCHES = [
    (hamdelay.cli, "enumerate_chords", "solvers.enumerate_chords", _count_enumerate),
    (hamdelay.cli, "solve_periodic_delay", "solvers.solve_periodic_delay", _count_periodic),
    (hamdelay.cli, "delay_residual", "solvers.delay_residual", None),
    (hamdelay.cli, "pullback_chord", "solvers.pullback_chord", None),
    (hamdelay.cli, "write_chord_csv", "solvers.write_csv", None),
    (hamdelay.cli, "write_loop_csv", "solvers.write_csv", None),
    (hamdelay.solvers, "integrate", "solvers.integrate", _count_integrate),
    (hamdelay.solvers, "shoot_residual", "solvers.shoot_residual", _count_shoot),
    (hamdelay.solvers, "vector_field", "hamiltonians.vector_field", _count_vector_field),
    (hamdelay.solvers, "rhs_eval", "delaygen.rhs_eval", _count_rhs_eval),
    (hamdelay.cli, "lift", "hamiltonians.lift", None),
    (hamdelay.action, "lift", "hamiltonians.lift", None),
    (StructuredHamiltonian, "value", "hamiltonians.value", None),
    (hamdelay.cli, "generate", "delaygen.generate", None),
    (hamdelay.cli, "render", "delaygen.render", None),
    (hamdelay.cli, "pushforward_gap", "action.pushforward_gap", None),
    (hamdelay.cli, "psi_chain", "transforms.psi_chain", None),
    (hamdelay.action, "psi_chain", "transforms.psi_chain", None),
    (hamdelay.cli, "phi_chain", "transforms.phi_chain", None),
    (hamdelay.solvers, "phi_chain", "transforms.phi_chain", None),
    (hamdelay.cli, "resample", "transforms.resample", None),
    (hamdelay.cli, "compare_tau_tables", "transforms.compare_tau_tables", None),
    (DiscreteCurve, "from_function", "transforms.from_function", _count_from_function),
    (hamdelay.cli, "build_level", "geometry.build_level", None),
    (hamdelay.action, "build_level", "geometry.build_level", None),
    (hamdelay.transforms, "build_level", "geometry.build_level", None),
]

# Counts compared across traced rounds of one seed by the determinism check.
DETERMINISM_KEYS = (
    "solvers.shoot_residual.calls",
    "solvers.integrate.calls",
    "hamiltonians.vector_field.calls",
    "delaygen.rhs_eval.calls",
    "solvers.solve_periodic_delay.calls",
)


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self._child_s: list[float] = []
        self._stack: list[int] = []
        self._open = Counter()
        self._saved: list = []
        self.op_id = -1
        self.counts = Counter()
        self.total_s = Counter()
        self.self_s = Counter()

    # -- recording

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self._child_s.append(0.0)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self._open[name] += 1
        self.counts[f"{name}.calls"] += 1
        if name == "delaygen.rhs_eval" and self._open["solvers.solve_periodic_delay"]:
            self.counts["solvers.periodic.rhs_evals"] += 1
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        t1 = perf_counter()
        self.ends[idx] = t1
        self._stack.pop()
        name = self.names[idx]
        self._open[name] -= 1
        dur = t1 - self.starts[idx]
        parent = self.parents[idx]
        if parent >= 0:
            self._child_s[parent] += dur
        self.total_s[name] += dur
        self.self_s[name] += dur - self._child_s[idx]

    def wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, hook in PATCHES:
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self.wrap(name, fn, hook)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def snapshot(self) -> tuple:
        return Counter(self.counts), Counter(self.total_s), Counter(self.self_s)

    # -- output

    def write(self, path) -> None:
        """Writes every span as columns: name, start, end, parent, op."""
        t0 = self.starts[0] if self.starts else 0.0
        data = {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "names": sorted(set(self.names)),
            "spans": [
                [n, round(s - t0, 9), round(e - t0, 9), p, o]
                for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.op_ids)
            ],
        }
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")


def diff(after: tuple, before: tuple) -> tuple:
    """Per-round deltas of (counts, total seconds, self seconds)."""
    return tuple(Counter({k: a[k] - b.get(k, 0) for k in a}) for a, b in zip(after, before))


def layer_metrics(counts: Counter, total_s: Counter, self_s: Counter) -> dict:
    """The named per-layer numbers of one traced round, without units."""
    c, t = counts, total_s
    seeds, solved = c["solvers.seeds"], c["solvers.seeds_solved"]
    solves = c["solvers.solve_periodic_delay.calls"]
    out = {
        "cli.ops": c[f"{ROOT}.calls"],
        "cli.exit.0": c["cli.exit.0"],
        "cli.exit.1": c["cli.exit.1"],
        "cli.exit.2": c["cli.exit.2"],
        "cli.raised": c["cli.raised"],
        "geometry.build_level.calls": c["geometry.build_level.calls"],
        "geometry.build_level.s": t["geometry.build_level"],
        "transforms.from_function.calls": c["transforms.from_function.calls"],
        "transforms.from_function.points": c["transforms.from_function.points"],
        "transforms.from_function.s": t["transforms.from_function"],
        "transforms.psi_chain.s": t["transforms.psi_chain"],
        "transforms.phi_chain.s": t["transforms.phi_chain"],
        "transforms.resample.s": t["transforms.resample"],
        "hamiltonians.vector_field.calls": c["hamiltonians.vector_field.calls"],
        "hamiltonians.vector_field.rows": c["hamiltonians.vector_field.rows"],
        "hamiltonians.vector_field.s": t["hamiltonians.vector_field"],
        "hamiltonians.value.calls": c["hamiltonians.value.calls"],
        "hamiltonians.value.s": t["hamiltonians.value"],
        "hamiltonians.lift.calls": c["hamiltonians.lift.calls"],
        "hamiltonians.lift.s": t["hamiltonians.lift"],
        "delaygen.rhs_eval.calls": c["delaygen.rhs_eval.calls"],
        "delaygen.rhs_eval.points": c["delaygen.rhs_eval.points"],
        "delaygen.rhs_eval.s": t["delaygen.rhs_eval"],
        "delaygen.generate.s": t["delaygen.generate"],
        "delaygen.render.s": t["delaygen.render"],
        "solvers.enumerate_chords.calls": c["solvers.enumerate_chords.calls"],
        "solvers.enumerate_chords.s": t["solvers.enumerate_chords"],
        "solvers.integrate.calls": c["solvers.integrate.calls"],
        "solvers.integrate.s": t["solvers.integrate"],
        "solvers.shoot_residual.calls": c["solvers.shoot_residual.calls"],
        "solvers.shoot_residual.rows": c["solvers.shoot_residual.rows"],
        "solvers.shoot_residual.s": t["solvers.shoot_residual"],
        "solvers.rk4_steps": c["solvers.rk4_steps"],
        "solvers.newton.self_s": t["solvers.enumerate_chords"] - t["solvers.shoot_residual"] - t["solvers.integrate"],
        "solvers.seeds": seeds,
        "solvers.seeds_solved": solved,
        "solvers.chords_kept": c["solvers.chords_kept"],
        "solvers.failures.no-convergence": c["solvers.failures.no-convergence"],
        "solvers.failures.singular-jacobian": c["solvers.failures.singular-jacobian"],
        "solvers.solved_per_seed": solved / seeds if seeds else 0.0,
        "solvers.kept_per_solved": c["solvers.chords_kept"] / solved if solved else 0.0,
        "solvers.solve_periodic_delay.calls": solves,
        "solvers.solve_periodic_delay.s": t["solvers.solve_periodic_delay"],
        "solvers.solve_periodic_delay.failed": c["solvers.solve_periodic_delay.failed"],
        "solvers.periodic.rhs_evals_per_solve": c["solvers.periodic.rhs_evals"] / solves if solves else 0.0,
        "action.pushforward_gap.calls": c["action.pushforward_gap.calls"],
        "action.pushforward_gap.s": t["action.pushforward_gap"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    return out
