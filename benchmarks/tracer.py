"""Span tracing of kkdamp from outside the package.

The tracer replaces public functions and methods with timing wrappers at
every name they are looked up under (a module that did
`from .solver import hyperbolic_substep` holds its own binding, so each
binding is patched), records one span per call in memory, and restores
the originals on exit. Nothing inside `kkdamp` is modified on disk.

A span is (name, start, end, parent index). Self time is a span's
duration minus the time its direct children cover; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from kkdamp import analysis, cli, entropy, model, region, scenario, solver, viscous
from kkdamp.errors import KKDampError

# (span name, module that owns the error count, owner object, attribute).
# Owners that lack the attribute are skipped, so a later refactor that
# removes a function leaves its metrics at zero instead of breaking the run.
FUNCTION_TARGETS = [
    ("cli.main", "cli", cli, "main"),
    ("scenario.parse", "scenario", scenario, "parse_scenario"),
    ("scenario.run_scenario", "scenario", scenario, "run_scenario"),
    ("solver.simulate", "solver", solver, "simulate"),
    ("solver.step_once", "solver", solver, "step_once"),
    ("solver.hyperbolic_substep", "solver", solver, "hyperbolic_substep"),
    ("solver.damping_substep", "solver", solver, "damping_substep"),
    ("solver.max_wavespeed", "solver", solver, "max_wavespeed"),
    ("solver.write_snapshot", "solver", solver, "write_snapshot"),
    ("viscous.viscous_simulate", "viscous", viscous, "viscous_simulate"),
    ("viscous.viscous_step", "viscous", viscous, "viscous_step"),
    ("viscous.stable_dt", "viscous", viscous, "stable_dt"),
    ("viscous.vanishing_viscosity_sweep", "viscous", viscous, "vanishing_viscosity_sweep"),
    ("analysis.decay_harness", "analysis", analysis, "decay_harness"),
    ("analysis.riemann_invariant_diagnostics", "analysis", analysis,
     "riemann_invariant_diagnostics"),
    ("analysis.lp_norm", "analysis", analysis, "lp_norm"),
    ("region.trajectory_containment", "region", region, "trajectory_containment"),
    ("region.boundary_flow_check", "region", region, "boundary_flow_check"),
    ("entropy.power_entropy_pair", "entropy", entropy, "power_entropy_pair"),
]

METHOD_TARGETS = [
    ("model.phi", "model", model.PhiModel, "phi"),
    ("model.r_dphi", "model", model.PhiModel, "r_dphi"),
    ("scenario.initial_field", "scenario", scenario.Scenario, "initial_field"),
]


def _kkdamp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kkdamp" or name.startswith("kkdamp."))]


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, module: str, fn):
        spans, stack, errors, clock = self.spans, self._stack, self.errors, time.perf_counter
        after = self._snapshot_bytes if name == "solver.write_snapshot" else None

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except KKDampError:
                errors[module] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _snapshot_bytes(self, path):
        self.counts["solver.write_snapshot.bytes"] += os.path.getsize(path)

    def _count_validation(self, fn):
        counts = self.counts

        def post_init(obj):
            counts["solver.state_validations"] += 1
            return fn(obj)

        return post_init

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = _kkdamp_modules()
        for name, module, owner, attr in FUNCTION_TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            wrapper = self._wrap(name, module, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, key, wrapper)
        for name, module, cls, attr in METHOD_TARGETS:
            if attr in cls.__dict__:
                self._set(cls, attr, self._wrap(name, module, cls.__dict__[attr]))
        self._set(solver.StateField, "__post_init__",
                  self._count_validation(solver.StateField.__dict__["__post_init__"]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[k]
        return out

    def write(self, path):
        """Spans as TSV: index, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("# index\tname\tstart_s\tend_s\tparent\n")
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


@contextmanager
def march_timer():
    """Untraced clock around the outermost marching-loop calls only
    (`solver.simulate`, `viscous.viscous_simulate`): one clock pair per
    march, so the end-to-end run stays effectively untraced. Yields a dict
    accumulating march seconds and cell-steps."""
    acc = {"s": 0.0, "cell_steps": 0}
    depth = [0]
    undo = []
    modules = _kkdamp_modules()

    def wrap(fn):
        def timed(init, *args, **kwargs):
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                traj = fn(init, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                acc["s"] += time.perf_counter() - t0
                acc["cell_steps"] += traj.n_steps * init.grid.n_cells
            return traj
        return timed

    for owner, attr in ((solver, "simulate"), (viscous, "viscous_simulate")):
        fn = owner.__dict__.get(attr)
        if fn is None:
            continue
        timed = wrap(fn)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    undo.append((mod, key, fn))
                    setattr(mod, key, timed)
    try:
        yield acc
    finally:
        for mod, key, fn in reversed(undo):
            setattr(mod, key, fn)
