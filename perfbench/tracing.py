"""Spans around the public functions of every dcelab module.

The tracer swaps each public module-level function of ``dcelab.*`` for a
wrapper that records a span (name, start, end, parent) and, for the layers
named in ``_WORK``, a work count computed from the call's inputs or
result. Every module attribute bound to the original function is swapped,
so names imported elsewhere (``from .gate import open_evolve``) are traced
too. Wall trajectories returned by a public function get counting
position/velocity/acceleration callables. Leaving the ``with`` block
restores the originals. Spans stay in memory; metrics are computed when the pass ends.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

__all__ = ["Tracer", "PER_LAYER", "layer_metrics"]


def _bind(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def _sim_time(args, result):
    """Simulated omega_1 t of one integrate_modes call."""
    amps = result[0] if isinstance(result, tuple) else result
    spec, traj, amps0 = args["spec"], args["traj"], args["amps0"]
    t0 = traj.t_start if amps0 is None else amps0.t
    return {"bogoliubov.sim_time": (amps.t - t0) * math.pi / spec.length}


def _periods(args, result):
    p = args["params"]
    return {"gate.lab_frame_branch.periods": p.omega_d * p.t_gate / (2.0 * math.pi)}


# layer -> work count from (bound arguments, result)
_WORK = {
    "bogoliubov.integrate_modes": _sim_time,
    "moore.energy_density": lambda a, r: {
        "moore.density_points": np.broadcast(np.asarray(a["x"]), np.asarray(a["t"])).size},
    "otto.velocity_transform": lambda a, r: {
        "otto.velocity_transform.freqs": np.size(a["a_values"])},
    "gate.lab_frame_branch": _periods,
    "squid.solve_spectrum": lambda a, r: {"squid.roots": len(r)},
    "output.write_table": lambda a, r: {"output.bytes_written": r.stat().st_size},
}


class Tracer:
    """Records spans of the wrapped dcelab functions while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []         # open spans; the CLI runs with one thread
        self._swapped = []       # (module, attribute, original)

    def _wrap(self, name, fn):
        work = _WORK.get(name)
        arguments = _bind(fn) if work else None
        from dcelab.trajectories import WallTrajectory

        def wrapper(*args, **kwargs):
            stack = self._stack
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if work:
                self.counts.update(work(arguments(args, kwargs), result))
            if isinstance(result, WallTrajectory):
                result = self._counting(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, traj):
        counts = self.counts

        def counted(f):
            def g(t):
                counts["trajectories.evals"] += 1
                return f(t)
            return g
        return dataclasses.replace(traj, position=counted(traj.position),
                                   velocity=counted(traj.velocity),
                                   acceleration=counted(traj.acceleration))

    def __enter__(self):
        modules = {n: m for n, m in sys.modules.items()
                   if n.startswith("dcelab.") and m is not None}
        for modname, mod in modules.items():
            for attr in getattr(mod, "__all__", []):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != modname:
                    continue
                wrapper = self._wrap(f"{modname.split('.')[-1]}.{attr}", fn)
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)
                            self._swapped.append((other, key, fn))
        return self

    def __exit__(self, *exc):
        for mod, key, fn in reversed(self._swapped):
            setattr(mod, key, fn)
        self._swapped.clear()
        return False

    def summary(self):
        """busy (outermost spans), self time and call count per span name."""
        busy, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            p, nested = parent, False
            while p is not None and not nested:
                nested = self.spans[p][0] == name
                p = self.spans[p][3]
            if not nested:
                busy[name] += end - start
        return busy, self_s, calls


# Per-layer metrics: name -> unit. "cli.run.<stem>_s" entries are added by
# the runner for every shipped config.
PER_LAYER = {
    "bogoliubov.integrate_modes.busy_s": "s",
    "bogoliubov.integrate_modes.calls": "count",
    "bogoliubov.sim_time": "w1t",
    "bogoliubov.busy_s_per_sim_time": "s/w1t",
    "trajectories.evals": "count",
    "moore.solve_moore.busy_s": "s",
    "moore.energy_density.busy_s": "s",
    "moore.bogoliubov_from_moore.busy_s": "s",
    "moore.density_points": "count",
    "moore.energy_density.s_per_point": "s",
    "msa.evolve_slow.busy_s": "s",
    "msa.evolve_slow.calls": "count",
    "otto.nonadiabatic_cycle.busy_s": "s",
    "otto.nonadiabatic_cycle.calls": "count",
    "otto.velocity_transform.busy_s": "s",
    "otto.velocity_transform.freqs": "count",
    "otto.velocity_transform.s_per_freq": "s",
    "gate.open_evolve.busy_s": "s",
    "gate.open_evolve.calls": "count",
    "gate.open_evolve.s_per_segment": "s",
    "gate.lab_frame_branch.busy_s": "s",
    "gate.lab_frame_branch.periods": "count",
    "gate.simulated_average_fidelity.busy_s": "s",
    "gate.open_average_fidelity.busy_s": "s",
    "squid.solve_spectrum.busy_s": "s",
    "squid.roots": "count",
    "config.load_config.busy_s": "s",
    "output.write_table.busy_s": "s",
    "output.bytes_written": "B",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall, untraced_wall):
    """Values of the PER_LAYER metrics from one traced pass.

    trace.coverage is the share of the traced pass spent inside a traced
    layer below the CLI entry point (self time of every span except
    cli.main); layers absent from the workload read 0.
    """
    busy, self_s, calls = tracer.summary()
    c = tracer.counts
    out = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "busy_s":
            out[metric] = busy[layer]
        elif kind == "calls":
            out[metric] = calls[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
        else:
            out[metric] = c[metric]
    out["bogoliubov.busy_s_per_sim_time"] = _ratio(
        busy["bogoliubov.integrate_modes"], c["bogoliubov.sim_time"])
    out["moore.energy_density.s_per_point"] = _ratio(
        busy["moore.energy_density"], c["moore.density_points"])
    out["otto.velocity_transform.s_per_freq"] = _ratio(
        busy["otto.velocity_transform"], c["otto.velocity_transform.freqs"])
    out["gate.open_evolve.s_per_segment"] = _ratio(
        busy["gate.open_evolve"], calls["gate.open_evolve"])
    out["trace.overhead_s"] = traced_wall - untraced_wall
    covered = sum(v for k, v in self_s.items() if k != "cli.main")
    out["trace.coverage"] = _ratio(covered, traced_wall)
    return out
