"""Spans around parareach's public functions, for the traced run.

``Tracer.install`` replaces each traced function wherever a parareach module
binds it (``from .family import build_family`` in cli.py is a second
binding), and wraps ``__call__`` of the two signal classes, which every
right-hand-side evaluation calls once, to count input evaluations.  Spans
stay in memory (id, name, start, end, parent, whether it raised, and the
counts charged to it while it was the innermost open span) and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

TRACED = {
    "cli.main": ("parareach.cli", "main"),
    "family.gamma_bar": ("parareach.family", "gamma_bar"),
    "family.build_family": ("parareach.family", "build_family"),
    "family.check_assumptions": ("parareach.family", "check_assumptions"),
    "family.reach_slice": ("parareach.family", "reach_slice"),
    "family.membership_margins": ("parareach.family", "membership_margins"),
    "riccati.propagate": ("parareach.riccati", "propagate"),
    "touching.touching_trajectory": ("parareach.touching", "touching_trajectory"),
    "touching.trace_back_to_seed": ("parareach.touching", "trace_back_to_seed"),
    "oracle.sample_admissible": ("parareach.oracle", "sample_admissible"),
    "oracle.coverage": ("parareach.oracle", "coverage"),
}

# Spans each workload must record at least once; a traced run that misses
# one fails, since the layer metrics it feeds would read 0 for no reason.
EXPECTED = {
    "sec5-reach": ("cli.main", "family.gamma_bar", "family.build_family",
                   "family.check_assumptions", "family.reach_slice",
                   "riccati.propagate", "touching.touching_trajectory",
                   "touching.trace_back_to_seed"),
    "sec5-verify": ("cli.main", "family.gamma_bar", "family.build_family",
                    "riccati.propagate", "oracle.sample_admissible",
                    "family.membership_margins", "oracle.coverage"),
    "driven-rides": ("riccati.propagate", "touching.touching_trajectory",
                     "touching.trace_back_to_seed"),
}


def _counts_from_result(name, args, kwargs, result):
    """Counts read off a traced call's arguments and returned object."""
    if name in ("riccati.propagate", "touching.touching_trajectory"):
        return {"steps": len(result.grid) - 1}
    if name == "family.check_assumptions":
        return {"boundary_points": result.n_boundary_points}
    if name == "oracle.sample_admissible":
        # one batch of cfg.n_trajectories draws (min_admissible unset)
        cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
        return {"draws": cfg.n_trajectories, "admissible": len(result)}
    return {}


def rebind(module, attr, wrap):
    """Replace ``module.attr`` by ``wrap(original)`` wherever a parareach
    module binds it."""
    original = getattr(importlib.import_module(module), attr)
    wrapped = wrap(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "parareach":
            continue
        for key in [k for k, v in vars(mod).items() if v is original]:
            setattr(mod, key, wrapped)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._next_id = 0

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": self._next_id, "name": name,
                    "parent": self._open[-1]["id"] if self._open else None,
                    "start": time.perf_counter(), "end": None,
                    "failed": False, "u_evals": 0}
            self._next_id += 1
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                self.spans.append(span)
            span.update(_counts_from_result(name, args, kwargs, result))
            return result
        return traced

    def _count_u(self, call):
        @functools.wraps(call)
        def counted(signal, t):
            if self._open:
                self._open[-1]["u_evals"] += 1
            return call(signal, t)
        return counted

    def install(self):
        for name, (module, attr) in TRACED.items():
            rebind(module, attr, functools.partial(self._wrap, name))
        from parareach.signals import SampledSignal, ZeroSignal
        for cls in (ZeroSignal, SampledSignal):
            cls.__call__ = self._count_u(cls.__call__)
        return self


def layer_metrics(spans, rounds: int) -> dict:
    """Per-round layer metrics from closed spans.  A self time is the span's
    duration minus that of its child spans (calls nest on one thread)."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name]) / rounds

    def self_time(name):
        return sum(s["end"] - s["start"] - child_time[s["id"]]
                   for s in by_name[name]) / rounds

    def count(names, key=None):
        names = (names,) if isinstance(names, str) else names
        return sum(1 if key is None else int(s.get(key, 0))
                   for n in names for s in by_name[n]) / rounds

    rides = ("touching.touching_trajectory", "touching.trace_back_to_seed")
    draws = count("oracle.sample_admissible", "draws")
    admissible = count("oracle.sample_admissible", "admissible")
    return {
        "cli.self_s": (self_time("cli.main"), "s"),
        "family.gamma_bar_s": (total("family.gamma_bar"), "s"),
        "family.build_family.self_s": (self_time("family.build_family"), "s"),
        "family.check_assumptions.self_s": (self_time("family.check_assumptions"), "s"),
        "family.check_assumptions.boundary_points":
            (count("family.check_assumptions", "boundary_points"), "count"),
        "family.reach_slice_s": (total("family.reach_slice"), "s"),
        "family.membership_margins_s": (total("family.membership_margins"), "s"),
        "riccati.propagate_s": (total("riccati.propagate"), "s"),
        "riccati.propagate.calls": (count("riccati.propagate"), "count"),
        "riccati.steps": (count("riccati.propagate", "steps"), "count"),
        "riccati.u_evals": (count("riccati.propagate", "u_evals"), "count"),
        "touching.touching_trajectory_s": (total(rides[0]), "s"),
        "touching.touching_trajectory.calls": (count(rides[0]), "count"),
        "touching.touching_trajectory.failed": (count(rides[0], "failed"), "count"),
        "touching.trace_back_to_seed_s": (total(rides[1]), "s"),
        "touching.trace_back_to_seed.calls": (count(rides[1]), "count"),
        "touching.trace_back_to_seed.failed": (count(rides[1], "failed"), "count"),
        "touching.steps": (count(rides[0], "steps"), "count"),
        "touching.u_evals": (count(rides, "u_evals"), "count"),
        "oracle.sample_admissible_s": (total("oracle.sample_admissible"), "s"),
        "oracle.draws": (draws, "count"),
        "oracle.admissible": (admissible, "count"),
        "oracle.admissible_per_draw": (admissible / draws if draws else 0.0, "ratio"),
        "oracle.u_evals": (count("oracle.sample_admissible", "u_evals"), "count"),
        "oracle.coverage_s": (total("oracle.coverage"), "s"),
    }
