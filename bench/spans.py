"""Span tracer for the traced benchmark run.

`Tracer.install` replaces every public function of every `latgas.*` module
with a wrapper, in every namespace that binds the same function object
(`solve_entropy` is also bound in `latgas.transition`, `cell_kernel` in
`latgas.solver`, and so on), so internal calls are traced too.  A span holds
its name (`<module>.<function>`), the id of the span that caused it, the
thread id, start and end, plus a few fields read off the result.  Worker
threads of a `ThreadPoolExecutor` inherit the submitting span as parent, so
parallel seeds nest under their `solve_entropy` span and self times never
count them twice.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

CLI_COMMANDS = ("scan", "solve", "sample", "enumerate", "feasibility", "eval")
MODULES = ("potential", "functional", "lattice", "solver", "transition", "ensemble", "cli")

# functions the per-layer metrics read; a missing one is reported as absent
EXPECTED = (
    "potential.cell_kernel",
    "solver.solve_entropy",
    "solver.solve_multipliers",
    "solver.el_fixed_point",
    "transition.scan_transition",
    "transition.spectral_radius",
    "transition.feasibility_probe",
    "transition.convexity_gap_constant",
    "ensemble.mcmc_sample",
    "ensemble.enumerate_entropy",
    "lattice.riemann_discrepancy",
)


def _arrays_nbytes(obj) -> int:
    """Bytes of the numpy arrays an object holds now (lazy fields not forced)."""
    try:
        fields = vars(obj).values()
    except TypeError:
        return 0
    return sum(int(getattr(v, "nbytes", 0)) for v in fields if hasattr(v, "dtype"))


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# result fields recorded per span name; each reads defensively so an API
# change degrades to missing fields rather than a crash
ANNOTATE = {
    "potential.cell_kernel": lambda a, k, r: {"bytes": _arrays_nbytes(r)},
    "solver.solve_entropy": lambda a, k, r: {"branch": getattr(r, "branch", "?")},
    "solver.solve_multipliers": lambda a, k, r: {
        "converged": bool(getattr(r, "converged", False)),
        "fallback": getattr(r, "method", "") == "penalty_fallback",
        "iterations": tuple(getattr(r, "iterations", (0, 0))),
    },
    "transition.scan_transition": lambda a, k, r: {
        "points": len(getattr(r, "points", ())),
        "converged": sum(bool(p.converged) for p in getattr(r, "points", ())),
    },
    "ensemble.mcmc_sample": lambda a, k, r: {
        "n": _arg(a, k, 0, "n"),
        "init": _arg(a, k, 6, "init") is not None,
        "proposals": int(getattr(r, "proposals", 0)),
        "accepted": int(getattr(r, "accepted_moves", 0)),
    },
    "ensemble.enumerate_entropy": lambda a, k, r: {"n": _arg(a, k, 0, "n")},
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    tid: int
    t0: float
    t1: float
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **info):
        """Record a span around the block; the block may add to `info`."""
        if not self.active:
            yield info
            return
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield info
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, threading.get_ident(), t0, t1, info))

    def _wrap(self, name: str, fn):
        tracer = self
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name) as info:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    try:
                        info.update(annotate(args, kwargs, result))
                    except (AttributeError, TypeError, ValueError, IndexError):
                        pass
                return result

        return wrapper

    def install(self):
        """Wrap the public latgas functions and let pool workers inherit parents."""
        mods = [importlib.import_module("latgas")]
        mods += [importlib.import_module(f"latgas.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(val)
                        or not val.__module__.startswith("latgas.")):
                    continue
                if id(val) not in wrappers:
                    name = f"{val.__module__.rsplit('.', 1)[-1]}.{val.__name__}"
                    wrappers[id(val)] = self._wrap(name, val)
                    self.wrapped.add(name)
                setattr(mod, attr, wrappers[id(val)])
                self._undo.append((mod, attr, val))

        pool = concurrent.futures.ThreadPoolExecutor
        submit = pool.submit
        tracer = self

        def traced_submit(executor, fn, /, *args, **kwargs):
            parent = tracer.current()

            def adopted(*a, **kw):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*a, **kw)
                finally:
                    stack.pop()

            return submit(executor, adopted, *args, **kwargs)

        pool.submit = traced_submit
        self._undo.append((pool, "submit", submit))

    def uninstall(self):
        for obj, attr, val in reversed(self._undo):
            setattr(obj, attr, val)
        self._undo.clear()

    def absent(self) -> list[str]:
        return [name for name in EXPECTED if name not in self.wrapped]


# --- span arithmetic ---------------------------------------------------------------

def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanSet:
    """The spans of one traced pass, with self times and layer totals."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        self.self_time = {
            s.sid: s.dur - _union_length([(c.t0, c.t1) for c in children.get(s.sid, ())],
                                         s.t0, s.t1)
            for s in spans}

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _has_ancestor(self, s: Span, pred) -> bool:
        p = self.by_id.get(s.parent)
        while p is not None:
            if pred(p):
                return True
            p = self.by_id.get(p.parent)
        return False

    def outer_time(self, pred) -> float:
        """Summed duration of matching spans not nested in another match."""
        return sum(s.dur for s in self.spans
                   if pred(s) and not self._has_ancestor(s, pred))

    def layer_self(self, pred) -> float:
        return sum(self.self_time[s.sid] for s in self.spans if pred(s))


# every per-layer metric with its unit, in report order
PER_LAYER = {
    "potential.cell_kernel_s": "s",
    "potential.cell_kernel_calls": "count",
    "potential.kernel_mb": "MB",
    "functional.s": "s",
    "functional.calls": "count",
    "solver.solve_entropy_s.constant": "s",
    "solver.solve_entropy_s.unimodal": "s",
    "solver.solve_entropy_s.multimodal": "s",
    "solver.seeds": "count",
    "solver.seed_s": "s",
    "solver.seed_overlap": "ratio",
    "solver.converged_frac": "ratio",
    "solver.fallback_frac": "ratio",
    "solver.inner_iters": "count",
    "solver.outer_iters": "count",
    "solver.el_fixed_point_s": "s",
    "solver.el_fixed_point_calls": "count",
    "transition.self_s": "s",
    "transition.spectral_radius_s": "s",
    "transition.feasibility_probe_s": "s",
    "transition.convexity_gap_s": "s",
    "transition.points_converged_frac": "ratio",
    "ensemble.us_per_proposal": "us",
    "ensemble.move_us_per_proposal": "us",
    "ensemble.align_us_per_proposal": "us",
    "ensemble.acceptance": "ratio",
    "ensemble.enumerate_s": "s",
    "ensemble.enum_configs_per_s": "1/s",
    "lattice.riemann_discrepancy_s": "s",
    "cli.self_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "trace.overhead": "ratio",
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ss: SpanSet, move_us: float | None) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 where the layer was not called)."""
    m: dict[str, float] = {}
    kernels = ss.named("potential.cell_kernel")
    m["potential.cell_kernel_s"] = ss.outer_time(lambda s: s.name == "potential.cell_kernel")
    m["potential.cell_kernel_calls"] = len(kernels)
    m["potential.kernel_mb"] = max((s.info.get("bytes", 0) for s in kernels), default=0) / 2**20

    functional = [s for s in ss.spans if s.layer == "functional"]
    m["functional.s"] = ss.outer_time(lambda s: s.layer == "functional")
    m["functional.calls"] = len(functional)

    solves = ss.named("solver.solve_entropy")
    for branch in ("constant", "unimodal", "multimodal"):
        m[f"solver.solve_entropy_s.{branch}"] = sum(
            s.dur for s in solves if s.info.get("branch", "").startswith(branch))
    seeds = ss.named("solver.solve_multipliers")
    m["solver.seeds"] = len(seeds)
    m["solver.seed_s"] = sum(s.dur for s in seeds)
    m["solver.seed_overlap"] = ratio(m["solver.seed_s"], sum(s.dur for s in solves))
    m["solver.converged_frac"] = ratio(sum(s.info.get("converged", False) for s in seeds),
                                       len(seeds))
    m["solver.fallback_frac"] = ratio(sum(s.info.get("fallback", False) for s in seeds),
                                      len(seeds))
    m["solver.inner_iters"] = sum(s.info.get("iterations", (0, 0))[0] for s in seeds)
    m["solver.outer_iters"] = sum(s.info.get("iterations", (0, 0))[1] for s in seeds)
    m["solver.el_fixed_point_s"] = ss.outer_time(lambda s: s.name == "solver.el_fixed_point")
    m["solver.el_fixed_point_calls"] = len(ss.named("solver.el_fixed_point"))

    scans = ss.named("transition.scan_transition")
    m["transition.self_s"] = ss.layer_self(lambda s: s.layer == "transition")
    for key, name in (("spectral_radius_s", "spectral_radius"),
                      ("feasibility_probe_s", "feasibility_probe"),
                      ("convexity_gap_s", "convexity_gap_constant")):
        m[f"transition.{key}"] = ss.outer_time(lambda s, n=name: s.name == f"transition.{n}")
    m["transition.points_converged_frac"] = ratio(
        sum(s.info.get("converged", 0) for s in scans),
        sum(s.info.get("points", 0) for s in scans))

    aligned = [s for s in ss.named("ensemble.mcmc_sample") if s.info.get("init")]
    proposals = sum(s.info.get("proposals", 0) for s in aligned)
    us = 1e6 * ratio(sum(s.dur for s in aligned), proposals)
    m["ensemble.us_per_proposal"] = us
    m["ensemble.move_us_per_proposal"] = move_us or 0.0
    m["ensemble.align_us_per_proposal"] = us - move_us if move_us and us else 0.0
    m["ensemble.acceptance"] = ratio(sum(s.info.get("accepted", 0) for s in aligned), proposals)
    enums = ss.named("ensemble.enumerate_entropy")
    m["ensemble.enumerate_s"] = sum(s.dur for s in enums)
    m["ensemble.enum_configs_per_s"] = ratio(
        sum(2.0 ** s.info.get("n", 0) for s in enums), m["ensemble.enumerate_s"])

    m["lattice.riemann_discrepancy_s"] = ss.outer_time(
        lambda s: s.name == "lattice.riemann_discrepancy")

    # the benchmark opens one "op.<operation>" span around each operation
    m["cli.self_s"] = ss.layer_self(lambda s: s.layer == "cli")
    commands = [s for s in ss.spans if s.layer == "op" and s.info.get("cli")]
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = sum(s.dur for s in commands if s.name.split(".")[1] == cmd)
    return m


def absent_reasons(tracer: Tracer, called: set[str]) -> dict[str, str]:
    """Why a per-layer metric reads 0: its function is gone or was not called."""
    reasons = {}
    for name in tracer.absent():
        reasons[name] = "no such public function in latgas; metrics built on it read 0"
    for name in EXPECTED:
        if name not in reasons and name not in called:
            reasons[name] = "not called in this workload's timed phase"
    return reasons
