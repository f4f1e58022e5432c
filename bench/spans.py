"""Spans around the blochdyn layers, recorded from outside the program.

Tracer.installed() replaces the public functions and methods of the layer
modules by timing wrappers and restores them on exit. A function is replaced
in every module namespace that holds it, so a caller that imported it by
name (dynamics does `from .floquet import q_norm`) reaches the wrapper too;
methods, classmethods and cached properties are replaced on their class.

Spans record name, start, end, parent, the job they belong to and whether
they raised. Work submitted to blochdyn's thread pool runs in other threads;
a span opened in such a thread takes the innermost open span of the tracing
thread as its parent. A span's self time is its duration minus the part of
it that its children's intervals cover (their union, since pooled children
overlap), so it is never negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

LAYERS = ("blockjacobi", "floquet", "dynamics", "xychain", "limitperiodic", "cli")
# Of the cli module only main is wrapped: the cmd_* runners stay inside its
# span, so main's self time is the config handling and artifact writing.
CLI_FUNCTIONS = ("main",)


@dataclass
class Span:
    name: str
    parent: int | None
    job: str | None
    start: float = 0.0
    end: float = 0.0
    raised: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.current_thread()
        self._owner_stack: list[int] = []

    def _stack(self):
        if threading.current_thread() is self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(tracer, args, kwargs, result) runs on
        success, to record counts taken from arguments or results."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            span = Span(name, parent, self.job)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer while the block runs; restore the originals after."""
        restore = []
        try:
            _install(self, restore)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


# Counts taken from arguments and results at the layer boundary.
def _count_steps(tracer, args, kwargs, result):
    tracer.counts["limitperiodic.transfer_steps"] += int(args[0] if args else kwargs["n"])


def _note_window(tracer, args, kwargs, result):
    key = "blockjacobi.window_dim.max"
    tracer.counts[key] = max(tracer.counts[key], args[0].dim)


def _note_eigensolve(tracer, args, kwargs, result):
    tracer.counts["blockjacobi.eigensystem.dim3_sum"] += float(args[0].dim) ** 3


COUNTS = ("limitperiodic.transfer_steps", "blockjacobi.window_dim.max",
          "blockjacobi.eigensystem.dim3_sum")
HOOKS = {
    "limitperiodic.transfer_matrix": _count_steps,
    "blockjacobi.TruncatedOperator.init": _note_window,
    "blockjacobi.TruncatedOperator.eigensystem": _note_eigensolve,
}


def _wrap_member(tracer, name, member):
    if inspect.isfunction(member):
        return tracer.wrap(name, member, HOOKS.get(name))
    if isinstance(member, cached_property):
        return cached_property(tracer.wrap(name, member.func, HOOKS.get(name)))
    if isinstance(member, (classmethod, staticmethod)):
        return type(member)(tracer.wrap(name, member.__func__, HOOKS.get(name)))
    return None


def _install(tracer, restore):
    package = importlib.import_module("blochdyn")
    modules = [importlib.import_module(f"blochdyn.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if layer != "cli" or name in CLI_FUNCTIONS:
                    wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj, HOOKS.get(f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    label = "init" if attr == "__init__" else attr
                    new = _wrap_member(tracer, f"{layer}.{name}.{label}", member)
                    if new is not None:
                        if isinstance(new, cached_property):
                            new.__set_name__(obj, attr)
                        restore.append((obj, attr, member))
                        setattr(obj, attr, new)
    for ns in [package, *modules]:
        for name, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                restore.append((ns, name, obj))
                setattr(ns, name, wrapped[obj])


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals, lo=float("-inf"), hi=float("inf")):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def parse_importtime(stderr):
    """{module: cumulative seconds} from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return out


# name, unit, better. A name ending in .s is the wall time a span name was
# open (the union of its spans), .calls its span count and .self_s the sum
# of its spans' self times; the other names are computed in layer_metrics.
PER_LAYER = [
    ("import.blochdyn_s", "s", "lower"),
    ("import.scipy_optimize_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("floquet.band_structure.s", "s", "lower"),
    ("floquet.velocity_maximum.s", "s", "lower"),
    ("floquet.apply_q.s", "s", "lower"),
    ("floquet.fiber_matrices.calls", "count", "lower"),
    ("floquet.fiber_matrices.s", "s", "lower"),
    ("floquet.fibers_per_s", "1/s", "higher"),
    ("blockjacobi.TruncatedOperator.init.s", "s", "lower"),
    ("blockjacobi.TruncatedOperator.init.calls", "count", "lower"),
    ("blockjacobi.window_dim.max", "rows", "lower"),
    ("blockjacobi.TruncatedOperator.eigensystem.s", "s", "lower"),
    ("blockjacobi.TruncatedOperator.eigensystem.calls", "count", "lower"),
    ("blockjacobi.eigensystem.dim3_sum", "dim3_computed", "lower"),
    ("blockjacobi.TruncatedOperator.propagate.s", "s", "lower"),
    ("blockjacobi.TruncatedOperator.propagate.calls", "count", "lower"),
    ("dynamics.moment_trajectory.self_s", "s", "lower"),
    ("dynamics.check_ballistic_limit.self_s", "s", "lower"),
    ("dynamics.check_derivative_identity.self_s", "s", "lower"),
    ("dynamics.corollary_probe.self_s", "s", "lower"),
    ("dynamics.localization_diagnostic.self_s", "s", "lower"),
    ("dynamics.evolve.calls", "count", "lower"),
    ("xychain.SpinChain.init.s", "s", "lower"),
    ("xychain.SpinChain.eigensystem.s", "s", "lower"),
    ("xychain.SpinChain.heisenberg.calls", "count", "lower"),
    ("xychain.SpinChain.heisenberg.s", "s", "lower"),
    ("xychain.commutator_norm.calls", "count", "lower"),
    ("xychain.commutator_norm.s", "s", "lower"),
    ("xychain.free_fermion_residual.self_s", "s", "lower"),
    ("xychain.single_particle_window.calls", "count", "lower"),
    ("xychain.SpinChain.jw_vector.calls", "count", "lower"),
    ("limitperiodic.transfer_matrix.calls", "count", "lower"),
    ("limitperiodic.transfer_matrix.s", "s", "lower"),
    ("limitperiodic.transfer_steps", "count", "lower"),
    ("limitperiodic.steps_per_s", "1/s", "higher"),
    ("limitperiodic.thouless_check.self_s", "s", "lower"),
    ("limitperiodic.dt_criterion.s", "s", "lower"),
    ("limitperiodic.dt_criterion.failed", "count", "lower"),
    ("limitperiodic.growth_certificate.s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


def layer_metrics(tracer, imports, overhead_frac):
    """Every PER_LAYER value from a traced replay. imports is the parsed
    importtime output; overhead_frac compares the traced and plain replays."""
    by_name = defaultdict(list)
    selfs = self_times(tracer.spans)
    for s, own in zip(tracer.spans, selfs):
        by_name[s.name].append((s, own))

    def wall(name):
        return covered([(s.start, s.end) for s, _ in by_name[name]])

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    special = {name: tracer.counts.get(name, 0.0) for name in COUNTS}
    special.update({
        "import.blochdyn_s": imports.get("blochdyn", 0.0) + imports.get("blochdyn.cli", 0.0),
        "import.scipy_optimize_s": imports.get("scipy.optimize", 0.0),
        "floquet.fibers_per_s": rate(len(by_name["floquet.fiber_matrices"]),
                                     wall("floquet.fiber_matrices")),
        "limitperiodic.steps_per_s": rate(tracer.counts["limitperiodic.transfer_steps"],
                                          wall("limitperiodic.transfer_matrix")),
        "limitperiodic.dt_criterion.failed": sum(
            s.raised for s, _ in by_name["limitperiodic.dt_criterion"]),
        "trace.overhead_frac": overhead_frac,
    })
    values = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            values[name] = float(special[name])
        elif name.endswith(".self_s"):
            values[name] = float(sum(own for _, own in by_name[name[:-len(".self_s")]]))
        elif name.endswith(".calls"):
            values[name] = float(len(by_name[name[:-len(".calls")]]))
        else:
            values[name] = wall(name[:-len(".s")])
    return values
