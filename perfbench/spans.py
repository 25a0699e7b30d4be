"""Per-layer spans, recorded from outside the package.

``Tracer.install`` replaces every public module-level function of the
sphnodal modules (the layers) with a wrapper that records a span
``(name, start, end, parent, command)``.  Names that other modules bind with
``from .x import f`` (``nodal.icosphere``, ``covariance.gegenbauer_eval_arrays``
and the like) are replaced too, so every call is seen whichever module makes
it.  ``uninstall`` puts the originals back.  Counts of work are taken from the
arguments and results at the same boundaries.  Spans stay in memory until
the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

LAYERS = ("specfun", "geometry", "covariance", "ensemble", "moments", "nodal", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    return math.prod(shape) if shape is not None else 1


def _recurrence_steps(args, kwargs, result):
    return {"specfun.recurrence_steps": _size(_arg(args, kwargs, 1, "t")) * args[0].n}


def _path_doublings(args, kwargs, result):
    requested = args[2] if len(args) > 2 else kwargs.get("mc_paths", 20000)
    return {"moments.path_doublings": round(math.log2(result.mc_paths / requested))}


# span name -> function(args, kwargs, result) giving counter increments
COUNTERS = {
    "geometry.icosphere": lambda a, k, r: {"geometry.mesh_vertices": r.vertices.shape[0]},
    "ensemble.eval_basis_many": lambda a, k, r: {
        "ensemble.basis_bytes": 8 * r.shape[0] * _arg(a, k, 0, "basis").size},
    "ensemble.eval_gradient_ambient_many": lambda a, k, r: {
        "ensemble.gradient_points": _arg(a, k, 1, "points").shape[0]},
    "nodal.extract_nodal": lambda a, k, r: {"nodal.segments": r.segments.shape[0]},
    "nodal.monte_carlo_experiment": lambda a, k, r: {
        "nodal.samples_drawn": r.sample_count, "nodal.samples_excluded": r.excluded},
    "moments.kernel_K": lambda a, k, r: {"moments.kernel_paths": _arg(a, k, 1, "mc_paths")},
    "moments.volume_second_moment": _path_doublings,
    "specfun.gegenbauer_q": _recurrence_steps,
    "specfun.gegenbauer_eval_arrays": _recurrence_steps,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)  # command -> counter -> value
        self.command = ""
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"sphnodal.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so that children get later indices
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)
            if counter is not None:
                counts[self.command].update(counter(args, kwargs, result))
            return result

        return wrapper

    @staticmethod
    def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one span adds to a call: a wrapped no-op minus the bare
        no-op, the median of ``repeats`` loops of ``calls`` calls."""
        def noop():
            return None

        wrapped = Tracer()._wrap("calibration.noop", noop)
        costs = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - start - bare) / calls)
        return sorted(costs)[repeats // 2]

    def self_times(self) -> tuple[Counter, float]:
        """Self time per span name (duration minus the time its children
        cover), and the total duration of the root spans."""
        covered = [0.0] * len(self.spans)
        root_s = 0.0
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                root_s += end - start
        self_s: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
        return self_s, root_s

    def command_counts(self) -> dict[str, dict[str, int]]:
        """Exact counts per command: calls of each layer function, calls of
        kernel_K and gaussian_joint made under volume_second_moment, and the
        counters taken from arguments and results."""
        out: dict[str, Counter] = defaultdict(Counter)
        under_volume = [False] * len(self.spans)
        for i, (name, _, _, parent, command) in enumerate(self.spans):
            out[command][f"{name}.calls"] += 1
            if parent >= 0:
                under_volume[i] = (under_volume[parent]
                                   or self.spans[parent][0] == "moments.volume_second_moment")
            if under_volume[i] and name in ("moments.kernel_K", "covariance.gaussian_joint"):
                out[command][f"{name}.calls_in_volume_second_moment"] += 1
        for command, counter in self.counts.items():
            out[command].update(counter)
        return {command: dict(sorted(c.items())) for command, c in sorted(out.items())}
