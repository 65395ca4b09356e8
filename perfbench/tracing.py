"""Per-layer tracing from outside the library.

`Tracer.install()` replaces the public functions and methods of every layer
module with wrappers (module and class attributes only; no repo file is
touched) and `uninstall()` puts the originals back.  Each wrapper

* moves the "current layer" for the duration of the call, so that a
  layer's self time is its wall time minus the time of calls into other
  layers;
* counts the call and adds its inclusive time (outermost call only, so
  recursion is not counted twice);
* records a span (name, start, end, parent span) until the per-name or
  total span cap is reached; after that the call is only counted, which
  keeps hot calls such as `freewords.concat` cheap in memory.

Names bound with `from ... import` in another module bypass the module
attribute and are not seen; calls that go through the module, such as
`Word.__mul__` -> `freewords.concat`, are.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

LAYERS = (
    "freewords",
    "lattices",
    "ratmat",
    "stallings",
    "commensurations",
    "prosystems",
    "solenoid",
    "geometry",
    "limits",
    "cli",
)

SPAN_CAP = 100_000
SPAN_CAP_PER_NAME = 2_000

# (callee, caller) -> counter: calls of `callee` made while `caller` is active
UNDER = {
    ("stallings.intersect", "prosystems.build_system"): "meets_computed",
    ("lattices.intersect", "prosystems.build_system"): "meets_computed",
    ("solenoid.d_pro", "solenoid.sigma"): "sigma_candidates",
    ("stallings.contains", "geometry.closest_point_project"): "project_probes",
    ("lattices.contains", "geometry.closest_point_project"): "project_probes",
    ("stallings.from_permutations", "stallings.enumerate_subgroups"): "enumerate_candidates",
}


def _sized(counter):
    def hook(tr, args, result, exc):
        if exc is None:
            tr.counters[counter] += len(result)
    return hook


def _kernel_index(tr, args, result, exc):
    if exc is None:
        index = 1
        if hasattr(result, "cols"):
            for i, col in enumerate(result.cols):
                index *= col[i]
        else:
            index = result.m
        tr.counters["kernel_index"] = max(tr.counters["kernel_index"], index)


def _qi_pairs(tr, args, result, exc):
    if exc is None:
        tr.counters["qi_pairs"] += result.pairs


def _guard(tr, args, result, exc):
    tr.counters["guard_calls"] += 1
    tr.counters["max_estimate"] = max(tr.counters["max_estimate"], args[0])
    if exc is not None:
        tr.counters["refusals"] += 1
        tr.refusals.append(str(exc))


HOOKS = {
    "stallings.enumerate_subgroups": _sized("enumerate_emitted"),
    "solenoid.fiber_representatives": _sized("fibers_scanned"),
    "solenoid.kernel": _kernel_index,
    "geometry.qi_estimate": _qi_pairs,
    "limits.guard": _guard,
}


def _is_wrappable(obj, module_name: str) -> bool:
    if inspect.isfunction(obj):
        return obj.__module__ == module_name
    # functools.lru_cache wrappers keep the wrapped function's module
    return hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module_name


class Tracer:
    """Wrappers, counters and spans for the layer modules among `modules`."""

    def __init__(self, modules):
        self.modules = [m for m in modules if m.__name__.rsplit(".", 1)[-1] in LAYERS]
        self._installed = []
        self.spans = []
        self.names = []
        self._span_counts = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.counters = defaultdict(int)
        self.refusals = []
        self.reset()

    # -- counters ----------------------------------------------------------

    def reset(self):
        """Zero the counters between passes; spans and refusal messages
        are kept for the whole run."""
        for table in (self.self_s, self.calls, self.incl, self.counters, self._depth):
            table.clear()
        self.cur = "bench"
        self.last = time.perf_counter()

    def close_interval(self):
        now = time.perf_counter()
        self.self_s[self.cur] += now - self.last
        self.last = now

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, qual, layer):
        tr = self
        perf = time.perf_counter
        depth = self._depth
        under = [(caller, counter) for (callee, caller), counter in UNDER.items() if callee == qual]
        hook = HOOKS.get(qual)
        name_id = len(self.names)
        self.names.append(qual)

        def wrapper(*args, **kwargs):
            t0 = perf()
            prev = tr.cur
            tr.self_s[prev] += t0 - tr.last
            tr.cur = layer
            tr.last = t0
            depth[qual] += 1
            for caller, counter in under:
                if depth[caller]:
                    tr.counters[counter] += 1
            record = len(tr.spans) < SPAN_CAP and tr._span_counts[qual] < SPAN_CAP_PER_NAME
            if record:
                tr._span_counts[qual] += 1
                sid = len(tr.spans)
                tr.spans.append((name_id, t0, None, tr._stack[-1] if tr._stack else -1))
                tr._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(tr, args, None, exc)
                raise
            else:
                if hook is not None:
                    hook(tr, args, result, None)
                return result
            finally:
                t1 = perf()
                tr.self_s[layer] += t1 - tr.last
                tr.cur = prev
                tr.last = t1
                depth[qual] -= 1
                tr.calls[qual] += 1
                if not depth[qual]:
                    tr.incl[qual] += t1 - t0
                if record:
                    tr._stack.pop()
                    entry = tr.spans[sid]
                    tr.spans[sid] = (entry[0], entry[1], t1, entry[3])

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        return wrapper

    def install(self):
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if _is_wrappable(obj, mod.__name__):
                    self._replace(mod, name, obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._replace(obj, attr, member, f"{layer}.{name}.{attr}", layer)

    def _replace(self, owner, attr, original, qual, layer):
        setattr(owner, attr, self._wrap(original, qual, layer))
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []
