"""Per-layer tracing of a dimerforge run, done entirely from outside the
package: the public functions of each layer module are wrapped in place and
restored afterwards.

Spans are timed in thread CPU time (``time.thread_time``), one span stack per
thread, so the self times of concurrent ``run_suite`` workers add up instead
of overlapping.  A span's self time is its duration minus the durations of
the spans it directly contains.  Generator functions are timed per ``next()``
so that the work is charged where it happens, not to the call that creates
the generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter

LAYERS = ("planar", "refine", "matchings", "gliding", "bijections", "trees",
          "generators", "parity")

# The banded-forest code, reported as one metric.
BANDED = ("trees.tec_matching_to_forest", "trees.tec_forest_to_matching",
          "trees.classify_components", "trees.dual_forest")

# Spans whose nested ``planar.build`` calls are counted.
BUILD_PARENTS = ("refine.symmetrize", "generators")


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"dimerforge.{layer}") for layer in LAYERS}


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time]
        self.active: Counter = Counter()  # open spans per name and per layer
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()  # outermost spans only
        self.calls: Counter = Counter()
        self.yielded: Counter = Counter()
        self.builds_in: Counter = Counter()
        self.instances = 0
        self.variables = 0


class Tracer:
    """Wraps the layer modules of an imported ``dimerforge`` on ``install``
    and puts the originals back on ``uninstall``."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, st: _ThreadState, name: str, layer: str):
        if name == "planar.build":
            for parent in BUILD_PARENTS:
                if st.active[parent]:
                    st.builds_in[parent] += 1
        elif layer == "generators" and not st.active["generators"]:
            st.instances += 1
        st.active[name] += 1
        st.active[layer] += 1
        st.stack.append([name, time.thread_time(), 0.0])

    def _exit(self, st: _ThreadState, layer: str):
        name, start, child = st.stack.pop()
        duration = time.thread_time() - start
        st.self_s[name] += duration - child
        st.active[name] -= 1
        st.active[layer] -= 1
        if not st.active[name]:
            st.total_s[name] += duration
        if st.stack:
            st.stack[-1][2] += duration

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def timed_next(it):
                while True:
                    st = tracer._state()
                    tracer._enter(st, name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(st, layer)
                    st.yielded[name] += 1
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._state().calls[name] += 1
                return timed_next(fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                st = tracer._state()
                st.calls[name] += 1
                tracer._enter(st, name, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(st, layer)
                if name == "trees.independence_report":
                    st.variables += len(result.variables)
                return result
        return wrapper

    # -- installing ---------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the layer modules and patch each
        ``dimerforge`` module namespace that imported one by name."""
        layers = layer_modules()
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dimerforge" or n.startswith("dimerforge."))]
        wrapped = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
        for module in package:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(module, attr, wrapped[obj])
        graph = layers["planar"].PlanarGraph
        build = graph.__dict__["build"].__func__
        self._set(graph, "build", classmethod(self._wrap(build, "planar.build")))
        self._set(graph, "trace_faces",
                  self._wrap(graph.__dict__["trace_faces"], "planar.trace_faces"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, Counter]:
        """Merged per-thread tallies; call once the traced work has ended."""
        out = {k: Counter() for k in ("self_s", "total_s", "calls", "yielded", "builds_in")}
        out["scalars"] = Counter()
        for st in self._states:
            if st.stack:
                raise RuntimeError("a traced span is still open")
            for key in ("self_s", "total_s", "calls", "yielded", "builds_in"):
                out[key].update(getattr(st, key))
            out["scalars"].update(instances=st.instances, variables=st.variables)
        return out


def layer_metrics(totals: dict[str, Counter], traced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed by metric name."""
    self_s, calls = totals["self_s"], totals["calls"]
    yielded, builds_in = totals["yielded"], totals["builds_in"]
    scalars = totals["scalars"]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    def per(count, base):
        return count / base if base else 0.0

    return {
        "planar.build.calls": calls["planar.build"],
        "planar.build.self_s": self_s["planar.build"],
        "planar.trace_faces.self_s": self_s["planar.trace_faces"],
        "refine.symmetrize.calls": calls["refine.symmetrize"],
        "refine.symmetrize.total_s": totals["total_s"]["refine.symmetrize"],
        "refine.symmetrize.builds_per_call": per(builds_in["refine.symmetrize"],
                                                 calls["refine.symmetrize"]),
        "refine.self_s": layer_self("refine"),
        "matchings.enumerate_matchings.self_s": self_s["matchings.enumerate_matchings"],
        "matchings.enumerate_matchings.yielded": yielded["matchings.enumerate_matchings"],
        "matchings.count_matchings.calls": calls["matchings.count_matchings"],
        "matchings.count_matchings.self_s": self_s["matchings.count_matchings"],
        "matchings.kasteleyn_grid_count.self_s": self_s["matchings.kasteleyn_grid_count"],
        "bijections.self_s": layer_self("bijections"),
        "bijections.tea_transport.calls": calls["bijections.tea_transport"],
        "bijections.forced_path_matching.calls": calls["bijections.forced_path_matching"],
        "gliding.self_s": layer_self("gliding"),
        "gliding.glide.calls": calls["gliding.glide"],
        "trees.banded.self_s": sum(self_s[k] for k in BANDED),
        "trees.ust_sample.calls": calls["trees.ust_sample"],
        "trees.ust_sample.self_s": self_s["trees.ust_sample"],
        "trees.make_forest.self_s": self_s["trees.make_forest"],
        "trees.enumerate_spanning_trees.self_s": self_s["trees.enumerate_spanning_trees"],
        "trees.enumerate_spanning_trees.yielded": yielded["trees.enumerate_spanning_trees"],
        "trees.independence_report.variables": scalars["variables"],
        "generators.instances": scalars["instances"],
        "generators.self_s": layer_self("generators"),
        "generators.builds_per_instance": per(builds_in["generators"], scalars["instances"]),
        "parity.self_s": layer_self("parity"),
        "report.residual_s": traced_wall - sum(self_s.values()),
    }
