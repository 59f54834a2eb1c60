"""In-memory span recorder that wraps ditherfield's public functions from
outside the package.

Every public module-level function of the layer modules, every field's
``eval`` and every deployment's and noise model's ``sample`` is replaced by
a wrapper that records one span per call: name, start, end, parent span and
trial id. The trial id is the ``spawn_key`` of the ``SeedSequence`` handed
to the latest ``simulate_batch`` under the same caller. Spans stay in flat
arrays until the run ends, when ``write`` saves them.

Self time is a span's duration minus the time its child spans cover.
A layer's busy time is the summed self time of the spans whose function is
defined in that layer's module, so the layers' busy times add up to the
duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("sensing", "fields", "estimator", "analysis", "harness")

# per-call work counts taken from the wrapped call's arguments
_COUNTERS = {
    "sensing.simulate_batch": ("sensing.sensors",
                               lambda a: int(_arg(a, 3, "n"))),
    "fields.eval": ("fields.eval.terms", lambda a: np.size(_arg(a, 1, "x"))
                    * stored_terms(_arg(a, 0, "self"))),
    "estimator.estimate_coefficients": (
        "estimator.terms", lambda a: _arg(a, 0, "batch").n * int(_arg(a, 2, "m"))),
}


def _arg(call, pos, name):
    args, kwargs = call
    return args[pos] if len(args) > pos else kwargs[name]


def stored_terms(field) -> int:
    """Coefficients a field's ``eval`` sums per point; 1 for closed forms."""
    values = getattr(field, "values", None)
    return max(1, len(values)) if values is not None else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.trial_keys: list[tuple[int, ...]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._trial = -1
        self._trial_owner = -2

    # -- wrapping ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer modules of `package` in place."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS]
        namespaces = modules + [package]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
            for cls in list(vars(module).values()):
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                if layer == "fields" and issubclass(cls, module.FieldSpec):
                    method = "eval"      # fields, not bases, which also have eval
                elif layer == "sensing":
                    method = "sample"    # deployments and noise models
                else:
                    continue
                if method in vars(cls):
                    wrapped = self._wrap(f"{layer}.{method}", vars(cls)[method])
                    setattr(cls, method, wrapped)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        layer = name.split(".", 1)[0]
        counter = _COUNTERS.get(name)
        sets_trial = name == "sensing.simulate_batch"
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            if sets_trial:
                self._trial = self._trial_id(_arg((args, kwargs), 4, "seed"))
                self._trial_owner = parent
            if counter is not None:
                self.counts[counter[0]] += counter[1]((args, kwargs))
            self.name.append(name_id)
            self.parent.append(parent)
            self.trial.append(self._trial)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                if idx == self._trial_owner:
                    self._trial = -1

        return wrapper

    def _trial_id(self, seed) -> int:
        key = tuple(int(k) for k in getattr(seed, "spawn_key", ()))
        self.trial_keys.append(key)
        return len(self.trial_keys) - 1

    # -- aggregation -------------------------------------------------------

    def _columns(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int64))

    def self_times(self) -> np.ndarray:
        """Each span's duration minus its children's durations. Spans of
        one thread nest, so a span's children are disjoint and inside it."""
        _, start, end, parent = self._columns()
        dur = end - start
        nested = parent >= 0
        return dur - np.bincount(parent[nested], weights=dur[nested],
                                 minlength=len(dur))

    def summary(self) -> dict:
        """Per function: calls, busy_s (inclusive) and self_s; per layer:
        busy_s (summed self time) and errors; plus the root spans' duration."""
        name, start, end, parent = self._columns()
        dur, selfs = end - start, self.self_times()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=selfs, minlength=k)
        functions = {n: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                         "self_s": float(own[i])}
                     for i, n in enumerate(self.names) if calls[i]}
        layers = {layer: {"busy_s": sum(f["self_s"] for n, f in functions.items()
                                        if n.split(".", 1)[0] == layer),
                          "errors": self.errors[layer]}
                  for layer in LAYERS}
        return {"functions": functions, "layers": layers,
                "counts": dict(self.counts),
                "root_s": float(dur[parent < 0].sum()), "spans": len(dur)}

    def write(self, path) -> None:
        """Spans as columns of an .npz: name ids index `names`, parent and
        trial are row indices (-1 for none), trial rows index `trial_keys`."""
        name, start, end, parent = self._columns()
        width = max((len(key) for key in self.trial_keys), default=0)
        keys = np.full((len(self.trial_keys), width), -1, dtype=np.int64)
        for row, key in enumerate(self.trial_keys):
            keys[row, :len(key)] = key
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, trial=np.frombuffer(self.trial, dtype=np.int64),
                 trial_keys=keys)
