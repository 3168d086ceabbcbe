"""Per-layer tracing by wrapping the public functions of each conedec module.

The wrappers live only in this directory: `Tracer.installed()` replaces every
public function and method of the nine layers in every conedec namespace that
refers to it, and puts the originals back on exit.  Each wrapped call is a
span; the tracer keeps no per-call records, only per-function aggregates
(calls, calls that raised, self time), because the term kernels are called
about a million times per pass.  Self time is a span's duration minus the
time covered by the wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("terms", "division", "classical", "enumeration", "graphs", "closures",
          "oracle", "builder", "cli")

# classes whose public methods are layer boundaries; report dataclasses are not
CLASSES = ("RelDivision", "PartialAssignment", "BuildSession", "LabeledDigraph")

# functions traced under a shared name
GROUPS = {
    "division.__init__": "division.init",
    "division.to_json_dict": "division.json",
    "division.to_json": "division.json",
    "division.from_json_dict": "division.json",
    "division.from_json": "division.json",
    "graphs.reachable_forward": "graphs.reachable",
    "graphs.reachable_backward": "graphs.reachable",
}

_MARK = "__bench_trace_wrapper__"


class Stat:
    __slots__ = ("calls", "raised", "self_s")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.self_s = 0.0


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    layer = module.rpartition(".")[2]
    return layer if module.startswith("conedec.") and layer in LAYERS else None


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "conedec" or name.startswith("conedec."))]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- targets -----------------------------------------------------------

    def _targets(self):
        """(key, owner class or None, attribute name, original) for every
        function of the package API, cli.main and the public methods of CLASSES."""
        import conedec
        import conedec.cli

        found = []
        exported = [getattr(conedec, name) for name in dir(conedec) if not name.startswith("_")]
        for fn in [*exported, conedec.cli.main]:
            layer = _layer_of(fn)
            if inspect.isfunction(fn) and layer:
                found.append((f"{layer}.{fn.__name__}", None, fn.__name__, fn))
        for cls in exported:
            layer = _layer_of(cls)
            if not (inspect.isclass(cls) and cls.__name__ in CLASSES and layer):
                continue
            for name, attr in vars(cls).items():
                if name.startswith("_") and name != "__init__":
                    continue
                if isinstance(attr, (classmethod, staticmethod)) or inspect.isfunction(attr):
                    found.append((f"{layer}.{name}", cls, name, attr))
        return [(GROUPS.get(key, key), cls, name, attr) for key, cls, name, attr in found]

    def keys(self) -> set[str]:
        return {key for key, *_ in self._targets()}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack

        def close(t0: float) -> None:
            dt = perf_counter() - t0
            stat.self_s += dt - stack.pop()
            if stack:
                stack[-1] += dt

        if inspect.isgeneratorfunction(fn):
            # a generator's work happens on each resumption, so each one is a span
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        stack.append(0.0)
                        t0 = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        except Exception:
                            stat.raised += 1
                            raise
                        finally:
                            close(t0)
                        yield item
                finally:
                    gen.close()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    stat.raised += 1
                    raise
                finally:
                    close(t0)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        targets = self._targets()
        functions = {id(attr): self._wrap(key, attr)
                     for key, cls, _, attr in targets if cls is None}
        for module in _namespaces():
            for name, value in list(vars(module).items()):
                if id(value) in functions and inspect.isfunction(value):
                    self._set(module, name, functions[id(value)])
        for key, cls, name, attr in targets:
            if cls is None:
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrap(key, attr.__func__))
            else:
                wrapped = self._wrap(key, attr)
            self._set(cls, name, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, stat in self.stats.items():
            totals[key.partition(".")[0]] += stat.self_s
        return totals


def leftover_wrappers() -> list[str]:
    """Names in the conedec namespaces and traced classes that are still wrappers."""
    import conedec

    left = []
    owners = _namespaces() + [getattr(conedec, c) for c in CLASSES]
    for owner in owners:
        for name, value in vars(owner).items():
            inner = getattr(value, "__func__", value)
            if getattr(inner, _MARK, False):
                left.append(f"{getattr(owner, '__name__', owner)}.{name}")
    return left
