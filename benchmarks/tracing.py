"""In-memory spans around the public functions of the bvcouple modules.

The tracer wraps, from outside the package, every public module-level
function of each layer module and the batched ``InteractionLaw`` methods
(``values``, ``gradients``, ``hessians``). A wrapper replaces the original
wherever a bvcouple module holds a reference to it: the defining module,
every module that re-imported the name (``harness.atomistic_energy``,
``highorder.coupled_energy_conforming``, the package namespace) and
module-level dicts such as ``harness.COMMANDS``. Private helpers are never
wrapped, so their time counts towards the public caller's layer.

A span is ``[id, parent_id, name, start, end, rows]``; ``rows`` is the
number of bond vectors handed to a law method and the number of sites
sampled by ``lattice.sample_field``, else 0.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("lattice", "potentials", "geometry", "coupling", "energies", "highorder", "harness", "cli")
LAW_METHODS = ("values", "gradients", "hessians")


def _law_rows(args, kwargs) -> int:
    zeta = args[1] if len(args) > 1 else kwargs["zeta"]
    return int(getattr(zeta, "size", 0)) // 3


def _site_rows(args, kwargs) -> int:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return int(cfg.n_sites)


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object, object]] = []

    def _wrap(self, name: str, fn, rows=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, clock(), 0.0, rows(args, kwargs) if rows else 0]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        modules = [importlib.import_module(f"bvcouple.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                rows = _site_rows if obj.__name__ == "sample_field" else None
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, rows))
        law_cls = modules[LAYERS.index("potentials")].InteractionLaw
        for meth in LAW_METHODS:
            fn = law_cls.__dict__[meth]
            self._patches.append((law_cls, meth, fn, self._wrap(f"potentials.InteractionLaw.{meth}", fn, _law_rows)))
        for mod in [importlib.import_module("bvcouple"), *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)][1]))
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._patches.append((obj, key, val, wrappers[id(val)][1]))
        for owner, key, _, wrapper in self._patches:
            _set(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            _set(owner, key, original)
        self._patches = []


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children in
    ``spans`` cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[4] - s[3]
    return [own[s[0]] for s in spans]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Self time (s) and rows per layer over a list of spans."""
    out = defaultdict(lambda: {"self_s": 0.0, "rows": 0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[layer_of(span[2])]
        entry["self_s"] += own
        entry["rows"] += span[5]
    return out
