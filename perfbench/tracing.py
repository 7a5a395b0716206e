"""Spans around the calls into ringlab's public functions, from outside src/.

``Tracer.install`` replaces each traced function, in every loaded module
that bound it by name, with a wrapper that records a span (name, start,
end, parent) and a call count; ``uninstall`` puts the originals back.
``Isometry.apply_face`` is too hot for a span per call and is only counted.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from ringlab.lattice import Isometry

# span name -> (module, function); the name's first part is the layer.
TRACED = {
    "engine.probe": ("ringlab.engine", "has_completion"),
    "engine.enumerate": ("ringlab.engine", "enumerate_completions"),
    "engine.propagate": ("ringlab.engine", "propagate"),
    "engine.check": ("ringlab.engine", "check"),
    "catalog.transform": ("ringlab.catalog", "transform_config"),
    "catalog.embed": ("ringlab.catalog", "embeds_in_catalog"),
    "catalog.embed_strips": ("ringlab.catalog", "embeds_in_strips"),
    "catalog.embed_special": ("ringlab.catalog", "embeds_in_special"),
    "catalog.assemble": ("ringlab.catalog", "assemble"),
    "catalog.special_puzzle": ("ringlab.catalog", "special_puzzle"),
    "catalog.isomorphic": ("ringlab.catalog", "isomorphic"),
    "distributions.induced": ("ringlab.distributions", "induced_distribution"),
    "distributions.classify": ("ringlab.distributions", "classify_distribution"),
    "distributions.dist_propagate": ("ringlab.distributions", "dist_propagate"),
    "distributions.build_d0": ("ringlab.distributions", "build_D0"),
    "distributions.lemma_l3": ("ringlab.distributions", "verify_lemma_L3"),
    "labeling.derive": ("ringlab.labeling", "derive_edge_labels"),
}

SELF_TIME_LAYERS = ("engine", "catalog", "distributions")


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {name: 0 for name in TRACED}
        self.probe_hits = 0
        self.apply_face_calls = 0
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                self.spans.append(span)
                self.calls[name] += 1
            if name == "engine.probe" and result:
                self.probe_hits += 1
            return result

        return traced

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for name, (module, attr) in TRACED.items():
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                for key, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append(functools.partial(setattr, mod, key, orig))
        apply_face = Isometry.apply_face

        def counted(g, f):
            self.apply_face_calls += 1
            return apply_face(g, f)

        Isometry.apply_face = counted
        self._undo.append(functools.partial(setattr, Isometry, "apply_face", apply_face))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def metrics(self) -> Dict[str, float]:
        """Inclusive seconds and calls per traced name, and self seconds per layer.

        A span nested in a span of the same name adds nothing to that name's
        inclusive time, so recursion is not counted twice.
        """
        inclusive = {name: 0.0 for name in TRACED}
        self_s = {layer: 0.0 for layer in SELF_TIME_LAYERS}
        for span in self.spans:
            dur = span.end - span.start
            outer = span.parent
            while outer is not None and outer.name != span.name:
                outer = outer.parent
            if outer is None:
                inclusive[span.name] += dur
            layer = span.name.split(".")[0]
            if layer in self_s:
                self_s[layer] += dur - span.child_s
        out: Dict[str, float] = {}
        for name in TRACED:
            out[name + "_s"] = inclusive[name]
            out[name + "_calls"] = self.calls[name]
        out["engine.probe_hits"] = self.probe_hits
        out["lattice.apply_face_calls"] = self.apply_face_calls
        for layer, value in self_s.items():
            out[layer + ".self_s"] = value
        return out
