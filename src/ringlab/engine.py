"""Partial configurations: checking, propagation, enumeration, dead ends.

A configuration is built from its window and its labels in the window's
sorted face order (from one per-window cache, `window_order`) as bytes,
UNSET (3) where a face is free; `make_config` builds one from a dict.  Its
`marks` is a read-only {face: label} view built on first read; assembly,
`check`, search and the catalog matches read the label bytes only.

`propagate`, `enumerate_completions` and `have_completions` run on
`kernel.Kernel` (see that module for the design) over one cached plan per
window and mode (`_plan`; the twelve special puzzles of one radius share
one): faces are its variables, numbered in sorted face order as the label
bytes list them and searched in `_search_order`, and every vertex is one
ring constraint whose table accepts the legal words of its family s.  A
call builds a kernel's state only, given the faces with their label
bytes, and reads its labels as label bytes.  `have_completions` probes a batch
on one kernel, assuming each configuration's marks on the trail and
undoing them; `has_completion` and `dead_end_report` probe through it.  No
kernel outlives its call.  `check` reads the same tables by word
through a per-window plan (`link_plan`, which `induced_distribution`
shares) over the label bytes: per vertex family, one itemgetter over the
family's link faces, where a face outside the window reads a trailing
UNSET, which words pack as None.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .lattice import (
    Face, Vertex, ball, centroid3, face_vertices, link_faces, norm2, up, window_vertices)
from .kernel import UNSET, Kernel, Plan, Table
from .labeling import vertex_s
from .rings import DEFAULT_MODE, legal_words

VALID = "Valid"
CONTRADICTION = "Contradiction"
INCOMPLETE = "Incomplete"
_LABELS = frozenset((0, 1, 2))
_LABEL_BYTES = bytes((0, 1, 2, UNSET))


@lru_cache(maxsize=64)
def window_order(window: frozenset) -> Tuple[Tuple[Face, ...], Dict[Face, int]]:
    """The window's faces in sorted order, and each face's position in it:
    one entry per window, which its configurations and `check` share."""
    faces = tuple(sorted(window))
    return faces, {f: g for g, f in enumerate(faces)}


class Configuration:
    """A finite window of faces with a partial marking, kept by position:
    `faces` is the window's faces in sorted order (from `window_order`),
    and `labels`, as given, their labels in that order as bytes, UNSET (3)
    where unmarked.  `marks` is a read-only {face: label} view of the marked
    faces, built on first read from fields that are read-only too."""

    __slots__ = ("_window", "_faces", "_labels", "_period", "_marks")
    window, faces, labels, period = map(property, map(attrgetter, __slots__[:4]))

    def __init__(self, window: Iterable[Face], labels: bytes,
                 period: Optional[int] = None) -> None:
        window = frozenset(window)
        self._faces, self._labels = window_order(window)[0], bytes(labels)
        if len(self._labels) != len(self._faces):
            raise ValueError(f"{len(self._labels)} labels for {len(self._faces)} faces")
        if self._labels.translate(None, _LABEL_BYTES):
            raise ValueError(f"labels not in 0, 1, 2, 3: {sorted(set(self._labels))}")
        self._window, self._period, self._marks = window, period, None

    @property
    def marks(self) -> Mapping[Face, int]:
        if self._marks is None:
            self._marks = MappingProxyType(
                {f: l for f, l in zip(self._faces, self._labels) if l != UNSET})
        return self._marks

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and (self.window, self.labels, self.period) == (
            other.window, other.labels, other.period)

    def __repr__(self) -> str:
        return (f"Configuration(window={self.window!r}, marks={dict(self.marks)!r}, "
                f"period={self.period!r})")


def make_config(marks: Mapping[Face, int], window: Optional[Iterable[Face]] = None,
                period: Optional[int] = None) -> Configuration:
    """The marks on their faces and the window's, as one configuration; a
    frozenset window holding the marks is kept, for the per-window caches."""
    if not _LABELS.issuperset(marks.values()):
        # faces are distinct, so the sort never compares two marks
        bad = sorted((f, l) for f, l in marks.items() if l not in _LABELS)
        raise ValueError(f"marks not in 0, 1, 2: {bad[:3]}")
    if not (isinstance(window, frozenset) and window.issuperset(marks)):
        window = frozenset(marks).union(window or ())
    labels = [marks.get(f, UNSET) for f in window_order(window)[0]]
    return Configuration(window, labels, period)


class Verdict(NamedTuple):
    status: str
    witnesses: Tuple[Tuple[Vertex, str], ...]
    unmarked: Tuple[Face, ...]


class Contradiction(Exception):
    """Propagation or search hit a vertex or face with no admissible option."""

    def __init__(self, witnesses: Sequence[Tuple[Vertex, str]]):
        self.witnesses = tuple(witnesses)
        super().__init__("; ".join(w[1] for w in self.witnesses))


def link_word(marks: Mapping[Face, int], v: Vertex) -> Tuple[Optional[int], ...]:
    """The six face marks around v, None where unmarked."""
    return tuple(marks.get(f) for f in link_faces(v))


@lru_cache(maxsize=16)
def link_plan(window: frozenset) -> Tuple[Tuple[int, Tuple[Vertex, ...], itemgetter], ...]:
    """Per vertex family s, the window's vertices of family s in sorted
    order with one itemgetter over the six link faces of each: it indexes
    the labels of the window's faces in sorted order, and a link face
    outside the window indexes a trailing UNSET slot."""
    order, index = window_order(window)
    outside = len(order)
    vertices = sorted(window_vertices(order))
    families = []
    for s in range(3):
        family = tuple(v for v in vertices if vertex_s(v) == s)
        if family:  # only the empty window has a family without vertices
            slots = [index.get(f, outside) for v in family for f in link_faces(v)]
            families.append((s, family, itemgetter(*slots)))
    return tuple(families)


@lru_cache(maxsize=None)
def _ring_table(mode: str, s: int) -> Table:
    """The link table of family s: it accepts the words some ring map matches."""
    words = frozenset(w for t, w in legal_words(mode) if t == s)
    return Table(6, words.__contains__)


def link_words(gathered: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """The link words of a gather, six labels each."""
    return zip(*[iter(gathered)] * 6)


def check(config: Configuration, mode: str = DEFAULT_MODE) -> Verdict:
    """Ring-match every vertex touched by a mark; partial links use wildcards.

    Every vertex of the window is matched: one that no mark touches has the
    all-free link, which some ring always matches.
    """
    labels = config.labels + bytes((UNSET,))
    dead: List[Vertex] = []
    for s, vertices, gather in link_plan(config.window):
        table = _ring_table(mode, s)
        if not all(map(table.__getitem__, link_words(gather(labels)))):
            dead += (v for v, w in zip(vertices, link_words(gather(labels))) if table[w] is None)
    if dead:
        dead.sort()
        witnesses = tuple((v, f"no ring matches the link at {v}") for v in dead)
        return Verdict(CONTRADICTION, witnesses, ())
    if UNSET in config.labels:
        unmarked = tuple(f for f, l in zip(config.faces, config.labels) if l == UNSET)
        return Verdict(INCOMPLETE, (), unmarked)
    return Verdict(VALID, (), ())


@lru_cache(maxsize=16)
def _plan(window: frozenset, mode: str) -> Tuple[Tuple[Vertex, ...], Plan]:
    """The window's vertices sorted, and its kernel plan: the faces in
    sorted order are the variables, numbered by the window's own position
    map and searched in `_search_order`, and each vertex's link is one ring
    constraint."""
    faces, index = window_order(window)
    vertices = tuple(sorted(window_vertices(faces)))
    links = ((link_faces(v), _ring_table(mode, vertex_s(v))) for v in vertices)
    return vertices, Plan(index, links, _search_order(window))


def propagate(config: Configuration, mode: str = DEFAULT_MODE) -> Configuration:
    """Assign every forced face of the window until nothing moves.

    A face is forced when exactly one label keeps all three of its vertices
    ring-consistent.  Raises Contradiction when a vertex loses all matches
    or a face loses all labels.
    """
    vertices, plan = _plan(config.window, mode)
    kernel = Kernel(plan, zip(config.faces, config.labels))
    if kernel.failure is not None:
        c, g = kernel.failure
        if g is None:
            v = vertices[c]
            raise Contradiction([(v, f"no ring matches the link at {v}")])
        f = config.faces[g]
        raise Contradiction([(face_vertices(f)[0], f"no admissible label for {f}")])
    labels = bytes(l if l >= 0 else UNSET for l in kernel.label)
    return Configuration(config.window, labels, config.period)


def _search_order(target: frozenset) -> Tuple[Face, ...]:
    """Faces sorted by squared distance from the window centroid, then position."""
    n = len(target)
    cx = sum(centroid3(f)[0] for f in target)
    cy = sum(centroid3(f)[1] for f in target)

    def key(f: Face):
        fx, fy = centroid3(f)
        return (norm2(fx * n - cx, fy * n - cy), f)

    return tuple(sorted(target, key=key))


def _target(config: Configuration, target_window: Optional[Iterable[Face]]) -> frozenset:
    target = config.window if target_window is None else frozenset(target_window)
    if not target >= config.window:
        raise ValueError("target window must contain the configuration window")
    return target


def enumerate_completions(
    config: Configuration,
    target_window: Optional[Iterable[Face]] = None,
    mode: str = DEFAULT_MODE,
    threads: int = 1,
) -> List[Configuration]:
    """All total markings of the target window extending the configuration.

    The result is sorted by the label bytes, which list the marking in
    sorted face order, so it does not depend on search order.  `threads` is
    accepted for compatibility and ignored: the search is sequential.
    """
    target = _target(config, target_window)
    found = Kernel(_plan(target, mode)[1], zip(config.faces, config.labels)).search()
    labels = sorted(map(bytes, found))
    return [Configuration(target, l, config.period) for l in labels]


def have_completions(
    configs: Iterable[Configuration],
    target_window: Iterable[Face],
    mode: str = DEFAULT_MODE,
) -> List[bool]:
    """Whether each configuration extends to a total marking of the target
    window, which must contain every configuration's window.

    One kernel is built over the target with no labels given; each
    configuration's marks are then assumed on its trail, one completion is
    searched for, and the trail is undone, so the configurations share the
    kernel and its search order.
    """
    target = frozenset(target_window)
    kernel = Kernel(_plan(target, mode)[1], ())
    out = []
    for config in configs:
        _target(config, target)
        out.append(kernel.extends(zip(config.faces, config.labels)))
    return out


def has_completion(
    config: Configuration,
    target_window: Iterable[Face],
    mode: str = DEFAULT_MODE,
) -> bool:
    """Whether at least one completion of the target window exists: the
    one-configuration case of `have_completions`."""
    return have_completions([config], target_window, mode)[0]


def dead_end_report(
    config: Configuration,
    r: int,
    r_probe: int,
    mode: str = DEFAULT_MODE,
) -> dict:
    """Count completions at radius r that die before each probe radius.

    A completion survives radius rho when it extends to a total marking of
    the radius-rho ball; the configuration itself is a dead end when none
    of its completions survive the final probe.  Every completion shares
    the window `base`, so each rho probes the completions still alive in one
    `have_completions` call, on one kernel.
    """
    if r >= r_probe:
        raise ValueError("probe radius must exceed the base radius")
    center = up(0, 0)
    base = ball(center, r) | config.window
    comps = enumerate_completions(config, base, mode=mode)
    survivors: Dict[str, int] = {}
    alive = comps
    for rho in range(r + 1, r_probe + 1):
        if alive:
            verdicts = have_completions(alive, ball(center, rho) | base, mode=mode)
            alive = [c for c, ok in zip(alive, verdicts) if ok]
        survivors[str(rho)] = len(alive)
    dead = {rho: len(comps) - n for rho, n in survivors.items()}
    return {
        "radius": r,
        "probe": r_probe,
        "completions": len(comps),
        "survivors": survivors,
        "dead_ends": dead,
        "is_dead_end": survivors.get(str(r_probe), len(comps)) == 0,
    }
