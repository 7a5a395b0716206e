"""Partial configurations: checking, propagation, enumeration, dead ends.

`propagate`, `enumerate_completions` and `have_completions` run on
`kernel.Kernel` (see that module for the design), built per call over the
window at hand: faces are its variables, and every vertex is one ring
constraint whose table accepts the legal words of its family s.
`have_completions` probes a batch of configurations on one kernel over the
target window, assuming each one's marks on the trail and undoing them
afterwards; `has_completion` is its one-configuration case, and
`dead_end_report` probes the completions still alive at each radius in one
batch.  A classification sweep probes only the completions that no catalog
certificate shows alive; `check` verifies each certificate (see
`catalog.survivor_certificate`).  No kernel outlives the call that built
it.  `check` reads the same tables by word, gathering the words through a
per-window plan: the window's faces in sorted order and, per vertex
family, one itemgetter over the link faces of the family's vertices,
built once per window and kept in a small cache, so a call reads each
mark once and gathers each family's words in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .lattice import (
    Face,
    Vertex,
    ball,
    centroid3,
    face_vertices,
    link_faces,
    norm2,
    up,
    window_vertices,
)
from .kernel import Kernel, Table
from .labeling import vertex_s
from .rings import DEFAULT_MODE, legal_words

VALID = "Valid"
CONTRADICTION = "Contradiction"
INCOMPLETE = "Incomplete"
_LABELS = frozenset((0, 1, 2))


@dataclass
class Configuration:
    """A finite window of faces with a partial marking."""

    window: frozenset
    marks: Dict[Face, int]
    period: Optional[int] = None

    def __post_init__(self) -> None:
        self.window = frozenset(self.window)
        if not self.window.issuperset(self.marks):
            bad = set(self.marks) - self.window
            raise ValueError(f"marks outside window: {sorted(bad)[:3]}")
        if not _LABELS.issuperset(self.marks.values()):
            # faces are distinct, so the sort never compares two marks
            bad = sorted((f, l) for f, l in self.marks.items() if l not in _LABELS)
            raise ValueError(f"marks not in 0, 1, 2: {bad[:3]}")


def make_config(
    marks: Dict[Face, int],
    window: Optional[Iterable[Face]] = None,
    period: Optional[int] = None,
) -> Configuration:
    marked = frozenset(marks)
    w = marked if window is None else frozenset(window) | marked
    return Configuration(w, dict(marks), period)


class Verdict(NamedTuple):
    status: str
    witnesses: Tuple[Tuple[Vertex, str], ...]
    unmarked: Tuple[Face, ...]


class Contradiction(Exception):
    """Propagation or search hit a vertex or face with no admissible option."""

    def __init__(self, witnesses: Sequence[Tuple[Vertex, str]]):
        self.witnesses = tuple(witnesses)
        super().__init__("; ".join(w[1] for w in self.witnesses))


def link_word(marks: Dict[Face, int], v: Vertex) -> Tuple[Optional[int], ...]:
    """The six face marks around v, None where unmarked."""
    return tuple(marks.get(f) for f in link_faces(v))


@lru_cache(maxsize=16)
def _link_plan(
    window: frozenset,
) -> Tuple[Tuple[Face, ...], Tuple[Tuple[int, Tuple[Vertex, ...], itemgetter], ...]]:
    """The window's faces in sorted order and, per vertex family s, the
    window's vertices of family s in sorted order with one itemgetter over
    the six link faces of each: it indexes the faces' labels in that order,
    and a link face outside the window indexes a trailing None slot."""
    order = tuple(sorted(window))
    index = {f: g for g, f in enumerate(order)}
    outside = len(order)
    vertices = sorted(window_vertices(order))
    families = []
    for s in range(3):
        family = tuple(v for v in vertices if vertex_s(v) == s)
        if family:  # only the empty window has a family without vertices
            slots = [index.get(f, outside) for v in family for f in link_faces(v)]
            families.append((s, family, itemgetter(*slots)))
    return order, tuple(families)


@lru_cache(maxsize=None)
def _ring_table(mode: str, s: int) -> Table:
    """The link table of family s: it accepts the words some ring map matches."""
    words = frozenset(w for t, w in legal_words(mode) if t == s)
    return Table(6, words.__contains__)


def _words(gathered: Tuple[Optional[int], ...]) -> Iterator[Tuple[Optional[int], ...]]:
    """The link words of a gather, six labels each."""
    return zip(*[iter(gathered)] * 6)


def check(config: Configuration, mode: str = DEFAULT_MODE) -> Verdict:
    """Ring-match every vertex touched by a mark; partial links use wildcards.

    Every vertex of the window is matched: one that no mark touches has the
    all-free link, which some ring always matches.
    """
    order, families = _link_plan(config.window)
    labels = list(map(config.marks.get, order))
    labels.append(None)
    dead: List[Vertex] = []
    for s, vertices, gather in families:
        table = _ring_table(mode, s)
        if not all(map(table.__getitem__, _words(gather(labels)))):
            dead += (v for v, w in zip(vertices, _words(gather(labels))) if table[w] is None)
    if dead:
        dead.sort()
        witnesses = tuple((v, f"no ring matches the link at {v}") for v in dead)
        return Verdict(CONTRADICTION, witnesses, ())
    if len(config.marks) < len(order):
        unmarked = tuple(f for f, l in zip(order, labels) if l is None)
        return Verdict(INCOMPLETE, (), unmarked)
    return Verdict(VALID, (), ())


def _kernel(faces: Sequence[Face], marks: Dict[Face, int], mode: str) -> Kernel:
    """The faces as kernel variables under one ring constraint per vertex,
    the vertices in sorted order."""
    index = {f: g for g, f in enumerate(faces)}
    vertices = sorted(window_vertices(faces))
    scopes = [[index.get(f) for f in link_faces(v)] for v in vertices]
    tables = [_ring_table(mode, vertex_s(v)) for v in vertices]
    return Kernel(len(faces), scopes, tables, {index[f]: l for f, l in marks.items()})


def propagate(config: Configuration, mode: str = DEFAULT_MODE) -> Configuration:
    """Assign every forced face of the window until nothing moves.

    A face is forced when exactly one label keeps all three of its vertices
    ring-consistent.  Raises Contradiction when a vertex loses all matches
    or a face loses all labels.
    """
    faces = sorted(config.window)
    kernel = _kernel(faces, config.marks, mode)
    if kernel.failure is not None:
        c, g = kernel.failure
        if g is None:
            v = sorted(window_vertices(faces))[c]
            raise Contradiction([(v, f"no ring matches the link at {v}")])
        f = faces[g]
        raise Contradiction([(face_vertices(f)[0], f"no admissible label for {f}")])
    marks = {f: l for f, l in zip(faces, kernel.label) if l >= 0}
    return Configuration(config.window, marks, config.period)


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
    target = (
        frozenset(target_window) if target_window is not None else config.window
    )
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

    The result is sorted by the marking itself, so it does not depend on
    search order.  `threads` is accepted for compatibility and ignored: the
    search is sequential.
    """
    target = _target(config, target_window)
    order = _search_order(target)
    found = _kernel(order, config.marks, mode).search()
    completions = [dict(zip(order, labels)) for labels in found]
    ordered_faces = tuple(sorted(target))
    completions.sort(key=lambda m: tuple(m[f] for f in ordered_faces))
    return [
        Configuration(target, m, config.period) for m in completions
    ]


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
    order = _search_order(target)
    index = {f: g for g, f in enumerate(order)}
    kernel = _kernel(order, {}, mode)
    out = []
    for config in configs:
        _target(config, target)
        out.append(kernel.extends({index[f]: l for f, l in config.marks.items()}))
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
