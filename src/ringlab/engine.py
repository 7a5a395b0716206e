"""Partial configurations: checking, propagation, enumeration, dead ends.

`propagate`, `enumerate_completions` and `have_completions` run on
`kernel.Kernel` (see that module for the design), built per call over the
window at hand: faces are its variables, and every vertex is one ring
constraint whose table accepts the legal words of its family s.
`have_completions` probes a batch of configurations on one kernel over the
target window, assuming each one's marks on the trail and undoing them
afterwards; `has_completion` is its one-configuration case, and
`dead_end_report` probes the completions still alive at each radius in one
batch.  No kernel outlives the call that built it.  `check`
reads the same tables, but builds every touched vertex's link code in one
pass over the marks: each marked face lowers the code of its three vertices
at the fixed link positions it sits at, so no link is read face by face.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
from .kernel import UNSET, Kernel, Table
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


# The (vertex offset, link position) sites of a face, the same for every face
# of one orientation, read off `link_faces((0, 0))`: the face there at
# position k has corner (-dx, -dy), so every face of its orientation sits at
# position k of the vertex (dx, dy) from its corner; Up(x,y), for one, sits
# at 0 of (x,y), 2 of (x+1,y) and 4 of (x,y+1).  _LINK_DELTAS[up][l] gives,
# per site, the offset and the amount label l takes off that vertex's code.
_LINK_DELTAS = {
    is_up: tuple(
        tuple((-f.x, -f.y, (UNSET - l) << 2 * k)
              for k, f in enumerate(link_faces((0, 0))) if f.up == is_up)
        for l in range(3))
    for is_up in (True, False)
}
_FREE_LINK = 4**6 - 1  # every position UNSET


def check(config: Configuration, mode: str = DEFAULT_MODE) -> Verdict:
    """Ring-match every vertex touched by a mark; partial links use wildcards."""
    code: Dict[Vertex, int] = {}
    get = code.get
    for (x, y, is_up), l in config.marks.items():
        for dx, dy, delta in _LINK_DELTAS[is_up][l]:
            v = (x + dx, y + dy)
            code[v] = get(v, _FREE_LINK) - delta
    tables = [_ring_table(mode, s) for s in range(3)]
    # the table of v is that of its family vertex_s(v) = (x - y - 1) % 3
    dead = sorted(
        v for v, c in code.items() if tables[(v[0] - v[1] - 1) % 3][c] is None
    )
    if dead:
        witnesses = tuple((v, f"no ring matches the link at {v}") for v in dead)
        return Verdict(CONTRADICTION, witnesses, ())
    unmarked = tuple(sorted(config.window.difference(config.marks)))
    if unmarked:
        return Verdict(INCOMPLETE, (), unmarked)
    return Verdict(VALID, (), ())


@lru_cache(maxsize=None)
def _ring_table(mode: str, s: int) -> Table:
    """The link table of family s: it accepts the words some ring map matches."""
    words = frozenset(w for t, w in legal_words(mode) if t == s)
    return Table(6, words.__contains__)


def _kernel(faces: Sequence[Face], marks: Dict[Face, int], mode: str) -> Kernel:
    """The faces as kernel variables under one ring constraint per vertex,
    the vertices in sorted order."""
    index = {f: g for g, f in enumerate(faces)}
    vertices = sorted(window_vertices(faces))
    scopes = [[index.get(f) for f in link_faces(v)] for v in vertices]
    tables = [_ring_table(mode, vertex_s(v)) for v in vertices]
    return Kernel(len(faces), scopes, tables, {index[f]: l for f, l in marks.items()})


def propagate(
    config: Configuration,
    within: Optional[Iterable[Face]] = None,
    mode: str = DEFAULT_MODE,
) -> Configuration:
    """Assign every forced face inside the scope until nothing moves.

    A face is forced when exactly one label keeps all three of its vertices
    ring-consistent.  Raises Contradiction when a vertex loses all matches
    or a face loses all labels.
    """
    scope = frozenset(within) if within is not None else config.window
    faces = sorted(scope) + sorted(set(config.marks) - scope)
    kernel = _kernel(faces, config.marks, mode)
    if kernel.failure is not None:
        c, g = kernel.failure
        if g is None:
            v = sorted(window_vertices(faces))[c]
            raise Contradiction([(v, f"no ring matches the link at {v}")])
        f = faces[g]
        raise Contradiction([(face_vertices(f)[0], f"no admissible label for {f}")])
    marks = {f: l for f, l in zip(faces, kernel.label) if l >= 0}
    return Configuration(scope | config.window, marks, config.period)


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
    center: Face = up(0, 0),
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
