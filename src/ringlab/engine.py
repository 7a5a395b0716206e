"""Partial configurations: checking, propagation, enumeration, dead ends.

`propagate`, `enumerate_completions` and `has_completion` run on
`kernel.Kernel` (see that module for the design), built per call over the
window at hand: faces are its variables, and every vertex is one ring
constraint whose table accepts the legal words of its family s.  `check`
reads the same tables through each vertex's link code.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
from .kernel import Kernel, Table, pack
from .labeling import vertex_s
from .rings import DEFAULT_MODE, legal_words

VALID = "Valid"
CONTRADICTION = "Contradiction"
INCOMPLETE = "Incomplete"


@dataclass
class Configuration:
    """A finite window of faces with a partial marking."""

    window: frozenset
    marks: Dict[Face, int]
    period: Optional[int] = None

    def __post_init__(self) -> None:
        self.window = frozenset(self.window)
        bad = set(self.marks) - self.window
        if bad:
            raise ValueError(f"marks outside window: {sorted(bad)[:3]}")


def make_config(
    marks: Dict[Face, int],
    window: Optional[Iterable[Face]] = None,
    period: Optional[int] = None,
) -> Configuration:
    w = frozenset(window) if window is not None else frozenset(marks)
    return Configuration(w | frozenset(marks), dict(marks), period)


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


def check(config: Configuration, mode: str = DEFAULT_MODE) -> Verdict:
    """Ring-match every vertex touched by a mark; partial links use wildcards."""
    witnesses = []
    for v in sorted(window_vertices(config.marks)):
        if _ring_table(mode, vertex_s(v))[pack(link_word(config.marks, v))] is None:
            witnesses.append((v, f"no ring matches the link at {v}"))
    if witnesses:
        return Verdict(CONTRADICTION, tuple(witnesses), ())
    unmarked = tuple(sorted(config.window - set(config.marks)))
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
    search order or thread count.  With threads > 1, each branch of the
    root's first free face is searched by its own kernel in a thread pool.
    """
    target = _target(config, target_window)
    order = _search_order(target)
    root = _kernel(order, config.marks, mode)
    if threads <= 1:
        found = root.search()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(Kernel.search, root.branches()))
        found = [labels for part in parts for labels in part]
    completions = [dict(zip(order, labels)) for labels in found]
    ordered_faces = tuple(sorted(target))
    completions.sort(key=lambda m: tuple(m[f] for f in ordered_faces))
    return [
        Configuration(target, m, config.period) for m in completions
    ]


def has_completion(
    config: Configuration,
    target_window: Iterable[Face],
    mode: str = DEFAULT_MODE,
) -> bool:
    """Whether at least one completion of the target window exists."""
    target = _target(config, target_window)
    return bool(_kernel(_search_order(target), config.marks, mode).search(stop_at=1))


def dead_end_report(
    config: Configuration,
    r: int,
    r_probe: int,
    center: Face = up(0, 0),
    mode: str = DEFAULT_MODE,
    threads: int = 1,
) -> dict:
    """Count completions at radius r that die before each probe radius.

    A completion survives radius rho when it extends to a total marking of
    the radius-rho ball; the configuration itself is a dead end when none
    of its completions survive the final probe.
    """
    if r >= r_probe:
        raise ValueError("probe radius must exceed the base radius")
    base = ball(center, r) | config.window
    comps = enumerate_completions(config, base, mode=mode, threads=threads)
    radii = list(range(r + 1, r_probe + 1))
    reach: List[int] = []
    for comp in comps:
        best = r
        for rho in radii:
            if has_completion(comp, ball(center, rho) | comp.window, mode=mode):
                best = rho
            else:
                break
        reach.append(best)
    survivors = {str(rho): sum(1 for b in reach if b >= rho) for rho in radii}
    dead = {str(rho): len(comps) - survivors[str(rho)] for rho in radii}
    return {
        "radius": r,
        "probe": r_probe,
        "completions": len(comps),
        "survivors": survivors,
        "dead_ends": dead,
        "is_dead_end": survivors.get(str(r_probe), len(comps)) == 0,
    }
