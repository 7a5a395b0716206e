"""Partial configurations: checking, propagation, enumeration, dead ends."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
from .labeling import vertex_s
from .rings import DEFAULT_MODE, match_link

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
        word = link_word(config.marks, v)
        if not match_link(word, vertex_s(v), mode):
            witnesses.append((v, f"no ring matches the link at {v}"))
    if witnesses:
        return Verdict(CONTRADICTION, tuple(witnesses), ())
    unmarked = tuple(sorted(config.window - set(config.marks)))
    if unmarked:
        return Verdict(INCOMPLETE, (), unmarked)
    return Verdict(VALID, (), ())


def _admissible(
    marks: Dict[Face, int], f: Face, mode: str
) -> frozenset:
    """Labels for f compatible with some ring match at each of its vertices."""
    allowed = frozenset((0, 1, 2))
    for v in face_vertices(f):
        faces = link_faces(v)
        word = tuple(marks.get(g) for g in faces)
        k = faces.index(f)
        opts = frozenset(
            m.ring.faces[m.arc(k)] for m in match_link(word, vertex_s(v), mode)
        )
        allowed &= opts
        if not allowed:
            break
    return allowed


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
    marks = dict(config.marks)
    _propagate_marks(marks, scope, mode)
    return Configuration(scope | config.window, marks, config.period)


def _propagate_marks(marks: Dict[Face, int], scope: frozenset, mode: str) -> None:
    """In-place fixed point of the forcing rule; raises Contradiction."""
    while True:
        for v in window_vertices(marks):
            if not match_link(link_word(marks, v), vertex_s(v), mode):
                raise Contradiction([(v, f"no ring matches the link at {v}")])
        changed = False
        for f in sorted(scope):
            if f in marks:
                continue
            allowed = _admissible(marks, f, mode)
            if not allowed:
                raise Contradiction(
                    [(face_vertices(f)[0], f"no admissible label for {f}")]
                )
            if len(allowed) == 1:
                marks[f] = next(iter(allowed))
                changed = True
        if not changed:
            return


def _search_order(target: frozenset) -> Tuple[Face, ...]:
    """Faces sorted by squared distance from the window centroid, then position."""
    n = len(target)
    cx = sum(centroid3(f)[0] for f in target)
    cy = sum(centroid3(f)[1] for f in target)

    def key(f: Face):
        fx, fy = centroid3(f)
        return (norm2(fx * n - cx, fy * n - cy), f)

    return tuple(sorted(target, key=key))


def _dfs(
    marks: Dict[Face, int],
    order: Tuple[Face, ...],
    scope: frozenset,
    mode: str,
    out: List[Dict[Face, int]],
    stop_at: Optional[int] = None,
) -> None:
    try:
        _propagate_marks(marks, scope, mode)
    except Contradiction:
        return
    nxt = next((f for f in order if f not in marks), None)
    if nxt is None:
        out.append(marks)
        return
    for label in (0, 1, 2):
        if stop_at is not None and len(out) >= stop_at:
            return
        if label not in _admissible(marks, nxt, mode):
            continue
        child = dict(marks)
        child[nxt] = label
        _dfs(child, order, scope, mode, out, stop_at)


def enumerate_completions(
    config: Configuration,
    target_window: Optional[Iterable[Face]] = None,
    mode: str = DEFAULT_MODE,
    threads: int = 1,
) -> List[Configuration]:
    """All total markings of the target window extending the configuration.

    The result is sorted by the marking itself, so it does not depend on
    search order or thread count.
    """
    target = (
        frozenset(target_window) if target_window is not None else config.window
    )
    if not target >= config.window:
        raise ValueError("target window must contain the configuration window")
    order = _search_order(target)
    found: List[Dict[Face, int]] = []
    if threads <= 1:
        _dfs(dict(config.marks), order, target, mode, found)
    else:
        root = dict(config.marks)
        try:
            _propagate_marks(root, target, mode)
        except Contradiction:
            root = None
        if root is not None:
            nxt = next((f for f in order if f not in root), None)
            if nxt is None:
                found.append(root)
            else:
                branches = []
                for label in (0, 1, 2):
                    if label in _admissible(root, nxt, mode):
                        child = dict(root)
                        child[nxt] = label
                        branches.append(child)
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    parts: List[List[Dict[Face, int]]] = [[] for _ in branches]
                    futures = [
                        pool.submit(_dfs, b, order, target, mode, parts[i])
                        for i, b in enumerate(branches)
                    ]
                    for fut in futures:
                        fut.result()
                for part in parts:
                    found.extend(part)
    ordered_faces = tuple(sorted(target))
    found.sort(key=lambda m: tuple(m[f] for f in ordered_faces))
    return [
        Configuration(target, m, config.period) for m in found
    ]


def has_completion(
    config: Configuration,
    target_window: Iterable[Face],
    mode: str = DEFAULT_MODE,
) -> bool:
    """Whether at least one completion of the target window exists."""
    target = frozenset(target_window)
    if not target >= config.window:
        raise ValueError("target window must contain the configuration window")
    order = _search_order(target)
    found: List[Dict[Face, int]] = []
    _dfs(dict(config.marks), order, target, mode, found, stop_at=1)
    return bool(found)


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
