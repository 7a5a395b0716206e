"""Partial configurations: checking, propagation, enumeration, dead ends.

`propagate`, `enumerate_completions` and `has_completion` share one private
kernel, `_Kernel`, built per call over the window at hand:

- faces and vertices get integer indices; each face lists its three
  (vertex, sector) sites and each vertex its link faces in the window;
- each vertex keeps its link word as a base-4 code (3 = unmarked), updated
  in place, and that code's per-sector label bitmasks, read from a table
  per (mode, s) that `rings.sector_options` fills on first use;
- propagation is a worklist (AC-3 style): after an assignment only the
  unassigned faces around the vertices whose code changed are re-examined,
  and a face is forced when exactly one label keeps all three of its
  vertices matched;
- depth-first search assigns on a trail and undoes back to a trail mark,
  so a search node copies nothing.

The forcing rule does not depend on the order faces are examined in, so
the propagated fixed point and every completion set are the same as a
full-sweep propagation would give; only which contradiction is reported
first may differ.
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
    link_sector,
    norm2,
    up,
    window_vertices,
)
from .labeling import vertex_s
from .rings import DEFAULT_MODE, match_link, sector_options

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


class _MaskTable(dict):
    """Per-sector label bitmasks of every link code of one (mode, s), filled on use.

    A link code packs a link word in base 4, sector k in bits 2k and 2k+1,
    with 3 for an unmarked sector.  Its value holds, per sector, a bitmask
    of the labels some surviving ring match realizes there (bit l for label
    l), or None when no ring matches the word.
    """

    def __init__(self, mode: str, s: int):
        super().__init__()
        self.mode = mode
        self.s = s

    def __missing__(self, code: int) -> Optional[Tuple[int, ...]]:
        digits = [(code >> (2 * k)) & 3 for k in range(6)]
        word = tuple(None if d == 3 else d for d in digits)
        opts = sector_options(word, self.s, self.mode)
        masks = tuple(sum(1 << l for l in o) for o in opts) if opts[0] else None
        self[code] = masks
        return masks


@lru_cache(maxsize=None)
def _mask_table(mode: str, s: int) -> _MaskTable:
    return _MaskTable(mode, s)


_UNMARKED_LINK = 4**6 - 1
_FORCED = {1: 0, 2: 1, 4: 2}  # single-label bitmask -> label


class _Kernel:
    """Propagation and depth-first search over one indexed window.

    See the module docstring for the design.  The search assigns free faces
    in the order the faces are given.  Construction propagates the given
    marks; `failure` is then None or the (vertex, reason) witness of the
    contradiction found.
    """

    def __init__(self, faces: Sequence[Face], marks: Dict[Face, int], mode: str):
        index = {f: i for i, f in enumerate(faces)}
        vertex_index: Dict[Vertex, int] = {}
        sites = []
        for f in faces:
            row = []
            for v in face_vertices(f):
                w = vertex_index.setdefault(v, len(vertex_index))
                row.append((w, link_sector(v, f)))
            sites.append(tuple(row))
        self.faces = tuple(faces)
        self.vertices = tuple(vertex_index)
        self.sites = sites
        self.around = [
            tuple(index[g] for g in link_faces(v) if g in index) for v in self.vertices
        ]
        self.tables = [_mask_table(mode, vertex_s(v)) for v in self.vertices]
        self.code = [_UNMARKED_LINK] * len(self.vertices)
        self.label = [-1] * len(faces)
        for f, l in marks.items():
            g = index[f]
            self.label[g] = l
            for w, k in sites[g]:
                self.code[w] -= (3 - l) << 2 * k
        self.masks = [t[c] for t, c in zip(self.tables, self.code)]
        self.trail: List[int] = []
        self.failure: Optional[Tuple[Vertex, str]] = None
        dead = next((w for w, m in enumerate(self.masks) if m is None), None)
        if dead is not None:
            v = self.vertices[dead]
            self.failure = (v, f"no ring matches the link at {v}")
            return
        g = self._fixpoint(list(range(len(self.vertices))))
        if g is not None:
            f = self.faces[g]
            self.failure = (face_vertices(f)[0], f"no admissible label for {f}")

    def marks(self) -> Dict[Face, int]:
        return {f: l for f, l in zip(self.faces, self.label) if l >= 0}

    def _allowed(self, g: int) -> int:
        masks = self.masks
        (a, ka), (b, kb), (c, kc) = self.sites[g]
        return masks[a][ka] & masks[b][kb] & masks[c][kc]

    def _assign(self, g: int, l: int, queue: List[int]) -> None:
        """Mark face g with l and queue its vertices.

        l must be an admissible label of g, so each vertex of g keeps a
        ring match and no mask becomes None.
        """
        code, masks, tables = self.code, self.masks, self.tables
        self.label[g] = l
        self.trail.append(g)
        for w, k in self.sites[g]:
            c = code[w] = code[w] - ((3 - l) << 2 * k)
            masks[w] = tables[w][c]
            queue.append(w)

    def _fixpoint(self, queue: List[int]) -> Optional[int]:
        """Force faces around the queued vertices until nothing moves.

        Returns a face left with no admissible label, or None.
        """
        label, masks, sites, around = self.label, self.masks, self.sites, self.around
        while queue:
            for g in around[queue.pop()]:
                if label[g] >= 0:
                    continue
                (a, ka), (b, kb), (c, kc) = sites[g]
                allowed = masks[a][ka] & masks[b][kb] & masks[c][kc]
                if allowed not in _FORCED:
                    if allowed:
                        continue
                    return g
                self._assign(g, _FORCED[allowed], queue)
        return None

    def _undo(self, mark: int) -> None:
        code, masks, tables, label, trail = (
            self.code, self.masks, self.tables, self.label, self.trail)
        while len(trail) > mark:
            g = trail.pop()
            l = label[g]
            label[g] = -1
            for w, k in self.sites[g]:
                c = code[w] = code[w] + ((3 - l) << 2 * k)
                masks[w] = tables[w][c]

    def search(self, stop_at: Optional[int] = None) -> List[Dict[Face, int]]:
        """Total markings of the faces, at most stop_at of them."""
        found: List[Tuple[int, ...]] = []
        if self.failure is None:
            self._search(0, found, stop_at)
        return [dict(zip(self.faces, labels)) for labels in found]

    def _next_free(self, pos: int) -> int:
        label = self.label
        while pos < len(label) and label[pos] >= 0:
            pos += 1
        return pos

    def _search(self, pos: int, found: list, stop_at: Optional[int]) -> None:
        pos = self._next_free(pos)
        if pos == len(self.label):
            found.append(tuple(self.label))
            return
        allowed = self._allowed(pos)
        for l in (0, 1, 2):
            if stop_at is not None and len(found) >= stop_at:
                return
            if not allowed >> l & 1:
                continue
            mark = len(self.trail)
            queue: List[int] = []
            self._assign(pos, l, queue)
            if self._fixpoint(queue) is None:
                self._search(pos + 1, found, stop_at)
            self._undo(mark)

    def branches(self) -> List[Dict[Face, int]]:
        """The root's marks with each admissible label of its first free face."""
        if self.failure is not None:
            return []
        root = self.marks()
        pos = self._next_free(0)
        if pos == len(self.label):
            return [root]
        allowed = self._allowed(pos)
        return [{**root, self.faces[pos]: l} for l in (0, 1, 2) if allowed >> l & 1]


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
    kernel = _Kernel(faces, config.marks, mode)
    if kernel.failure is not None:
        raise Contradiction([kernel.failure])
    return Configuration(scope | config.window, kernel.marks(), config.period)


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
    if threads <= 1:
        found = _Kernel(order, config.marks, mode).search()
    else:
        branches = _Kernel(order, config.marks, mode).branches()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda b: _Kernel(order, b, mode).search(), branches))
        found = [m for part in parts for m in part]
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
    target = _target(config, target_window)
    return bool(_Kernel(_search_order(target), config.marks, mode).search(stop_at=1))


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
