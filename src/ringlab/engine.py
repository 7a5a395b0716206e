"""Partial configurations: checking, propagation, enumeration, probes.

A configuration is its window and its labels in the window's sorted face
order as bytes, UNSET (3) where a face is free, and nothing else;
`make_config` builds one from a dict.  Its `marks` is a read-only
{face: label} view built on first read; assembly, `check`, search and the
catalog matches read the label bytes only.

`propagate`, `enumerate_completions` and `have_completions` run on
`kernel.Kernel` (see that module for the design) over one cached plan per
window and mode (`_plan`; the twelve special puzzles of one radius share
one): faces are its variables, numbered in sorted face order as the label
bytes list them and searched in `_search_order`, and every vertex is one
ring constraint whose table accepts the legal words of its family s.  A
call builds a kernel's state only, given the faces with their label
bytes, and reads its labels as label bytes.  `have_completions` probes a batch
on one kernel, assuming each configuration's marks on the trail and
undoing them; `has_completion` and the survival sweep of `reports` probe
through it.  No kernel outlives its call.

`check` reads every vertex link of a window at once, in bytes and big-int
operations, through one cached plan per window (`link_grid`).  The plan
gathers the label bytes, by slices, onto a padded grid in sorted face
order, where each link position of every vertex is one strided slice; a
sparse window is covered by several small grids (boxes), not one over its
bounding box.  A box places its columns' faces, found by bisection, at
their cells and reads the rest as padding past the labels.  `link_bytes`
reads a window and its label bytes and packs each vertex's link into two
bytes, family and three labels each, and `induced_distribution` reads
those.  `check` maps them through `bytes.translate` tables built from the
legal words (`_link_tables`, which agree with the ring tables) and finds a
dead vertex as a zero byte.  It keeps its verdict per marking (`_verdict`,
a bounded cache keyed by window, label bytes and mode), so the many
stacking words that give one strip-stack marking are read once.
Both plans read the window's vertices as `window_order` sorts them, once a
window, and neither plan builds the other.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import groupby
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .lattice import (
    LINK_FACE_STEPS, Face, Vertex, face_vertices, link_faces, window_vertices)
from .kernel import UNSET, Kernel, Plan, Table
from .labeling import vertex_s
from .rings import DEFAULT_MODE, legal_words

VALID = "Valid"
CONTRADICTION = "Contradiction"
INCOMPLETE = "Incomplete"
_LABELS = frozenset((0, 1, 2))
_LABEL_BYTES = bytes((0, 1, 2, UNSET))


@lru_cache(maxsize=64)
def window_order(
    window: frozenset,
) -> Tuple[Tuple[Face, ...], Dict[Face, int], Tuple[Vertex, ...]]:
    """The window's faces in sorted order, each face's position in it, and
    the window's vertices in sorted order: one entry per window, which its
    configurations, `check` (`link_grid`) and the kernel plan (`_plan`) share."""
    faces = tuple(sorted(window))
    return faces, {f: g for g, f in enumerate(faces)}, tuple(sorted(window_vertices(faces)))


class Configuration:
    """A finite window of faces with a partial marking, kept by position:
    `faces` is the window's faces in sorted order (from `window_order`),
    and `labels`, as given, their labels in that order as bytes, UNSET (3)
    where unmarked.  `marks` is a read-only {face: label} view of the marked
    faces, built on first read from fields that are read-only too."""

    __slots__ = ("_window", "_faces", "_labels", "_marks")
    window, faces, labels = map(property, map(attrgetter, __slots__[:3]))

    def __init__(self, window: Iterable[Face], labels: bytes) -> None:
        window = frozenset(window)
        self._faces, self._labels = window_order(window)[0], bytes(labels)
        if len(self._labels) != len(self._faces):
            raise ValueError(f"{len(self._labels)} labels for {len(self._faces)} faces")
        if self._labels.translate(None, _LABEL_BYTES):
            raise ValueError(f"labels not in 0, 1, 2, 3: {sorted(set(self._labels))}")
        self._window, self._marks = window, None

    @property
    def marks(self) -> Mapping[Face, int]:
        if self._marks is None:
            self._marks = MappingProxyType(
                {f: l for f, l in zip(self._faces, self._labels) if l != UNSET})
        return self._marks

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and (self.window, self.labels) == (
            other.window, other.labels)

    def __repr__(self) -> str:
        return f"Configuration(window={self.window!r}, marks={dict(self.marks)!r})"


def make_config(marks: Mapping[Face, int],
                window: Optional[Iterable[Face]] = None) -> Configuration:
    """The marks on their faces and the window's, as one configuration; a
    frozenset window holding the marks is kept, for the per-window caches."""
    if not _LABELS.issuperset(marks.values()):
        # faces are distinct, so the sort never compares two marks
        bad = sorted((f, l) for f, l in marks.items() if l not in _LABELS)
        raise ValueError(f"marks not in 0, 1, 2: {bad[:3]}")
    if not (isinstance(window, frozenset) and window.issuperset(marks)):
        window = frozenset(marks).union(window or ())
    labels = [marks.get(f, UNSET) for f in window_order(window)[0]]
    return Configuration(window, labels)


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


# A box's grid holds at most _GRID_PER_VERTEX bytes a vertex of the box,
# plus _GRID_SLACK, so a sparse window is read in several small grids, not
# in one over its bounding box.
_GRID_PER_VERTEX = 4
_GRID_SLACK = 64


class LinkBox:
    """One pass over the vertices of a window in one box.

    The box's grid has `columns` columns x from gx, each `height` face rows
    y from gy (the last a padding row), two cells a face: face (x, y, u)
    sits at `cell(x, y, u)` = 2((x - gx) * height + y - gy) + u, Down then
    Up, so the grid lists its faces in sorted face order.  `read` gathers
    it off the labels with the plan's tail appended, as runs of label
    positions and of UNSET padding.  Vertex cell i is the cell of Down(x, y)
    for (x, y) = `vertex(i)`, and link position k of every vertex cell is
    one strided slice from `starts[k]`.  `families` holds each vertex
    cell's family s as s << 6, one big-endian byte a cell.
    """

    __slots__ = ("read", "starts", "size", "families", "gx", "gy", "height", "columns")

    def __init__(self, gx: int, gy: int, height: int, columns: int) -> None:
        self.gx, self.gy, self.height, self.columns = gx, gy, height, columns
        # vertex cells start at column 1, row 1, so no link step leaves the grid
        self.size = height * (columns - 1) - 1
        self.starts = tuple(2 * height + 2 + step for step in
                            (1, -2 * height, 1 - 2 * height, -2 - 2 * height, -1, -2))
        families = bytes(vertex_s(v) << 6 for v in map(self.vertex, range(self.size)))
        self.families = int.from_bytes(families, "big")

    def cell(self, x: int, y: int, u: bool) -> int:
        return 2 * ((x - self.gx) * self.height + y - self.gy) + u

    def vertex(self, i: int) -> Vertex:
        j = i + self.height + 1
        return (self.gx + j // self.height, self.gy + j % self.height)


def _boxes(vertices: Sequence[Vertex]) -> Iterator[Tuple[int, int, int, int]]:
    """Boxes (x0, y0, x1, y1) covering runs of the vertices, in sorted order.

    A box's grid has the columns x0 - 1 .. x1 and the face rows y0 - 1 .. y1
    plus one padding row, two cells a face; a run grows while its grid stays
    within _GRID_PER_VERTEX bytes a vertex plus _GRID_SLACK.
    """
    n = 0
    for x, y in vertices:
        if n:
            low, high = min(y0, y), max(y1, y)
            if 2 * (x - x0 + 2) * (high - low + 3) <= _GRID_PER_VERTEX * (n + 1) + _GRID_SLACK:
                y0, y1, x1, n = low, high, x, n + 1
                continue
            yield x0, y0, x1, y1
        x0, y0, x1, y1, n = x, y, x, y, 1
    if n:
        yield x0, y0, x1, y1


@lru_cache(maxsize=16)
def link_grid(window: frozenset) -> Tuple[Tuple[LinkBox, ...], bytes]:
    """The boxes over the window's vertices, and the UNSET tail their
    padding reads past the labels.

    A box bisects the sorted faces for each of its columns and puts each
    face at its `LinkBox.cell`.  Any other cell c is padding, read at
    `outside + c` in the tail, which is the largest grid long.

    A vertex (x, y) reads its link at the steps +1, -2H, -2H + 1, -2H - 2,
    -1 and -2 from the cell of Down(x, y), H the rows of a column with its
    padding row.  Every vertex of the box reads its whole link.  A cell in
    a column's first row reads the padding row of the columns before it for
    link positions 3-5, and a cell in the padding row reads padding for
    positions 0-2: each reads part of its own vertex's link, the rest free,
    so a vertex it finds dead is dead.
    """
    order, _, vertices = window_order(window)
    outside = len(order)
    boxes, tail = [], 0
    for x0, y0, x1, y1 in _boxes(vertices):
        box = LinkBox(x0 - 1, y0 - 1, y1 - y0 + 3, x1 - x0 + 2)
        positions = list(range(outside, outside + 2 * box.height * box.columns))
        tail = max(tail, len(positions))
        for x in range(box.gx, x1 + 1):
            # the column's faces in rows gy .. y1; its padding row holds none
            for g in range(bisect_left(order, (x, box.gy)), bisect_left(order, (x, y1 + 1))):
                positions[box.cell(*order[g])] = g
        runs = [[g for _, g in run] for _, run in
                groupby(enumerate(positions), lambda ig: ig[1] - ig[0])]
        box.read = itemgetter(*(slice(run[0], run[-1] + 1) for run in runs))
        boxes.append(box)
    return tuple(boxes), bytes((UNSET,)) * tail


def link_bytes(window: frozenset, labels: bytes) -> Iterator[Tuple[LinkBox, bytes, bytes]]:
    """Per box of the window's `link_grid`, the two link bytes of each vertex
    cell, given the window's label bytes: s << 6 of its family s, ORed with
    its labels at link positions 0, 1, 2 (then 3, 4, 5) in bits 0-1, 2-3
    and 4-5, UNSET where free."""
    boxes, tail = link_grid(window)
    labels = labels + tail
    for box in boxes:
        grid = b"".join(box.read(labels))
        s0, s1, s2, s3, s4, s5 = box.starts
        span = 2 * box.size
        low = (box.families | int.from_bytes(grid[s0:s0 + span:2], "big")
               | int.from_bytes(grid[s1:s1 + span:2], "big") << 2
               | int.from_bytes(grid[s2:s2 + span:2], "big") << 4)
        high = (box.families | int.from_bytes(grid[s3:s3 + span:2], "big")
                | int.from_bytes(grid[s4:s4 + span:2], "big") << 2
                | int.from_bytes(grid[s5:s5 + span:2], "big") << 4)
        yield box, low.to_bytes(box.size, "big"), high.to_bytes(box.size, "big")


@lru_cache(maxsize=None)
def _ring_table(mode: str, s: int) -> Table:
    """The link table of family s, built from its legal words: those some ring map matches."""
    return Table(6, (w for t, w in legal_words(mode) if t == s))


@lru_cache(maxsize=None)
def _link_tables(mode: str) -> Tuple[Tuple[bytes, bytes], ...]:
    """Translate tables for link bytes (`link_bytes`), one pair per eight
    legal words of a family.  Word t of family s is bit t % 8 of pair t // 8;
    the pair's low (high) table maps a link byte of family s to the bits of
    the words whose positions 0-2 (3-5) it matches, an UNSET label matching
    any.  A link is live iff the images of its two bytes share a bit in some
    pair: the tables read the words that `_ring_table` accepts."""
    families = [[w for t, w in legal_words(mode) if t == s] for s in range(3)]
    halves = ([0] * 256, [0] * 256)
    for s, words in enumerate(families):
        for t, word in enumerate(words):
            for bits, (a, b, c) in zip(halves, (word[:3], word[3:])):
                for x in (s << 6 | a, s << 6 | UNSET):
                    for y in (x | b << 2, x | UNSET << 2):
                        for z in (y | c << 4, y | UNSET << 4):
                            bits[z] |= 1 << t
    k = (max(map(len, families)) + 7) // 8
    low, high = (b"".join(b.to_bytes(k, "little") for b in bits) for bits in halves)
    return tuple((low[j::k], high[j::k]) for j in range(k))


def check(config: Configuration, mode: str = DEFAULT_MODE) -> Verdict:
    """Ring-match every vertex touched by a mark; partial links use wildcards.

    Every vertex of the window is matched: one that no mark touches has the
    all-free link, which some ring always matches.  The verdict is kept per
    marking (`_verdict`), so a marking checked again is not read again.
    """
    return _verdict(config.window, config.labels, mode)


# `_verdict` keeps the verdicts of the last _VERDICTS markings: more than the
# 96 distinct markings of the largest group of strip stacks checked in a row
# (five rows, at either height), whose words repeat markings 2^n times at
# height 1.
_VERDICTS = 128


@lru_cache(maxsize=_VERDICTS)
def _verdict(window: frozenset, labels: bytes, mode: str) -> Verdict:
    """The verdict of `check` on the window marked by the label bytes."""
    tables = _link_tables(mode)
    dead = set()
    for box, low, high in link_bytes(window, labels):
        live = 0
        for low_table, high_table in tables:
            live |= (int.from_bytes(low.translate(low_table), "big")
                     & int.from_bytes(high.translate(high_table), "big"))
        live = live.to_bytes(box.size, "big")
        if 0 in live:
            dead.update(box.vertex(i) for i, b in enumerate(live) if not b)
    if dead:
        witnesses = tuple((v, f"no ring matches the link at {v}") for v in sorted(dead))
        return Verdict(CONTRADICTION, witnesses, ())
    if UNSET in labels:
        unmarked = tuple(f for f, l in zip(window_order(window)[0], labels) if l == UNSET)
        return Verdict(INCOMPLETE, (), unmarked)
    return Verdict(VALID, (), ())


@lru_cache(maxsize=16)
def _plan(window: frozenset, mode: str) -> Plan:
    """The window's kernel plan: the faces in sorted order are the
    variables, numbered by the window's own position map and searched in
    `_search_order`, and the link of each vertex, in the window's sorted
    vertex order, is one ring constraint, its faces looked up as plain
    (x, y, up) tuples, which equal and hash as their Faces."""
    _, index, vertices = window_order(window)
    get, tables = index.get, [_ring_table(mode, s) for s in range(3)]
    links = (([get((x + dx, y + dy, u)) for dx, dy, u in LINK_FACE_STEPS], tables[vertex_s((x, y))])
             for x, y in vertices)
    return Plan(index, links, map(index.__getitem__, _search_order(window)))


def propagate(config: Configuration, mode: str = DEFAULT_MODE) -> Configuration:
    """Assign every forced face of the window until nothing moves.

    A face is forced when exactly one label keeps all three of its vertices
    ring-consistent.  Raises Contradiction when a vertex loses all matches
    or a face loses all labels.
    """
    kernel = Kernel(_plan(config.window, mode), zip(config.faces, config.labels))
    if kernel.failure is not None:
        c, g = kernel.failure
        if g is None:
            v = window_order(config.window)[2][c]
            raise Contradiction([(v, f"no ring matches the link at {v}")])
        f = config.faces[g]
        raise Contradiction([(face_vertices(f)[0], f"no admissible label for {f}")])
    return Configuration(config.window, bytes(kernel.label))


def _search_order(target: frozenset) -> Tuple[Face, ...]:
    """Faces sorted by squared distance from the window centroid, then
    position.  Three times the centroid of face (x, y, u) is
    (3x + 2 - u, 3y + 2 - u) in axial coordinates, whose squared length is
    a^2 + ab + b^2; the stable sort of the sorted faces breaks ties."""
    faces = window_order(target)[0]
    n = len(faces)
    cx = sum(3 * x + 2 - u for x, _, u in faces)
    cy = sum(3 * y + 2 - u for _, y, u in faces)

    def key(f: Face) -> int:
        x, y, u = f
        a = (3 * x + 2 - u) * n - cx
        b = (3 * y + 2 - u) * n - cy
        return a * a + a * b + b * b

    return tuple(sorted(faces, key=key))


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

    The search hands over each marking as its label bytes, which list it in
    sorted face order; the result is sorted by them, in place, so it does
    not depend on search order.  `threads` is accepted for compatibility
    and ignored: the search is sequential.
    """
    target = _target(config, target_window)
    found = Kernel(_plan(target, mode), zip(config.faces, config.labels)).search()
    found.sort()
    return [Configuration(target, l) for l in found]


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
    kernel and its search order.  An empty batch builds no plan or kernel.
    """
    configs = list(configs)
    if not configs:
        return []
    target = frozenset(target_window)
    kernel = Kernel(_plan(target, mode), ())
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

