"""Axis distributions on lattice vertices: parity, propagation, classification.

A distribution assigns one of the three simplicial axes to each vertex.
A face is Odd when an odd number of its three vertices carry an axis
different from their opposite-side axis (those vertices count as rank 2;
the others as rank 3/2).  `induced_distribution` reads the two link bytes
of each vertex off `engine.link_bytes` (the grid plan that `check` reads)
and takes each total link's rank axis through a memo keyed by them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .lattice import (
    A0,
    A1,
    A2,
    AXES,
    Face,
    POINT_GROUP,
    Vertex,
    face_vertices,
    opposite_axis_at_vertex,
    runs,
    vertices_within,
)
from .engine import UNSET, link_bytes
from .kernel import Kernel, Plan, Table
from .rings import rank_axis

ODD = "Odd"
EVEN = "Even"

SPECIAL_D0 = "SpecialD0"
FAMILY_1 = "Family1Periodic"
FAMILY_2 = "Family2Periodic"
UNKNOWN = "Unknown"

# Trapezoid seed: two aligned horizontal-axis vertices, the 120-degree root
# to their right, and the 60-degree root above; written with the middle
# horizontal vertex at the origin.
T0_SEED: Dict[Vertex, int] = {(-1, 0): A0, (0, 0): A0, (1, 0): A2, (0, 1): A1}


class Distribution:
    """A finite vertex window, kept as a frozenset, with a (possibly partial)
    axis assignment, a dict; equal by (window, axis), and unhashable."""

    __slots__ = ("window", "axis")

    def __init__(self, window: Iterable[Vertex], axis: Dict[Vertex, int]) -> None:
        self.window, self.axis = frozenset(window), axis
        bad = set(axis) - self.window
        if bad:
            raise ValueError(f"axes outside window: {sorted(bad)[:3]}")
        if not set(AXES).issuperset(axis.values()):
            # vertices are distinct, so the sort never compares two axes
            wrong = sorted((v, a) for v, a in axis.items() if a not in AXES)
            raise ValueError(f"axes not in A0, A1, A2: {wrong[:3]}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and (self.window, self.axis) == (
            other.window, other.axis)

    def __repr__(self) -> str:
        return f"Distribution(window={self.window!r}, axis={self.axis!r})"

    def total(self) -> bool:
        return set(self.axis) == set(self.window)


def make_distribution(axis: Dict[Vertex, int]) -> Distribution:
    return Distribution(frozenset(axis), dict(axis))


class DistContradiction(Exception):
    def __init__(self, vertex: Vertex, why: str, face: Optional[Face] = None):
        self.vertex = vertex
        self.face = face
        super().__init__(why)


def hex_window(radius: int) -> frozenset:
    """All vertices within hex distance radius of the origin."""
    return frozenset(vertices_within([(0, 0)], radius))


def interior_faces(vertices: Iterable[Vertex]) -> List[Face]:
    """Faces all three of whose corners lie in the vertex set, sorted.

    Each face is found once, at its first corner in `face_vertices` order:
    at (x, y), Up(x, y) is interior iff (x+1, y) and (x, y+1) are in the
    set, and Down(x-1, y) iff (x-1, y+1) and (x, y+1) are."""
    vs = set(vertices)
    faces = []
    for x, y in vs:
        if (x, y + 1) in vs:
            if (x + 1, y) in vs:
                faces.append(Face(x, y, True))
            if (x - 1, y + 1) in vs:
                faces.append(Face(x - 1, y, False))
    faces.sort()
    return faces


@lru_cache(maxsize=None)
def _parity_table(up_face: bool) -> Table:
    """The parity table of a face of the orientation, keyed by Face.up: its
    words are the axis triples, in `face_vertices` order, with an odd number
    of rank-2 corners.  The corners' opposite axes are (A2, A1, A0) on an up
    face and (A0, A1, A2) on a down face."""
    f = Face(0, 0, up_face)
    opposite = tuple(opposite_axis_at_vertex(f, v) for v in face_vertices(f))
    return Table(3, (axes for axes in product(AXES, repeat=3)
                     if sum(a != o for a, o in zip(axes, opposite)) % 2))


def face_parity(dist: Distribution, f: Face) -> str:
    """Odd or Even count of rank-2 corners of f, read by their axes' code; needs all three."""
    vs = face_vertices(f)
    axes = tuple(map(dist.axis.get, vs))
    if None in axes:
        raise ValueError(f"insufficient data at {vs[axes.index(None)]} for face {f}")
    a, b, c = axes
    return ODD if _parity_table(f.up)[a | b << 2 | c << 4] else EVEN


@lru_cache(maxsize=None)
def _link_axis(low: int, high: int) -> Optional[int]:
    """The rank axis of the link with these two link bytes (see
    `engine.link_bytes`), or None when a position is free."""
    word = tuple(b >> 2 * k & 3 for b in (low, high) for k in range(3))
    return None if UNSET in word else rank_axis(word, low >> 6)


def induced_distribution(config) -> Distribution:
    """Axis of the unique multiplicity-1 half-link pair at each fully marked link."""
    axis: Dict[Vertex, int] = {}
    for box, low, high in link_bytes(config.window, config.labels):
        for i, a in enumerate(map(_link_axis, low, high)):
            if a is not None:
                axis[box.vertex(i)] = a
    return make_distribution(axis)


def _parity_plan(window: Iterable[Vertex]) -> Tuple[List[Vertex], List[Face], Plan]:
    """The window's vertices sorted, its interior faces, and the kernel plan
    of the vertices under the faces' parity constraints."""
    vertices = sorted(window)
    faces = interior_faces(vertices)
    plan = Plan(vertices, ((face_vertices(f), _parity_table(f.up)) for f in faces))
    return vertices, faces, plan


def dist_propagate(
    dist: Distribution, refute: bool = False
) -> Distribution:
    """Assign every vertex whose axis is forced by keeping all faces Odd.

    With refute=True, a stalled propagation additionally rules out candidate
    axes whose consequences under propagation contradict, which is enough
    to rebuild the special distribution from its seed.  Raises
    DistContradiction when a given face is Even or a vertex is left with
    no admissible axis.
    """
    vertices, faces, plan = _parity_plan(dist.window)
    kernel = Kernel(plan, dist.axis.items())
    if kernel.failure is not None:
        c, g = kernel.failure
        f = faces[c]
        if g is None:
            raise DistContradiction(face_vertices(f)[0], f"face {f} is {EVEN}", f)
        v = vertices[g]
        raise DistContradiction(v, f"no admissible axis at {v} (face {f})", f)
    progress = refute
    while progress:
        progress = False
        for g, v in enumerate(vertices):
            if kernel.label[g] != UNSET:
                continue
            allowed = kernel.allowed(g)
            survivors = [a for a in AXES if allowed >> a & 1 and kernel.probe(g, a)]
            if not survivors:
                raise DistContradiction(v, f"no admissible axis at {v}")
            if len(survivors) == 1:
                kernel.assign(g, survivors[0])
                progress = True
    axis = {v: a for v, a in zip(vertices, kernel.label) if a != UNSET}
    return Distribution(dist.window, axis)


def build_D0(window: Iterable[Vertex]) -> Distribution:
    """The unique all-odd distribution through the trapezoid seed."""
    w = frozenset(window)
    if not set(T0_SEED) <= w:
        raise ValueError("window must contain the seed trapezoid")
    out = dist_propagate(Distribution(w, dict(T0_SEED)), refute=True)
    if not out.total():
        raise ValueError("window too irregular")
    return out


def all_faces_odd(dist: Distribution) -> bool:
    return all(face_parity(dist, f) == ODD for f in interior_faces(dist.window))


def _lines(dist: Distribution, direction: int) -> Tuple[List[int], List[List[int]]]:
    """The sorted keys of the maximal window lines in the given direction,
    and the axis values along each line."""
    keyed: Dict[int, List[Tuple[int, int]]] = {}
    for v in dist.window:
        # project out the direction: the key names the line, t the place on it
        x, y = v
        key, t = ((y, x) if direction == A0 else
                  (x, y) if direction == A1 else (x + y, y))
        keyed.setdefault(key, []).append((t, dist.axis[v]))
    keys = sorted(keyed)
    return keys, [[a for _, a in sorted(keyed[k])] for k in keys]


def _is_family1(dist: Distribution) -> bool:
    """Some direction: constant lines, alternating line-parallel and not."""
    for d in AXES:
        keys, lines = _lines(dist, d)
        if len(keys) < 3 or keys != list(range(keys[0], keys[0] + len(keys))):
            continue
        if any(len(set(line)) != 1 for line in lines):
            continue
        values = [line[0] for line in lines]
        par = [i % 2 for i, val in enumerate(values) if val == d]
        if not par:
            continue
        if len(set(par)) == 1 and all(
            (values[i] == d) == (i % 2 == par[0]) for i in range(len(values))
        ):
            return True
    return False


def _is_family2(dist: Distribution) -> bool:
    """Some direction: every line 2-periodic along its run."""
    for d in AXES:
        keys, lines = _lines(dist, d)
        if len(keys) < 2 or keys != list(range(keys[0], keys[0] + len(keys))):
            continue
        if all(
            len(line) >= 3 and all(line[i] == line[i + 2] for i in range(len(line) - 2))
            for line in lines
        ):
            return True
    return False


@lru_cache(maxsize=None)
def _d0_reference(radius: int) -> Distribution:
    return build_D0(hex_window(radius))


def matches_d0(dist: Distribution) -> bool:
    """Whether some lattice isometry carries dist into D0 on the hexagon of
    radius 9 or, if larger, dist's hex diameter: the largest range of a, b
    or a + b over its vertices.  D0 on a hexagon of radius r has diameter
    2r, so it always fits."""
    items = sorted(dist.axis.items())
    if not items:
        return False
    coords = zip(*((a, b, a + b) for (a, b), _ in items))
    ref = _d0_reference(max(9, *(max(c) - min(c) for c in coords)))
    for g in POINT_GROUP:
        moved = [(g.apply_vertex(v), g.apply_axis(a)) for v, a in items]
        anchor = min(m[0] for m in moved)
        for w in ref.window:
            tx, ty = w[0] - anchor[0], w[1] - anchor[1]
            for (vx, vy), a in moved:
                # ref is total and no axis is None, so a vertex outside fails here
                if ref.axis.get((vx + tx, vy + ty)) != a:
                    break
            else:
                return True
    return False


def classify_distribution(dist: Distribution) -> str:
    """SpecialD0, Family1Periodic, Family2Periodic, or Unknown."""
    if not dist.total():
        raise ValueError("classification needs a total distribution")
    if not all_faces_odd(dist):
        raise ValueError("not an odd distribution")
    if _is_family1(dist):
        return FAMILY_1
    if _is_family2(dist):
        return FAMILY_2
    if matches_d0(dist):
        return SPECIAL_D0
    return UNKNOWN


def half_strip_report() -> dict:
    """Propagate the aligned-horizontal seed downward and read row profiles.

    Seeded on the top row with two horizontal axes and one 120-degree axis,
    the rows below are forced one by one; profile "a" is (A0, A0, A2) and
    profile "b" is (A2, A2, A0) at the three middle columns.
    """
    height, width = 4, 5  # rows read below the seed row, strip columns
    # two rows of slack below the reported strip so its bottom row is interior
    window = frozenset((x, -k) for x in range(width) for k in range(height + 3))
    seed = {(1, 0): A0, (2, 0): A0, (3, 0): A2}
    out = dist_propagate(Distribution(window, seed))
    rows = []
    for k in range(height + 1):
        trio = tuple(out.axis.get((x, -k)) for x in (1, 2, 3))
        if trio == (A0, A0, A2):
            rows.append("a")
        elif trio == (A2, A2, A0):
            rows.append("b")
        elif None in trio:
            rows.append("stalled")
        else:
            rows.append(str(trio))
    return {
        "rows": rows,
        "alternates": all(
            rows[k] == ("a" if k % 2 == 0 else "b") for k in range(height + 1)
        ),
    }


def _axis_runs(vs: Set[Vertex]) -> List[Tuple[int, List[List[Vertex]]]]:
    """Per axis, the axis and the maximal runs of vs along it."""
    return [(d, runs(vs, d)) for d in AXES]


def _has_rank32_segment(
    axis: Dict[Vertex, int], lines: List[Tuple[int, List[List[Vertex]]]]
) -> bool:
    """A length-3 segment of the runs given per axis (`_axis_runs`) whose two
    interior vertices both align with it."""
    for d, line in lines:
        for run in line:
            for i in range(len(run) - 3):
                if axis[run[i + 1]] == d and axis[run[i + 2]] == d:
                    return True
    return False


def verify_lemma_L3(n: int = 4) -> dict:
    """Exhaustive check: every all-odd n-by-n assignment has a rank-3/2
    length-3 segment, either inside the window or forced on a one-ring
    enlargement."""
    grid = {(x, y) for x in range(n) for y in range(n)}
    results = {
        "assignments": 0,
        "with_segment": 0,
        "forced_on_enlargement": 0,
        "unextendable": 0,
        "counterexamples": [],
    }
    enlarged = frozenset(vertices_within(grid, 1))
    # one plan for the enlargement: each assignment is propagated on it as
    # dist_propagate would propagate it, without building a plan per call
    outer, _, outer_plan = _parity_plan(enlarged)

    vertices, _, plan = _parity_plan(grid)
    grid_runs = _axis_runs(grid)  # every assignment labels the whole grid
    for axes in Kernel(plan, ()).search():
        axis = dict(zip(vertices, axes))
        results["assignments"] += 1
        if _has_rank32_segment(axis, grid_runs):
            results["with_segment"] += 1
            continue
        bigger = Kernel(outer_plan, axis.items())
        if bigger.failure is not None:
            results["unextendable"] += 1
            continue
        forced = {v: a for v, a in zip(outer, bigger.label) if a != UNSET}
        if _has_rank32_segment(forced, _axis_runs({v for v in enlarged if v in forced})):
            results["forced_on_enlargement"] += 1
        else:
            results["counterexamples"].append(sorted(axis.items()))
    return results
