"""Triangular-lattice geometry: faces, edges, links, balls, and isometries.

Vertices use axial integer coordinates (a, b) for a*e1 + b*e2 with
e1 = (1, 0) and e2 = (1/2, sqrt(3)/2).  No floats appear anywhere in the
core; squared lengths use the quadratic form a^2 + a*b + b^2.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet, Iterable, List, NamedTuple, Set, Tuple

Vertex = Tuple[int, int]

A0 = 0  # horizontal axis (0 / 180 degrees)
A1 = 1  # 60 / 240 degrees
A2 = 2  # 120 / 300 degrees
AXES = (A0, A1, A2)

AXIS_NAMES = {A0: "A0", A1: "A1", A2: "A2"}
AXIS_BY_NAME = {v: k for k, v in AXIS_NAMES.items()}

# Unit steps along each axis in axial coordinates.
AXIS_STEPS = {A0: (1, 0), A1: (0, 1), A2: (-1, 1)}

NEIGHBOR_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


class Face(NamedTuple):
    """One lattice triangle; up=True points upward from its (x, y) corner."""

    x: int
    y: int
    up: bool

    def __repr__(self) -> str:
        return f"{'Up' if self.up else 'Down'}({self.x},{self.y})"


class Edge(NamedTuple):
    """One lattice edge, identified by base vertex and axis direction."""

    x: int
    y: int
    axis: int


def up(x: int, y: int) -> Face:
    return Face(x, y, True)


def down(x: int, y: int) -> Face:
    return Face(x, y, False)


def face_vertices(f: Face) -> Tuple[Vertex, Vertex, Vertex]:
    x, y = f.x, f.y
    if f.up:
        return ((x, y), (x + 1, y), (x, y + 1))
    return ((x + 1, y), (x, y + 1), (x + 1, y + 1))


# The edges of `face_edges` (by Face.up) and of `incident_edges`, in their
# order, as (dx, dy, axis) steps from the face's or the vertex's (x, y).  A
# plain (x, y, axis) tuple equals its Edge and hashes alike, so a dict keyed
# by Edges can be read without building one.
FACE_EDGE_STEPS = {True: ((0, 0, A0), (0, 0, A1), (0, 0, A2)),
                   False: ((0, 0, A2), (1, 0, A1), (0, 1, A0))}
INCIDENT_EDGE_STEPS = ((0, 0, A0), (0, 0, A1), (-1, 0, A2), (-1, 0, A0), (0, -1, A1), (0, -1, A2))


def face_edges(f: Face) -> Tuple[Edge, ...]:
    x, y = f.x, f.y
    return tuple(Edge(x + dx, y + dy, a) for dx, dy, a in FACE_EDGE_STEPS[f.up])


def edge_vertices(e: Edge) -> Tuple[Vertex, Vertex]:
    x, y = e.x, e.y
    if e.axis == A0:
        return ((x, y), (x + 1, y))
    if e.axis == A1:
        return ((x, y), (x, y + 1))
    return ((x + 1, y), (x, y + 1))


def edge_from_vertices(p: Vertex, q: Vertex) -> Edge:
    """Inverse of edge_vertices for an unordered endpoint pair."""
    (ax, ay), (bx, by) = sorted((p, q))
    dx, dy = bx - ax, by - ay
    if (dx, dy) == (1, 0):
        return Edge(ax, ay, A0)
    if (dx, dy) == (0, 1):
        return Edge(ax, ay, A1)
    if (dx, dy) == (1, -1):
        # sorted order puts (x, y+1) first for an R edge, so its base is (ax, by)
        return Edge(ax, by, A2)
    raise ValueError(f"not an edge: {p}, {q}")


def face_neighbors(f: Face) -> Tuple[Face, Face, Face]:
    """The three edge-adjacent faces."""
    x, y = f.x, f.y
    if f.up:
        return (Face(x, y - 1, False), Face(x - 1, y, False), Face(x, y, False))
    return (Face(x, y, True), Face(x + 1, y, True), Face(x, y + 1, True))


def link_faces(v: Vertex) -> Tuple[Face, ...]:
    """The six faces around v, counterclockwise from the (0, 60)-degree sector."""
    x, y = v
    return (
        Face(x, y, True),
        Face(x - 1, y, False),
        Face(x - 1, y, True),
        Face(x - 1, y - 1, False),
        Face(x, y - 1, True),
        Face(x, y - 1, False),
    )


def incident_edges(v: Vertex) -> Tuple[Edge, ...]:
    """The six edges at v, counterclockwise from the east edge (0 degrees)."""
    x, y = v
    return tuple(Edge(x + dx, y + dy, a) for dx, dy, a in INCIDENT_EDGE_STEPS)


def opposite_axis_at_vertex(f: Face, v: Vertex) -> int:
    """Axis of the side of f's large triangle that passes through v.

    The large triangle of f is spanned by f and its three edge-neighbors;
    each corner vertex of f lies on exactly one of its sides, and that
    side's direction is the axis of the edge of f opposite to v.
    """
    vs = face_vertices(f)
    if v not in vs:
        raise ValueError(f"vertex {v} not incident to face {f}")
    for e in face_edges(f):
        if v not in edge_vertices(e):
            return e.axis
    raise AssertionError("unreachable")


def vertices_within(seeds: Iterable[Vertex], d: int) -> Set[Vertex]:
    """All vertices at hex distance <= d from some seed vertex."""
    frontier = set(seeds)
    seen = set(frontier)
    for _ in range(d):
        frontier = {
            (v[0] + ox, v[1] + oy)
            for v in frontier
            for ox, oy in NEIGHBOR_OFFSETS
        } - seen
        seen |= frontier
    return seen


@lru_cache(maxsize=256)
def ball(center: Face, r: int) -> frozenset:
    """Faces whose vertex set comes within hex distance r-1 of center's."""
    if r < 1:
        raise ValueError("radius must be >= 1")
    vs = vertices_within(face_vertices(center), r - 1)
    return frozenset(f for v in vs for f in link_faces(v))


def runs(vs: AbstractSet[Vertex], axis: int) -> List[List[Vertex]]:
    """The maximal runs of consecutive vertices of vs along the axis, in the
    order of their first vertices."""
    dx, dy = AXIS_STEPS[axis]
    out = []
    for v in sorted(vs):
        if (v[0] - dx, v[1] - dy) in vs:
            continue
        run = []
        while v in vs:
            run.append(v)
            v = (v[0] + dx, v[1] + dy)
        out.append(run)
    return out


def window_vertices(faces: Iterable[Face]) -> Set[Vertex]:
    return {v for f in faces for v in face_vertices(f)}


class Isometry(NamedTuple):
    """Lattice isometry: optional base reflection, then rot*60 degrees CCW, then translation.

    The base reflection fixes the horizontal axis through the origin:
    (a, b) -> (a+b, -b).  A 60-degree rotation is (a, b) -> (-b, a+b).
    """

    rot: int
    ref: bool
    tx: int
    ty: int

    def _linear(self, a: int, b: int) -> Vertex:
        if self.ref:
            a, b = a + b, -b
        for _ in range(self.rot % 6):
            a, b = -b, a + b
        return (a, b)

    def apply_vertex(self, v: Vertex) -> Vertex:
        a, b = self._linear(*v)
        return (a + self.tx, b + self.ty)

    def apply_face(self, f: Face) -> Face:
        """The image of one face: `apply_faces` of one face, as a Face."""
        return Face._make(self.apply_faces((f,))[0])

    def apply_faces(self, faces: Iterable[Face]) -> List[Tuple[int, int, bool]]:
        """The image (x, y, up) of each face, as a plain tuple equal to the
        image Face.  Three times the centroid of Up(x, y) is (3x+1, 3y+1) and
        of Down(x, y) (3x+2, 3y+2); the linear part maps it to three times the
        image's centroid, whose residue mod 3 gives the orientation.  So on
        faces the map is affine: the linear part, plus per orientation the
        image of the face at the origin."""
        (a, d), (b, e) = self._linear(1, 0), self._linear(0, 1)
        origin = {}
        for u, k in ((True, 1), (False, 2)):
            p, q = self._linear(k, k)
            r = p % 3
            origin[u] = ((p - r) // 3 + self.tx, (q - r) // 3 + self.ty, r == 1)
        out = []
        for x, y, u in faces:
            c, k, v = origin[u]
            out.append((a * x + b * y + c, d * x + e * y + k, v))
        return out

    def apply_edge(self, e: Edge) -> Edge:
        p, q = edge_vertices(e)
        return edge_from_vertices(self.apply_vertex(p), self.apply_vertex(q))

    def apply_axis(self, axis: int) -> int:
        a = (-axis) % 3 if self.ref else axis
        return (a + self.rot) % 3

    def label_preserving(self) -> bool:
        """True iff the map preserves the canonical edge marking."""
        return self.rot % 2 == 0 and (self.tx - self.ty) % 3 == 0


POINT_GROUP = tuple(
    Isometry(rot, ref, 0, 0) for ref in (False, True) for rot in range(6)
)

LABEL_POINT_GROUP = tuple(g for g in POINT_GROUP if g.label_preserving())
