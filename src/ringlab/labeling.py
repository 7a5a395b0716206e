"""Canonical Z/3 edge marking of the lattice.

The marking is anchored at the initial up triangle: its bottom edge carries
0, the right edge 1, the left edge 2.  Two local rules determine everything
else: every face sees all three labels, and around every vertex the six
edge labels alternate between exactly two values s and s+1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .kernel import UNSET, Kernel, Plan, Table
from .lattice import (
    A0,
    A1,
    A2,
    FACE_EDGE_STEPS,
    INCIDENT_EDGE_STEPS,
    Edge,
    Face,
    Vertex,
    up,
    window_vertices,
)

ANCHOR_FACE = up(0, 0)
ANCHOR_LABELS = {Edge(0, 0, A0): 0, Edge(0, 0, A2): 1, Edge(0, 0, A1): 2}


def edge_label(e: Edge) -> int:
    """Canonical label of an edge (closed form, validated by derive_edge_labels)."""
    d = e.x - e.y
    if e.axis == A0:
        return d % 3
    if e.axis == A1:
        return (d - 1) % 3
    return (d + 1) % 3


def vertex_s(v: Vertex) -> int:
    """The s with the six edge labels at v equal to {s, s+1}."""
    return (v[0] - v[1] - 1) % 3


class LabelContradiction(Exception):
    """Raised when propagation derives two labels for one edge."""

    def __init__(self, edge: Edge, have: int, want: int, why: str):
        self.edge = edge
        super().__init__(f"edge {edge}: {have} vs {want} ({why})")


@lru_cache(maxsize=None)
def _vertex_rule() -> Table:
    """The vertex marking rule as a kernel table: the six edges around a
    vertex, in angular order, alternate between two different labels.  It
    implies the face rule, since any two edges of a face sit at adjacent
    positions around their common vertex, and it forces at least what the
    face rule would."""
    return Table(6, ((a, b) * 3 for a in range(3) for b in range(3) if a != b))


def _edge_plan(faces: Sequence[Face]) -> Tuple[List[Vertex], List[int], Plan]:
    """The faces' vertices sorted, each face's three edge variables flat in
    face order, and the kernel plan of the faces' edges under the vertex
    rule, one constraint per vertex.

    The edges are numbered in face order, each face's as `face_edges` lists
    them.  Each edge is looked up as a plain (x, y, axis) tuple, which
    equals and hashes as its Edge, so only the plan's names are Edges, one
    per edge; a vertex's scope is its six edges as plain tuples, in
    `incident_edges` order.
    """
    index: Dict[Edge, int] = {}
    face_vars: List[int] = []
    for x, y, u in faces:
        for dx, dy, a in FACE_EDGE_STEPS[u]:
            e = (x + dx, y + dy, a)
            g = index.get(e)
            if g is None:
                g = index[Edge(*e)] = len(index)
            face_vars.append(g)
    vertices = sorted(window_vertices(faces))
    rule = _vertex_rule()
    plan = Plan(index, (([(x + dx, y + dy, a) for dx, dy, a in INCIDENT_EDGE_STEPS], rule)
                        for x, y in vertices))
    return vertices, face_vars, plan


def derive_edge_labels(window: Iterable[Face]) -> Dict[Edge, int]:
    """Fixed-point propagation of the two marking rules from the anchor.

    The vertex rule is propagated and the face rule (every face sees three
    different labels) is then checked on every window face.  Independent of
    edge_label; serves as its oracle.  The window must be a connected face
    set containing the anchor triangle.
    """
    faces = sorted(set(window))
    if ANCHOR_FACE not in faces:
        raise ValueError("window must contain the initial up triangle")
    vertices, face_vars, plan = _edge_plan(faces)
    kernel = Kernel(plan, ANCHOR_LABELS.items())
    if kernel.failure is not None:
        # the anchor labels keep the rule, so the failure is an edge two
        # vertices give different labels: name the lowest label of each
        c, g = kernel.failure
        have, want = ((m & -m).bit_length() - 1 for m in kernel.blame(g)[1:])
        raise LabelContradiction(plan.names[g], have, want, f"vertex {vertices[c]}")
    label = kernel.label
    it = iter(face_vars)
    for f, a, b, c in zip(faces, it, it, it):
        if label[a] != label[b] != label[c] != label[a]:
            continue  # three different labels, UNSET counted as one
        labels = [label[a], label[b], label[c]]
        for k, l in enumerate(labels):
            if l != UNSET and l in labels[:k]:
                want = min({0, 1, 2} - set(labels[:k] + labels[k + 1:]))
                raise LabelContradiction(plan.names[(a, b, c)[k]], l, want, f"face {f}")
    del face_vars, it  # freed before the output dict is built, to keep the peak down
    return {e: l for e, l in zip(plan.names, label) if l != UNSET}


def square_window(n: int) -> List[Face]:
    """The n-by-n block of up and down faces with corner at the origin."""
    out: List[Face] = []
    for x in range(n):
        for y in range(n):
            out.append(Face(x, y, True))
            out.append(Face(x, y, False))
    return out
