"""Canonical Z/3 edge marking of the lattice.

The marking is anchored at the initial up triangle: its bottom edge carries
0, the right edge 1, the left edge 2.  Two local rules determine everything
else: every face sees all three labels, and around every vertex the six
edge labels alternate between exactly two values s and s+1.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .kernel import UNSET, Kernel, Plan, Table
from .lattice import (
    A0,
    A1,
    A2,
    Edge,
    Face,
    Vertex,
    face_edges,
    incident_edges,
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


# The vertex marking rule as a kernel table: the six edges around a vertex,
# in angular order, alternate between two different labels.  It implies the
# face rule, since any two edges of a face sit at adjacent positions around
# their common vertex, and it forces at least what the face rule would.
_VERTEX_RULE = Table(
    6, lambda labels: labels[0] != labels[1] and labels == labels[:2] * 3
)


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
    vertices = sorted(window_vertices(faces))
    plan = Plan((e for f in faces for e in face_edges(f)),
                ((incident_edges(v), _VERTEX_RULE) for v in vertices))
    kernel = Kernel(plan, ANCHOR_LABELS.items())
    if kernel.failure is not None:
        # the anchor labels keep the rule, so the failure is an edge two
        # vertices give different labels: name the lowest label of each
        c, g = kernel.failure
        have, want = ((m & -m).bit_length() - 1 for m in kernel.blame(g)[1:])
        raise LabelContradiction(plan.names[g], have, want, f"vertex {vertices[c]}")
    out = {e: l for e, l in zip(plan.names, kernel.label) if l != UNSET}
    for f in faces:
        edges = face_edges(f)
        labels = [out.get(e, UNSET) for e in edges]
        for k, l in enumerate(labels):
            if l != UNSET and l in labels[:k]:
                want = min({0, 1, 2} - set(labels[:k] + labels[k + 1:]))
                raise LabelContradiction(edges[k], l, want, f"face {f}")
    return out


def square_window(n: int) -> List[Face]:
    """The n-by-n block of up and down faces with corner at the origin."""
    out: List[Face] = []
    for x in range(n):
        for y in range(n):
            out.append(Face(x, y, True))
            out.append(Face(x, y, False))
    return out
