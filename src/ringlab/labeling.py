"""Canonical Z/3 edge marking of the lattice.

The marking is anchored at the initial up triangle: its bottom edge carries
0, the right edge 1, the left edge 2.  Two local rules determine everything
else: every face sees all three labels, and around every vertex the six
edge labels alternate between exactly two values s and s+1.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

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


def link_edge_label(v: Vertex, k: int) -> int:
    """Label of the edge at angular position k (0 = east) around v."""
    s = vertex_s(v)
    return (s + 1) % 3 if k % 2 == 0 else s


class LabelContradiction(Exception):
    """Raised when propagation derives two labels for one edge."""

    def __init__(self, edge: Edge, have: int, want: int, why: str):
        self.edge = edge
        super().__init__(f"edge {edge}: {have} vs {want} ({why})")


def derive_edge_labels(window: Iterable[Face]) -> Dict[Edge, int]:
    """Fixed-point propagation of the two marking rules from the anchor.

    Independent of edge_label; serves as its oracle.  The window must be a
    connected face set containing the anchor triangle.
    """
    faces = set(window)
    if ANCHOR_FACE not in faces:
        raise ValueError("window must contain the initial up triangle")
    labels: Dict[Edge, int] = {}
    edges = {e for f in faces for e in face_edges(f)}
    vertices = window_vertices(faces)

    def put(e: Edge, value: int, why: str) -> bool:
        old = labels.get(e)
        if old is None:
            labels[e] = value
            return True
        if old != value:
            raise LabelContradiction(e, old, value, why)
        return False

    for e, value in ANCHOR_LABELS.items():
        put(e, value, "anchor")

    changed = True
    while changed:
        changed = False
        # rule: each face carries all three labels
        for f in faces:
            es = face_edges(f)
            known = [labels[e] for e in es if e in labels]
            if len(known) == 2:
                missing = ({0, 1, 2} - set(known)).pop()
                for e in es:
                    if e not in labels:
                        changed |= put(e, missing, f"face {f}")
            elif len(known) == 3 and len(set(known)) != 3:
                raise LabelContradiction(es[0], known[0], known[1], f"face {f}")
        # rule: around a vertex, same-parity angular positions share a label
        for v in vertices:
            ring = incident_edges(v)
            for parity in (0, 1):
                vals = {
                    labels[ring[k]]
                    for k in range(parity, 6, 2)
                    if ring[k] in labels
                }
                if len(vals) == 1:
                    val = vals.pop()
                    for k in range(parity, 6, 2):
                        e = ring[k]
                        if e in edges and e not in labels:
                            changed |= put(e, val, f"vertex {v}")
                elif len(vals) > 1:
                    a, b = sorted(vals)[:2]
                    raise LabelContradiction(ring[parity], a, b, f"vertex {v}")
        # rule: the two parity classes at a vertex differ
        for v in vertices:
            ring = incident_edges(v)
            known = {k % 2: labels[e] for k, e in enumerate(ring) if e in labels}
            if len(known) == 2 and known[0] == known[1]:
                raise LabelContradiction(ring[0], known[0], known[1], f"vertex {v}")
    return labels


def square_window(n: int) -> List[Face]:
    """The n-by-n block of up and down faces with corner at the origin."""
    out: List[Face] = []
    for x in range(n):
        for y in range(n):
            out.append(Face(x, y, True))
            out.append(Face(x, y, False))
    return out
