"""Reference computations made apart from the search engine.

The benchmark checks the program's outputs against these.  Nothing here
imports ``ringlab.engine``: completions come from plain backtracking over
the legal link words, stacking words are counted by a transfer matrix over
the interface table, and the D0 and edge-label checks restate the marking
rules directly.

Run as a command to make the reference counts and completion sets of the
``enumerate`` workload for a seed::

    python3 perfbench/reference.py --seed 7
    python3 perfbench/reference.py --seed 7 --radius 2 --out sets.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, Iterable, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_ringlab() -> None:
    """Put the checkout's ``src`` first on the path and check it is what loads."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ringlab

    where = os.path.dirname(os.path.abspath(ringlab.__file__))
    if where != os.path.join(SRC, "ringlab"):
        raise SystemExit(f"ringlab imported from {where}, not from {SRC}")


import_ringlab()

from ringlab.labeling import ANCHOR_LABELS, vertex_s  # noqa: E402
from ringlab.lattice import (  # noqa: E402
    Face,
    ball,
    edge_vertices,
    face_edges,
    face_neighbors,
    face_vertices,
    incident_edges,
    link_faces,
    opposite_axis_at_vertex,
)
from ringlab.rings import legal_words  # noqa: E402


# -- completions -------------------------------------------------------------


def partial_link_patterns() -> Dict[int, frozenset]:
    """Per s, every legal word with any subset of its sectors blanked to None.

    A partial link is consistent exactly when it is one of these patterns,
    which is the wildcard match of ``match_link`` restated as set membership.
    """
    out: Dict[int, set] = {0: set(), 1: set(), 2: set()}
    for s, word in legal_words():
        for mask in range(64):
            out[s].add(tuple(w if mask >> k & 1 else None for k, w in enumerate(word)))
    return {s: frozenset(p) for s, p in out.items()}


def _face_order(window: frozenset, start: Iterable[Face]) -> List[Face]:
    """Window faces in breadth-first order over edge adjacency from the start."""
    seen = set(start)
    order = sorted(seen)
    frontier = list(order)
    while frontier:
        nxt = []
        for f in frontier:
            for g in face_neighbors(f):
                if g in window and g not in seen:
                    seen.add(g)
                    nxt.append(g)
        nxt.sort()
        order.extend(nxt)
        frontier = nxt
    order.extend(sorted(window - seen))
    return order


def completions(marks: Dict[Face, int], window: Iterable[Face]) -> List[Dict[Face, int]]:
    """Every total marking of the window extending marks whose vertex links,
    partial at the window's rim, all match some legal word."""
    window = frozenset(window) | frozenset(marks)
    patterns = partial_link_patterns()
    links = {}
    for f in window:
        for v in face_vertices(f):
            if v not in links:
                links[v] = (link_faces(v), patterns[vertex_s(v)])
    cur = dict(marks)

    def ok_at(f: Face) -> bool:
        for v in face_vertices(f):
            faces, legal = links[v]
            if tuple(cur.get(g) for g in faces) not in legal:
                return False
        return True

    if not all(ok_at(f) for f in cur):
        return []
    free = [f for f in _face_order(window, marks) if f not in cur]
    out: List[Dict[Face, int]] = []

    def rec(i: int) -> None:
        if i == len(free):
            out.append(dict(cur))
            return
        f = free[i]
        for label in (0, 1, 2):
            cur[f] = label
            if ok_at(f):
                rec(i + 1)
        del cur[f]

    rec(0)
    return out


def canonical(marks: Dict[Face, int]) -> Tuple[Tuple[int, int, int, int], ...]:
    """A marking as a sorted tuple of (x, y, up, label)."""
    return tuple(sorted((f.x, f.y, int(f.up), l) for f, l in marks.items()))


def set_digest(markings: Iterable[Dict[Face, int]]) -> str:
    """SHA-256 of a set of markings, independent of their order."""
    rows = sorted(canonical(m) for m in markings)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# -- strip stacks ------------------------------------------------------------


def transfer_count(table: Dict[Tuple[str, str], Tuple[int, ...]], keys: str,
                   height: int, rows: int) -> int:
    """Stacking words of the given length, counted by a transfer matrix.

    States are (strip key, shift mod 6).  The top row takes shift 0 or 3;
    each later row r sits at y = -r*height, needs its shift congruent to
    y mod 3, and meets the row above at an offset the table allows.
    """
    vec = {(k, s): 1 for k in keys for s in (0, 3)}
    for r in range(1, rows):
        y_top = -r * height
        nxt: Dict[Tuple[str, int], int] = {}
        for (a, sa), n in vec.items():
            for b in keys:
                for delta in table.get((a, b), ()):
                    sb = (sa - delta) % 6
                    if (sb - y_top) % 3 == 0:
                        nxt[(b, sb)] = nxt.get((b, sb), 0) + n
        vec = nxt
    return sum(vec.values())


# -- distributions and edge labels -------------------------------------------


def odd_faces_ok(axis: Dict[Tuple[int, int], int]) -> bool:
    """Every face with three assigned corners has an odd count of corners
    whose axis differs from the side of the face's large triangle through it."""
    faces = {f for v in axis for f in link_faces(v)}
    for f in faces:
        vs = face_vertices(f)
        if all(v in axis for v in vs):
            odd = sum(axis[v] != opposite_axis_at_vertex(f, v) for v in vs)
            if odd % 2 != 1:
                return False
    return True


def edge_rules_ok(labels: Dict) -> bool:
    """The anchor labels hold, every face with three labelled edges sees
    0, 1 and 2, and around every vertex the labels at even angular positions
    are one value s + 1 and those at odd positions one value s."""
    if any(labels.get(e) != l for e, l in ANCHOR_LABELS.items()):
        return False
    vertices = {v for e in labels for v in edge_vertices(e)}
    faces = {f for v in vertices for f in link_faces(v)}
    for f in faces:
        es = face_edges(f)
        if all(e in labels for e in es) and {labels[e] for e in es} != {0, 1, 2}:
            return False
    for v in vertices:
        ring = incident_edges(v)
        even = {labels[e] for e in ring[0::2] if e in labels}
        odd = {labels[e] for e in ring[1::2] if e in labels}
        if len(even) > 1 or len(odd) > 1:
            return False
        if even and odd and (even.pop() - odd.pop()) % 3 != 1:
            return False
    return True


# -- command -----------------------------------------------------------------


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=int, default=workloads.ENUM_RADIUS)
    p.add_argument("--out", help="write the completion sets as JSON")
    args = p.parse_args(argv)
    sets = []
    for face, label in workloads.enumerate_starts(args.seed):
        found = completions({face: label}, ball(face, args.radius))
        sets.append({
            "face": repr(face), "label": label, "count": len(found),
            "digest": set_digest(found),
            "completions": sorted(canonical(m) for m in found),
        })
        print(f"{face!r} marked {label}: {len(found)} completions, {sets[-1]['digest'][:16]}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(sets, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
