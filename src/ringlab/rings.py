"""The nine reference rings, link matching, and root rank machinery.

A ring is a marked circle of six arcs; arc labels sit at angular midpoints
30, 90, ..., 330 degrees and vertex labels at 0, 60, ..., 300 degrees.
A link word lists the face marks around a lattice vertex in the same
angular order, so matching a link against a ring is a circle-map search.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

MODE_ROT = "rot"
MODE_ROT_REF = "rot+ref"
DEFAULT_MODE = MODE_ROT_REF

Q_VALUE = 2  # uniform second factor in rank = 1 + multiplicity / q


class Ring(NamedTuple):
    s: int
    index: int
    faces: Tuple[int, int, int, int, int, int]
    edges: Tuple[int, int, int, int, int, int]


class Match(NamedTuple):
    """A label-preserving circle map from a link onto a ring.

    kind "rot": link sector k maps to ring arc (k + param) % 6.
    kind "ref": link sector k maps to ring arc (2*param - 1 - k) % 6
    (the reflection fixing ring vertices param and param + 3).
    """

    ring: Ring
    kind: str
    param: int

    def arc(self, k: int) -> int:
        if self.kind == "rot":
            return (k + self.param) % 6
        return (2 * self.param - 1 - k) % 6


class RootDomain(NamedTuple):
    """Marked segment of length pi: four vertex labels, three arc labels."""

    edges: Tuple[int, int, int, int]
    faces: Tuple[int, int, int]


class Embedding(NamedTuple):
    domain: RootDomain
    ring: Ring
    start: int


def _m3(v: int) -> int:
    return v % 3


_FACE_PATTERNS = {
    1: (2, 0, 1, 2, 0, 1),
    2: (0, 1, 0, 1, 2, 1),
    3: (0, 2, 0, 2, 1, 2),
}


def _edge_pattern(s: int) -> Tuple[int, ...]:
    return tuple(_m3(s + 1) if k % 2 == 0 else s % 3 for k in range(6))


@lru_cache(maxsize=None)
def ring_table() -> Tuple[Ring, ...]:
    """All nine rings, three per family s."""
    out = []
    for s in range(3):
        for index, pattern in sorted(_FACE_PATTERNS.items()):
            faces = tuple(_m3(p + s) for p in pattern)
            out.append(Ring(s, index, faces, _edge_pattern(s)))
    return tuple(out)


# The circle maps preserving the alternating edge labels, per mode, as
# (kind, param) of a Match: rotations by 0/120/240 degrees and, in mode
# "rot+ref", the three reflections through opposite ring vertices.
_RING_MAPS = {MODE_ROT: (("rot", 0), ("rot", 2), ("rot", 4))}
_RING_MAPS[MODE_ROT_REF] = _RING_MAPS[MODE_ROT] + (("ref", 0), ("ref", 1), ("ref", 2))


def _check_mode(mode: str) -> None:
    if mode not in _RING_MAPS:
        raise ValueError(f"unknown mode {mode!r}")


@lru_cache(maxsize=None)
def match_link(
    word: Tuple[Optional[int], ...], s: int, mode: str = DEFAULT_MODE
) -> Tuple[Match, ...]:
    """All (ring, circle map) pairs compatible with a possibly partial link word.

    None entries are wildcards.  Only the mode's edge-preserving maps
    (`_RING_MAPS`) are admissible.
    """
    _check_mode(mode)
    if len(word) != 6:
        raise ValueError("link word must have six sectors")
    out = []
    for ring in ring_table():
        if ring.s != s % 3:
            continue
        for kind, param in _RING_MAPS[mode]:
            m = Match(ring, kind, param)
            if all(w is None or w == ring.faces[m.arc(k)] for k, w in enumerate(word)):
                out.append(m)
    return tuple(out)


def sector_options(
    word: Tuple[Optional[int], ...], s: int, mode: str = DEFAULT_MODE
) -> Tuple[frozenset, ...]:
    """Per sector, the labels realized by some surviving match (empty = dead)."""
    matches = match_link(word, s, mode)
    return tuple(
        frozenset(m.ring.faces[m.arc(k)] for m in matches) for k in range(6)
    )


@lru_cache(maxsize=None)
def legal_words(mode: str = DEFAULT_MODE) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """All (s, complete word) pairs matched by at least one ring map."""
    _check_mode(mode)
    seen = []
    for ring in ring_table():
        for kind, param in _RING_MAPS[mode]:
            m = Match(ring, kind, param)
            word = tuple(ring.faces[m.arc(k)] for k in range(6))
            if (ring.s, word) not in seen:
                seen.append((ring.s, word))
    return tuple(sorted(seen))


def _segments(arcs: int) -> Iterator[Tuple[Ring, int, tuple, tuple, tuple]]:
    """Every walk over `arcs` consecutive arcs of a ring, by ring, start
    vertex k and direction: (ring, k, the vertex labels passed, the arc
    labels passed, the arcs passed)."""
    for ring in ring_table():
        for k in range(6):
            for direction in (1, -1):
                edges = tuple(ring.edges[(k + direction * i) % 6] for i in range(arcs + 1))
                covered = tuple(
                    (k + i) % 6 if direction > 0 else (k - 1 - i) % 6
                    for i in range(arcs)
                )
                faces = tuple(ring.faces[a] for a in covered)
                yield ring, k, edges, faces, covered


@lru_cache(maxsize=None)
def all_embeddings() -> Tuple[Embedding, ...]:
    """Every marked isometric embedding of a length-pi segment into a ring.

    Six start vertices times two directions per ring: 108 in total.
    """
    return tuple(
        Embedding(RootDomain(edges, faces), ring, k)
        for ring, k, edges, faces, _ in _segments(3)
    )


@lru_cache(maxsize=None)
def multiplicity_table() -> Dict[RootDomain, int]:
    return dict(Counter(e.domain for e in all_embeddings()))


def root_rank(domain: RootDomain) -> Fraction:
    """The rank 1 + N/q of a realized domain, N its multiplicity."""
    n = multiplicity_table().get(domain)
    if n is None:
        raise ValueError(f"not a root: {domain}")
    return 1 + Fraction(n, Q_VALUE)


def half_domains(word: Tuple[int, ...], s: int, axis: int) -> Tuple[RootDomain, RootDomain]:
    """The two half-link domains split along the given axis (0, 1, or 2)."""
    e = _edge_pattern(s)
    j = axis
    first = RootDomain(
        tuple(e[(j + i) % 6] for i in range(4)),
        tuple(word[(j + i) % 6] for i in range(3)),
    )
    second = RootDomain(
        tuple(e[(j + 3 + i) % 6] for i in range(4)),
        tuple(word[(j + 3 + i) % 6] for i in range(3)),
    )
    return first, second


def rank_axis(word: Tuple[int, ...], s: int) -> int:
    """The unique axis whose two half-link domains both have multiplicity 1."""
    if any(w is None for w in word):
        raise ValueError("rank_axis needs a complete link word")
    table = multiplicity_table()
    hits = []
    for axis in range(3):
        first, second = half_domains(word, s, axis)
        n1, n2 = table.get(first), table.get(second)
        if n1 is None or n2 is None:
            raise ValueError(f"not a root: axis {axis} of {word}")
        if n1 == 1 and n2 == 1:
            hits.append(axis)
    if len(hits) != 1:
        raise ValueError(f"rank axis not unique for {word}: {hits}")
    return hits[0]


def check_extension_property() -> dict:
    """Verify no marked segment longer than pi embeds in two ring positions.

    An embedding position is (ring, covered arc set), so traversing the same
    arcs in both directions counts once.  Returns per-length statistics and
    the largest arc length still admitting multiple positions.
    """
    report: dict = {"lengths": {}}
    max_ambiguous = 0
    for arcs in (3, 4, 5, 6):
        words: Dict[Tuple, set] = {}
        for ring, _, edges, faces, covered in _segments(arcs):
            words.setdefault((edges, faces), set()).add(
                (ring.s, ring.index, frozenset(covered)))
        worst = max(len(v) for v in words.values())
        report["lengths"][arcs] = {
            "words": len(words),
            "max_embedding_classes": worst,
        }
        if worst > 1:
            max_ambiguous = arcs
    report["max_ambiguous_arcs"] = max_ambiguous
    return report
