"""A fixed search that measures how fast the machine runs code like ringlab's.

On a 2-core VM shared with other tenants, the speed of Python code was seen
to swing by up to a factor of two within minutes, which moves raw times far
more than any bound worth keeping.  The worker runs this yardstick before
each pass and after each of its steps, and scales the times by YARDSTICK_S
over the yardstick times around them.  It uses named-tuple faces, small
helper calls, tuples and dicts, as ringlab does, but none of ringlab's
code, so no change to ringlab moves it.
"""

import time
from typing import NamedTuple

YARDSTICK_S = 0.25
COLOURINGS = 87984


class _Face(NamedTuple):
    x: int
    y: int
    up: bool


def _neighbours(f: _Face):
    x, y = f.x, f.y
    if f.up:
        return (_Face(x, y - 1, False), _Face(x - 1, y, False), _Face(x, y, False))
    return (_Face(x, y, True), _Face(x + 1, y, True), _Face(x, y + 1, True))


def _count_colourings() -> int:
    """Proper 3-colourings of the 18 faces of a 3x3 rhombus of triangles."""
    faces = [_Face(x, y, up) for y in range(3) for x in range(3) for up in (True, False)]
    colour = {}
    count = 0

    def rec(i: int) -> None:
        nonlocal count
        if i == len(faces):
            count += 1
            return
        f = faces[i]
        used = {colour.get(g) for g in _neighbours(f)}
        for c in (0, 1, 2):
            if c not in used:
                colour[f] = c
                rec(i + 1)
        del colour[f]

    rec(0)
    return count


def yardstick() -> float:
    """Seconds for one count; raises if the count is ever wrong."""
    t0 = time.perf_counter()
    if _count_colourings() != COLOURINGS:
        raise RuntimeError("yardstick count changed")
    return time.perf_counter() - t0
