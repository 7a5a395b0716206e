"""Flat-strip catalog: strip data, stacking rules, special seeds, isomorphism.

The periodic strips and the twelve exceptional seed patches ship as data
files; this module loads them, stacks strips into finite windows, rebuilds
the special puzzles by propagation, and decides label-preserving
isomorphism and catalog embedding.

One rule places every strip row (`_row_cells`): at shift s, face row j of
a strip gives its faces at column x the labels its up and down cycles carry
at (x - s) mod 6.  Stacks, the interface-table check, the embedding slots
and survivor certificates all read rows through one face-to-cell index
(`_cell`), as label bytes in the window's sorted face order, and which
rows may stack from one transfer graph built from the interface table
(`_below`); one depth-first walk of it (`_walk`) lists the stacking
words and matches strips, never retrying a (row, choice) with no word
below it.  Row choices that give a row the same labels place one label
row (`_label_rows`: at height 1, 12 choices a shift phase place 6), and
`assemble` reads a word's 6-column period once per tuple of label rows
(`_period`); a strip's mirror reading is its row read through its height's
label-preserving glide (`_GLIDES`); windows move by `Isometry.apply_faces`,
and where a moved window lands in another is read once (`_positions`) by
the congruence test and the certificate's agreement test.

The embedding tests read small caches that every marking of a window
shares: its images under the label-preserving point group (`_images`),
their strip slots (`_strip_placements`), read top down one gather a slot
until the first slot no row choice gives, and per image one itemgetter for
the special-puzzle key and one reader of its faces on a face grid
(`_special_keys`).  The twelve special patches share one window, a ball,
and are laid on the grid of its one `engine.link_grid` box
(`_special_grids`).  A special candidate, and the pull-back of a window
through a special occurrence (`_patch_marks`), moves the image's bounding
box by a translation and reads the image in one gather at the moved
corner (`_image_reader`); a box that leaves the grid misses.  Isomorphism
reads a small cache keyed by the pair of windows: the point-group moves
that make them congruent, and the face permutation of each, so a call only
compares labels.

One query finds catalog occurrences (`_catalog_match`): the first one in a
height-1 strip stack, then a height-2 one, then a special puzzle about
`up(0, 0)`.  It keeps the occurrence's placement, the label-preserving
isometry carrying the configuration into the puzzle, with the stacking word
or the special patch.  The embedding evidence is read from it, and pulling
the puzzle back through it onto a larger window gives a survivor
certificate (`survivor_certificate`).  A match is read once: the
certificate's `check` and its agreement with the configuration are the one
soundness guard.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .configio import data_text, parse_config
from .engine import (
    UNSET, Configuration, LinkBox, VALID, check, link_grid, make_config, propagate, window_order)
from .lattice import A1, A2, Face, Isometry, LABEL_POINT_GROUP, POINT_GROUP, ball, up

RowChoice = Tuple[str, int]
StackingWord = Sequence[RowChoice]


class StripSpec(NamedTuple):
    """One periodic strip: per-row up/down label cycles."""

    height: int
    index: int
    key: str
    rows: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]


# The strip variant keys of each height, in index order.
_STRIP_KEYS = {1: "abcdef", 2: "123"}

# Allowed horizontal offsets (upper shift minus lower shift, mod 6) at each
# strip interface.  Derived once by exhaustive two-row validity checks and
# frozen here; a catalog test re-derives the table and compares.  No strip
# stacks on itself at any offset.
H1_DELTAS: Dict[Tuple[str, str], Tuple[int, ...]] = {
    ("a", "d"): (1,),
    ("a", "e"): (4,),
    ("a", "f"): (1, 4),
    ("b", "a"): (1, 4),
    ("b", "c"): (1, 4),
    ("c", "d"): (4,),
    ("c", "e"): (1,),
    ("c", "f"): (1, 4),
    ("d", "a"): (4,),
    ("d", "b"): (1, 4),
    ("d", "c"): (1,),
    ("e", "a"): (1,),
    ("e", "b"): (1, 4),
    ("e", "c"): (4,),
    ("f", "d"): (1, 4),
    ("f", "e"): (1, 4),
}
H2_DELTAS: Dict[Tuple[str, str], Tuple[int, ...]] = {
    (a, b): (2,) for a in _STRIP_KEYS[2] for b in _STRIP_KEYS[2] if a != b
}
INTERFACE_DELTAS: Dict[int, Dict[Tuple[str, str], Tuple[int, ...]]] = {
    1: H1_DELTAS,
    2: H2_DELTAS,
}


def _read_rows(config: Configuration, height: int):
    """The strip rows (up cycle, down cycle) per face row 0 down to 1 - height
    that the configuration marks in columns 0 to 5."""
    marks = config.marks
    return tuple(
        tuple(tuple(marks[Face(x, -j, u)] for x in range(6)) for u in (True, False))
        for j in range(height)
    )


@lru_cache(maxsize=None)
def strip_variants(height: int) -> Tuple[StripSpec, ...]:
    """Every row type occurring in stacks: six for height 1, three for height 2."""
    if height not in _STRIP_KEYS:
        raise ValueError("height must be 1 or 2")
    return tuple(
        StripSpec(height, i, key, _read_rows(
            parse_config(data_text(f"strip_h{height}_{key}.txt")), height))
        for i, key in enumerate(_STRIP_KEYS[height], start=1)
    )


@lru_cache(maxsize=None)
def _variant_by_key(height: int) -> Dict[str, StripSpec]:
    return {s.key: s for s in strip_variants(height)}


def strip_table() -> List[StripSpec]:
    """The first variant of each glide class: four height-1 strips, three height-2."""
    return [_variant_by_key(h)[c[0]] for h in (1, 2) for c in strip_dedup_classes(h)]


def get_strip(height: int, index: int) -> StripSpec:
    for s in strip_table():
        if (s.height, s.index) == (height, index):
            return s
    raise ValueError(f"no height-{height} strip with index {index}")


@lru_cache(maxsize=None)
def _below(height: int) -> Dict[RowChoice, Tuple[RowChoice, ...]]:
    """The strip transfer graph: per row choice (variant, shift 0..5), in that
    order, the choices allowed right below it, by variant, then table offset."""
    keys, table = _variant_by_key(height), INTERFACE_DELTAS[height]
    return {
        (upper, shift): tuple(
            (key, (shift - d) % 6) for key in keys for d in table.get((upper, key), ())
        )
        for upper in keys for shift in range(6)
    }


@lru_cache(maxsize=None)
def _below_sorted(height: int) -> Dict[RowChoice, Tuple[RowChoice, ...]]:
    """`_below` with successors in (variant, shift) order, a slot's order."""
    return {upper: tuple(sorted(lower)) for upper, lower in _below(height).items()}


@lru_cache(maxsize=None)
def _above(height: int) -> Dict[RowChoice, RowChoice]:
    """Per row choice with a predecessor in the transfer graph, the first
    choice, in `_below`'s (variant, shift) order, it may sit right below."""
    above: Dict[RowChoice, RowChoice] = {}
    for upper, lower in _below(height).items():
        for choice in lower:
            above.setdefault(choice, upper)
    return above


@lru_cache(maxsize=None)
def _stack_window(height: int, rows: int, width: int) -> frozenset:
    """The faces of a stack of the given rows over columns 0..width-1, its
    top face row at 0: one object per shape, which every stack of the shape
    shares, so the per-window caches find it by identity."""
    return frozenset(
        Face(x, -y, u) for y in range(rows * height) for x in range(width) for u in (True, False)
    )


_IDENTITY = Isometry(0, False, 0, 0)


def assemble(word: StackingWord, width_periods: int = 2) -> Configuration:
    """Stack strip rows (top to bottom) into one finite window.

    Each row choice is (variant key, horizontal shift).  Shifts must keep
    each row consistent with the canonical edge labeling and consecutive
    rows must meet at an allowed offset.
    """
    if not word:
        raise ValueError("empty stacking word")
    if width_periods < 2:
        raise ValueError("width must cover at least two periods")
    # a key of neither height reads as height 2, and is unknown below
    one = word[0][0] in _STRIP_KEYS[1]
    if any((k in _STRIP_KEYS[1]) != one for k, _ in word):
        raise ValueError("interface mismatch: rows of different strip heights")
    height = 1 if one else 2
    label_rows, below = _label_rows(height), _below(height)
    rows: List[RowChoice] = []
    prev: Optional[RowChoice] = None
    for r, (key, shift) in enumerate(word):
        choice = (key, shift % 6)
        row = label_rows.get(choice)
        if row is None:
            raise ValueError(f"unknown strip key {key!r}")
        if (shift + r * height) % 3 != 0:  # the row's top face row is -r * height
            raise ValueError(
                f"interface mismatch: row {r} shift {shift} breaks the edge "
                f"labeling (needs shift congruent to {-r * height % 3} mod 3)"
            )
        if prev is not None and choice not in below[prev]:
            raise ValueError(
                f"interface mismatch: row {r - 1} ({prev[0]}) over row {r} "
                f"({key}) at offset {(prev[1] - shift) % 6}"
            )
        rows.append(row)
        prev = choice
    # sorted face order is x-major and a stack's labels repeat along x with
    # period 6, so the window's labels are one period's, repeated; the
    # word's label rows give its rows the same labels as its own choices
    period = _period(height, tuple(rows))
    return Configuration(_stack_window(height, len(word), 6 * width_periods),
                         period * width_periods)


@lru_cache(maxsize=None)
def _label_rows(height: int) -> Dict[RowChoice, RowChoice]:
    """Per row choice (variant, shift 0..5), the first choice in (variant,
    shift) order whose `_row_cells` are the same: the label row it places.
    At height 1 the 12 choices of a shift phase place 6 label rows (`a` at
    s is `c` at s + 3, `d` is `e`, and `b` and `f` are 3-periodic), and `f`
    at s is `b` at s + 1, in another shift phase, so the two never meet in
    one stack row; at height 2 each of the 6 places its own."""
    first: Dict[Tuple[int, ...], RowChoice] = {}
    return {(key, shift): first.setdefault(_row_cells(height, key, shift), (key, shift))
            for key in _STRIP_KEYS[height] for shift in range(6)}


@lru_cache(maxsize=128)
def _period(height: int, rows: Tuple[RowChoice, ...]) -> bytes:
    """One 6-column period of the stack of these label rows (`_label_rows`),
    in sorted face order.  The cache holds more than the 96 distinct
    markings of five rows, the most that one group of words gives."""
    return _stack_marks(_stack_window(height, len(rows), 6), _IDENTITY, height, rows)


def derive_interface_table(height: int) -> Dict[Tuple[str, str], Tuple[int, ...]]:
    """Recompute the allowed-offset table by brute two-row validity checks."""
    keys = _variant_by_key(height)
    # the lower row's shift is congruent to its top face row -height mod 3
    # (the shift-parity rule `assemble` enforces), so the offset from an
    # upper row at shift 0 is congruent to height
    deltas = (height % 3, height % 3 + 3)
    window = _stack_window(height, 2, 18)
    out: Dict[Tuple[str, str], Tuple[int, ...]] = {}
    for a in keys:
        for b in keys:
            good = tuple(
                delta for delta in deltas
                if check(Configuration(window, _stack_marks(
                    window, _IDENTITY, height, [(a, 0), (b, -delta % 6)]
                ))).status == VALID
            )
            if good:
                out[(a, b)] = good
    return out


def stacking_words(
    height: int, rows: int, fits: Callable[[int, RowChoice], bool] = lambda r, c: True
) -> Iterator[StackingWord]:
    """The stacking words of the given length whose row-r choice c passes
    fits(r, c), depth first (`_walk`): the top row by variant, then shift 0
    before 3, and each later row by variant, then in its allowed offsets'
    order."""
    if rows < 1:
        raise ValueError("rows must be at least 1")
    # per row, the choices that fit and keep the edge labeling (shift
    # congruent to the top face row mod 3), in (variant, shift) order
    return _walk(_below(height), [
        dict.fromkeys((key, shift) for key in _STRIP_KEYS[height]
                      for shift in range(-r * height % 3, 6, 3) if fits(r, (key, shift)))
        for r in range(rows)])


def _walk(successors: Dict[RowChoice, Tuple[RowChoice, ...]],
          options: Sequence[Sequence[RowChoice]]) -> Iterator[Tuple[RowChoice, ...]]:
    """The words whose row-r choice is in options[r], depth first along the
    transfer graph: the top row in options[0]'s order, each later row in the
    order of the successors of the row above it.  An explicit stack of the
    rows' candidate iterators needs no Python frame per row, and a (row,
    choice) with no word found below it is dead and not tried again."""
    word: List[RowChoice] = []
    dead = set()
    bearing = 0  # the top rows of word known to have a word below them
    stack = [iter(options[0])]
    while stack:
        r = len(word)
        allowed = options[r]
        for choice in stack[-1]:
            if choice in allowed and (r, choice) not in dead:
                break
        else:
            stack.pop()
            if word:
                if bearing < r:
                    dead.add((r - 1, word[-1]))
                bearing = min(bearing, r - 1)
                word.pop()
            continue
        if r + 1 < len(options):
            word.append(choice)
            stack.append(iter(successors[choice]))
        else:
            yield (*word, choice)
            bearing = r


def compatible_words(height: int, rows: int) -> List[StackingWord]:
    """All stacking words of the given length, in `stacking_words` order."""
    return list(stacking_words(height, rows))


def special_seed(index: int) -> Configuration:
    if not 1 <= index <= 12:
        raise ValueError("seed index must be in 1..12")
    return parse_config(data_text("seed_%02d.txt" % index))


@lru_cache(maxsize=None)
def special_puzzle(index: int, radius: int) -> Configuration:
    """The unique puzzle through seed patch `index`, filled to the given ball."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    seed = special_seed(index)
    cfg = make_config(seed.marks, window=ball(up(0, 0), radius))
    out = propagate(cfg)
    if UNSET in out.labels:
        raise ValueError(f"seed {index} does not determine the radius-{radius} ball")
    return out


def transform_config(config: Configuration, g: Isometry) -> Configuration:
    image = g.apply_faces(config.faces)
    order = sorted(range(len(image)), key=image.__getitem__)
    labels = bytes(map(config.labels.__getitem__, order))
    return Configuration(frozenset(map(Face._make, image)), labels)


@lru_cache(maxsize=8)
def _congruences(wa: frozenset, wb: frozenset) -> Tuple[Tuple[Isometry, Tuple[int, ...]], ...]:
    """Each point-group element, in group order, that carries wa onto wb
    once its minimum face is translated onto wb's: the translated isometry,
    and per face of wa in sorted order the position of its image in wb's
    sorted order (`_positions`).  No element means incongruent."""
    if len(wa) != len(wb):
        return ()
    mb = min(wb)
    moves = []
    for g0 in POINT_GROUP:
        x0, y0, u0 = min(g0.apply_faces(wa))
        if u0 != mb.up:
            continue
        g = g0._replace(tx=mb.x - x0, ty=mb.y - y0)
        at = _positions(wa, g, wb)
        if None not in at:
            moves.append((g, at))
    return tuple(moves)


class IncongruentWindows(ValueError):
    """The windows of two configurations are not congruent as shapes."""


def isomorphic(a: Configuration, b: Configuration) -> Optional[Isometry]:
    """A label-preserving isometry carrying a onto b, or None.

    Raises IncongruentWindows when the windows are not congruent as shapes.
    """
    if UNSET in a.labels or UNSET in b.labels:
        raise ValueError("isomorphism needs configurations total on their windows")
    moves = _congruences(a.window, b.window)
    if not moves:
        raise IncongruentWindows("incongruent windows")
    for g, perm in moves:
        if g.label_preserving() and bytes(map(b.labels.__getitem__, perm)) == a.labels:
            return g
    return None


# The glide of each strip height, for a strip placed at face rows 0 to 1 - height.
_GLIDES = {1: Isometry(0, True, -2, 1), 2: Isometry(0, True, 0, 0)}


def mirror_strip_rows(spec: StripSpec):
    """Row data of the strip's mirror image under its height's glide: one
    period of the strip row read through the glide with the stack reader.

    The glide reverses the transversal axis decoration, pairing each band
    with its oppositely decorated reading.
    """
    h = spec.height
    window = _stack_window(h, 1, 6)
    labels = _stack_marks(window, _GLIDES[h], h, [(spec.key, 0)])
    return _read_rows(Configuration(window, labels), h)


def strip_dedup_classes(height: int = 1) -> List[List[str]]:
    """Group strip variants with their glide-reversal images.

    A later variant joins the class of the variant its mirror equals, so each
    pair shares one band pattern read in the two transversal orientations.
    """
    classes: List[List[StripSpec]] = []
    for s in strip_variants(height):
        mirrored = mirror_strip_rows(s)
        for cl in classes:
            if any(t.rows in (s.rows, mirrored) for t in cl):
                cl.append(s)
                break
        else:
            classes.append([s])
    return [[s.key for s in cl] for cl in classes]


def strip_tick(x: int) -> int:
    """Transversal axis marked at vertex x on a height-1 strip boundary line.

    All six period-6 variants carry the same 2-periodic decoration.
    """
    return A1 if x % 2 == 0 else A2


def strip_readings() -> List[Tuple[str, int, str]]:
    """The eight (strip, orientation, realized variant) readings of the four
    height-1 table strips; orientation -1 is the mirror glide."""
    by_rows = {s.rows: s.key for s in strip_variants(1)}
    out: List[Tuple[str, int, str]] = []
    for s in strip_table():
        if s.height != 1:
            continue
        out.append((s.key, 1, s.key))
        out.append((s.key, -1, by_rows[mirror_strip_rows(s)]))
    return out


# A strip slot of placed faces: the faces' positions, and the variant/shift
# pairs of the slot keyed by the labels their strip rows give those faces,
# each list in variant order, then shift order.
_Slot = Tuple[Tuple[int, ...], Dict[bytes, List[RowChoice]]]


@lru_cache(maxsize=256)
def _slot(height: int, phase: int, positions: tuple = (), cells: tuple = ()) -> _Slot:
    """The slot of the faces at the positions, at the cells of a stack row
    whose shifts are congruent to phase mod 3; rows holding no face share
    one slot a phase."""
    # two spare cells last, so it returns a tuple for any number of faces
    read = itemgetter(*cells, 0, 0)
    choices: Dict[bytes, List[RowChoice]] = {}
    for key in _STRIP_KEYS[height]:
        for shift in range(phase, 6, 3):
            choices.setdefault(bytes(read(_row_cells(height, key, shift)))[:-2], []).append(
                (key, shift))
    return positions, choices


def _slots(placed: Sequence[Face], height: int) -> Tuple[_Slot, ...]:
    """The strip slots of faces whose top face row is in the first slot."""
    rows: Dict[int, List[Tuple[int, int]]] = {}
    for p, f in enumerate(placed):
        r, c = _cell(height, *f)
        rows.setdefault(r, []).append((p, c))
    return tuple(_slot(height, -r * height % 3, *zip(*rows.get(r, ())))
                 for r in range(max(rows) + 1))


@lru_cache(maxsize=8)
def _images(faces: frozenset) -> Tuple[Tuple[Isometry, Tuple[Face, ...]], ...]:
    """Each label-preserving point-group element with its image of each of
    the faces, in sorted order."""
    return tuple((g, tuple(g.apply_faces(window_order(faces)[0]))) for g in LABEL_POINT_GROUP)


@lru_cache(maxsize=8)
def _strip_placements(
    faces: frozenset, height: int
) -> Tuple[Tuple[Isometry, Tuple[_Slot, ...]], ...]:
    """Per image of the faces, and then per vertical phase of the strip
    slots: the image's element translated by the (tx, ty) that carries the
    faces into the slots, and the slots of the image so moved, in sorted
    order of the faces."""
    out = []
    for g, image in _images(faces):
        y_max = max(y for _, y, _ in image)
        x_min = min(x for x, _, _ in image)
        for y_target in range(0, -height, -1):
            ty = y_target - y_max
            tx = 3 - x_min
            tx += (ty - tx) % 3
            placed = [(x + tx, y + ty, u) for x, y, u in image]
            out.append((g._replace(tx=tx, ty=ty), _slots(placed, height)))
    return tuple(out)


def _marked(config: Configuration) -> Tuple[frozenset, bytes]:
    """The marked faces and their labels in sorted face order.  The faces
    are the window object itself when the marking is total: the completions
    of one sweep share it, so the caches above find its entries by identity."""
    if UNSET in config.labels:
        return frozenset(config.marks), config.labels.replace(bytes((UNSET,)), b"")
    return config.window, config.labels


def _match_stack(labels: bytes, slots: Sequence[_Slot], height: int) -> Optional[StackingWord]:
    """The first compatible stacking word whose strip rows give the labels,
    each row in its slot's order (`_walk` on `_below_sorted`).  The slots
    are read top down, each key one gather of the labels at its positions,
    and the first slot that no row choice gives ends the match."""
    options = []
    for positions, choices in slots:
        found = choices.get(bytes(map(labels.__getitem__, positions)))
        if found is None:
            return None
        options.append(found)
    return next(_walk(_below_sorted(height), options), None)


# A catalog occurrence: its evidence, and the pull-back of its puzzle onto a
# window through the label-preserving isometry carrying the configuration's
# marked faces into the puzzle (see `survivor_certificate`).
_Match = Tuple[dict, Callable[[frozenset], Optional[bytes]]]


def _strip_match(config: Configuration, height: int) -> Optional[_Match]:
    """The first strip-stack occurrence of config: the first word
    `_match_stack` finds, not read again.

    Each image of config is translated, label-preservingly, to put its top
    face row at 0 or, for height 2, also at -1 (strip slots have two
    vertical phases): in stack row 0 either way, so the pull-back gives the
    marked faces the very cells the slots matched.
    """
    faces, labels = _marked(config)
    for g, slots in _strip_placements(faces, height):
        word = _match_stack(labels, slots, height)
        if word is not None:
            pull_back = partial(_stack_marks, g=g, height=height, word=word)
            return {"kind": f"strip-h{height}", "word": list(word)}, pull_back
    return None


def embeds_in_strips(config: Configuration, height: int) -> Optional[dict]:
    """Evidence that config occurs inside a strip-stack puzzle: the kind and
    the stacking word of the first occurrence `_strip_match` finds."""
    found = _strip_match(config, height)
    return None if found is None else found[0]


_SPECIAL_PATCH_RADIUS = 7


@lru_cache(maxsize=None)
def _special_grids() -> Tuple[LinkBox, Tuple[bytes, ...]]:
    """The twelve special patches laid on one face grid, UNSET off the
    patch: they share one window, a ball, which `link_grid` covers by one
    box padded by a column and a row on each side.  The box, and each
    patch's grid by puzzle index from 1."""
    (box,), tail = link_grid(ball(up(0, 0), _SPECIAL_PATCH_RADIUS))
    return box, tuple(b"".join(box.read(special_puzzle(i, _SPECIAL_PATCH_RADIUS).labels + tail))
                      for i in range(1, 13))


@lru_cache(maxsize=32)
def _image_reader(window: frozenset, g: Isometry) -> Callable[[bytes, int, int], Optional[bytes]]:
    """g's image of the window on the special patches' box, as a reader
    (grid, tx, ty) -> the labels the grid gives the image moved by (tx, ty),
    in sorted face order, or None when the moved bounding box leaves the
    grid: one gather at the moved box's corner cell."""
    box = _special_grids()[0]
    image = g.apply_faces(window_order(window)[0])
    xs, ys = [x for x, _, _ in image], [y for _, y, _ in image]
    tx_lo, tx_hi = box.gx - min(xs), box.gx + box.columns - 1 - max(xs)
    ty_lo, ty_hi = box.gy - min(ys), box.gy + box.height - 1 - max(ys)
    corner, origin = box.cell(min(xs), min(ys), False), box.cell(0, 0, False)
    dx, dy = box.cell(1, 0, False) - origin, box.cell(0, 1, False) - origin
    # one spare cell last, so that it returns a tuple
    gather = itemgetter(*(box.cell(*f) - corner for f in image), 0)

    def read(grid: bytes, tx: int, ty: int) -> Optional[bytes]:
        if tx_lo <= tx <= tx_hi and ty_lo <= ty <= ty_hi:
            return bytes(gather(grid[corner + tx * dx + ty * dy:]))[:-1]
        return None
    return read


@lru_cache(maxsize=None)
def _special_index() -> Dict[tuple, Tuple[Tuple[int, Face], ...]]:
    """Every (puzzle index, face h) of the twelve special patches whose
    radius-1 ball lies in the patch, keyed by that ball's labels in sorted
    face order, listed by puzzle and then in patch order, and read off the
    patches' grids (`_special_grids`) at fixed offsets from h's cell."""
    box, grids = _special_grids()
    ring = {u: [box.cell(*f) - box.cell(0, 0, u) for f in sorted(ball(Face(0, 0, u), 1))]
            for u in (True, False)}
    reads = []
    for h in window_order(ball(up(0, 0), _SPECIAL_PATCH_RADIUS))[0]:
        at = box.cell(*h)
        read = itemgetter(*(at + d for d in ring[h.up]))
        if UNSET not in read(grids[0]):  # the patches share one window
            reads.append((h, read))
    out: Dict[tuple, List[Tuple[int, Face]]] = {}
    for index, grid in enumerate(grids, start=1):
        for h, read in reads:
            out.setdefault(read(grid), []).append((index, h))
    return {sig: tuple(entries) for sig, entries in out.items()}


@lru_cache(maxsize=8)
def _special_keys(faces: frozenset, center: Face) -> Tuple[tuple, ...]:
    """Per image of the faces (`_images`): the element, the center's image,
    an itemgetter reading the `_special_index` key, the labels of the
    center's radius-1 ball in the sorted order of their images, and the
    image's reader on the special patches' box (`_image_reader`)."""
    where = window_order(faces)[1]
    ring1 = [where.get(f) for f in ball(center, 1)]
    if None in ring1:
        raise ValueError("config must cover the radius-1 ball of the center")
    return tuple((g, g.apply_face(center), itemgetter(*sorted(ring1, key=image.__getitem__)),
                  _image_reader(faces, g))
                 for g, image in _images(faces))


def _special_match(config: Configuration, center: Face) -> Optional[_Match]:
    """The first occurrence of config in a special puzzle's patch, by
    label-preserving point-group element, then puzzle index, then the patch
    face h the center lands on.  Each candidate moves the image by the
    (tx, ty) carrying the center onto h and reads it off the patch's grid
    in one gather; a moved box that leaves the grid misses."""
    faces, labels = _marked(config)
    grids = _special_grids()[1]
    for g, c_img, key, reader in _special_keys(faces, center):
        for index, h in _special_index().get(key(labels), ()):
            tx, ty = h.x - c_img.x, h.y - c_img.y
            if h.up != c_img.up or (tx - ty) % 3:
                continue
            if reader(grids[index - 1], tx, ty) == labels:
                pull_back = partial(_patch_marks, g=g._replace(tx=tx, ty=ty), index=index)
                return {"kind": "special", "index": index}, pull_back
    return None


def embeds_in_special(config: Configuration, center: Face = up(0, 0)) -> Optional[dict]:
    """Evidence that config occurs inside one of the twelve special puzzles."""
    found = _special_match(config, center)
    return None if found is None else found[0]


def _catalog_match(config: Configuration, center: Face) -> Optional[_Match]:
    """The first catalog occurrence of config: in a height-1 strip stack,
    then a height-2 one, then a special puzzle."""
    return _strip_match(config, 1) or _strip_match(config, 2) or _special_match(config, center)


def embeds_in_catalog(config: Configuration) -> Optional[dict]:
    """Strip-stack or special-puzzle embedding evidence, or None."""
    found = _catalog_match(config, up(0, 0))
    return None if found is None else found[0]


def _cell(height: int, x: int, y: int, u: bool) -> Tuple[int, int]:
    """The stack row r (its top face row at -r * height) holding the face
    at (x, y, u), and the face's index in that row's `_row_cells`: face row
    j below the top, then up before down, then column mod 6."""
    r = -y // height
    return r, 12 * (-y - r * height) + (0 if u else 6) + x % 6


@lru_cache(maxsize=None)
def _row_cells(height: int, key: str, shift: int) -> Tuple[int, ...]:
    """The labels of the variant's strip row placed at the shift, in `_cell`
    order: face row j gives its up and down faces at column x the labels
    its cycles carry at (x - shift) mod 6."""
    return tuple(
        cycle[(x - shift) % 6]
        for row in _variant_by_key(height)[key].rows for cycle in row for x in range(6)
    )


@lru_cache(maxsize=32)
def _stack_cells(window: frozenset, height: int, g: Isometry) -> Tuple[int, int, itemgetter]:
    """The first stack row r0 and the number of rows that g's image of the
    window meets, and one itemgetter reading each face's label, in sorted
    face order, off those rows' `_row_cells` laid end to end.  It reads one
    spare cell last, so it returns a tuple even for a single face."""
    located = [_cell(height, *f) for f in g.apply_faces(window_order(window)[0])]
    r0 = min(r for r, _ in located)
    count = max(r for r, _ in located) - r0 + 1
    return r0, count, itemgetter(*((r - r0) * 12 * height + c for r, c in located), 0)


def _continue_word(height: int, word: StackingWord, first: int, count: int) -> List[RowChoice]:
    """Rows first .. first + count - 1 of the stack that continues `word`
    (its top row is row 0) along the transfer graph: below its bottom row
    by the first successor, above its top row by the first predecessor in
    (variant, shift) order.  Rows above sit at negative indices."""
    below, above = _below(height), _above(height)
    rows = list(word)
    while len(rows) < first + count:
        rows.append(below[rows[-1]][0])
    for _ in range(-first):
        rows.insert(0, above[rows[0]])
    return rows[max(first, 0):][:count]


def _stack_marks(window: frozenset, g: Isometry, height: int, word: StackingWord) -> bytes:
    """The labels the stack continuing `word` gives g's image of each face
    of the window, in sorted face order.  Rows are not checked against each
    other (`_below`)."""
    r0, count, read = _stack_cells(window, height, g)
    cells: List[int] = []
    for key, shift in _continue_word(height, word, r0, count):
        cells += _row_cells(height, key, shift)
    return bytes(read(cells))[:-1]


@lru_cache(maxsize=8)
def _positions(window: frozenset, g: Isometry, target: frozenset) -> Tuple[Optional[int], ...]:
    """Per face of the window in sorted order, the position of its image
    under g in the target's sorted order, or None where it leaves the target."""
    return tuple(map(window_order(target)[1].get, g.apply_faces(window_order(window)[0])))


def _patch_marks(window: frozenset, g: Isometry, index: int) -> Optional[bytes]:
    """The labels special patch `index` gives g's image of each face of the
    window, in sorted face order, or None when the image leaves the patch:
    the image under g's point-group part, moved by g's translation and read
    off the patch's grid, which reads UNSET off the patch."""
    read = _image_reader(window, g._replace(tx=0, ty=0))
    labels = read(_special_grids()[1][index - 1], g.tx, g.ty)
    return None if labels is None or UNSET in labels else labels


def survivor_certificate(
    config: Configuration, window: frozenset
) -> Tuple[Optional[dict], Optional[Configuration]]:
    """The evidence `embeds_in_catalog` gives for config, and a certificate
    that config extends to a total marking of window, or None.

    A catalog puzzle config occurs in is itself a completion of every
    window, so the certificate is the first occurrence's puzzle pulled back
    onto window through its label-preserving isometry.  A strip stack
    covers any window; a special puzzle's patch may not cover the window's
    image, and then there is no certificate.  A certificate is returned only
    once `check` finds it Valid and it agrees with config on every marked
    face; one that covers the window and fails either test means the
    catalog is unsound, and raises.
    """
    if not window >= config.window:
        raise ValueError("window must contain the configuration window")
    found = _catalog_match(config, up(0, 0))
    if found is None:
        return None, None
    evidence, pull_back = found
    labels = pull_back(window)
    if labels is None:
        return evidence, None
    certificate = Configuration(window, labels)
    faces, marked = _marked(config)
    agrees = bytes(map(labels.__getitem__, _positions(faces, _IDENTITY, window))) == marked
    if check(certificate).status != VALID or not agrees:
        raise RuntimeError(f"catalog occurrence {evidence} pulls back to no completion")
    return evidence, certificate
