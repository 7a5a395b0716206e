"""Constraint engine: checking, propagation, enumeration, dead ends."""

import gc
import hashlib
import importlib.util
import itertools
import os
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import distributions, engine, kernel, labeling
from ringlab.catalog import assemble, compatible_words, special_puzzle
from ringlab.configio import data_text, parse_config, serialize_config
from ringlab.distributions import (
    DistContradiction,
    Distribution,
    dist_propagate,
    hex_window,
    make_distribution,
)
from ringlab.engine import (
    CONTRADICTION,
    INCOMPLETE,
    VALID,
    Configuration,
    Contradiction,
    Verdict,
    check,
    enumerate_completions,
    has_completion,
    have_completions,
    link_word,
    make_config,
    propagate,
)
from ringlab.lattice import (
    AXES,
    Edge,
    Face,
    ball,
    down,
    face_edges,
    face_neighbors,
    face_vertices,
    incident_edges,
    opposite_axis_at_vertex,
    up,
    window_vertices,
)
from ringlab.labeling import derive_edge_labels, vertex_s
from ringlab.reports import classification_report, dead_end_report
from ringlab.rings import MODE_ROT, MODE_ROT_REF, sector_options

INITIAL_WINDOW = frozenset({up(0, 0), down(0, -1), down(-1, 0), down(0, 0)})


def test_make_config_defaults_window_to_marked_faces():
    cfg = make_config({up(0, 0): 0, down(0, 0): 1})
    assert cfg.window == frozenset({up(0, 0), down(0, 0)})
    assert cfg.marks[up(0, 0)] == 0


def test_marks_extend_the_window():
    cfg = make_config({up(0, 0): 0}, window=frozenset({down(0, 0)}))
    assert cfg.window == frozenset({up(0, 0), down(0, 0)})


@pytest.mark.parametrize("mark", [-1, 3, None])
def test_marks_outside_the_labels_are_rejected(mark):
    with pytest.raises(ValueError, match="not in 0, 1, 2"):
        make_config({up(0, 0): mark, down(0, 0): 0})


def test_check_statuses():
    seed = make_config({up(0, 0): 0}, window=INITIAL_WINDOW)
    v = check(seed)
    assert v.status == INCOMPLETE
    assert len(v.unmarked) == 3

    comps = enumerate_completions(seed)
    assert check(comps[0]).status == VALID

    # all three downs equal to the up label violates every ring
    bad = make_config(
        {up(0, 0): 0, down(0, -1): 0, down(-1, 0): 0, down(0, 0): 0}
    )
    vb = check(bad)
    assert vb.status == CONTRADICTION
    assert vb.witnesses
    for vertex, reason in vb.witnesses:
        assert isinstance(reason, str) and reason


def test_link_word_reads_sectors():
    cfg = make_config({up(0, 0): 0}, window=INITIAL_WINDOW)
    word = link_word(cfg.marks, (0, 0))
    assert len(word) == 6
    assert 0 in word and None in word


def test_eight_initial_configurations():
    seed = make_config({up(0, 0): 0}, window=INITIAL_WINDOW)
    comps = enumerate_completions(seed)
    assert len(comps) == 8
    assert comps == sorted(comps, key=lambda c: sorted(c.marks.items()))
    for c in comps:
        assert check(c).status == VALID


def test_unit_neighbors_have_two_extensions():
    cfg = make_config(
        {up(0, 0): 0, down(0, -1): 1, down(-1, 0): 1, down(0, 0): 1},
        window=ball(up(0, 0), 1),
    )
    assert len(enumerate_completions(cfg)) == 2


def test_quad_window_has_four_extensions_with_fixed_trio():
    quad = parse_config(data_text("window_quad.txt"))
    comps = enumerate_completions(quad)
    assert len(comps) == 4
    for c in comps:
        assert c.marks[up(1, 1)] == 0
        assert c.marks[down(0, 1)] == 2
        assert c.marks[down(1, 0)] == 2


def test_quad_ball2_extension_counts():
    quad = parse_config(data_text("window_quad.txt"))
    counts = []
    for c in enumerate_completions(quad):
        ext = make_config(dict(c.marks), window=ball(up(0, 0), 2) | c.window)
        counts.append(len(enumerate_completions(ext)))
    assert counts == [4, 1, 4, 0]


def test_second_drawing_is_a_dead_end():
    d2 = parse_config(data_text("deadend_quad2.txt"))
    assert check(d2).status == VALID
    rep = dead_end_report(d2, 2, 3)
    assert rep == {
        "radius": 2,
        "probe": 3,
        "completions": 0,
        "survivors": {"3": 0},
        "dead_ends": {"3": 0},
        "is_dead_end": True,
    }


def test_has_completion_agrees_with_enumeration():
    seed = make_config({up(0, 0): 0}, window=INITIAL_WINDOW)
    target = ball(up(0, 0), 1)
    assert has_completion(seed, target) == bool(
        enumerate_completions(seed, target_window=target)
    )


def test_propagation_is_sound():
    quad = parse_config(data_text("window_quad.txt"))
    forced = propagate(quad)
    comps = enumerate_completions(quad)
    for f, l in forced.marks.items():
        assert all(c.marks[f] == l for c in comps)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2), st.integers(0, 7))
def test_completions_of_one_mark_are_valid(label, pick):
    seed = make_config({up(0, 0): label}, window=INITIAL_WINDOW)
    comps = enumerate_completions(seed)
    assert comps
    c = comps[pick % len(comps)]
    assert check(c).status == VALID
    assert c.marks[up(0, 0)] == label


@pytest.mark.parametrize("radius, count", [(3, 736), (4, 2416), (5, 8080)])
def test_completions_match_a_kernel_free_backtracker(radius, count):
    # the benchmark's reference backtracks over the legal link words with
    # no kernel, plan or table of the engine
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.py")
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    window = ball(up(0, 0), radius)
    got = enumerate_completions(make_config({up(0, 0): 0}, window=window))
    want = reference.completions({up(0, 0): 0}, window)
    assert len(got) == len(want) == count
    assert reference.set_digest(c.marks for c in got) == reference.set_digest(want)


def test_propagate_names_a_dead_vertex():
    # the all-zero trio around Up(0,0) leaves no ring at one of its vertices
    marks = {up(0, 0): 0, down(0, -1): 0, down(-1, 0): 0, down(0, 0): 0}
    with pytest.raises(Contradiction) as info:
        propagate(make_config(marks))
    [(v, reason)] = info.value.witnesses
    assert v in window_vertices(marks)
    assert reason == f"no ring matches the link at {v}"


def test_propagate_names_a_face_without_labels():
    # every vertex still matches a ring, but no label of Up(0,0) suits all three
    marks = {down(-1, 0): 2, down(0, -1): 1, down(0, 0): 0}
    assert check(make_config(marks)).status == VALID
    with pytest.raises(Contradiction) as info:
        propagate(make_config(marks, window=[*marks, up(0, 0)]))
    [(v, reason)] = info.value.witnesses
    assert v == face_vertices(up(0, 0))[0]
    assert v in window_vertices(marks)
    assert reason == f"no admissible label for {up(0, 0)}"


def _propagation_transcript() -> str:
    """What seeded random propagations give on two of the kernel's clients,
    one line each: the forced marks or axes, or the contradiction's witness.

    Face propagation runs on partial markings of the radius-2 ball in both
    modes, axis propagation on partial axes of the radius-1..3 hexagons with
    refutation off and on.
    """
    rng = random.Random(8)
    lines = []
    faces = sorted(ball(up(0, 0), 2))
    for mode in (MODE_ROT, MODE_ROT_REF):
        for _ in range(300):
            p = rng.choice((0.1, 0.2, 0.3))
            marks = {f: rng.randrange(3) for f in faces if rng.random() < p}
            try:
                out = sorted(propagate(make_config(marks, faces), mode=mode).marks.items())
            except Contradiction as exc:
                out = exc.witnesses
            lines.append(repr(out))
    for radius in (1, 2, 3):
        window = sorted(hex_window(radius))
        for refute in (False, True):
            for _ in range(200):
                p = rng.choice((0.1, 0.2, 0.3))
                axis = {v: rng.randrange(3) for v in window if rng.random() < p}
                try:
                    dist = dist_propagate(Distribution(window, axis), refute)
                    out = sorted(dist.axis.items())
                except DistContradiction as exc:
                    out = (exc.vertex, exc.face, str(exc))
                lines.append(repr(out))
    return "\n".join(lines) + "\n"


# SHA-256 of `_propagation_transcript()`: which contradiction is reported
# first depends on the order the kernel reads its constraints in, so this
# freezes that order along with every forced label.
PROPAGATION_TRANSCRIPT_SHA256 = (
    "11b36a657b7a48f21de06f58d5a4f1111f6275fc9ee617e8c7b05f7871867135"
)


def test_contradiction_witnesses_are_byte_stable():
    text = _propagation_transcript()
    assert hashlib.sha256(text.encode()).hexdigest() == PROPAGATION_TRANSCRIPT_SHA256


# SHA-256 of the twelve radius-9 special puzzles, serialized and concatenated,
# as the full-sweep propagation of earlier versions produced them.
SPECIAL_PUZZLES_R9_SHA256 = (
    "3b02be2c4241f5c5749df82406cfeb3d30a87a528611530c0dab455db5ebb390"
)


def test_propagated_special_puzzles_are_byte_stable():
    text = "".join(serialize_config(special_puzzle(i, 9)) for i in range(1, 13))
    assert hashlib.sha256(text.encode()).hexdigest() == SPECIAL_PUZZLES_R9_SHA256


def test_no_kernel_outlives_its_call():
    seed = make_config({up(0, 0): 0}, window=INITIAL_WINDOW)
    gc.collect()
    gc.disable()
    try:
        enumerate_completions(seed, ball(up(0, 0), 1))
        has_completion(seed, ball(up(0, 0), 2))
        have_completions([seed, seed], ball(up(0, 0), 2))
        dead_end_report(seed, 1, 3)
        dead_end_report(seed, 1, 3, mode=MODE_ROT)
        propagate(seed)
        with pytest.raises(Contradiction):
            propagate(make_config({up(0, 0): 0, down(0, -1): 0, down(-1, 0): 0,
                                   down(0, 0): 0}))
        dist_propagate(Distribution(hex_window(2), {(0, 0): 0, (1, 0): 2}),
                       refute=True)
        hexagon = hex_window(1)
        with pytest.raises(DistContradiction):
            dist_propagate(Distribution(hexagon, {v: 0 for v in hexagon if v != (0, 0)}))
        derive_edge_labels(ball(up(0, 0), 2))
        alive = [o for o in gc.get_objects() if isinstance(o, kernel.Kernel)]
    finally:
        gc.enable()
    assert alive == []


@pytest.mark.parametrize("mode", [MODE_ROT, MODE_ROT_REF])
def test_ring_tables_match_sector_options(mode):
    for s in range(3):
        table = engine._ring_table(mode, s)
        for code in range(4**6):
            word = tuple(None if d == 3 else d for d in
                         ((code >> 2 * k) & 3 for k in range(6)))
            opts = sector_options(word, s, mode)
            want = tuple(sum(1 << l for l in o) for o in opts) if opts[0] else None
            assert table[code] == want, (word, s)


def _odd_by_definition(up_face):
    """Whether a face of the orientation is Odd, by its corners' axes in
    `face_vertices` order: an odd number of them differ from their
    opposite axes."""
    f = Face(0, 0, up_face)
    opposite = [opposite_axis_at_vertex(f, v) for v in face_vertices(f)]
    return lambda axes: sum(a != o for a, o in zip(axes, opposite)) % 2 == 1


def test_parity_tables_read_words_as_accept():
    # face_parity reads a table by the code of the corners' axes, as the
    # kernel does, and finds a face Odd by the definition
    for u in (True, False):
        f, odd_by_definition = Face(0, 0, u), _odd_by_definition(u)
        for axes in itertools.product(AXES, repeat=3):
            dist = make_distribution(dict(zip(face_vertices(f), axes)))
            odd = distributions.face_parity(dist, f) == distributions.ODD
            assert odd == odd_by_definition(axes), (u, axes)


def _entry_by_definition(arity, accept, code):
    """A code's table entry as defined: the product of per-position choices
    (the set label, or all three where free) filtered by `accept`, with the
    labels of each position ORed into its mask; None when none is accepted."""
    digits = [code >> 2 * k & 3 for k in range(arity)]
    choices = [(0, 1, 2) if d == kernel.UNSET else (d,) for d in digits]
    masks = [0] * arity
    for word in filter(accept, itertools.product(*choices)):
        for k, l in enumerate(word):
            masks[k] |= 1 << l
    return tuple(masks) if masks[0] else None


def _alternates(labels):
    """The vertex marking rule: six labels alternating between two values."""
    return labels[0] != labels[1] and labels == labels[:2] * 3


@pytest.mark.parametrize("make, arity, accept", [
    (labeling._vertex_rule, 6, _alternates),
    (partial(distributions._parity_table, True), 3, _odd_by_definition(True)),
    (partial(distributions._parity_table, False), 3, _odd_by_definition(False)),
], ids=["vertex-rule", "parity-up", "parity-down"])
def test_table_fills_match_the_definition(make, arity, accept):
    # the module's table, and a fresh table of the words the definition accepts
    words = filter(accept, itertools.product((0, 1, 2), repeat=arity))
    for table in (make(), kernel.Table(arity, words)):
        for code in range(4**arity):
            assert table[code] == _entry_by_definition(arity, accept, code), code


BALL2 = frozenset(ball(up(0, 0), 2))


@st.composite
def small_windows(draw):
    """An edge-connected window of at most 8 faces of the radius-2 ball,
    partially marked."""
    size = draw(st.integers(1, 8))
    window = [draw(st.sampled_from(sorted(BALL2)))]
    while len(window) < size:
        grow = {g for f in window for g in face_neighbors(f)} & BALL2
        window.append(draw(st.sampled_from(sorted(grow - set(window)))))
    labels = draw(st.lists(st.sampled_from((None, None, 0, 1, 2)),
                           min_size=len(window), max_size=len(window)))
    marks = {f: l for f, l in zip(window, labels) if l is not None}
    return make_config(marks, window=window)


@settings(max_examples=60, deadline=None)
@given(small_windows(), st.sampled_from((MODE_ROT, MODE_ROT_REF)))
def test_search_and_propagation_agree_with_brute_force(cfg, mode):
    free = sorted(cfg.window - set(cfg.marks))
    brute = []
    for labels in itertools.product((0, 1, 2), repeat=len(free)):
        total = make_config({**cfg.marks, **dict(zip(free, labels))}, window=cfg.window)
        if check(total, mode).status == VALID:
            brute.append(total.marks)
    comps = enumerate_completions(cfg, mode=mode)
    assert sorted(sorted(c.marks.items()) for c in comps) == sorted(
        sorted(m.items()) for m in brute
    )
    assert has_completion(cfg, cfg.window, mode=mode) == bool(brute)
    try:
        forced = propagate(cfg, mode=mode)
    except Contradiction:
        assert brute == []
        return
    assert forced.window == cfg.window
    for f, l in forced.marks.items():
        assert all(m[f] == l for m in brute)


def reference_check(config, mode):
    """`check` the slow way: every touched vertex's link read face by face
    through `link_word` and matched through `rings.sector_options`."""
    dead = [
        v for v in sorted(window_vertices(config.marks))
        if not sector_options(link_word(config.marks, v), vertex_s(v), mode)[0]
    ]
    if dead:
        witnesses = tuple((v, f"no ring matches the link at {v}") for v in dead)
        return Verdict(CONTRADICTION, witnesses, ())
    unmarked = tuple(sorted(config.window - set(config.marks)))
    if unmarked:
        return Verdict(INCOMPLETE, (), unmarked)
    return Verdict(VALID, (), ())


# six face rows of stacking words, so a stack moved up three rows covers the
# balls below
STACK_WORDS = {1: compatible_words(1, 6), 2: compatible_words(2, 3)}


@st.composite
def source_marks(draw):
    """The marks of a special puzzle or of a strip stack, or none."""
    source = draw(st.sampled_from(("random", "special", "stack")))
    if source == "special":
        return special_puzzle(draw(st.integers(1, 12)), 5).marks
    if source == "stack":
        height = draw(st.sampled_from((1, 2)))
        stack = assemble(draw(st.sampled_from(STACK_WORDS[height])), 3)
        # a move by (-6, 3) keeps x - y mod 3, so the stack stays a valid marking
        return {f._replace(x=f.x - 6, y=f.y + 3): l for f, l in stack.marks.items()}
    return {}


@st.composite
def window_markings(draw, window):
    """The window partially marked: at random, or from a special puzzle or a
    strip stack with some faces blanked and some relabelled.  Relabelled
    faces come last in the marks' order."""
    base = draw(source_marks())
    marks = {f: base[f] for f in window if f in base}
    for f in draw(st.sets(st.sampled_from(window))):
        marks.pop(f, None)
    relabelled = draw(st.dictionaries(st.sampled_from(window), st.integers(0, 2),
                                      max_size=2 if base else len(window)))
    for f in relabelled:
        marks.pop(f, None)
    marks.update(relabelled)
    return make_config(marks, window=window)


@st.composite
def ball_markings(draw):
    """A radius-1..3 ball partially marked, as `window_markings` marks it."""
    window = sorted(ball(draw(st.sampled_from((up(0, 0), down(0, 0), up(2, -1)))),
                         draw(st.integers(1, 3))))
    return draw(window_markings(window))


@settings(max_examples=150, deadline=None)
@given(ball_markings(), st.sampled_from((MODE_ROT, MODE_ROT_REF)))
def test_check_agrees_with_the_link_word_reference(cfg, mode):
    assert check(cfg, mode) == reference_check(cfg, mode)


@pytest.mark.parametrize("mode", [MODE_ROT, MODE_ROT_REF])
def test_link_tables_read_the_ring_tables(mode):
    """Every six-label code of every family, free labels included: the
    translate tables call it live iff its ring table has an entry."""
    tables = engine._link_tables(mode)
    for s in range(3):
        ring = engine._ring_table(mode, s)
        for code in range(4**6):
            low, high = s << 6 | code & 63, s << 6 | code >> 6
            live = any(t[low] & u[high] for t, u in tables)
            assert live == (ring[code] is not None), (s, code)


@pytest.mark.parametrize("step", [(1, 1), (1, -1)])
def test_a_sparse_window_is_read_in_small_grids(step):
    """A 400-face line along a diagonal: each box's grid stays within the
    bound for the window's vertices it holds, not the line's bounding box."""
    window = frozenset(up(i * step[0], i * step[1]) for i in range(400))
    vertices = window_vertices(window)
    boxes, tail = engine.link_grid(window)
    labels = make_config({}, window=window).labels + tail
    total = 0
    for box in boxes:
        grid = b"".join(box.read(labels))
        columns = box.columns
        assert len(grid) == 2 * box.height * columns and box.size == box.height * (columns - 1) - 1
        held = sum(box.gx < x < box.gx + columns and box.gy < y < box.gy + box.height - 1
                   for x, y in vertices)
        assert len(grid) <= engine._GRID_PER_VERTEX * held + engine._GRID_SLACK
        total += len(grid)
    assert {v for box in boxes for v in map(box.vertex, range(box.size))} >= vertices
    assert total <= 10 * len(vertices)


def _per_cell_grid(config, box) -> bytes:
    """A box's grid cell by cell, as `LinkBox` lays it out: per column x
    from gx, per row y from gy, Down then Up, the face's label, and UNSET
    off the window and in each column's last (padding) row.  Each face's
    place in that order is its `LinkBox.cell`."""
    labels = dict(zip(config.faces, config.labels))
    padding = box.gy + box.height - 1
    cells = [Face(x, y, u) for x in range(box.gx, box.gx + box.columns)
             for y in range(box.gy, padding + 1) for u in (False, True)]
    assert [box.cell(*f) for f in cells] == list(range(len(cells)))
    return bytes(labels.get(f, engine.UNSET) if f.y < padding else engine.UNSET for f in cells)


def _sparse_windows():
    rng = random.Random(11)
    hexagon = ball(up(0, 0), 6)
    yield "holed", frozenset(f for f in hexagon if (7 * f.x + 3 * f.y) % 5)
    yield "half", frozenset(f for f in hexagon if f.y >= f.x)
    yield "scattered", frozenset(rng.sample(sorted(hexagon), 40))
    yield "diagonal", frozenset(down(i, -i) for i in range(60))
    yield "far-apart", frozenset((up(0, 0), down(10**6, -10**6), up(-3, 10**6)))
    yield "column", frozenset(up(0, 100 * i) for i in range(30))


@pytest.mark.parametrize("name, window", list(_sparse_windows()))
def test_link_grids_gather_what_a_per_cell_reference_reads(name, window):
    rng = random.Random(name)
    faces = sorted(window)
    config = make_config({f: rng.randrange(3) for f in faces if rng.random() < 0.8}, window)
    boxes, tail = engine.link_grid(config.window)
    assert boxes
    for box in boxes:
        assert b"".join(box.read(config.labels + tail)) == _per_cell_grid(config, box)


@pytest.mark.parametrize("center", [up(0, 0), down(0, 0)], ids=["up", "down"])
def test_a_ball_is_one_box(center):
    # the special patches are read off the one box of their ball
    for r in range(1, 12):
        assert len(engine.link_grid(ball(center, r))[0]) == 1, r


def _search_order_by_corners(window):
    """Faces by the squared length of (their centroid - the window's), then
    position, with each centroid averaged from the face's three corners in
    exact rationals."""
    centroid = {f: tuple(Fraction(sum(c), 3) for c in zip(*face_vertices(f))) for f in window}
    mx = sum(c[0] for c in centroid.values()) / len(window)
    my = sum(c[1] for c in centroid.values()) / len(window)

    def key(f):
        a, b = centroid[f][0] - mx, centroid[f][1] - my
        return a * a + a * b + b * b, f

    return tuple(sorted(window, key=key))


def _search_windows():
    rng = random.Random(7)
    for r in range(1, 10):
        yield f"ball-{r}", ball(up(0, 0), r)
    yield "ball-down", ball(down(3, -5), 4)
    for height, rows in ((1, 4), (2, 3)):
        yield f"stack-h{height}", assemble(compatible_words(height, rows)[0]).window
    for i in range(5):
        hexagon = sorted(ball(up(i, -i), 5))
        yield f"half-ball-{i}", frozenset(rng.sample(hexagon, len(hexagon) // 2))
    yield "diagonal", frozenset(up(i, i) for i in range(80))
    yield "far-apart", frozenset((up(0, 0), down(10**6, -10**6), up(-3, 10**6)))


@pytest.mark.parametrize("name, window", list(_search_windows()))
def test_search_order_sorts_by_distance_from_the_centroid(name, window):
    assert engine._search_order(window) == _search_order_by_corners(window)


def test_search_and_check_build_only_their_own_window_plans():
    """A window that is only searched builds no link grid, and one that is
    only checked builds no kernel plan: both read the window's one vertex
    sort, but a grid costs a searched window time it never gets back."""
    searched = make_config({up(40, 40): 0}, window=ball(up(40, 40), 2))
    grids = engine.link_grid.cache_info()
    enumerate_completions(searched)
    have_completions([searched], searched.window)
    propagate(searched)
    assert engine.link_grid.cache_info() == grids
    checked = make_config({up(-40, 40): 0}, window=ball(up(-40, 40), 2))
    plans = engine._plan.cache_info()
    check(checked)
    assert engine._plan.cache_info() == plans
    vertices = tuple(sorted(window_vertices(searched.window)))
    assert engine.window_order(searched.window)[2] == vertices


def test_an_empty_batch_builds_no_plan_or_kernel(monkeypatch):
    """have_completions on no configurations answers [] without building the
    target's plan or a kernel.  classification_report(1, 3) certifies all
    28 completions, so it builds no plan for its radius-3 probe ball."""
    planned = []
    plan = engine._plan

    def spy(window, mode):
        planned.append(window)
        return plan(window, mode)

    monkeypatch.setattr(engine, "Kernel", None)  # building one would raise
    monkeypatch.setattr(engine, "_plan", spy)
    assert have_completions([], ball(up(60, 60), 3)) == []
    assert have_completions(iter(()), ball(up(60, 60), 3)) == []
    assert planned == []
    monkeypatch.undo()
    monkeypatch.setattr(engine, "_plan", spy)
    report = classification_report(1, 3)
    assert (report["completions"], report["survivors"], report["exceptions"]) == (28, 28, 0)
    assert ball(up(0, 0), 3) not in planned and planned


@st.composite
def sparse_markings(draw):
    """A window far from a ball, marked at random: a line of faces along a
    lattice direction, small clusters of faces up to 10^6 apart, or one
    face; coordinates may be negative."""
    kind = draw(st.sampled_from(("line", "far", "single")))
    x, y = draw(st.integers(-10**6, 10**6)), draw(st.integers(-10**6, 10**6))
    if kind == "line":
        dx, dy = draw(st.sampled_from(((1, 0), (0, 1), (1, 1), (1, -1), (2, -1), (-1, 2))))
        n = draw(st.integers(1, 40))
        window = {Face(x + i * dx, y + i * dy, u) for i in range(n) for u in (True, False)}
    elif kind == "far":
        window = set()
        for _ in range(draw(st.integers(2, 4))):
            window |= ball(Face(x, y, draw(st.booleans())), 1)
            x += draw(st.sampled_from((-10**6, -37, 5, 10**6)))
            y += draw(st.sampled_from((-10**6, -3, 11, 10**6)))
    else:
        window = {Face(x, y, draw(st.booleans()))}
    window = sorted(window)
    window = [f for f in window if draw(st.integers(0, 4))] or window[:1]
    labels = draw(st.lists(st.sampled_from((None, 0, 1, 2)),
                           min_size=len(window), max_size=len(window)))
    return make_config({f: l for f, l in zip(window, labels) if l is not None}, window=window)


@settings(max_examples=150, deadline=None)
@given(sparse_markings(), st.sampled_from((MODE_ROT, MODE_ROT_REF)))
def test_check_agrees_with_the_reference_on_sparse_windows(cfg, mode):
    assert check(cfg, mode) == reference_check(cfg, mode)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(lambda r: st.lists(
           window_markings(sorted(ball(up(0, 0), r))), min_size=2, max_size=6)),
       st.sampled_from((MODE_ROT, MODE_ROT_REF)))
def test_batched_probes_agree_with_enumeration(configs, mode):
    """One kernel answers a batch of probes as separate enumerations do, and
    each probe leaves it as it found it, also when a contradiction stops a
    configuration's assumptions partway (relabelled faces come last)."""
    want = [bool(enumerate_completions(c, BALL2, mode=mode)) for c in configs]
    dead_first = sorted(range(len(configs)), key=want.__getitem__)
    for order in (range(len(configs)), dead_first):
        assert have_completions([configs[i] for i in order], BALL2, mode) == [
            want[i] for i in order]
    k = kernel.Kernel(engine._plan(BALL2, mode), ())
    before = (list(k.label), list(k.code), list(k.masks), list(k.trail))
    for i in dead_first:
        assert k.extends(configs[i].marks.items()) == want[i]
        assert (k.label, k.code, k.masks, k.trail) == before


def _outcome(call, *args):
    """A call's result, or the witnesses of the contradiction it raised."""
    try:
        return call(*args)
    except Contradiction as exc:
        return exc.witnesses


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2).flatmap(lambda r: st.lists(st.tuples(
           st.sampled_from(("propagate", "enumerate", "probe")),
           window_markings(sorted(ball(up(0, 0), r)))), min_size=2, max_size=6)),
       st.sampled_from((MODE_ROT, MODE_ROT_REF)))
def test_a_shared_window_plan_gives_what_a_fresh_one_does(calls, mode):
    """Interleaved calls over one window read one cached plan, and give what
    each call gives on a plan built for it alone."""
    ops = {
        "propagate": lambda c: propagate(c, mode),
        "enumerate": lambda c: enumerate_completions(c, mode=mode),
        "probe": lambda c: have_completions([c], c.window, mode),
    }
    shared = [_outcome(ops[op], c) for op, c in calls]
    fresh = []
    for op, c in calls:
        engine._plan.cache_clear()
        fresh.append(_outcome(ops[op], c))
    assert shared == fresh


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2).flatmap(lambda r: st.lists(
           window_markings(sorted(ball(up(0, 0), r))), min_size=2, max_size=2)),
       st.sampled_from((MODE_ROT, MODE_ROT_REF)))
def test_search_and_extends_leave_the_kernel_as_they_found_it(configs, mode):
    base, query = configs
    k = kernel.Kernel(engine._plan(base.window, mode), zip(base.faces, base.labels))
    before = (list(k.label), list(k.code), list(k.masks), list(k.trail))
    for run in (k.search, lambda: k.search(stop_at=1),
                lambda: k.extends(zip(query.faces, query.labels))):
        run()
        assert (k.label, k.code, k.masks, k.trail) == before


def backtrack_completions(config, mode):
    """The completions' label bytes, the slow way: free faces labelled in
    sorted order, each partial marking kept only while `check` finds no
    contradiction; no kernel."""
    labels = bytearray(config.labels)
    free = [k for k, l in enumerate(labels) if l == kernel.UNSET]
    found = []

    def extend(i):
        if check(engine.Configuration(config.window, labels), mode).status == CONTRADICTION:
            return
        if i == len(free):
            found.append(bytes(labels))
            return
        for l in (0, 1, 2):
            labels[free[i]] = l
            extend(i + 1)
        labels[free[i]] = kernel.UNSET

    extend(0)
    return found


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(lambda r: window_markings(sorted(ball(up(0, 0), r)))),
       st.sampled_from((MODE_ROT, MODE_ROT_REF)))
def test_search_agrees_with_a_backtracker_without_kernel(cfg, mode):
    comps = enumerate_completions(cfg, mode=mode)
    assert [c.labels for c in comps] == backtrack_completions(cfg, mode)


# Search nodes and forced labels of the radius-3 enumerations from one mark
# on Up(0,0), as the trail-undo search of earlier versions made them: 4,413
# nodes and 35,474 forced labels in all, so the search tree is unchanged.
RADIUS3_SEARCH_COUNTS = {0: (1471, 11796), 1: (1471, 11827), 2: (1471, 11851)}


def test_search_counters_are_frozen():
    f = up(0, 0)
    for l, counts in RADIUS3_SEARCH_COUNTS.items():
        cfg = make_config({f: l}, window=ball(f, 3))
        plan = engine._plan(cfg.window, engine.DEFAULT_MODE)
        k = kernel.Kernel(plan, zip(cfg.faces, cfg.labels))
        assert len(k.search()) == 736
        assert (k.nodes, k.forced) == counts


def test_enumeration_holds_about_one_copy_of_its_result():
    # the search hands over label bytes and the result is sorted in place, so
    # at the peak no second copy of the completions (say as tuples) is alive
    cfg = make_config({up(0, 0): 0})
    for r in (3, 4):
        target = ball(up(0, 0), r)
        enumerate_completions(cfg, target)  # the window's plan and tables
        tracemalloc.start()
        try:
            found = enumerate_completions(cfg, target)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) == {3: 736, 4: 2416}[r]
        assert peak <= 2 * held, (r, peak, held)


class _GenericKernel(kernel.Kernel):
    """The kernel with the generic propagation of earlier versions, as the
    reference for the order of its steps: a pop visits every variable of its
    constraint, skipping labelled ones, and each visit and assignment walks
    the variable's sites."""

    def _assign(self, g, l, queue):
        code, masks, tables = self.code, self.masks, self.tables
        self.label[g] = l
        self.trail.append(g)
        it = iter(self.sites[g])
        for c in it:
            x = code[c] = code[c] - ((kernel.UNSET - l) << 2 * next(it))
            masks[c] = tables[c][x]
            queue.append(c)

    def _fixpoint(self, queue):
        label, masks, sites, around = self.label, self.masks, self.sites, self.around
        forced = {1: 0, 2: 1, 4: 2}
        while queue:
            for g in around[queue.pop()]:
                if g is None or label[g] != kernel.UNSET:
                    continue
                allowed = 7
                it = iter(sites[g])
                for c in it:
                    allowed &= masks[c][next(it)]
                if allowed not in forced:
                    if allowed:
                        continue
                    return g
                self._assign(g, forced[allowed], queue)
        return None


def _assert_same_steps(plan, given):
    """The kernel assigns what the generic reference does, in its order, and
    fails where it does; then both search alike."""
    given = list(given)
    fast, ref = kernel.Kernel(plan, given), _GenericKernel(plan, given)
    first = next((i for i, (a, b) in enumerate(zip(fast.trail, ref.trail)) if a != b),
                 min(len(fast.trail), len(ref.trail)))
    assert fast.trail == ref.trail, f"step {first}: {fast.trail[first:first + 1]} " \
                                    f"against {ref.trail[first:first + 1]}"
    assert (fast.failure, fast.code, fast.masks, fast.forced) == (
        ref.failure, ref.code, ref.masks, ref.forced)
    assert fast.search(stop_at=3) == ref.search(stop_at=3)
    assert (fast.nodes, fast.forced) == (ref.nodes, ref.forced)


@settings(max_examples=60, deadline=None)
@given(window_markings(sorted(BALL2)), st.sampled_from((MODE_ROT, MODE_ROT_REF)))
def test_face_propagation_steps_as_the_generic_loop_does(cfg, mode):
    # every face of a ball is a variable at three sites: the unrolled case
    plan = engine._plan(cfg.window, mode)
    assert {len(s) for s in plan.sites} == {6}
    _assert_same_steps(plan, zip(cfg.faces, cfg.labels))


@st.composite
def hex_axes(draw):
    """A radius-2 or 3 hex window, and some axes: D0's with some blanked and
    a few changed, or at random."""
    window = hex_window(draw(st.integers(2, 3)))
    vertices = sorted(window)
    axes = {}
    if draw(st.booleans()):
        axes = dict(distributions.build_D0(window).axis)
        for v in draw(st.sets(st.sampled_from(vertices))):
            del axes[v]
    axes.update(draw(st.dictionaries(st.sampled_from(vertices), st.sampled_from(AXES),
                                     max_size=3 if axes else len(vertices))))
    return window, axes


@settings(max_examples=60, deadline=None)
@given(hex_axes())
def test_axis_propagation_steps_as_the_generic_loop_does(window_axes):
    # vertices at the window's edge have fewer faces than inner ones
    window, axes = window_axes
    plan = distributions._parity_plan(window)[2]
    assert len({len(s) for s in plan.sites}) > 1
    _assert_same_steps(plan, axes.items())


@st.composite
def edge_problems(draw):
    """A square, a ball or either with faces cut out (never the anchor
    face), and the anchor labels plus up to three edge labels at random."""
    if draw(st.booleans()):
        window = set(labeling.square_window(draw(st.integers(1, 6))))
    else:
        window = set(ball(up(0, 0), draw(st.integers(1, 3))))
    cut = draw(st.sets(st.sampled_from(sorted(window - {labeling.ANCHOR_FACE})),
                       max_size=len(window) // 3))
    faces = sorted(window - cut)
    edges = sorted({e for f in faces for e in face_edges(f)})
    extra = draw(st.lists(st.tuples(st.sampled_from(edges), st.sampled_from((0, 1, 2))),
                          max_size=3))
    return faces, list(labeling.ANCHOR_LABELS.items()) + extra


@settings(max_examples=60, deadline=None)
@given(edge_problems())
def test_edge_propagation_steps_as_the_generic_loop_does(problem):
    # an inner edge is a variable at two sites, the unrolled case, and a
    # border edge at one; the plan is the one the Edge-keyed build gives
    faces, given_labels = problem
    vertices, face_vars, plan = labeling._edge_plan(faces)
    by_edges = kernel.Plan((e for f in faces for e in face_edges(f)),
                           ((incident_edges(v), labeling._vertex_rule()) for v in vertices))
    assert vertices == sorted(window_vertices(faces))
    assert (plan.names, plan.sites, plan.around) == (
        by_edges.names, by_edges.sites, by_edges.around)
    assert all(type(e) is Edge for e in plan.names)
    assert [plan.names[g] for g in face_vars] == [e for f in faces for e in face_edges(f)]
    if len(faces) > 1:
        assert 4 in {len(s) for s in plan.sites}
    _assert_same_steps(plan, given_labels)


def test_every_table_is_an_exact_tuple_of_its_codes():
    """Tables stay exact tuples, which CPython reads by its specialized
    subscript; a subclass would lose it without failing a test."""
    window = ball(up(0, 0), 2)
    plans = [engine._plan(window, mode) for mode in (MODE_ROT, MODE_ROT_REF)]
    plans.append(distributions._parity_plan(hex_window(2))[2])
    plans.append(labeling._edge_plan(sorted(window))[2])
    for plan in plans:
        for scope, table in zip(plan.around, plan.tables):
            assert type(table) is tuple and len(table) == 4**len(scope)


def test_a_plan_numbers_its_names_in_the_order_given():
    differ = kernel.Table(2, [(a, b) for a in range(3) for b in range(3) if a != b])
    # "a" repeats, "z" and None are no variables, the search runs c, b, a
    plan = kernel.Plan("abca", [("ab", differ), ("cz", differ), ((None, "a"), differ)], "cba")
    assert plan.index == {"a": 0, "b": 1, "c": 2} and plan.names == ("a", "b", "c")
    assert plan.around == ((0, 1), (2, None), (None, 0)) and plan.order == (2, 1, 0)
    assert plan.sites == ((0, 0, 2, 1), (0, 1), (1, 0))
    assert plan.free[0][len(plan.tables[0]) - 1] == (0, 1)  # the all-free code
    assert plan.held == (0b1111, 0b0011, 0b1100)  # digits 3 where a variable is
    with pytest.raises(ValueError):
        kernel.Plan("ab", [("aba", kernel.Table(3, ()))])
    assert kernel.Plan("ab", []).order == range(2)
    # an order must list every variable once: none missing, repeated or unknown
    for order in ("ab", "cbaa", "cbz", ""):
        with pytest.raises(ValueError):
            kernel.Plan("abc", [], order)
    k = kernel.Kernel(plan, [("a", 0), ("b", kernel.UNSET)])
    assert k.label == [0, kernel.UNSET, kernel.UNSET]
    # labels listed by number as bytes, found with c varying slowest
    found = k.search()
    assert found == [bytes((0, b, c)) for c in (0, 1, 2) for b in (1, 2)]
    assert {type(labels) for labels in found} == {bytes}
    assert k.extends([("c", 1), ("a", 0)]) and not k.extends([("a", 1)])


def _check_transcript() -> str:
    """`check` verdicts, witnesses included, in both modes, one repr a line.

    The windows are not balls: radius-2..4 balls with faces cut out at
    random, so the window has holes and vertex links stick out of it,
    partially marked from a special puzzle, a strip stack or at random with
    a few faces relabelled; and strip stacks with one face relabelled.
    """
    rng = random.Random(9)
    sources = [special_puzzle(i, 5).marks for i in (1, 4, 7, 10)]
    for height in (1, 2):
        stack = assemble(STACK_WORDS[height][0], 3)
        sources.append({f._replace(x=f.x - 6, y=f.y + 3): l
                        for f, l in stack.marks.items()})
    lines = []
    for mode in (MODE_ROT, MODE_ROT_REF):
        for _ in range(400):
            centre = rng.choice((up(0, 0), down(0, 0), up(2, -1)))
            ball_faces = sorted(ball(centre, rng.randint(2, 4)))
            cut = rng.choice((0.05, 0.2, 0.5))
            window = [f for f in ball_faces if rng.random() > cut]
            base = rng.choice(sources + [{}])
            p = rng.choice((0.3, 0.7, 1.0)) if base else 0.1
            marks = {f: base[f] if f in base else rng.randrange(3)
                     for f in window if rng.random() < p}
            for f in rng.sample(window, min(len(window), rng.choice((0, 0, 1, 2)))):
                marks[f] = rng.randrange(3)
            lines.append(repr(check(make_config(marks, window=window), mode)))
        for _ in range(60):
            height = rng.choice((1, 2))
            stack = assemble(rng.choice(STACK_WORDS[height]), rng.randint(2, 3))
            marks = dict(stack.marks)
            f = rng.choice(sorted(marks))
            marks[f] = (marks[f] + rng.randint(1, 2)) % 3
            lines.append(repr(check(make_config(marks, stack.window), mode)))
    return "\n".join(lines) + "\n"


# SHA-256 of `_check_transcript()`: the verdicts, the dead vertices and their
# order, as the per-call link-code check of earlier versions gave them.
CHECK_TRANSCRIPT_SHA256 = (
    "86826eff00b69d717fee2e27c805ac6d20b675e6b801ea32536fa8bef269e34d"
)


def test_check_verdicts_are_byte_stable():
    text = _check_transcript()
    assert hashlib.sha256(text.encode()).hexdigest() == CHECK_TRANSCRIPT_SHA256


def test_check_reads_every_window_afresh():
    """Equal windows built apart give the verdicts of their own marks, and
    so does a window checked again after more distinct windows of the same
    size than any cache of windows holds."""
    rng = random.Random(4)
    windows = [frozenset(ball(up(2 * k, -k), 2)) for k in range(48)]
    windows += windows[::-1]
    windows += [frozenset(sorted(windows[0])), frozenset(sorted(windows[0]))]
    assert windows[-1] == windows[0] and windows[-1] is not windows[0]
    source, first = special_puzzle(3, 5).marks, min(windows[0])
    for w in windows:
        # each window is the first moved by (2k, -k), which keeps the labels
        dx, dy = min(w).x - first.x, min(w).y - first.y
        marks = {f: source[f._replace(x=f.x - dx, y=f.y - dy)]
                 for f in sorted(w) if rng.random() < 0.8}
        if rng.random() < 0.5:
            f = rng.choice(sorted(marks))
            marks[f] = (marks[f] + 1) % 3
        for mode in (MODE_ROT, MODE_ROT_REF):
            cfg = make_config(marks, window=w)
            assert check(cfg, mode) == reference_check(cfg, mode)


def test_check_keeps_its_verdict_per_window_labels_and_mode():
    """Equal label bytes on two windows, and one marking in two modes, each
    get their own verdict; a marking checked again gets an equal verdict
    from the memo, witnesses and unmarked faces included."""
    crowded = make_config({f: 0 for f in INITIAL_WINDOW})
    spread = make_config({up(10 * k, 0): 0 for k in range(4)})
    assert crowded.labels == spread.labels and crowded.window != spread.window
    assert check(crowded).status == CONTRADICTION
    assert check(spread).status == VALID
    # a rot+ref completion that no rotation alone matches
    seed = make_config({up(0, 0): 0}, window=ball(up(0, 0), 1))
    mirrored = next(c for c in enumerate_completions(seed, mode=MODE_ROT_REF)
                    if check(c, MODE_ROT).status == CONTRADICTION)
    assert check(mirrored, MODE_ROT_REF).status == VALID
    partial_seed = make_config({up(0, 0): 0}, window=INITIAL_WINDOW)
    for cfg in (crowded, spread, mirrored, partial_seed):
        for mode in (MODE_ROT, MODE_ROT_REF):
            first = check(cfg, mode)
            hits = engine._verdict.cache_info().hits
            again = check(Configuration(set(cfg.window), cfg.labels), mode)
            assert engine._verdict.cache_info().hits == hits + 1
            assert again == first == reference_check(cfg, mode)
    assert check(partial_seed).unmarked == (down(-1, 0), down(0, -1), down(0, 0))
    assert check(crowded).witnesses


def test_verdict_memo_is_bounded():
    """The memo holds a group of 96 distinct five-row markings, and no more
    than a fixed number of verdicts for the life of the process."""
    assert 96 <= engine._verdict.cache_info().maxsize < 10**4
