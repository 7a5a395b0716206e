"""Rank-axis distributions: parity, propagation, D0, classification."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.catalog import special_puzzle, transform_config
from ringlab.configio import serialize_distribution
from ringlab.distributions import (
    EVEN,
    ODD,
    DistContradiction,
    Distribution,
    all_faces_odd,
    build_D0,
    classify_distribution,
    dist_propagate,
    face_parity,
    half_strip_report,
    hex_window,
    induced_distribution,
    interior_faces,
    make_distribution,
    verify_lemma_L3,
)
from ringlab.engine import enumerate_completions, link_word, make_config
from ringlab.labeling import vertex_s
from ringlab.lattice import (
    AXES,
    LABEL_POINT_GROUP,
    ball,
    face_vertices,
    opposite_axis_at_vertex,
    up,
    window_vertices,
)
from ringlab.rings import rank_axis


def test_hex_window_sizes():
    for r in (1, 2, 3, 6, 8):
        assert len(hex_window(r)) == 1 + 3 * r * (r + 1)


def test_interior_faces_of_a_hexagon():
    faces = interior_faces(hex_window(1))
    assert len(faces) == 6


def test_distribution_rejects_axes_outside_window():
    with pytest.raises(ValueError):
        Distribution(frozenset({(0, 0)}), {(1, 1): 0})


@pytest.mark.parametrize("axis", [-1, 3, None])
def test_axes_outside_the_three_are_rejected(axis):
    with pytest.raises(ValueError, match=r"not in A0, A1, A2: \[\(\(0, 0\), "):
        Distribution(hex_window(1), {(0, 0): axis})
    with pytest.raises(ValueError, match="not in A0, A1, A2"):
        make_distribution({(0, 0): axis, (1, 0): 0})


def test_a_distribution_freezes_its_window_and_compares_by_value():
    d = Distribution([(0, 0), (1, 0)], {(0, 0): 0})
    assert type(d.window) is frozenset and d.window == {(0, 0), (1, 0)}
    assert d == Distribution({(1, 0), (0, 0)}, {(0, 0): 0})
    assert d != Distribution(d.window, {(0, 0): 1})
    assert d != Distribution({(0, 0)}, {(0, 0): 0})
    assert d != (d.window, d.axis)
    assert repr(d) == f"Distribution(window={d.window!r}, axis={{(0, 0): 0}})"
    with pytest.raises(TypeError, match="unhashable"):
        hash(d)
    with pytest.raises(ValueError, match=r"axes outside window: \[\(1, 1\)\]"):
        Distribution([(0, 0)], {(1, 1): 0})
    with pytest.raises(ValueError, match=r"axes not in A0, A1, A2: \[\(\(0, 0\), 3\)\]"):
        Distribution({(0, 0)}, {(0, 0): 3})


def test_face_parity_needs_all_corners():
    d = make_distribution({(0, 0): 0})
    with pytest.raises(ValueError):
        face_parity(d, up(0, 0))


def test_induced_distribution_is_all_odd():
    seed = make_config({up(0, 0): 0}, window=ball(up(0, 0), 1))
    for c in enumerate_completions(seed):
        dist = induced_distribution(c)
        assert all_faces_odd(dist)
        for f in interior_faces(dist.window):
            assert face_parity(dist, f) in (ODD, EVEN)


def test_induced_distribution_is_equivariant():
    cfg = special_puzzle(4, 2)
    dist = induced_distribution(cfg)
    for g in LABEL_POINT_GROUP[:3]:
        moved = induced_distribution(transform_config(cfg, g))
        for v, a in dist.axis.items():
            gv = g.apply_vertex(v)
            if gv in moved.axis:
                assert moved.axis[gv] == g.apply_axis(a)


@st.composite
def partial_markings(draw):
    """A special patch, or its sub-marking on a ball that may leave the
    patch, with some faces of the window left unmarked."""
    puzzle = special_puzzle(draw(st.integers(1, 12)), 3)
    window = puzzle.window
    if draw(st.booleans()):
        window = ball(draw(st.sampled_from(puzzle.faces)), draw(st.integers(1, 3)))
    unmarked = draw(st.sets(st.sampled_from(sorted(window)), max_size=12))
    return make_config({f: puzzle.marks[f] for f in window
                        if f in puzzle.marks and f not in unmarked}, window=window)


def _induced_axes(config):
    """Reference for `induced_distribution`: each vertex read alone, its
    rank axis taken only where its whole link is marked."""
    axis = {}
    for v in window_vertices(config.window):
        word = link_word(config.marks, v)
        if None not in word:
            axis[v] = rank_axis(word, vertex_s(v))
    return axis


@settings(max_examples=60, deadline=None)
@given(partial_markings())
def test_induced_distribution_reads_only_complete_links(config):
    dist = induced_distribution(config)
    want = _induced_axes(config)
    assert dist.axis == want and dist.window == frozenset(want)


def test_build_d0_small_window():
    d = build_D0(hex_window(3))
    assert len(d.axis) == 37
    assert d.total()
    assert all_faces_odd(d)


def test_build_d0_idempotent_under_growth():
    d3 = build_D0(hex_window(3))
    d5 = build_D0(hex_window(5))
    assert {v: d5.axis[v] for v in d3.axis} == dict(d3.axis)


def test_d0_classifies_as_special():
    assert classify_distribution(build_D0(hex_window(4))) == "SpecialD0"


def test_special_puzzles_induce_d0():
    for index in (2, 9):
        dist = induced_distribution(special_puzzle(index, 4))
        assert classify_distribution(dist) == "SpecialD0"


def test_dist_propagate_restores_cleared_axes():
    d = build_D0(hex_window(3))
    partial = {v: a for v, a in d.axis.items() if abs(v[0]) + abs(v[1]) <= 2}
    filled = dist_propagate(
        Distribution(d.window, partial), refute=True
    )
    assert dict(filled.axis) == dict(d.axis)


def test_dist_propagate_raises_on_contradiction():
    # a horizontal ring of horizontal axes leaves no odd choice at the center
    window = hex_window(1)
    axis = {v: 0 for v in window if v != (0, 0)}
    with pytest.raises(DistContradiction):
        dist_propagate(Distribution(window, axis), refute=True)


@pytest.mark.parametrize("refute", [False, True])
def test_dist_propagate_rejects_a_given_even_face(refute):
    # each corner of Up(0,0) on its opposite-side axis: no rank-2 corner
    window = hex_window(1)
    axis = {v: opposite_axis_at_vertex(up(0, 0), v) for v in face_vertices(up(0, 0))}
    with pytest.raises(DistContradiction) as info:
        dist_propagate(Distribution(window, axis), refute=refute)
    assert info.value.face == up(0, 0)
    assert str(info.value) == "face Up(0,0) is Even"


# SHA-256 of the serialized D0 on the radius-16 hexagon, as the full-sweep
# propagation of earlier versions built it.
D0_R16_SHA256 = "500dcc0f364a27528abe8901154c088ee34b125289a34c42641785a8506078c4"


def test_d0_is_byte_stable():
    text = serialize_distribution(build_D0(hex_window(16)))
    assert hashlib.sha256(text.encode()).hexdigest() == D0_R16_SHA256


def _odd_completions(window, axis):
    """Every all-odd total assignment of the window extending axis, by
    backtracking over the vertices in order and testing each interior face
    once its last corner is set."""
    order = sorted(window)
    position = {v: i for i, v in enumerate(order)}
    closing = [[] for _ in order]
    for f in interior_faces(window):
        closing[max(position[v] for v in face_vertices(f))].append(f)
    out = []
    current = dict(axis)

    def rec(i):
        if i == len(order):
            out.append(dict(current))
            return
        v = order[i]
        for a in [axis[v]] if v in axis else AXES:
            current[v] = a
            if all(
                sum(current[u] != opposite_axis_at_vertex(f, u)
                    for u in face_vertices(f)) % 2 == 1
                for f in closing[i]
            ):
                rec(i + 1)
        if v not in axis:
            del current[v]

    rec(0)
    return out


@st.composite
def partial_axes(draw):
    """A partial assignment of a radius-1 or radius-2 hexagon, its axes
    copied from D0 or drawn at random."""
    window = hex_window(draw(st.sampled_from((1, 2))))
    d0 = build_D0(hex_window(3)).axis if draw(st.booleans()) else None
    axis = {}
    for v in sorted(window):
        if draw(st.sampled_from((False, False, True))):
            axis[v] = d0[v] if d0 is not None else draw(st.sampled_from(AXES))
    return Distribution(window, axis)


@settings(max_examples=80, deadline=None)
@given(partial_axes(), st.booleans())
def test_dist_propagate_agrees_with_brute_force(dist, refute):
    brute = _odd_completions(dist.window, dist.axis)
    try:
        out = dist_propagate(dist, refute=refute)
    except DistContradiction:
        assert brute == []
        return
    assert out.window == dist.window
    assert {v: out.axis[v] for v in dist.axis} == dist.axis
    for v, a in out.axis.items():
        assert all(total[v] == a for total in brute)


def test_half_strip_alternation():
    assert half_strip_report() == {
        "rows": ["a", "b", "a", "b", "a"],
        "alternates": True,
    }


def test_lemma_l3_exhaustive_four_by_four():
    rep = verify_lemma_L3(4)
    assert rep["assignments"] == 342
    assert rep["with_segment"] == 294
    assert rep["forced_on_enlargement"] == 22
    assert rep["unextendable"] == 26
    assert rep["counterexamples"] == []
    total = rep["with_segment"] + rep["forced_on_enlargement"] + rep["unextendable"]
    assert total == rep["assignments"]


def test_classify_rejects_partial_and_non_odd_input():
    with pytest.raises(ValueError):
        classify_distribution(Distribution(hex_window(1), {(0, 0): 0}))
    constant = make_distribution({v: 0 for v in hex_window(3)})
    assert not all_faces_odd(constant)
    with pytest.raises(ValueError):
        classify_distribution(constant)
