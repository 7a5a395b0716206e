"""Canonical edge labeling: closed form, derivation, symmetries."""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import cli, labeling

from ringlab.labeling import (
    ANCHOR_FACE,
    ANCHOR_LABELS,
    LabelContradiction,
    derive_edge_labels,
    edge_label,
    square_window,
    vertex_s,
)
from ringlab.lattice import (
    A0,
    AXES,
    Edge,
    Isometry,
    ball,
    face_edges,
    face_neighbors,
    incident_edges,
    up,
)

edges = st.builds(
    Edge, x=st.integers(-9, 9), y=st.integers(-9, 9), axis=st.sampled_from(AXES)
)
isometries = st.builds(
    Isometry,
    rot=st.integers(0, 5),
    ref=st.booleans(),
    tx=st.integers(-4, 4),
    ty=st.integers(-4, 4),
)


def test_anchor_labels():
    for e, l in ANCHOR_LABELS.items():
        assert edge_label(e) == l


def test_derivation_matches_closed_form():
    derived = derive_edge_labels(square_window(6))
    assert derived
    for e, l in derived.items():
        assert edge_label(e) == l


def test_derivation_covers_every_window_edge():
    window = square_window(4)
    derived = derive_edge_labels(window)
    want = {e for f in window for e in face_edges(f)}
    assert set(derived) == want


@given(edges)
def test_three_periodicity(e):
    assert edge_label(e) == edge_label(Edge(e.x + 3, e.y, e.axis))
    assert edge_label(e) == edge_label(Edge(e.x, e.y + 3, e.axis))


@given(st.integers(-9, 9))
def test_bottom_row_cycles(x):
    assert (edge_label(Edge(x + 1, 0, 0)) - edge_label(Edge(x, 0, 0))) % 3 == 1


@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_link_edge_labels_alternate_two_values(v):
    labels = [edge_label(e) for e in incident_edges(v)]
    assert labels[0::2] == [labels[0]] * 3
    assert labels[1::2] == [labels[1]] * 3
    assert labels[0] != labels[1]


@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_vertex_s_is_a_diagonal_residue(v):
    assert vertex_s(v) == (v[0] - v[1] - 1) % 3
    assert vertex_s((v[0] + 1, v[1])) == (vertex_s(v) + 1) % 3


@given(isometries)
def test_label_preserving_predicate_matches_action_on_labels(g):
    sample = [Edge(x, y, a) for x in (-2, 0, 1) for y in (-1, 0, 2) for a in AXES]
    preserved = all(edge_label(g.apply_edge(e)) == edge_label(e) for e in sample)
    assert preserved == g.label_preserving()


def test_window_must_contain_the_anchor():
    with pytest.raises(ValueError):
        derive_edge_labels([up(5, 5)])


def test_label_contradiction_message_names_the_edge():
    exc = LabelContradiction(Edge(1, 2, 0), 0, 1, "test")
    assert "1" in str(exc) and "0 vs 1" in str(exc)


def test_a_face_breaking_the_face_rule_is_named(monkeypatch):
    # a kernel that mislabels one edge after propagation: Edge(0,0,A1) copies
    # the 0 of Edge(0,0,A0), so the anchor face no longer sees three labels
    class Mislabelling(labeling.Kernel):
        def __init__(self, *args):
            super().__init__(*args)
            self.label[1] = self.label[0]

    monkeypatch.setattr(labeling, "Kernel", Mislabelling)
    with pytest.raises(LabelContradiction, match=r"0 vs 2 \(face Up\(0,0\)\)"):
        derive_edge_labels([up(0, 0)])


def test_a_mislabelled_given_edge_names_an_edge_and_its_vertex(monkeypatch):
    # Edge(3,0,A0) carries 0; given 1, the vertex rule meets the anchor's
    # consequences at an edge two vertices label differently
    monkeypatch.setattr(labeling, "ANCHOR_LABELS", {**ANCHOR_LABELS, Edge(3, 0, A0): 1})
    with pytest.raises(LabelContradiction) as info:
        derive_edge_labels(square_window(5))
    match = re.fullmatch(r"edge .*: (\d) vs (\d) \(vertex \((-?\d+), (-?\d+)\)\)",
                         str(info.value))
    assert match, str(info.value)
    have, want, x, y = map(int, match.groups())
    assert have != want
    assert info.value.edge in incident_edges((x, y))


BALL3 = frozenset(ball(up(0, 0), 3))


@st.composite
def anchored_windows(draw):
    """An edge-connected window of the radius-3 ball grown from the anchor."""
    size = draw(st.integers(1, 40))
    window = [up(0, 0)]
    while len(window) < size:
        grow = {g for f in window for g in face_neighbors(f)} & BALL3
        window.append(draw(st.sampled_from(sorted(grow - set(window)))))
    return window


@settings(max_examples=60, deadline=None)
@given(anchored_windows())
def test_derivation_on_connected_windows_is_the_closed_form(window):
    derived = derive_edge_labels(window)
    assert set(derived) == {e for f in window for e in face_edges(f)}
    for e, l in derived.items():
        assert edge_label(e) == l


@st.composite
def cut_windows(draw):
    """A ball or a square with faces cut out, the anchor face kept."""
    if draw(st.booleans()):
        window = set(ball(up(0, 0), draw(st.integers(1, 4))))
    else:
        window = set(square_window(draw(st.integers(2, 8))))
    cut = draw(st.sets(st.sampled_from(sorted(window - {ANCHOR_FACE})),
                       max_size=len(window) // 4))
    return sorted(window - cut), not cut


@settings(max_examples=60, deadline=None)
@given(cut_windows())
def test_derivation_on_non_square_windows_is_the_closed_form(window_whole):
    window, whole = window_whole
    derived = derive_edge_labels(window)
    edges = {e for f in window for e in face_edges(f)}
    assert all(type(e) is Edge for e in derived)
    # a cut can leave faces that share no vertex with the anchor's part, and
    # no rule reaches their edges; a whole ball or square has none
    assert set(derived) == edges if whole else set(derived) <= edges
    for e, l in derived.items():
        assert edge_label(e) == l


# SHA-256 of `ringlab edge-labels --window 40` as the sweep derivation of
# earlier versions printed it.
EDGE_LABELS_40_SHA256 = (
    "2850817a66d519ae12b145caf00199ae9f8c9af52c54ac4eac1a3c75a75c5a06"
)


def test_edge_labels_output_is_byte_stable(capsys):
    assert cli.main(["edge-labels", "--window", "40"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EDGE_LABELS_40_SHA256
