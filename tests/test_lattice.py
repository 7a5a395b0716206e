"""Lattice geometry: faces, edges, links, balls, isometries."""

from hypothesis import given
from hypothesis import strategies as st

from ringlab.lattice import (
    AXES,
    AXIS_STEPS,
    LABEL_POINT_GROUP,
    POINT_GROUP,
    Edge,
    Face,
    Isometry,
    ball,
    down,
    edge_from_vertices,
    edge_vertices,
    face_edges,
    face_neighbors,
    face_vertices,
    incident_edges,
    link_faces,
    runs,
    up,
    vertices_within,
)

isometries = st.builds(
    Isometry,
    rot=st.integers(0, 5),
    ref=st.booleans(),
    tx=st.integers(-4, 4),
    ty=st.integers(-4, 4),
)
faces = st.builds(
    Face, x=st.integers(-5, 5), y=st.integers(-5, 5), up=st.booleans()
)
vertices = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
edges = st.builds(
    Edge, x=st.integers(-5, 5), y=st.integers(-5, 5), axis=st.sampled_from(AXES)
)


def test_face_constructors():
    assert up(2, -1) == Face(2, -1, True)
    assert down(0, 3) == Face(0, 3, False)
    assert repr(up(1, 2)) == "Up(1,2)"
    assert repr(down(1, 2)) == "Down(1,2)"


def test_face_vertices_and_edges():
    f = up(0, 0)
    assert set(face_vertices(f)) == {(0, 0), (1, 0), (0, 1)}
    assert all(e in face_edges(f) for e in (Edge(0, 0, 0), Edge(0, 0, 1), Edge(0, 0, 2)))
    g = down(0, 0)
    assert set(face_vertices(g)) == {(1, 0), (0, 1), (1, 1)}


@given(edges)
def test_edge_from_vertices_round_trip(e):
    p, q = edge_vertices(e)
    assert edge_from_vertices(p, q) == e
    assert edge_from_vertices(q, p) == e


@given(faces)
def test_neighbors_share_an_edge(f):
    for g in face_neighbors(f):
        assert g.up != f.up
        assert len(set(face_edges(f)) & set(face_edges(g))) == 1


def test_link_is_an_alternating_hexagon():
    v = (2, -1)
    faces_around = link_faces(v)
    assert len(faces_around) == 6
    assert [f.up for f in faces_around] == [True, False, True, False, True, False]
    for f in faces_around:
        assert v in face_vertices(f)
    assert len(incident_edges(v)) == 6


def test_ball_sizes():
    c = up(0, 0)
    assert len(ball(c, 1)) == 13
    assert len(ball(c, 2)) == 37
    assert len(ball(c, 3)) == 73
    assert len(ball(c, 4)) == 121
    assert len(ball(c, 7)) == 337


def test_vertices_within_grows():
    seeds = {(0, 0)}
    assert vertices_within(seeds, 0) == seeds
    assert len(vertices_within(seeds, 1)) == 7


def test_point_groups():
    assert len(set(POINT_GROUP)) == 12
    assert len(LABEL_POINT_GROUP) == 6
    assert all(g.rot % 2 == 0 for g in LABEL_POINT_GROUP)


def test_axis_steps_are_the_three_lattice_directions():
    assert AXIS_STEPS[0] == (1, 0)
    assert AXIS_STEPS[1] == (0, 1)
    assert AXIS_STEPS[2] == (-1, 1)


@given(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
       st.sampled_from(AXES))
def test_runs_are_the_maximal_lines_of_a_vertex_set(vs, axis):
    dx, dy = AXIS_STEPS[axis]
    out = runs(vs, axis)
    assert sorted(v for run in out for v in run) == sorted(vs)
    assert [run[0] for run in out] == sorted(run[0] for run in out)
    for run in out:
        assert all((b[0] - a[0], b[1] - a[1]) == (dx, dy) for a, b in zip(run, run[1:]))
        assert (run[0][0] - dx, run[0][1] - dy) not in vs
        assert (run[-1][0] + dx, run[-1][1] + dy) not in vs


@given(isometries, faces)
def test_isometry_preserves_incidence(g, f):
    assert set(face_vertices(g.apply_face(f))) == {
        g.apply_vertex(v) for v in face_vertices(f)
    }
    assert set(face_edges(g.apply_face(f))) == {g.apply_edge(e) for e in face_edges(f)}


def test_face_moves_are_affine_per_orientation():
    faces = sorted(ball(up(2, -1), 3))
    assert {f.up for f in faces} == {True, False}
    for g in POINT_GROUP:
        for tx, ty in ((0, 0), (4, -2), (-3, 5), (1, 1), (10**6, -7)):
            moved = g._replace(tx=tx, ty=ty)
            images = moved.apply_faces(faces)
            # each image is the face spanned by the images of the face's corners
            assert [set(face_vertices(Face._make(i))) for i in images] == [
                {moved.apply_vertex(v) for v in face_vertices(f)} for f in faces]
            assert images == list(map(moved.apply_face, faces))


@given(isometries, edges)
def test_isometry_edge_endpoints(g, e):
    p, q = edge_vertices(e)
    assert set(edge_vertices(g.apply_edge(e))) == {g.apply_vertex(p), g.apply_vertex(q)}


@given(isometries, vertices)
def test_axis_action_matches_step_direction(g, v):
    # the image of a step along axis a leaves the image vertex along g(a)
    for a in AXES:
        sx, sy = AXIS_STEPS[a]
        w = (v[0] + sx, v[1] + sy)
        gv, gw = g.apply_vertex(v), g.apply_vertex(w)
        dx, dy = gw[0] - gv[0], gw[1] - gv[1]
        b = g.apply_axis(a)
        assert (dx, dy) in (AXIS_STEPS[b], tuple(-t for t in AXIS_STEPS[b]))
