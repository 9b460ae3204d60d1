"""Loading, validation, faces, marked boundaries, symmetry."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import diamond_graph
from dimerforge import errors
from dimerforge.generators import (
    _cut_vertices,
    grid_graph,
    random_section2,
)
from dimerforge.planar import (
    Edge,
    Lattice,
    PlanarGraph,
    Vertex,
    _components,
    check_reflection_symmetry,
    dump_graph,
    parse_graph,
    validate_boundary_path,
)
from dimerforge.refine import _grid_edges, section_instance, trimmed_square

SQUARE = """
v 0 0 0
v 1 1 0
v 2 1 1
v 3 0 1
e 0 0 1
e 1 1 2
e 2 2 3
e 3 3 0
"""


def test_load_square():
    g = parse_graph(SQUARE)
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    faces = g.trace_faces()
    assert len(faces.faces) == 2
    assert sum(f.infinite for f in faces.faces) == 1


def test_load_path():
    g = parse_graph("v 0 0 0\nv 1 1 0\nv 2 2 0\ne 0 0 1\ne 1 1 2\n")
    assert len(g.trace_faces().faces) == 1
    assert g.trace_faces().faces[0].infinite


def test_crossing_edges_rejected():
    text = """
v 0 0 0
v 1 1 1
v 2 0 1
v 3 1 0
e 0 0 1
e 1 2 3
"""
    with pytest.raises(errors.EmbeddingError):
        parse_graph(text)


def test_parse_errors():
    with pytest.raises(errors.ParseError):
        parse_graph("v 0 0\n")
    with pytest.raises(errors.ParseError):
        parse_graph("v 0 0 0\nv 0 1 0\n")
    with pytest.raises(errors.ParseError):
        parse_graph("v 0 0 0\nv 1 1 0\ne 0 0 2\n")
    with pytest.raises(errors.NotSimple):
        parse_graph("v 0 0 0\nv 1 1 0\ne 0 0 1\ne 1 1 0\n")
    with pytest.raises(errors.Disconnected):
        parse_graph("v 0 0 0\nv 1 1 0\n")
    # rationals are exactly p or p/q in ASCII digits with an optional minus
    for bad in ("1e5000", "1e3000000", "1.5", "+1", "1_000", "\uff11", "0x10", "inf",
                "1/0", "1/-2", "1/2/3", "9" * 5000, "1/" + "9" * 5000):
        with pytest.raises(errors.ParseError, match="line 2: bad rational"):
            parse_graph(f"v 0 0 0\nv 1 {bad} 0\ne 0 0 1\n")
        with pytest.raises(errors.ParseError, match="line 3: bad rational"):
            parse_graph(f"v 0 0 0\nv 1 1 0\ne 0 0 1 {bad}\n")
    g = parse_graph("v 0 -3/4 0\nv 1 007 0\ne 0 0 1 -0/5\n")
    assert g.vertices[0].pos[0] == Fraction(-3, 4) and g.edges[0].weight == 0


def test_vertex_on_edge_rejected():
    with pytest.raises(errors.EmbeddingError):
        parse_graph("v 0 0 0\nv 1 2 0\nv 2 1 0\ne 0 0 1\ne 1 1 2\n")


def test_weights_parse_and_dump_roundtrip():
    text = "v 0 0 0\nv 1 1 0\ne 0 0 1 3/2\n"
    g = parse_graph(text)
    assert g.edges[0].weight == Fraction(3, 2)
    assert parse_graph(dump_graph(g)).graph_id == g.graph_id


def test_euler_on_generated_graphs():
    for g in (grid_graph(3, 3), grid_graph(4, 2), diamond_graph(), grid_graph(5, 1)):
        faces = g.trace_faces()
        assert len(g.vertices) - len(g.edges) + len(faces.faces) == 2


def test_rotation_matches_angular_order():
    g = grid_graph(3, 3)
    center = 4  # (1,1) under column-major ids
    assert g.vertices[center].pos == (1, 1)
    assert len(g.rotation[center]) == 4


def test_faces_of_3x3_grid():
    g = grid_graph(3, 3)
    faces = g.trace_faces()
    assert len(faces.faces) == 5
    assert len(faces.bounded) == 4
    assert all(f.area2 == 2 for f in faces.bounded)
    assert faces.infinite_face.area2 == -8


def test_ccw_boundary_of_3x3_grid_is_pinned():
    # random_transport indexes marks into this walk, so its start matters
    g = grid_graph(3, 3)
    walk = g.ccw_boundary()
    assert [v for v, _ in walk] == [3, 6, 7, 8, 5, 2, 1, 0]
    for (v, e), (w, _) in zip(walk, walk[1:] + walk[:1]):
        assert g.edges[e].ends == {v, w}


def test_boundary_path_on_square():
    g = parse_graph(SQUARE)
    mb = validate_boundary_path(g, [0, 1, 2])
    assert mb.n == 2
    assert mb.inner == (0, 1, 2)


def test_boundary_path_single_vertex():
    g = parse_graph(SQUARE)
    assert validate_boundary_path(g, [0]).n == 1


def test_boundary_path_degree_violation():
    g = grid_graph(3, 3)
    # bottom row: middle vertex has degree 3
    bottom = sorted(g.vertices, key=lambda v: (g.vertices[v].pos[1], g.vertices[v].pos[0]))[:3]
    with pytest.raises(errors.BadDegree):
        validate_boundary_path(g, bottom)


def test_boundary_path_rejects_non_path():
    g = parse_graph(SQUARE)
    with pytest.raises(errors.NotAPath):
        validate_boundary_path(g, [0, 2, 1])
    with pytest.raises(errors.NotAPath):
        validate_boundary_path(g, [0, 1])


def test_interior_path_not_on_infinite_face():
    g = grid_graph(3, 4)
    interior = [v for v in g.vertices if v not in g.infinite_face_vertices()]
    assert interior
    with pytest.raises(errors.NotOnInfiniteFace):
        validate_boundary_path(g, [interior[0]])


def test_reflection_certificate_diamond():
    g = diamond_graph()
    cert = check_reflection_symmetry(g, Fraction(0))
    assert len(cert.axis_vertices) == 2
    for v, w in cert.vertex_map.items():
        assert cert.vertex_map[w] == v
    for e, f in cert.edge_map.items():
        assert cert.edge_map[f] == e


def test_reflection_weight_mismatch():
    text = """
v 0 -1 0
v 1 1 0
v 2 0 1
v 3 0 -1
e 0 0 2
e 1 2 1
e 2 0 3 2
e 3 3 1
"""
    with pytest.raises(errors.WeightMismatch):
        check_reflection_symmetry(parse_graph(text), Fraction(0))


def test_not_symmetric():
    g = parse_graph("v 0 0 0\nv 1 1 0\nv 2 1 1\ne 0 0 1\ne 1 1 2\n")
    with pytest.raises(errors.NotSymmetric):
        check_reflection_symmetry(g, Fraction(0))


# -- connectivity --------------------------------------------------------------


def _roots(points) -> int:
    return len(set(_components(points, _grid_edges(points)).values()))


@settings(max_examples=300, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1))
def test_cut_vertices_are_the_removals_that_disconnect(drawn):
    # two independent routes on the component of the drawn set's least
    # point: one low-point search, and a union-find after each removal
    roots = _components(drawn, _grid_edges(drawn))
    points = {p for p in drawn if roots[p] == roots[min(drawn)]}
    brute = {p for p in points if _roots(points - {p}) > 1}
    assert _cut_vertices(points, _grid_edges(points)) == brute


def _reachable(g, start):
    reached = {start}
    while True:
        more = {w for v in reached for w in g.neighbors(v)} - reached
        if not more:
            return reached
        reached |= more


@pytest.mark.parametrize("graph, parts", [
    # mirrored removals that cut the square into three pieces
    (lambda: trimmed_square(3, [(0, 5), (2, 5), (0, 3)]), 3),
    # trimming the even path vertices of a path leaves three pieces
    (lambda: section_instance(grid_graph(5, 1), [0, 1, 2, 3, 4]).plus, 3),
    (lambda: random_section2(1).plus, 3),
], ids=["trimmed-square", "path-plus", "section2-plus"])
def test_component_map_groups_by_reachability(graph, parts):
    g = graph()
    comp = g.component_map()
    assert len(set(comp.values())) == parts
    assert not g.is_connected()
    for v in g.vertices:
        assert {w for w in g.vertices if comp[w] == comp[v]} == _reachable(g, v)


def test_kept_tables_are_built_once_per_graph():
    # each kept table is the same object on every later call; a lattice the
    # builder passes in is the one kept; a trace that fails keeps nothing,
    # so it fails again
    g = grid_graph(3, 2)
    for read in (lambda: g.graph_id, g.lattice, g.weight_table, g.vertex_order,
                 g.walk_table, g.trace_faces):
        assert read() is read()
    lattice = Lattice(1, {0: (0, 0), 1: (1, 0)})
    vertices = {v: Vertex(v, (Fraction(x), Fraction(y))) for v, (x, y) in lattice.points.items()}
    drawn = PlanarGraph.trusted(vertices, {0: Edge(0, 0, 1)}, geometric=True, lattice=lattice)
    assert drawn.lattice() is lattice
    flat = PlanarGraph.trusted(dict(g.vertices), dict(g.edges), rotation=g.rotation)
    for _ in range(2):
        with pytest.raises(errors.EmbeddingError, match="requires a geometric embedding"):
            flat.trace_faces()
