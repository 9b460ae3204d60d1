"""The integer lattice of a drawing against the Fraction oracle: validation,
rotation and face areas decided on the lattice agree with the same decisions
taken on the rational coordinates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from builders import diamond_graph, fan_square, reachable_stages
from dimerforge import _geom
from dimerforge.aztec import aztec_pair
from dimerforge.errors import DimerforgeError
from dimerforge.generators import (
    diagonal_grid,
    grid_graph,
    hexagon_graph,
    random_plane_graph,
    random_section2,
    random_symmetric,
    random_transport,
    random_trimmed,
)
from dimerforge.planar import Edge, PlanarGraph, Vertex
from dimerforge.refine import _mirrored, _square_graph, symmetrize

_STEPS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(-1, 2), 2)


@st.composite
def _drawings(draw):
    """A few points with denominators 1 to 4, then points placed on the
    lines through earlier ones (an interior point, an endpoint beyond, so
    collinear overlaps, touchings and vertices on edges are common), and
    edges between distinct points, sometimes sharing endpoints or crossing."""

    def coord():
        d = draw(st.sampled_from((1, 2, 3, 4)))
        return Fraction(draw(st.integers(-2 * d, 2 * d)), d)

    points = [(coord(), coord()) for _ in range(draw(st.integers(2, 5)))]
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        t = draw(st.sampled_from(_STEPS))
        points.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    points = list(dict.fromkeys(points))
    n = len(points)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]),
                          unique_by=frozenset, min_size=1, max_size=10))
    vertices = {i: Vertex(i, p) for i, p in enumerate(points)}
    edges = {k: Edge(k, u, v) for k, (u, v) in enumerate(pairs)}
    return vertices, edges


def _outcome(build):
    try:
        return "ok", build()
    except DimerforgeError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(_drawings(), st.booleans())
def test_lattice_validator_matches_the_fraction_validator(drawing, require_connected):
    vertices, edges = drawing
    got = _outcome(lambda: PlanarGraph.build(dict(vertices), dict(edges),
                                             require_connected=require_connected))
    want = _outcome(lambda: oracle.validate(dict(vertices), dict(edges), require_connected))
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    g = got[1]
    assert g.rotation == want[1].rotation
    assert [f.area2 for f in g.trace_faces().faces] == oracle.face_areas(g)


@settings(max_examples=300, deadline=None)
@given(_drawings())
def test_lattice_predicates_match_fractions(drawing):
    vertices, _ = drawing
    g = PlanarGraph(vertices, {}, geometric=True)
    pts = g.lattice().points
    ids = list(vertices)
    pos = {v: vertices[v].pos for v in ids}
    for a, b, c, d in zip(ids, ids[1:], ids[2:], ids[3:] + ids[:1]):
        if pos[a] != pos[b] and pos[c] != pos[d]:
            assert (_geom.segments_conflict(pts[a], pts[b], pts[c], pts[d])
                    == oracle.segments_conflict(pos[a], pos[b], pos[c], pos[d]))
        assert (_geom.point_on_segment(pts[c], pts[a], pts[b])
                == oracle.point_on_segment(pos[c], pos[a], pos[b]))


def _footprint(g):
    """A transport source's shape: a full grid, or else a lattice hexagon,
    whose 2m columns give its order m."""
    xs = {v.pos[0] for v in g.vertices.values()}
    ys = {v.pos[1] for v in g.vertices.values()}
    if len(g.vertices) == len(xs) * len(ys):
        return f"grid{len(xs)}x{len(ys)}"
    return f"hexagon{len(xs) // 2}"


def _families():
    """(label, graph) for every lattice family."""
    yield from (("grid1x1", grid_graph(1, 1)), ("grid4x3", grid_graph(4, 3)),
                ("diamond", diamond_graph()), ("fan-square", fan_square()),
                ("diag3", diagonal_grid(3)), ("diag5", diagonal_grid(5)),
                ("hexagon2", hexagon_graph(2)[0]), ("path4", grid_graph(4, 1)),
                ("grid3x2", grid_graph(3, 2)))
    for seed in range(8):
        inst = random_section2(seed)
        source = f"section2-{seed}+leaves"
        yield from ((source, inst.refinement.source),
                    (f"refine({source})", inst.refinement.graph),
                    ("trimmed", inst.trimmed), ("plus", inst.plus), ("minus", inst.minus),
                    ("symmetrized", symmetrize(inst)))
        yield f"symmetric-{seed}", random_symmetric(seed)[0]
        yield f"plane-{seed}", random_plane_graph(seed, weighted=True)
        square, n, _ = random_trimmed(seed)
        yield f"square{2 * n}", square
        transport = random_transport(seed)[0]
        source = transport.smashed.refinement.source
        yield from ((_footprint(source), source), ("smashed", transport.smashed.graph))
    for n in (1, 3):
        yield from ((f"aztec-{variant}{n}", inst.graph)
                    for variant, inst in zip(("T", "Tp"), aztec_pair(n)))


FAMILIES = list(_families())


@pytest.mark.parametrize("g", [g for _, g in FAMILIES], ids=[label for label, _ in FAMILIES])
def test_rotation_and_face_areas_match_fractions(g):
    # the refinement's rotation is combinatorial and its drawing cosmetic;
    # redrawn, every graph gets its rotation and faces from the coordinates
    redrawn = PlanarGraph(dict(g.vertices), dict(g.edges), geometric=True)
    assert redrawn.rotation == oracle.rotation(g)
    assert [f.area2 for f in redrawn.trace_faces().faces] == oracle.face_areas(redrawn)
    if g.geometric:
        assert [f.area2 for f in g.trace_faces().faces] == oracle.face_areas(g)


def _builder_graphs():
    """Every graph a lattice builder draws: the grid families, the random
    draws' bases, every reachable trimmed stage for n <= 6, mirrored and
    not, and the Aztec regions."""
    yield from (grid_graph(c, r) for c in range(1, 5) for r in range(1, 4))
    yield from (diagonal_grid(k) for k in range(1, 6))
    yield from (hexagon_graph(m)[0] for m in (1, 2, 3))
    yield from (diamond_graph(), fan_square())
    for seed in range(20):
        yield random_plane_graph(seed, weighted=seed % 2 == 0)
        yield random_symmetric(seed)[0]
        yield random_section2(seed).base
    for n in range(1, 7):
        for present in reachable_stages(n):
            yield from (_square_graph(2 * n, present), _square_graph(2 * n, _mirrored(present)))
    yield from (side.graph for n in (1, 2, 3, 4) for side in aztec_pair(n))


def test_builders_give_the_rotation_and_lattice_of_the_fraction_route():
    # the builders hand over their integer points as the lattice; the
    # rotation ranked over its directions is each vertex's angle sort
    graphs = list(_builder_graphs())
    assert len(graphs) == 22 + 60 + 2 * 196 + 8
    for g in graphs:
        fractions = PlanarGraph(dict(g.vertices), dict(g.edges), geometric=True)
        assert g.lattice() == fractions.lattice()
        assert all(type(c) is int for p in g.lattice().points.values() for c in p)
        assert g.rotation == oracle.rotation(g)
