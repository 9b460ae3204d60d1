"""Glide paths, the plus/minus swap, tree/matching correspondence, run
transport, reflection swaps."""

import hashlib
from fractions import Fraction
from itertools import islice

import pytest

from builders import diamond_graph, fan_square
from dimerforge import bijections, errors
from dimerforge.bijections import (
    build_path_family,
    forced_path_matching,
    phi,
    psi,
    reflect_swap,
    site_path_to_refinement,
    tea_transport,
    temperley_instance,
    temperley_matching_to_tree,
    temperley_tree_to_matching,
    transport_instance,
)
from dimerforge.generators import (
    grid_graph,
    hexagon_graph,
    random_plane_graph,
    random_section2,
    random_transport,
)
from dimerforge.gliding import DUAL, FRAME, glide, shift_edges
from dimerforge.matchings import Matching, count_matchings, enumerate_matchings
from dimerforge.planar import PlanarGraph, Vertex, check_reflection_symmetry, remove_vertices
from dimerforge.refine import dual_refinement, section_instance
from dimerforge.trees import enumerate_spanning_trees


def minimal_instance():
    g = PlanarGraph.build({0: Vertex(0, (Fraction(0), Fraction(0)))}, {})
    return section_instance(g, [0])


def square_instance():
    return section_instance(grid_graph(2, 2), [0, 1, 3])


# -- gliding and path families ----------------------------------------------


def test_glide_on_minimal_instance():
    inst = minimal_instance()
    mu = next(enumerate_matchings(inst.plus))
    cover = mu.cover_map(inst.plus)
    gp = glide(inst.trimmed, inst.refinement, cover, inst.mids[0], FRAME)
    assert gp.vertices == (inst.mids[0], inst.boundary.inner[0], inst.mids[1])


def test_glide_square_instance_trace():
    # under the matching pairing the first path vertex with the midpoint of
    # its off-path edge, the glide from the first marked midpoint crosses
    # the whole graph through the off-path corner and ends at the last one
    inst = square_instance()
    far_corner = 2  # the vertex off the marked path
    v1 = inst.boundary.inner[0]
    off_edge = inst.refinement.source.edge_between(v1, far_corner)
    off_mid = inst.refinement.mid_of_edge[off_edge.id]
    want = inst.plus.edge_between(v1, off_mid).id
    mu = next(m for m in enumerate_matchings(inst.plus) if want in m.edges)
    gp = glide(inst.trimmed, inst.refinement, mu.cover_map(inst.plus),
               inst.mids[0], FRAME)
    assert gp.vertices[-1] == inst.mids[3]
    assert far_corner in gp.vertices


def test_glide_from_a_vertex_keeps_its_own_frame():
    # the mode picks only the first step from a midpoint: a glide from a
    # source vertex or a face center stays on that vertex's frame
    g, plain, prime = hexagon_graph(2)
    inst = transport_instance(g, plain, prime)
    ref = inst.smashed.refinement
    host = inst.host_prime
    starts = {FRAME: [v for v in ref.source.vertices if v in host.vertices],
              DUAL: [c for c in ref.face_of_center if c in host.vertices]}
    glides = 0
    for mu in islice(enumerate_matchings(host), 10):
        cover = mu.cover_map(host)
        for own, other in ((FRAME, DUAL), (DUAL, FRAME)):
            for v in starts[own]:
                assert glide(host, ref, cover, v, other) == glide(host, ref, cover, v, own)
                glides += 1
    assert glides > 200


def test_glide_around_a_closed_cycle_is_detected():
    # without its face centre the square's refinement is an 8-cycle of
    # corners and midpoints; under either matching a glide from a corner
    # walks round it back to the start
    g = grid_graph(2, 2)
    ref = dual_refinement(g)
    host = remove_vertices(ref.graph, list(ref.face_of_center))
    matchings = list(enumerate_matchings(host))
    assert len(matchings) == 2
    for mu in matchings:
        cover = mu.cover_map(host)
        for corner in g.vertices:
            with pytest.raises(errors.CycleDetected, match=f"revisited vertex {corner}"):
                glide(host, ref, cover, corner, FRAME)


def test_family_pairs_all_midpoints():
    # each family path runs from one marked midpoint to another, and the
    # paths are disjoint, in both sweep directions
    families = 0
    for inst in [square_instance()] + [random_section2(seed) for seed in range(4)]:
        for host, from_minus in ((inst.plus, False), (inst.minus, True)):
            for mu in enumerate_matchings(host):
                family = build_path_family(inst, mu, from_minus)
                assert len(family) == inst.boundary.n
                endpoints = [v for p in family for v in (p.vertices[0], p.vertices[-1])]
                assert sorted(endpoints) == sorted(inst.mids)
                sets = [set(p.vertices) for p in family]
                for i in range(len(sets)):
                    for j in range(i + 1, len(sets)):
                        assert not (sets[i] & sets[j])
                families += 1
    assert families > 20


def path_edgeset(graph, vertices):
    """Edge ids along a vertex sequence, by search of the adjacency lists."""
    return [graph.edge_between(a, b).id for a, b in zip(vertices, vertices[1:])]


def test_glides_record_the_edges_they_walk():
    # the ids a glide collects match a search of the refinement's adjacency
    # lists along its vertices, for the glides of both sweep directions and
    # of every transport mark
    walked = 0
    for seed in range(10):
        inst = random_section2(seed)
        ref = inst.refinement
        for host, from_minus in ((inst.plus, False), (inst.minus, True)):
            for mu in enumerate_matchings(host):
                for p in build_path_family(inst, mu, from_minus):
                    assert p.edges == tuple(path_edgeset(ref.graph, p.vertices))
                    walked += 1
    for seed in range(8):
        inst, _ = random_transport(seed)
        ref = inst.smashed.refinement
        for host, primed in ((inst.host_prime, False), (inst.host_plain, True)):
            for mu in islice(enumerate_matchings(host), 20):
                cover = mu.cover_map(host)
                starts = inst.prime_removal if primed else inst.plain_removal
                for i, start in enumerate(starts, 1):
                    gp = glide(host, ref, cover, start, FRAME if i % 2 else DUAL)
                    assert gp.edges == tuple(path_edgeset(ref.graph, gp.vertices))
                    walked += 1
    assert walked > 1000


# -- the plus/minus bijection -------------------------------------------------


def test_phi_minimal():
    inst = minimal_instance()
    mu = next(enumerate_matchings(inst.plus))
    image = phi(inst, mu)
    assert image.host == inst.minus.graph_id
    assert psi(inst, image).edges == mu.edges


def test_phi_bijection_square_instance():
    inst = square_instance()
    plus = list(enumerate_matchings(inst.plus))
    minus = list(enumerate_matchings(inst.minus))
    assert len(plus) == len(minus) == 3
    images = [phi(inst, mu) for mu in plus]
    assert len({m.edges for m in images}) == 3
    assert {m.edges for m in images} == {m.edges for m in minus}
    for mu in minus:
        assert phi(inst, psi(inst, mu)).edges == mu.edges


def test_phi_bijection_random_instances():
    for seed in range(10):
        inst = random_section2(seed)
        plus = list(enumerate_matchings(inst.plus))
        minus = list(enumerate_matchings(inst.minus))
        assert len(plus) == len(minus)
        seen = set()
        for mu in plus:
            image = phi(inst, mu)
            assert image.edges not in seen
            seen.add(image.edges)
            assert psi(inst, image).edges == mu.edges


def test_shift_is_involution():
    inst = square_instance()
    mu = next(enumerate_matchings(inst.plus))
    paths = [p.edges for p in build_path_family(inst, mu)]
    once = shift_edges(mu.edges, paths)
    assert shift_edges(once, paths) == mu.edges


def test_phi_images_are_pinned():
    rows = [(seed, phi(inst, mu).sorted_edges()) for seed in range(12)
            for inst in [random_section2(seed)] for mu in enumerate_matchings(inst.plus)]
    assert len(rows) == 132
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "a29aafaaec2ad7b036c6c10a31982808b62d964c89f1fa6501a28b6e6a7e6e61"


# -- tree <-> matching correspondence ----------------------------------------


def test_temperley_square_all_trees():
    g = grid_graph(2, 2)
    inst = temperley_instance(dual_refinement(g), 0)
    trees = list(enumerate_spanning_trees(g, 0))
    assert len(trees) == 4
    assert count_matchings(inst.host) == 4
    for tree in trees:
        mu = temperley_tree_to_matching(inst, tree)
        assert temperley_matching_to_tree(inst, mu) == tree


def test_temperley_single_edge():
    from dimerforge.planar import Edge

    g = PlanarGraph.build(
        {0: Vertex(0, (Fraction(0), Fraction(0))), 1: Vertex(1, (Fraction(1), Fraction(0)))},
        {0: Edge(0, 0, 1)})
    inst = temperley_instance(dual_refinement(g), 0)
    tree = next(enumerate_spanning_trees(g, 0))
    mu = temperley_tree_to_matching(inst, tree)
    assert len(mu.edges) == 1


def test_temperley_weight_preserving():
    from dimerforge.planar import Edge

    g = grid_graph(2, 2)
    edges = {eid: Edge(eid, e.u, e.v, Fraction(eid + 1)) for eid, e in g.edges.items()}
    wg = PlanarGraph.build(dict(g.vertices), edges)
    inst = temperley_instance(dual_refinement(wg), 0)
    for tree in enumerate_spanning_trees(wg, 0):
        mu = temperley_tree_to_matching(inst, tree)
        assert mu.weight(inst.ref.graph) == tree.weight(wg)


def test_temperley_oriented_edge_filter():
    # trees containing a fixed oriented edge correspond to matchings
    # containing its tail half-edge
    g = grid_graph(2, 2)
    ref = dual_refinement(g)
    root = 0
    inst = temperley_instance(ref, root)
    eid = 2
    e = g.edges[eid]
    tail, head = e.u, e.v
    half = ref.graph.edge_between(tail, ref.mid_of_edge[eid]).id
    with_edge = [t for t in enumerate_spanning_trees(g, root)
                 if (tail, eid, head) in t.assignments]
    with_half = []
    for t in enumerate_spanning_trees(g, root):
        mu = temperley_tree_to_matching(inst, t)
        if half in mu.edges:
            with_half.append(t)
    assert with_edge == with_half


def test_temperley_matchings_are_pinned():
    # every spanning tree at every boundary root, including the cut vertex
    # of a path and the pendant vertices of a random grid subgraph
    graphs = [grid_graph(2, 2), grid_graph(3, 2), grid_graph(3, 1), fan_square(),
              random_plane_graph(3, weighted=True)]
    rows = []
    for g in graphs:
        ref = dual_refinement(g)
        for root in sorted(g.infinite_face_vertices()):
            inst = temperley_instance(ref, root)
            for tree in enumerate_spanning_trees(g, root):
                mu = temperley_tree_to_matching(inst, tree)
                assert temperley_matching_to_tree(inst, mu) == tree
                rows.append((root, sorted(tree.edge_set), sorted(mu.edges)))
    assert len(rows) == 260
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "4d6afcccd735bd101495053b41f15eaafd4e1d2494c4d23f6c8de53dbcad930f"


def test_temperley_root_must_be_on_infinite_face():
    g = grid_graph(3, 3)
    with pytest.raises(errors.RootNotOnInfiniteFace):
        temperley_instance(dual_refinement(g), 4)


# -- transport -----------------------------------------------------------------


def test_transport_root_independence_case():
    g, plain, prime = hexagon_graph(1)
    inst = transport_instance(g, plain, prime)
    assert count_matchings(inst.host_plain) == count_matchings(inst.host_prime) == 4
    mus = list(enumerate_matchings(inst.host_prime))
    for mu in mus:
        out = tea_transport(inst, mu)
        assert out.host == inst.host_plain.graph_id
        assert tea_transport(inst, out).edges == mu.edges


def test_transport_conditions_validated():
    g = grid_graph(3, 3)
    with pytest.raises(errors.ConditionViolated):
        transport_instance(g, [0, 1], [8, 7])  # even run length
    with pytest.raises(errors.ConditionViolated):
        transport_instance(g, [0, 4, 8], [2, 5, 8])  # repeated mark / bad order


@pytest.mark.parametrize("plain, prime, which, message", [
    ([0, 3, 99], [2, 5, 8], "i", "unknown vertex 99"),
    ([0, 3, 0], [2, 5, 8], "i", "repeated mark"),
    ([0, 3, 6], [2, 8, 5], "ii", "2,8 is not an edge"),
    ([0, 3, 6], [2], "iii", "runs have different lengths"),
    ([0, 3, 6], [8, 5, 2], "iii", "marks are not in counterclockwise order: [0, 3, 6, 2, 5, 8]"),
    ([1, 4, 7], [2, 5, 8], "iii", "vertex 4 not exactly once on the boundary"),
], ids=["unknown-vertex", "repeated-mark", "prime-not-a-path", "lengths-differ",
        "out-of-order", "off-the-boundary"])
def test_transport_instance_rejections(plain, prime, which, message):
    # on the 3x3 grid, vertex 3x + y sits at (x, y); 4 is the centre
    with pytest.raises(errors.ConditionViolated) as exc:
        transport_instance(grid_graph(3, 3), plain, prime)
    assert exc.value.which == which
    assert str(exc.value) == f"condition ({which}) violated: {message}"


def test_transport_degree_two_condition():
    g = grid_graph(3, 3)
    # middle of the bottom row has degree 3: cannot be an even mark
    with pytest.raises(errors.ConditionViolated) as exc:
        transport_instance(g, [0, 3, 6], [2, 5, 8])
    assert exc.value.which == "iv"


def test_transport_constrained_counts_ladder():
    L = 4
    g = grid_graph(L, 2)
    vid = {(int(v.pos[0]), int(v.pos[1])): v.id for v in g.vertices.values()}
    plain = [vid[(1, 1)], vid[(0, 1)], vid[(0, 0)]]
    prime = [vid[(L - 1, 1)], vid[(L - 1, 0)], vid[(L - 2, 0)]]
    inst = transport_instance(g, plain, prime)
    ref = inst.smashed.refinement
    top = site_path_to_refinement(ref, [vid[(x, 1)] for x in range(1, L)])
    mus = list(enumerate_matchings(inst.host_prime))
    sel = [m for m in mus
           if forced_path_matching(ref, top, drop_start=False) <= m.edges]
    for mu in sel:
        out = tea_transport(inst, mu, {1: top})
        assert forced_path_matching(ref, top, drop_start=True) <= out.edges


def test_transport_random_instances():
    for seed in range(6):
        inst, paths = random_transport(seed)
        mus = list(enumerate_matchings(inst.host_prime))
        total_other = count_matchings(inst.host_plain)
        assert sum(m.weight(inst.host_prime) for m in mus) == total_other
        for mu in mus[:50]:
            out = tea_transport(inst, mu)
            assert tea_transport(inst, out).edges == mu.edges


def test_transport_rejects_foreign_matching():
    g, plain, prime = hexagon_graph(1)
    inst = transport_instance(g, plain, prime)
    foreign = Matching("nope", frozenset([0]))
    with pytest.raises(errors.PreconditionViolated):
        tea_transport(inst, foreign)


def test_transport_missing_forced_edges_reported():
    g2, plain2, prime2 = hexagon_graph(2)
    inst = transport_instance(g2, plain2, prime2)
    ref = inst.smashed.refinement
    vid = {(int(v.pos[0]), int(v.pos[1])): v.id for v in g2.vertices.values()}
    p1 = site_path_to_refinement(ref, [vid[(1, 5)], vid[(2, 5)]])
    bad = None
    for mu in enumerate_matchings(inst.host_prime):
        if not forced_path_matching(ref, p1, drop_start=False) <= mu.edges:
            bad = mu
            break
    assert bad is not None
    with pytest.raises(errors.ConstraintPathMismatch):
        tea_transport(inst, bad, {1: p1})


def test_transport_refuses_constraints_off_the_marks_before_gliding(monkeypatch):
    # a key that names no mark, and a path that does not run from plain mark
    # i to primed mark i, are refused from either host before any glide
    inst, paths = random_transport(2)
    assert set(paths) == {1, 2, 3}
    mus = [next(enumerate_matchings(inst.host_prime)), next(enumerate_matchings(inst.host_plain))]

    def no_glide(*args):
        raise AssertionError("glided")

    monkeypatch.setattr(bijections, "glide", no_glide)
    for mu in mus:
        for bad in ({0: paths[1]}, {4: paths[3]}, {1: paths[1][::-1]}, {2: paths[2][:-1]},
                    {3: paths[3][1:]}, {1: ()}, {1: paths[1], 2: paths[3]}):
            with pytest.raises(errors.ConstraintPathMismatch):
                tea_transport(inst, mu, bad)


def test_transport_images_are_pinned():
    # constrained at every index whose forced edges the matching holds
    rows = []
    for seed in range(6):
        inst, paths = random_transport(seed)
        ref = inst.smashed.refinement
        for mu in islice(enumerate_matchings(inst.host_prime), 200):
            held = {i: paths[i] for i in paths
                    if forced_path_matching(ref, paths[i], False) <= mu.edges}
            rows.append((seed, tea_transport(inst, mu, held).sorted_edges()))
    assert len(rows) == 410
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "b1405b91105b1906cdb6b573444674a8e657a4eb1bd07743d337a478d13a4b9f"


def test_transport_rejects_exactly_the_matchings_missing_forced_edges():
    # the glide-path comparison alone enforces each chosen path's forced edges
    outcomes = {True: 0, False: 0}
    for seed in range(10):
        inst, paths = random_transport(seed)
        ref = inst.smashed.refinement
        for host, plain in ((inst.host_prime, False), (inst.host_plain, True)):
            for mu in islice(enumerate_matchings(host), 40):
                for i in paths:
                    holds = forced_path_matching(ref, paths[i], drop_start=plain) <= mu.edges
                    if holds:
                        tea_transport(inst, mu, {i: paths[i]})
                    else:
                        with pytest.raises(errors.ConstraintPathMismatch):
                            tea_transport(inst, mu, {i: paths[i]})
                    outcomes[holds] += 1
    assert min(outcomes.values()) >= 20, outcomes


# -- reflection swap -----------------------------------------------------------


def test_reflect_swap_diamond():
    g = diamond_graph()
    cert = check_reflection_symmetry(g, Fraction(0))
    mus = list(enumerate_matchings(g))
    a = cert.axis_vertices[0]
    assert reflect_swap(g, cert, mus[0], a).edges == mus[1].edges
    assert reflect_swap(g, cert, mus[1], a).edges == mus[0].edges
    for mu in mus:
        assert reflect_swap(g, cert, reflect_swap(g, cert, mu, a), a).edges == mu.edges


def test_reflect_swap_requires_axis_vertex():
    g = diamond_graph()
    cert = check_reflection_symmetry(g, Fraction(0))
    mu = next(enumerate_matchings(g))
    off_axis = next(v for v in g.vertices if v not in cert.axis_vertices)
    with pytest.raises(errors.NotOnAxis):
        reflect_swap(g, cert, mu, off_axis)


def test_reflect_swap_class_transition():
    # swapping at the axis endpoint of a marked edge moves the matching
    # between the classes selected by that edge and its mirror image
    g = grid_graph(4, 3)
    cert = check_reflection_symmetry(g, Fraction(1))
    mus = list(enumerate_matchings(g))
    a = cert.axis_vertices[0]
    ups = [e for e in g.adj[a] if g.vertices[g.edges[e].other(a)].pos[1] > 1]
    e_up = ups[0]
    e_dn = cert.edge_map[e_up]
    cls_up = [m for m in mus if e_up in m.edges]
    cls_dn = [m for m in mus if e_dn in m.edges]
    assert len(cls_up) == len(cls_dn) > 0
    images = {reflect_swap(g, cert, m, a).edges for m in cls_up}
    assert images == {m.edges for m in cls_dn}
