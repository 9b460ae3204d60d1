"""Differential and adversarial checks beyond the acceptance scale: the two
counting routes against each other on many random graphs, bijections on a
second seeded family, glide endpoint sets, and the error paths that the
happy-path tests never touch."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerforge import _geom, errors
from dimerforge.bijections import phi, psi, tea_transport, transport_instance
from dimerforge.generators import (
    grid_graph,
    hexagon_graph,
    random_plane_graph,
    random_section2,
    random_transport,
)
from dimerforge.gliding import DUAL, FRAME, glide, shift_edges
from dimerforge.matchings import Matching, count_matchings, enumerate_matchings
from dimerforge.refine import symmetrize
from dimerforge.trees import count_spanning_trees, enumerate_spanning_trees, split_seed

BASE = 987654


def test_counting_routes_agree_widely():
    for k in range(40):
        g = random_plane_graph(split_seed(BASE, k), weighted=(k % 3 == 0))
        by_enum = sum(m.weight(g) for m in enumerate_matchings(g))
        assert count_matchings(g) == by_enum


def test_tree_routes_agree_widely():
    for k in range(25):
        g = random_plane_graph(split_seed(BASE, 500 + k), weighted=(k % 2 == 0))
        total = sum(t.weight(g) for t in enumerate_spanning_trees(g, min(g.vertices)))
        assert count_spanning_trees(g) == total


def test_plus_minus_family_second_seed():
    for k in range(40):
        inst = random_section2(split_seed(BASE, 1000 + k))
        plus = list(enumerate_matchings(inst.plus))
        minus = {m.edges for m in enumerate_matchings(inst.minus)}
        images = {phi(inst, mu).edges for mu in plus}
        assert images == minus
        bar = symmetrize(inst)
        assert count_matchings(bar) == \
            Fraction(2) ** inst.boundary.n * len(plus) * len(minus)


def test_transport_weights_second_seed():
    for k in range(5):
        inst, _paths = random_transport(split_seed(BASE, 2000 + k))
        assert count_matchings(inst.host_plain) == count_matchings(inst.host_prime)


def test_dual_glides_end_at_primed_centers_or_outside():
    g, plain, prime = hexagon_graph(2)
    inst = transport_instance(g, plain, prime)
    ref = inst.smashed.refinement
    allowed = set(inst.prime_removal[1::2])
    centers = [c for c in ref.face_of_center if c in inst.host_prime.vertices]
    for mu in list(enumerate_matchings(inst.host_prime))[:40]:
        cover = mu.cover_map(inst.host_prime)
        for c in centers:
            gp = glide(inst.host_prime, ref, cover, c, DUAL)
            assert gp.blocked_target is None or gp.blocked_target in allowed


def test_frame_glides_end_at_primed_marks():
    g, plain, prime = hexagon_graph(2)
    inst = transport_instance(g, plain, prime)
    ref = inst.smashed.refinement
    allowed = set(inst.prime_odd)
    originals = [v for v in ref.source.vertices if v in inst.host_prime.vertices]
    for mu in list(enumerate_matchings(inst.host_prime))[:25]:
        cover = mu.cover_map(inst.host_prime)
        for vid in originals:
            gp = glide(inst.host_prime, ref, cover, vid, FRAME)
            assert gp.blocked_target in allowed


def test_glide_rejects_unmatched_start():
    g, plain, prime = hexagon_graph(1)
    inst = transport_instance(g, plain, prime)
    mu = next(enumerate_matchings(inst.host_prime))
    cover = mu.cover_map(inst.host_prime)
    with pytest.raises(errors.PreconditionViolated):
        glide(inst.host_prime, inst.smashed.refinement, {}, plain[0], FRAME)
    with pytest.raises(errors.PreconditionViolated):
        glide(inst.host_prime, inst.smashed.refinement, cover, plain[0], "sideways")


def test_shift_rejects_non_alternating_path():
    # a path of two consecutive non-matching edges cannot alternate; it needs
    # a vertex of degree >= 3, so the 4-cycle grid_graph(2, 2) has none
    g = grid_graph(3, 2)
    mu = next(enumerate_matchings(g))
    outside = [g.edges[x] for x in sorted(set(g.edges) - mu.edges)]
    pairs = [(e, f) for e, f in combinations(outside, 2) if e.ends & f.ends]
    assert pairs, "no two non-matching edges share an endpoint"
    e, f = pairs[0]
    with pytest.raises(errors.NotAlternating):
        shift_edges(mu.edges, [[e.id, f.id]])


def test_transport_rejects_overlapping_runs():
    g, plain, prime = hexagon_graph(1)
    with pytest.raises(errors.ConditionViolated):
        transport_instance(g, plain, plain)


def test_matching_weight_transport_invariant():
    for k in range(3):
        inst, _ = random_transport(split_seed(BASE, 3000 + k))
        for mu in list(enumerate_matchings(inst.host_prime))[:30]:
            out = tea_transport(inst, mu)
            assert out.weight(inst.host_plain) == mu.weight(inst.host_prime)


def test_psi_then_phi_on_fresh_instances():
    for k in range(15):
        inst = random_section2(split_seed(BASE, 4000 + k))
        for mu in enumerate_matchings(inst.minus):
            assert phi(inst, psi(inst, mu)).edges == mu.edges


# -- geometry primitives -------------------------------------------------------

# the predicates take lattice points, integer pairs
coords = st.integers(min_value=-6, max_value=6)
points = st.tuples(coords, coords)


@settings(max_examples=250, deadline=None)
@given(points, points, points, points)
def test_segment_conflict_is_symmetric(a, b, c, d):
    if a == b or c == d:
        return
    assert _geom.segments_conflict(a, b, c, d) == _geom.segments_conflict(c, d, a, b)
    assert _geom.segments_conflict(a, b, c, d) == _geom.segments_conflict(b, a, d, c)


@settings(max_examples=150, deadline=None)
@given(points, points, points)
def test_point_on_segment_consistency(p, a, b):
    if a == b:
        return
    if _geom.point_on_segment(p, a, b):
        assert _geom.cross(a, b, p) == 0
        assert _geom.point_on_segment(p, b, a)


@settings(max_examples=150, deadline=None)
@given(st.lists(points, min_size=3, max_size=7, unique=True), points)
def test_winding_flips_with_orientation(poly, p):
    if any(_geom.point_on_segment(p, poly[i], poly[(i + 1) % len(poly)])
           for i in range(len(poly))):
        return
    assert _geom.winding_number(p, poly) == -_geom.winding_number(p, poly[::-1])


@settings(max_examples=150, deadline=None)
@given(st.lists(points, min_size=3, max_size=7, unique=True))
def test_area_flips_with_orientation(poly):
    assert _geom.polygon_area2(poly) == -_geom.polygon_area2(poly[::-1])
