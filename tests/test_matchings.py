"""Matching enumeration, counting, the closed-form grid count, squarishness."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerforge.errors import NotAMatching
from dimerforge.generators import (
    _reweight,
    grid_graph,
    path_graph,
    random_plane_graph,
    random_transport,
)
from dimerforge.matchings import (
    count_matchings,
    enumerate_matchings,
    kasteleyn_grid_count,
    squarish,
)
from dimerforge.planar import Edge, PlanarGraph, Vertex, parse_graph


def test_enumerate_square():
    g = grid_graph(2, 2)
    assert sum(1 for _ in enumerate_matchings(g)) == 2


def test_enumerate_odd_graph_empty():
    assert list(enumerate_matchings(path_graph(3))) == []


def test_enumeration_order_is_lexicographic():
    g = grid_graph(2, 4)
    seqs = [m.sorted_edges() for m in enumerate_matchings(g)]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs)) == 5


def test_enumeration_golden_order():
    g = grid_graph(2, 2)
    assert [m.sorted_edges() for m in enumerate_matchings(g)] == [(0, 3), (1, 2)]


def test_count_examples():
    assert count_matchings(grid_graph(4, 4)) == 36
    assert count_matchings(grid_graph(8, 8)) == 12988816


def test_weighted_count():
    g = grid_graph(2, 2)
    edges = {eid: Edge(eid, e.u, e.v, Fraction(1, 2) if eid == 0 else Fraction(1))
             for eid, e in g.edges.items()}
    wg = PlanarGraph.build(dict(g.vertices), edges)
    assert count_matchings(wg) == Fraction(3, 2)
    assert sum(m.weight(wg) for m in enumerate_matchings(wg)) == Fraction(3, 2)


def test_count_matches_enumeration_on_random_graphs():
    graphs = [random_plane_graph(seed, weighted=(seed % 2 == 0)) for seed in range(12)]
    # zero weights and mixed denominators on the weight table's integers;
    # 40 seeds reach graphs where a zero weight kills every matching and
    # graphs where some survive
    pool = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(5, 6)]
    for seed in range(40):
        g = random_plane_graph(seed)
        graphs.append(_reweight(g, {eid: pool[eid % 5] for eid in g.edges}))
    # trusted graphs whose drawing is cosmetic (seeds whose hosts are small
    # enough to enumerate quickly)
    for seed in (0, 3, 4, 5, 6, 9, 10, 11):
        inst, _ = random_transport(seed)
        graphs += [inst.host_plain, inst.host_prime]
    square = grid_graph(2, 2)
    vertices = {**square.vertices, 4: Vertex(4, (Fraction(5), Fraction(0))),
                5: Vertex(5, (Fraction(6), Fraction(0)))}
    isolated_pair = PlanarGraph.build(vertices, dict(square.edges), require_connected=False)
    empty = PlanarGraph.trusted({}, {})
    for g in graphs + [isolated_pair, empty]:
        by_enum = sum(m.weight(g) for m in enumerate_matchings(g))
        assert count_matchings(g) == by_enum
    assert count_matchings(isolated_pair) == 0
    assert count_matchings(empty) == 1


def test_disconnected_count():
    from dimerforge.refine import trimmed_square

    g = trimmed_square(2, [(0, 3)])  # two mirror blocks
    assert count_matchings(g) == 4


def test_kasteleyn_small_values():
    assert kasteleyn_grid_count(1, 1) == 2
    assert kasteleyn_grid_count(1, 2) == 5
    assert kasteleyn_grid_count(2, 2) == 36


def test_kasteleyn_agrees_with_direct_count():
    # the last four counts exceed 2^53, where a product evaluated in floating
    # point loses its low digits
    sizes = [(m, n) for m in range(1, 4) for n in range(1, 4)] + \
        [(3, 12), (4, 10), (5, 7), (7, 5)]
    for m, n in sizes:
        assert kasteleyn_grid_count(m, n) == count_matchings(grid_graph(2 * m, 2 * n))


def test_kasteleyn_rejects_bad_input():
    with pytest.raises(ValueError):
        kasteleyn_grid_count(0, 1)


def test_squarish_examples():
    assert squarish(36).kind == "square" and squarish(36).root == 6
    assert squarish(72).kind == "twice-square" and squarish(72).root == 6
    assert squarish(12).kind == "no"
    assert squarish(0).kind == "square"
    assert squarish(2).kind == "twice-square"


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 12))
def test_squarish_classification_is_sound(n):
    verdict = squarish(n)
    if verdict.kind == "square":
        assert verdict.root ** 2 == n
    elif verdict.kind == "twice-square":
        assert 2 * verdict.root ** 2 == n
    else:
        r = int(n ** 0.5)
        for s in range(max(0, r - 2), r + 3):
            assert s * s != n and 2 * s * s != n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_squarish_recognizes_constructed_values(s, doubled):
    n = 2 * s * s if doubled else s * s
    assert squarish(n)


def test_matching_host_mismatch_detected():
    g = grid_graph(2, 2)
    mus = list(enumerate_matchings(g))
    other = grid_graph(2, 4)
    with pytest.raises(NotAMatching):
        mus[0].cover_map(other)
