"""Interior counts for simple cycles."""

import pytest

from dimerforge.generators import grid_graph, random_plane_graph
from dimerforge.parity import NotACycle, interior_vertex_count, simple_cycles


def test_square_cycle_itself():
    g = grid_graph(2, 2)
    ic = interior_vertex_count(g, [0, 1, 3, 2])
    assert (ic.vertices, ic.edges, ic.faces) == (0, 0, 1)
    assert ic.parity == "odd"


def test_outer_cycle_of_3x3():
    g = grid_graph(3, 3)
    outer = [0, 1, 2, 5, 8, 7, 6, 3]
    ic = interior_vertex_count(g, outer)
    assert (ic.vertices, ic.edges, ic.faces) == (1, 4, 4)
    assert ic.total == 9


def test_orientation_does_not_matter():
    g = grid_graph(3, 3)
    a = interior_vertex_count(g, [0, 1, 2, 5, 8, 7, 6, 3])
    b = interior_vertex_count(g, [3, 6, 7, 8, 5, 2, 1, 0])
    assert (a.vertices, a.edges, a.faces) == (b.vertices, b.edges, b.faces)
    for seed in range(4):
        g = random_plane_graph(seed)
        for cyc in simple_cycles(g):
            assert interior_vertex_count(g, cyc) == interior_vertex_count(g, cyc[::-1])


def test_chord_edges_with_endpoints_on_cycle_count_as_interior():
    g = grid_graph(3, 2)
    outer = [0, 2, 4, 5, 3, 1]
    ic = interior_vertex_count(g, outer)
    assert ic.edges == 1  # the middle rung
    assert ic.vertices == 0
    assert ic.faces == 2


def test_not_a_cycle():
    g = grid_graph(2, 2)
    with pytest.raises(NotACycle):
        interior_vertex_count(g, [0, 1])
    with pytest.raises(NotACycle, match="1,2 is not an edge"):
        interior_vertex_count(g, [0, 1, 2])


def test_simple_cycles_of_square():
    g = grid_graph(2, 2)
    assert simple_cycles(g) == [[0, 1, 3, 2]]


def test_cycle_enumeration_count_3x3():
    g = grid_graph(3, 3)
    assert len(simple_cycles(g)) == 13


def test_all_cycles_odd_everywhere():
    for seed in range(10):
        g = random_plane_graph(seed)
        for cyc in simple_cycles(g):
            assert interior_vertex_count(g, cyc).total % 2 == 1
