"""Drawings the engine builds itself skip the full geometric validator.  The
validator stays the oracle: rebuilding each such graph with
``PlanarGraph.build`` must succeed and give the same graph."""

import pytest

from builders import diamond_graph, fan_square
from dimerforge.aztec import aztec_pair
from dimerforge.generators import (
    diagonal_grid,
    grid_graph,
    hexagon_graph,
    random_plane_graph,
    random_section2,
    random_symmetric,
    random_transport,
)
from dimerforge.planar import PlanarGraph
from dimerforge.refine import symmetrize

SEEDS = range(50)


def assert_valid(g: PlanarGraph, require_connected: bool = True):
    full = PlanarGraph.build(dict(g.vertices), dict(g.edges),
                             require_connected=require_connected)
    assert full.rotation == g.rotation
    faces, full_faces = g.trace_faces(), full.trace_faces()
    assert [f.cycle for f in full_faces.faces] == [f.cycle for f in faces.faces]
    assert full_faces.infinite_index == faces.infinite_index
    assert full.graph_id == g.graph_id


BUILDERS = {
    "grid1x1": grid_graph(1, 1), "grid2x2": grid_graph(2, 2), "grid4x3": grid_graph(4, 3),
    "diamond": diamond_graph(), "fan-square": fan_square(),
    "diag1": diagonal_grid(1), "diag3": diagonal_grid(3), "diag5": diagonal_grid(5),
    "hexagon1": hexagon_graph(1)[0], "hexagon2": hexagon_graph(2)[0],
    "hexagon3": hexagon_graph(3)[0], "path1": grid_graph(1, 1), "path4": grid_graph(4, 1),
}


@pytest.mark.parametrize("g", list(BUILDERS.values()), ids=list(BUILDERS))
def test_deterministic_builders(g):
    assert_valid(g)


def test_section2_augmented_and_symmetrized():
    for seed in SEEDS:
        inst = random_section2(seed)
        assert_valid(inst.refinement.source)
        assert_valid(symmetrize(inst), require_connected=False)
        # vertex deletions of the simple refinement stay simple
        for h in (inst.trimmed, inst.plus, inst.minus):
            PlanarGraph.trusted(dict(h.vertices), dict(h.edges), rotation=h.rotation)


def test_random_families():
    for seed in SEEDS:
        assert_valid(random_symmetric(seed)[0])
        assert_valid(random_plane_graph(seed, weighted=seed % 2 == 1))
        assert_valid(random_transport(seed)[0].smashed.refinement.source)


@pytest.mark.parametrize("n", range(1, 6))
def test_aztec_regions(n):
    for inst in aztec_pair(n):
        assert_valid(inst.graph)
