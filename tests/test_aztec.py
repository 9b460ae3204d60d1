"""Triangular Aztec regions and the justification-swapping bijection."""

import pytest

from dimerforge.aztec import (
    _scaled,
    aztec_bijection,
    aztec_formula,
    aztec_graph,
    aztec_pair,
    lift_to_host,
    project_from_host,
    tiling_svg,
)
from dimerforge.errors import LiftFailed, NotAMatching
from dimerforge.matchings import Matching, count_matchings, enumerate_matchings


def test_formula_values():
    assert [aztec_formula(n) for n in range(1, 6)] == [1, 4, 60, 3328, 678912]


def test_formula_rejects_bad_order():
    with pytest.raises(ValueError):
        aztec_formula(0)


def test_order_one_is_a_domino():
    inst = aztec_graph(1, "T")
    assert len(inst.cells) == 2
    assert count_matchings(inst.graph) == 1


def test_counts_match_formula_both_variants():
    for n in range(1, 5):
        t, tp = aztec_pair(n)
        assert count_matchings(t.graph) == aztec_formula(n)
        assert count_matchings(tp.graph) == aztec_formula(n)


def test_enumeration_matches_formula():
    for n in (2, 3):
        inst = aztec_graph(n, "Tp")
        assert sum(1 for _ in enumerate_matchings(inst.graph)) == aztec_formula(n)


def test_region_is_isomorphic_to_refinement_subgraph():
    for n in (2, 3, 4):
        inst = aztec_graph(n, "T")
        # edge-by-edge map onto the host: each region edge goes to the host
        # edge between the same two cells, and the images are exactly the
        # host edges between region cells
        cells = set(inst.cells)
        keep = {v for v, x in inst.host.vertices.items() if _scaled(x.pos) in cells}
        assert len(keep) == len(inst.graph.vertices)
        host_ids = {e.id for e in inst.host.edges.values() if e.u in keep and e.v in keep}
        assert sorted(inst.host_edge) == sorted(inst.graph.edges)
        assert set(inst.host_edge.values()) == host_ids and len(host_ids) == len(inst.host_edge)
        for r, h in inst.host_edge.items():
            assert ({inst.graph.vertices[v].pos for v in inst.graph.edges[r].ends}
                    == {_scaled(inst.host.vertices[v].pos) for v in inst.host.edges[h].ends})


def test_lift_project_inverse():
    inst = aztec_graph(3, "T")
    for mu in list(enumerate_matchings(inst.graph))[:10]:
        assert project_from_host(inst, lift_to_host(inst, mu)).edges == mu.edges


def test_bijection_roundtrip():
    for n in (1, 2, 3):
        t, tp = aztec_pair(n)
        mus = list(enumerate_matchings(t.graph))
        images = [aztec_bijection(n, mu) for mu in mus]
        assert len({m.edges for m in images}) == len(images)
        assert all(m.host == tp.graph.graph_id for m in images)
        for mu, img in zip(mus, images):
            assert aztec_bijection(n, img).edges == mu.edges


def test_bijection_rejects_foreign_matching():
    with pytest.raises(LiftFailed):
        aztec_bijection(2, Matching("elsewhere", frozenset()))


def test_bijection_rejects_an_edge_foreign_to_the_region():
    # the lift reads its input through cover_map before indexing region edges
    mu = next(enumerate_matchings(aztec_graph(2, "T").graph))
    with pytest.raises(NotAMatching):
        aztec_bijection(2, Matching(mu.host, mu.edges | {10 ** 6}))


def test_odd_order_forced_strip():
    inst = aztec_graph(3, "T")
    assert inst.constraints.keys() == {len(inst.transport.plain)}
    assert inst.fixed_edges
    # forced edges never touch the region cells
    region_hosts = {v for h in inst.host_edge.values() for v in inst.host.edges[h].ends}
    for eid in inst.fixed_edges:
        e = inst.host.edges[eid]
        assert e.u not in region_hosts and e.v not in region_hosts


def test_svg_output():
    inst = aztec_graph(2, "T")
    mu = next(enumerate_matchings(inst.graph))
    text = tiling_svg(inst, mu)
    assert text.startswith("<svg") and text.count("<rect") == len(mu.edges)


def test_svg_rejects_a_matching_that_is_not_one_of_the_region():
    inst = aztec_graph(2, "T")
    mu = next(enumerate_matchings(inst.graph))
    with pytest.raises(NotAMatching):
        tiling_svg(inst, Matching(mu.host, mu.edges | {10 ** 6}))
    with pytest.raises(NotAMatching):
        tiling_svg(inst, Matching(mu.host, frozenset()))
