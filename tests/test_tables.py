"""The per-graph tables of the matching and glide layers: built once per
graph (and per refinement, for glides), and changing no result."""

import dataclasses
import pickle
from functools import lru_cache
from itertools import product

import pytest

from dimerforge import errors, generators, gliding, matchings
from dimerforge.bijections import build_path_family, tea_transport
from dimerforge.generators import grid_graph, random_section2, random_transport
from dimerforge.gliding import DUAL, FRAME, glide, shift_edges
from dimerforge.matchings import count_matchings, enumerate_matchings
from dimerforge.planar import PlanarGraph, kept
from dimerforge.refine import dual_refinement
from dimerforge.report import check_phi_roundtrip, check_section2, phi_fault


def _cold(g: PlanarGraph) -> PlanarGraph:
    """A copy of ``g`` with the same id and none of its tables."""
    return PlanarGraph(dict(g.vertices), dict(g.edges), geometric=g.geometric,
                       rotation=g.rotation)


def _counted(built: dict, name: str, real):
    """``real``, counting its calls in ``built[name]``."""
    def counting(*args):
        built[name] = built.get(name, 0) + 1
        return real(*args)
    return counting


def test_section2_tables_change_no_result():
    # on shared instances whose tables the checks have built, enumeration,
    # counts and every path family match cold copies of the same graphs
    families = 0
    for seed in range(12):
        inst = random_section2(seed)
        assert phi_fault(inst)[1] is None
        for g in (inst.plus, inst.minus, inst.trimmed):
            count_matchings(g)
        assert matchings._enumeration_table.__wrapped__ in inst.plus._tables
        assert matchings._count_plan.__wrapped__ in inst.minus._tables
        assert gliding._hop_table in inst.trimmed._tables
        cold = dataclasses.replace(inst, trimmed=_cold(inst.trimmed), plus=_cold(inst.plus),
                                   minus=_cold(inst.minus))
        for side, from_minus in (("plus", False), ("minus", True)):
            warm_g, cold_g = getattr(inst, side), getattr(cold, side)
            assert count_matchings(warm_g) == count_matchings(cold_g)
            mus = list(enumerate_matchings(warm_g))
            assert mus == list(enumerate_matchings(cold_g))
            for mu in mus:
                assert build_path_family(inst, mu, from_minus) == \
                    build_path_family(cold, mu, from_minus)
                families += 1
        assert count_matchings(inst.trimmed) == count_matchings(cold.trimmed)
    assert families > 200


def test_transport_tables_change_no_result():
    images = 0
    for seed in range(6):
        inst, _ = random_transport(seed)
        cold = dataclasses.replace(inst, host_plain=_cold(inst.host_plain),
                                   host_prime=_cold(inst.host_prime))
        for host in ("host_prime", "host_plain"):
            mus = list(enumerate_matchings(getattr(inst, host)))
            assert mus == list(enumerate_matchings(getattr(cold, host)))
            tea_transport(inst, mus[0])
            assert gliding._hop_table in getattr(inst, host)._tables
            for mu in mus[:60]:
                assert tea_transport(inst, mu) == tea_transport(cold, mu)
                images += 1
    assert images > 250


def test_a_second_pass_of_the_section2_checks_builds_no_table(monkeypatch):
    # the instances come from a fresh cache, so the first pass builds every
    # table its graphs need and the second, on the same instances, none; a
    # kept table's builder is counted inside a fresh ``kept``, so that only
    # its builds are counted and not the calls that find it kept
    monkeypatch.setattr(generators, "_section2_instance",
                        lru_cache(maxsize=None)(generators._section2_instance.__wrapped__))
    built = {}
    for name in ("_enumeration_table", "_count_plan"):
        build = getattr(matchings, name).__wrapped__
        monkeypatch.setattr(matchings, name, kept(_counted(built, name, build)))
    monkeypatch.setattr(gliding, "_hop_table",
                        _counted(built, "_hop_table", gliding._hop_table))
    for check in (check_phi_roundtrip, check_section2):
        assert check(20, 2026)[0]
    assert set(built) == {"_enumeration_table", "_count_plan", "_hop_table"}
    built.clear()
    for check in (check_phi_roundtrip, check_section2):
        assert check(20, 2026)[0]
    assert built == {}


def test_a_host_glided_under_a_second_refinement_reads_that_refinement():
    # the second refinement differs in its across-map alone: every far side
    # is the infinite face, so each glide stops at its first midpoint
    inst = random_section2(3)
    ref, host = inst.refinement, inst.trimmed
    blocked = dataclasses.replace(ref, across={
        m: {w: (None, h) for w, (_, h) in row.items()} for m, row in ref.across.items()})
    differ = 0
    for mu in enumerate_matchings(inst.plus):
        cover = mu.cover_map(inst.plus)
        first = glide(host, ref, cover, inst.mids[0], FRAME)
        stopped = glide(host, blocked, cover, inst.mids[0], FRAME)
        assert stopped == glide(_cold(host), blocked, cover, inst.mids[0], FRAME)
        assert stopped.blocked_target is None
        assert glide(host, ref, cover, inst.mids[0], FRAME) == first
        differ += stopped != first
    assert differ > 0


def test_a_graph_keeps_every_table_in_one_dict():
    # a host counted, enumerated and glided, with every other table read,
    # holds its defining attributes and one dict of tables keyed by their
    # builders; each layer's kept table is the same object on a later call,
    # and the graph still pickles, its copy building tables of its own
    inst, _ = random_transport(0)
    host = _cold(inst.host_prime)
    assert count_matchings(host)
    tea_transport(dataclasses.replace(inst, host_prime=host), next(enumerate_matchings(host)))
    for read in (lambda: host.graph_id, host.lattice, host.weight_table, host.vertex_order,
                 host.walk_table):
        read()
    with pytest.raises(errors.EmbeddingError):  # the transport hosts are not drawings
        host.trace_faces()
    assert set(vars(host)) == {"vertices", "edges", "geometric", "adj", "rotation", "_tables"}
    kept_tables = (PlanarGraph.lattice, PlanarGraph.graph_id.fget, PlanarGraph.weight_table,
                   PlanarGraph.vertex_order, PlanarGraph.walk_table,
                   matchings._enumeration_table, matchings._count_plan)
    assert set(host._tables) == {t.__wrapped__ for t in kept_tables} | {gliding._hop_table}
    for table in (matchings._enumeration_table, matchings._count_plan):
        assert table(host) is table(host)
    copy = pickle.loads(pickle.dumps(host))
    assert set(vars(copy)) == set(vars(host)) and not copy._tables
    assert (copy.graph_id, copy.walk_table()) == (host.graph_id, host.walk_table())


def test_glide_errors_keep_their_types_and_messages():
    inst = random_section2(3)
    ref, host = inst.refinement, inst.trimmed
    cover = next(enumerate_matchings(inst.plus)).cover_map(inst.plus)
    with pytest.raises(errors.PreconditionViolated, match="unknown glide mode 'x'"):
        glide(host, ref, cover, inst.mids[0], "x")
    gone = inst.boundary.full_path[0]
    with pytest.raises(errors.PreconditionViolated,
                       match=f"glide start {gone} is not in the host graph"):
        glide(host, ref, cover, gone, FRAME)
    site = inst.boundary.inner[0]
    with pytest.raises(errors.PreconditionViolated, match=f"vertex {site} is not matched"):
        glide(host, ref, {}, site, FRAME)
    # a midpoint whose primal edge keeps both ends has two first steps on the frame
    mid = next(m for m, e in ref.edge_of_mid.items() if m in host.vertices
               and {ref.source.edges[e].u, ref.source.edges[e].v} <= host.vertices.keys())
    with pytest.raises(errors.PreconditionViolated,
                       match=f"glide start {mid} has 2 possible first steps"):
        glide(host, ref, cover, mid, FRAME)
    # a plain grid under its own refinement: the matched edges join sites
    g = grid_graph(2, 2)
    cover = next(enumerate_matchings(g)).cover_map(g)
    with pytest.raises(errors.PreconditionViolated,
                       match=f"matched edge {cover[0]} at 0 does not lead to a midpoint"):
        glide(g, dual_refinement(g), cover, 0, DUAL)


def test_shift_accepts_exactly_the_alternating_paths():
    # every in/out pattern of a path of up to six edges
    for length in range(7):
        for pattern in product((False, True), repeat=length):
            mu = frozenset(k for k, held in enumerate(pattern) if held)
            path = list(range(length))
            if any(a == b for a, b in zip(pattern, pattern[1:])):
                with pytest.raises(errors.NotAlternating):
                    shift_edges(mu, [path])
            else:
                assert shift_edges(mu | {99}, [path]) == (mu ^ set(path)) | {99}
