"""Matching enumeration, counting, the closed-form grid count, squarishness."""

import hashlib
import signal
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enumeration_oracle as oracle
from builders import diamond_graph, fan_square
from dimerforge import matchings
from dimerforge.aztec import aztec_graph, aztec_pair
from dimerforge.bijections import temperley_instance
from dimerforge.errors import FrontierTooWide, NotAMatching
from dimerforge.generators import (
    _reweight,
    diagonal_grid,
    grid_graph,
    hexagon_graph,
    random_plane_graph,
    random_section2,
    random_symmetric,
    random_transport,
    random_trimmed,
)
from dimerforge.matchings import (
    count_matchings,
    enumerate_matchings,
    kasteleyn_grid_count,
    squarish,
)
from dimerforge.planar import Edge, PlanarGraph, Vertex, parse_graph, remove_vertices
from dimerforge.refine import dual_refinement, symmetrize, trimmed_square


def test_enumerate_square():
    g = grid_graph(2, 2)
    assert sum(1 for _ in enumerate_matchings(g)) == 2


def test_enumerate_odd_graph_empty():
    assert list(enumerate_matchings(grid_graph(3, 1))) == []


def test_enumeration_order_is_lexicographic():
    g = grid_graph(2, 4)
    seqs = [m.sorted_edges() for m in enumerate_matchings(g)]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs)) == 5


def test_enumeration_golden_order():
    g = grid_graph(2, 2)
    assert [m.sorted_edges() for m in enumerate_matchings(g)] == [(0, 3), (1, 2)]


def _oracle_families():
    """(label, graph) for every generator family, graphs whose vertex and edge
    ids have gaps, a disconnected graph, odd graphs and the empty graph."""
    yield from ((f"grid{c}x{r}", grid_graph(c, r)) for c, r in ((1, 2), (2, 3), (4, 4), (4, 5)))
    yield from ((f"ladder{k}", grid_graph(k, 2)) for k in (2, 5))
    yield "diamond", diamond_graph()
    yield from ((f"diagonal{k}", diagonal_grid(k)) for k in (2, 3))
    yield from ((f"hexagon{m}", hexagon_graph(m)[0]) for m in (1, 2))
    yield "fan-square", fan_square()
    for seed in range(6):
        yield from ((f"plane{seed}-{w}", random_plane_graph(seed, weighted=w)) for w in (False, True))
        yield f"symmetric{seed}", random_symmetric(seed)[0]
        yield f"trimmed{seed}", random_trimmed(seed)[0]
        inst = random_section2(seed)
        yield f"section2-{seed}-plus", inst.plus
        yield f"section2-{seed}-minus", inst.minus
    hosts = {}
    for seed in (0, 1, 3, 4, 10):  # corner-marked grids, ladders, both hexagons
        for plain_path in (True, False):
            inst, _ = random_transport(seed, require_plain_path=plain_path)
            hosts.update({h.graph_id: h for h in (inst.host_plain, inst.host_prime)})
    yield from ((f"transport-{gid}", h) for gid, h in hosts.items())
    for n in (1, 2, 3):
        yield from ((f"aztec-{variant}{n}", side.graph)
                    for variant, side in zip(("T", "Tp"), aztec_pair(n)))
    grid = grid_graph(4, 4)
    yield "grid4x4-minus-corners", remove_vertices(grid, [0, 15])
    yield "grid4x4-minus-middle", remove_vertices(grid, [5, 6])
    # one colour class loses two vertices, so no perfect matching: inside
    # the grid, and beside a corner, which is then left with no edge
    yield "grid4x4-minus-diagonal", remove_vertices(grid, [5, 10])
    yield "grid4x4-corner-cut-off", remove_vertices(grid, [1, 4])
    yield "path8", grid_graph(8, 1)  # one matching, each edge forced by the last
    # enumeration ignores weights: a zero-weight edge is still listed
    yield "grid3x4-zero-edge", _reweight(grid_graph(3, 4), {0: Fraction(0)})
    plane = random_plane_graph(2, weighted=True)
    yield "plane2-minus-two", remove_vertices(plane, sorted(plane.vertices)[1:3])
    yield "trimmed-two-blocks", trimmed_square(2, [(0, 3)])
    yield "path3", grid_graph(3, 1)
    yield "grid3x3", grid_graph(3, 3)
    yield "empty", PlanarGraph.trusted({}, {})


def test_enumeration_matches_set_oracle_on_every_family():
    counts = {}
    for label, g in _oracle_families():
        got = [m.sorted_edges() for m in enumerate_matchings(g)]
        assert got == [m.sorted_edges() for m in oracle.enumerate_matchings(g)], label
        counts[label] = len(got)
    assert counts["path3"] == counts["grid3x3"] == 0
    assert counts["grid4x4-minus-diagonal"] == counts["grid4x4-corner-cut-off"] == 0
    assert counts["empty"] == counts["path8"] == 1
    assert counts["grid3x4-zero-edge"] == 11
    assert len(counts) == 75


@pytest.mark.parametrize("build, count, digest", [
    (lambda: grid_graph(6, 6), 6728,
     "0f8153b30a86fb1ee861218558977f1b12dbf61d6462f165880c5626e29ca40b"),
    (lambda: aztec_graph(4, "T").graph, 3328,
     "b1e1a3fa557594dc6c0cd265ea9f5174f869226ca0cc71341d15ac796d2cd746"),
    (lambda: random_transport(1)[0].host_prime, 3328,
     "2cfc03c00520341d4baba57ee7c8b45cf1b4c1e2ad9fd5e8f92350511413316a"),
    (lambda: random_transport(1)[0].host_plain, 3328,
     "9c90440dad1a4d28424b785fb1a79c412fd37118bb876a7feb714c2d7ede73e1"),
], ids=["grid6x6", "aztec-T4", "transport-1-prime", "transport-1-plain"])
def test_enumerated_matching_sequence_is_pinned(build, count, digest):
    seq = [m.sorted_edges() for m in enumerate_matchings(build())]
    assert len(seq) == count
    assert hashlib.sha256(repr(seq).encode()).hexdigest() == digest


def test_enumeration_is_lazy():
    # the 14x14 grid has about 10^23 matchings: only a lazy enumerator
    # returns its first three, and the alarm stops an eager one
    def expire(signum, frame):
        raise TimeoutError("enumerate_matchings did not yield lazily")

    g = grid_graph(14, 14)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 20)
    try:
        first = list(islice(enumerate_matchings(g), 3))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert [m.sorted_edges() for m in first] == \
        [m.sorted_edges() for m in islice(oracle.enumerate_matchings(g), 3)]


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


def _count_differential_families():
    """(label, graph) for one member of each family whose count no other
    test compares with the enumerator."""
    inst = random_section2(3)
    yield from (("section2-plus", inst.plus), ("section2-minus", inst.minus),
                ("section2-doubled", symmetrize(inst)))
    yield "trimmed-stage", random_trimmed(0)[0]
    yield "diagonal4", diagonal_grid(4)
    yield "hexagon1", hexagon_graph(1)[0]
    for n in (1, 2, 3):
        yield from ((f"aztec-{variant}{n}", side.graph)
                    for variant, side in zip(("T", "Tp"), aztec_pair(n)))
    yield "temperley-host", temperley_instance(dual_refinement(grid_graph(3, 3)), 0).host
    yield "grid4x4-zero-edge", _reweight(grid_graph(4, 4), {0: Fraction(0), 5: Fraction(2, 3)})


def test_count_matches_enumeration_on_every_untested_family():
    counts = {}
    for label, g in _count_differential_families():
        counts[label] = count_matchings(g)
        assert counts[label] == sum(m.weight(g) for m in enumerate_matchings(g)), label
    assert counts["section2-doubled"] == 2 ** 3 * counts["section2-plus"] ** 2 == 392
    assert counts["aztec-T3"] == counts["aztec-Tp3"] == 60
    assert counts["temperley-host"] == 192 and counts["hexagon1"] == 0
    assert counts["grid4x4-zero-edge"] not in (0, 36)


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_count_plan_width_of_the_square_grid_is_its_side(k):
    assert matchings._count_plan(grid_graph(k, k))[1] == k


def test_count_reaches_the_16x16_grid():
    assert count_matchings(grid_graph(16, 16)) == kasteleyn_grid_count(8, 8)


class _Unread(tuple):
    """Plan steps that fail when a layer of the count reads them."""

    def __iter__(self):
        raise AssertionError("a counting layer ran")


def test_a_plan_wider_than_the_limit_is_refused_before_any_layer(monkeypatch):
    real = matchings._count_plan
    monkeypatch.setattr(matchings, "_count_plan", lambda g: (_Unread(real(g)[0]), *real(g)[1:]))
    monkeypatch.setattr(matchings, "MAX_COUNT_WIDTH", 3)
    with pytest.raises(FrontierTooWide, match="needs 4 frontier slots, more than the limit of 3"):
        count_matchings(grid_graph(4, 4))
    # a plan exactly as wide as the limit is counted
    monkeypatch.setattr(matchings, "MAX_COUNT_WIDTH", 4)
    with pytest.raises(AssertionError, match="a counting layer ran"):
        count_matchings(grid_graph(4, 4))
    monkeypatch.setattr(matchings, "_count_plan", real)
    assert count_matchings(grid_graph(4, 4)) == 36


def test_disconnected_count():
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
