"""Spanning tree enumeration/counting, sampling, banded forests, class
weights, independence reports."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, islice
from types import SimpleNamespace

import pytest

from builders import diamond_graph
from dimerforge import errors
from dimerforge.aztec import aztec_graph
from dimerforge.generators import (
    diagonal_grid,
    grid_graph,
    hexagon_graph,
    random_exit_side,
    random_plane_graph,
    random_section2,
    random_symmetric,
    random_transport,
    random_trimmed,
)
from dimerforge.matchings import count_matchings, enumerate_matchings
from dimerforge.planar import (
    WALK_ROW_CAP,
    Edge,
    PlanarGraph,
    Vertex,
    check_reflection_symmetry,
    remove_vertices,
)
from dimerforge.bijections import transport_instance
from dimerforge.refine import dual_refinement
from dimerforge import trees
from dimerforge.trees import (
    _forced_tree_weight,
    chi_square_sf,
    class_weight,
    classify_components,
    count_spanning_trees,
    dual_forest,
    enumerate_spanning_trees,
    independence_report,
    independence_variables,
    orient_edge_set,
    split_seed,
    tec_forest_to_matching,
    tec_matching_to_forest,
    ust_sample,
)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_spanning_trees(grid_graph(2, 2), 0)) == 4
    assert sum(1 for _ in enumerate_spanning_trees(grid_graph(3, 3), 0)) == 192


def test_enumeration_order_is_pinned():
    got = [sorted(t.edge_set) for t in enumerate_spanning_trees(grid_graph(3, 2), 0)]
    assert got == [[0, 1, 2, 4, 5], [0, 1, 2, 4, 6], [0, 1, 2, 5, 6], [0, 1, 3, 4, 5],
                   [0, 1, 3, 4, 6], [0, 1, 3, 5, 6], [0, 1, 4, 5, 6], [0, 2, 3, 4, 5],
                   [0, 2, 3, 4, 6], [0, 2, 3, 5, 6], [0, 2, 4, 5, 6], [1, 2, 3, 4, 5],
                   [1, 2, 3, 4, 6], [1, 2, 3, 5, 6], [1, 2, 4, 5, 6]]


@pytest.mark.parametrize("g, count, digest", [
    (grid_graph(4, 3), 2415, "c16b7fdd639e1092936eaf00c5bb6f0db5f6b1f365faa3824c0abaa9bb198b03"),
    (diagonal_grid(3), 192, "ebfb79401ea42fa8e8e95a8017deaa766a75a51bb28b8435b4e8f23ae6596184"),
])
def test_enumerated_tree_sequence_is_pinned(g, count, digest):
    rows = [(t.host, t.roots, t.assignments)
            for t in enumerate_spanning_trees(g, min(g.vertices))]
    assert len(rows) == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_enumerated_trees_equal_their_validated_orientation():
    # enumeration orients each tree without the validator; the validator agrees
    graphs = [grid_graph(1, 1), grid_graph(3, 3), diamond_graph()]
    graphs += [random_plane_graph(seed, weighted=True) for seed in range(4)]
    checked = 0
    for g in graphs:
        for root in {min(g.vertices), max(g.vertices)}:
            for t in enumerate_spanning_trees(g, root):
                assert t == orient_edge_set(g, t.edge_set, (root,))
                checked += 1
    assert checked > 400


def test_enumeration_of_a_disconnected_graph_yields_nothing():
    g = grid_graph(2, 2)
    # two disjoint edges: every include/exclude branch runs out of edges
    # before it has n - 1 of them
    split = PlanarGraph.build(dict(g.vertices), {0: g.edges[0], 3: g.edges[3]},
                              require_connected=False)
    assert list(enumerate_spanning_trees(split, 0)) == []
    assert count_spanning_trees(split) == 0


def test_single_edge_tree():
    g = grid_graph(2, 1)
    trees = list(enumerate_spanning_trees(g, 0))
    assert len(trees) == 1
    assert trees[0].assignments == ((1, 0, 0),)


def test_count_matches_enumeration():
    for seed in range(8):
        g = random_plane_graph(seed, weighted=(seed % 2 == 1))
        total = sum(t.weight(g) for t in enumerate_spanning_trees(g, min(g.vertices)))
        assert count_spanning_trees(g) == total


def test_weighted_count_four_cycle():
    g = grid_graph(2, 2)
    edges = {eid: Edge(eid, e.u, e.v, Fraction(2) if eid == 0 else Fraction(1))
             for eid, e in g.edges.items()}
    wg = PlanarGraph.build(dict(g.vertices), edges)
    by_det = count_spanning_trees(wg)
    by_enum = sum(t.weight(wg) for t in enumerate_spanning_trees(wg, 0))
    assert by_det == by_enum


def test_forest_validation():
    g = grid_graph(2, 2)
    with pytest.raises(errors.PreconditionViolated):
        orient_edge_set(g, [0, 1], (0,))  # vertex 3 left out
    with pytest.raises(errors.PreconditionViolated):
        orient_edge_set(g, [0, 1, 2, 2], (0,))  # a spanning tree with edge 2 listed twice
    with pytest.raises(errors.PreconditionViolated):
        # the exits of a two-cycle of parents: 0 and 1 both exit along edge 0
        orient_edge_set(g, [0, 0, 3], (3,))


def test_orient_edge_set_rejects_edges_beyond_a_forest():
    with pytest.raises(errors.PreconditionViolated):
        orient_edge_set(grid_graph(2, 2), [0, 1, 2, 3], (0,))  # the whole 4-cycle
    g = grid_graph(3, 2)
    with pytest.raises(errors.PreconditionViolated):
        # a spanning tree toward 0 plus the edge that closes its left square
        orient_edge_set(g, [0, 1, 2, 4, 5, 3], (0,))
    with pytest.raises(errors.PreconditionViolated):
        orient_edge_set(g, [0, 1, 2, 4, 5, 5], (0,))  # a repeated id
    assert orient_edge_set(g, [0, 1, 2, 4, 5], (0,)).edge_set == {0, 1, 2, 4, 5}


def test_ust_deterministic_and_uniform():
    g = grid_graph(2, 2)
    assert ust_sample(g, 0, 5) == ust_sample(g, 0, 5)
    counts = Counter()
    draws = 4000
    for k in range(draws):
        counts[ust_sample(g, 0, split_seed(3, k)).edge_set] += 1
    assert len(counts) == 4
    expect = draws / 4
    sigma = (draws * 0.25 * 0.75) ** 0.5
    for value in counts.values():
        assert abs(value - expect) <= 5 * sigma


def test_ust_sampled_trees_are_pinned():
    # the walk's tree for each seed is part of the reproducibility contract
    rows = []
    dg = diagonal_grid(5)
    for k in range(40):
        t = ust_sample(dg, min(dg.vertices), split_seed(21, k))
        rows.append((t.host, t.roots, t.assignments))
    for s in range(10):
        g = random_plane_graph(s, weighted=True)
        for k in range(4):
            t = ust_sample(g, max(g.vertices), split_seed(s, k))
            rows.append((t.host, t.roots, t.assignments))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "90c8bb3b70ba80d41a4c53b673e5037829b15e69c6e753754c95451315e8141a"


def _randrange_walk(g, root, seed, stepped):
    """The walk drawn as ``randrange`` below the exit total, then a scan that
    subtracts the scaled exit weights in edge-id order until it goes below
    zero: the oracle for ``ust_sample``'s raw-bit steps.  Adds the exit total
    of every step to ``stepped``."""
    exits = g.weight_table().exits
    rng = random.Random(seed)
    in_tree = {root}
    step = {}
    assignments = []
    for start in sorted(g.vertices):
        v = start
        while v not in in_tree:
            total = sum(x for _, _, x in exits[v])
            stepped.add(total)
            r = rng.randrange(total)
            for eid, w, x in exits[v]:
                r -= x
                if r < 0:
                    break
            step[v] = (eid, w)
            v = w
        v = start
        while v not in in_tree:
            in_tree.add(v)
            eid, w = step[v]
            assignments.append((v, eid, w))
            v = w
    return trees.RootedForest(g.graph_id, (root,), tuple(sorted(assignments)))


def test_ust_sample_draws_the_trees_of_the_randrange_walk():
    graphs = [diagonal_grid(k) for k in range(1, 7)]
    graphs += [grid_graph(a, b) for a, b in ((2, 2), (3, 2), (4, 4), (6, 3))]
    graphs += [random_plane_graph(s, weighted=True) for s in range(10)]
    graphs += [_reweighted(grid_graph(a, b), _MIXED) for a, b in ((3, 3), (4, 4), (5, 3))]
    graphs += [random_symmetric(s)[0] for s in range(6)]
    graphs += [_reweighted(grid_graph(4, 4), _LARGE)]
    # ids with gaps, so that vertex positions and ids differ: a grid without a
    # corner and an inner vertex, and a refinement (trusted, not geometric)
    # without a boundary vertex of its source
    graphs += [remove_vertices(grid_graph(4, 4), [0, 6])]
    source = grid_graph(3, 3)
    graphs += [remove_vertices(dual_refinement(source).graph,
                               [sorted(source.infinite_face_vertices())[1]])]
    assert not graphs[-1].geometric
    stepped = set()
    for i, g in enumerate(graphs):
        verts = sorted(g.vertices)
        for root in {verts[0], verts[len(verts) // 2], verts[-1]}:
            for k in range(40):
                seed = split_seed(i, k)
                assert ust_sample(g, root, seed) == _randrange_walk(g, root, seed, stepped)
    # randrange(1) and randrange(2^j) draw a bit more than they need, and the
    # raw-bit step must reject those draws too
    assert 1 in stepped and {2, 4, 8} <= stepped
    # steps drew from tabulated rows and from rows too long to tabulate
    assert any(1 << t.bit_length() > WALK_ROW_CAP for t in stepped)


def _relabelled(g, f):
    """``g`` with each vertex id v renamed f(v), edge ids kept."""
    return PlanarGraph.build({f(v): Vertex(f(v), p.pos) for v, p in g.vertices.items()},
                             {i: Edge(i, f(e.u), f(e.v), e.weight) for i, e in g.edges.items()})


def test_ust_sample_and_sampled_reports_follow_a_monotone_relabelling():
    # a monotone map keeps the walk's start order and every exit order, so
    # each seed draws the same tree under the new names
    def f(v):
        return 3 * v + 7

    for s in range(4):
        g, cert, root = random_exit_side(s, s % 2)
        h = _relabelled(g, f)
        assert len(h.vertices) < max(h.vertices)
        for k in range(30):
            seed = split_seed(s, k)
            old = ust_sample(g, root, seed).assignments
            assert ust_sample(h, f(root), seed).assignments == \
                tuple((f(v), e, f(w)) for v, e, w in old)
        rep = independence_report(g, cert, root, "exit-side", samples=200, seed=s)
        new = independence_report(h, check_reflection_symmetry(h, cert.axis_y), f(root),
                                  "exit-side", samples=200, seed=s)
        assert new.variables == tuple(map(f, rep.variables))
        assert new.table == rep.table and new.chi_square == rep.chi_square


class _RawBitsOnly(random.Random):
    def randrange(self, *args, **kwargs):
        raise AssertionError("the walk calls randrange")

    def _randbelow(self, n):
        raise AssertionError("the walk calls _randbelow")

    def random(self):
        raise AssertionError("the walk calls random")


def test_ust_sample_reads_only_raw_bits(monkeypatch):
    # the seed -> tree contract rests on the Mersenne Twister bit stream
    # alone, for single trees and for the sampled reports' reseeded
    # generator; the generators keep the real ``random.Random``
    monkeypatch.setattr(trees, "random", SimpleNamespace(Random=_RawBitsOnly))
    test_ust_sampled_trees_are_pinned()
    test_sampled_independence_tables_are_pinned()


def test_ust_sample_is_a_valid_forest():
    # the search from the root orients the drawn edge set: it must span, hold
    # no extra edge and give every vertex the exit the walk assigned
    graphs = [diagonal_grid(4), diagonal_grid(5)]
    graphs += [random_plane_graph(s, weighted=True) for s in range(8)]
    for i, g in enumerate(graphs):
        root = sorted(g.vertices)[i % len(g.vertices)]
        for k in range(25):
            t = ust_sample(g, root, split_seed(i, k))
            assert orient_edge_set(g, t.edge_set, (root,)) == t


def test_ust_sample_rejects_bad_root_and_disconnected_graphs():
    with pytest.raises(errors.PreconditionViolated):
        ust_sample(grid_graph(2, 2), 9, 0)
    g = grid_graph(2, 2)
    # two disjoint edges: a walk from the far edge never meets the root
    split = PlanarGraph.build(dict(g.vertices), {0: g.edges[0], 3: g.edges[3]},
                              require_connected=False)
    with pytest.raises(errors.PreconditionViolated):
        ust_sample(split, 0, 0)


def test_ust_weighted_frequencies():
    g = grid_graph(2, 2)
    edges = {eid: Edge(eid, e.u, e.v, Fraction(2) if eid == 0 else Fraction(1))
             for eid, e in g.edges.items()}
    wg = PlanarGraph.build(dict(g.vertices), edges)
    draws = 3000
    hit = sum(0 in ust_sample(wg, 0, split_seed(4, k)).edge_set for k in range(draws))
    p = 6 / 7  # trees containing the heavy edge carry 6 of 7 weight units
    sigma = (draws * p * (1 - p)) ** 0.5
    assert abs(hit - draws * p) <= 5 * sigma


# -- the per-graph integer weight table -----------------------------------------


_MIXED = (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(0))
# exit totals far above the walk table's cap, at moderate weight ratios
_LARGE = (Fraction(1000003, 1000), Fraction(999983, 999), Fraction(2), Fraction(5, 3))


def _reweighted(g, weights):
    """``g`` with edge ``i`` carrying ``weights[i % len(weights)]``."""
    edges = {eid: Edge(eid, e.u, e.v, weights[eid % len(weights)])
             for eid, e in g.edges.items()}
    return PlanarGraph.build(dict(g.vertices), edges)


def _per_end_table(g):
    """The weight table from each edge end's Fraction: d_v the lcm of the
    weight denominators at v, each nonzero weight times d_v, and whether
    the positive-weight edges reach every vertex from the first."""
    scale = {v: math.lcm(*(g.edges[e].weight.denominator for e in ids))
             for v, ids in g.adj.items()}
    exits = {v: tuple((e, g.edges[e].other(v), int(g.edges[e].weight * scale[v]))
                      for e in ids if g.edges[e].weight != 0)
             for v, ids in g.adj.items()}
    seen, todo = set(), [next(iter(g.vertices))]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo += [u for _, u, _ in exits[v]]
    return scale, exits, len(seen) == len(g.vertices)


def test_weight_table_matches_the_per_end_fraction_formula():
    graphs = [grid_graph(4, 3), diamond_graph(), diagonal_grid(4), grid_graph(4, 2),
              hexagon_graph(2)[0]]
    graphs += [random_plane_graph(s, weighted) for s in range(20) for weighted in (False, True)]
    graphs += [random_symmetric(s)[0] for s in range(10)]
    graphs += [random_exit_side(s, s % 2)[0] for s in range(6)]
    graphs += [random_trimmed(s)[0] for s in range(10)]
    for s in range(10):
        inst = random_section2(s)
        graphs += [inst.refinement.graph, inst.trimmed, inst.plus, inst.minus]
    for s in range(4):
        inst, _ = random_transport(s)
        graphs += [inst.host_plain, inst.host_prime, inst.forest_graph, inst.smashed.graph]
    graphs += [aztec_graph(2).host]
    graphs += [_reweighted(grid_graph(a, b), w) for a, b in ((3, 3), (4, 4)) for w in (_MIXED, _LARGE)]
    # mixed denominators and a zero weight that cuts a vertex off
    graphs += [_reweighted(grid_graph(3, 2), (Fraction(0), Fraction(0), Fraction(3, 4)))]
    assert any(not _per_end_table(g)[2] for g in graphs)
    assert any(e.weight == 0 for g in graphs for e in g.edges.values())
    assert any(len({e.weight.denominator for e in g.edges.values()}) > 2 for g in graphs)
    for g in graphs:
        t = g.weight_table()
        assert (t.scale, t.exits, t.connected) == _per_end_table(g)


def test_ust_sample_builds_the_weight_table_once_per_graph(monkeypatch):
    from dimerforge import planar

    builds = []
    real = planar.WeightTable
    monkeypatch.setattr(planar, "WeightTable", lambda *args: builds.append(args) or real(*args))
    g = diagonal_grid(4)
    for k in range(200):
        ust_sample(g, min(g.vertices), split_seed(7, k))
    assert len(builds) == 1
    # the Laplacian rows read the same table
    assert count_spanning_trees(g) > 0
    assert len(builds) == 1
    # counting never builds the walk rows; the first draw builds one per vertex
    rows = []
    real_row = planar._walk_row
    monkeypatch.setattr(planar, "_walk_row", lambda out: rows.append(out) or real_row(out))
    h = diagonal_grid(5)
    assert count_matchings(h) >= 0 and count_spanning_trees(h) > 0
    assert len(builds) == 2 and rows == []
    for k in range(200):
        ust_sample(h, min(h.vertices), split_seed(7, k))
    assert len(builds) == 2 and len(rows) == len(h.vertices)


def test_walk_rows_match_the_exit_scan_and_hold_at_most_the_cap():
    # each row, tabulated or searched, gives the randrange walk's scan at every
    # draw next to a cumulative weight; only rows within the cap are tabulated
    graphs = [diagonal_grid(5), _reweighted(grid_graph(4, 4), _LARGE)]
    graphs += [random_plane_graph(s, weighted=True) for s in range(10)]
    kinds = set()
    for g in graphs:
        # rows and their neighbours are vertex positions
        ids = g.vertex_order()[0]
        assert len(g.walk_table()) == len(ids)
        for v, (k, pick) in zip(ids, g.walk_table()):
            out = g.weight_table().exits[v]
            assert k == sum(x for _, _, x in out).bit_length()
            tabulated = isinstance(pick, tuple)
            kinds.add(tabulated)
            assert tabulated == (1 << k <= WALK_ROW_CAP)
            assert not tabulated or len(pick) == 1 << k
            draws = {0, (1 << k) - 1}
            for c in accumulate(x for _, _, x in out):
                draws |= {c - 1, c}
            for r in draws:
                scan = r
                for eid, w, x in out:
                    scan -= x
                    if scan < 0:
                        break
                entry = pick[r]
                assert (entry and (entry[0], ids[entry[1]])) == \
                    ((eid, w) if scan < 0 else None)
    assert kinds == {True, False}


def test_ust_sample_rejects_a_graph_its_positive_weights_do_not_connect():
    # a 4-cycle whose two vertical sides weigh 0: two positive-weight edges apart
    wg = _reweighted(grid_graph(2, 2), (Fraction(1), Fraction(0), Fraction(0), Fraction(1)))
    for _ in range(2):  # the cached verdict raises again
        with pytest.raises(errors.PreconditionViolated):
            ust_sample(wg, 0, 0)
    assert count_spanning_trees(wg) == 0


def test_ust_sample_never_draws_a_zero_weight_edge():
    g = _reweighted(grid_graph(3, 3), _MIXED)
    zero = {eid for eid, e in g.edges.items() if e.weight == 0}
    drawn = set()
    for k in range(200):
        drawn |= ust_sample(g, 0, split_seed(5, k)).edge_set
    assert zero and not drawn & zero
    assert drawn == set(g.edges) - zero


def test_forced_tree_weight_with_mixed_denominators_matches_enumeration():
    g = _reweighted(grid_graph(3, 3), _MIXED)
    assert len(set(g.weight_table().scale.values())) > 1
    checked = 0
    for root in (0, 4, 8):
        assert _forced_tree_weight(g, root, {}) == _constrained_weight(g, root, {}) > 0
        others = [v for v in sorted(g.vertices) if v != root]
        for v, u in zip(others, others[1:]):
            for eid in g.adj[v]:  # zero-weight exits included
                forced = {v: [eid]}
                assert _forced_tree_weight(g, root, forced) == \
                    _constrained_weight(g, root, forced)
                forced[u] = list(g.adj[u][1:])
                assert _forced_tree_weight(g, root, forced) == \
                    _constrained_weight(g, root, forced)
                checked += 1
    assert checked > 40


def test_sampled_independence_tables_are_pinned():
    # sampled exit-side indicators on instances that have variables, and the
    # suite's hv batches on the 5x5 diagonal grid
    tables = []
    for s in range(4):
        g, cert, root = random_exit_side(s, s % 2)
        rep = independence_report(g, cert, root, "exit-side", samples=500, seed=s)
        assert rep.variables and rep.passed
        tables.append(rep.render())
    dg = diagonal_grid(5)
    cert = check_reflection_symmetry(dg, Fraction(0))
    for seed in (1, 2):
        tables.append(independence_report(dg, cert, cert.axis_vertices[0], "hv",
                                          samples=500, seed=seed).render())
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == \
        "782415c962e97b8926584e3a0953cdb686377b029ea7dbe28331122a4611725f"


def test_sampled_independence_tallies_the_trees_of_ust_sample():
    # sample k of a sampled report is the tree ust_sample draws at the child
    # seed split_seed(seed, k), though the report reseeds one generator
    dg = diagonal_grid(5)
    cert = check_reflection_symmetry(dg, Fraction(0))
    cases = [(*random_exit_side(s, s % 2), "exit-side") for s in range(2)]
    cases.append((dg, cert, cert.axis_vertices[0], "hv"))
    for seed, (g, cert, root, kind) in enumerate(cases):
        rep = independence_report(g, cert, root, kind, samples=300, seed=seed)
        tally = Counter()
        for k in range(300):
            parent = {v: w for v, _, w in ust_sample(g, root, split_seed(seed, k)).assignments}
            tally[tuple(trees._exit_bit(g, cert, kind, v, parent[v])
                        for v in rep.variables)] += 1
        assert rep.variables and len(rep.table) == 2 ** len(rep.variables)
        assert dict(rep.table) == {bits: tally[bits] for bits, _ in rep.table}


def test_sampled_independence_needs_a_variable():
    g, _ = random_symmetric(0)
    cert = check_reflection_symmetry(g, Fraction(0))
    assert independence_variables(g, cert, 0, "exit-side") == ()
    for samples in (0, 50):
        with pytest.raises(errors.HypothesisViolated, match="no exit-side variables"):
            independence_report(g, cert, 0, "exit-side", samples=samples)


# (stat, p rendered as the report prints it), taken from mpmath's regularized
# upper incomplete gamma; each row runs from 0 past the 1e-6 cut
CHI_SQUARE_TAIL = {
    1: [(0, "1.000e+00"), (0.5, "4.795e-01"), (3.84, "5.004e-02"), (10, "1.565e-03"),
        (25, "5.733e-07"), (30, "4.320e-08")],
    2: [(0, "1.000e+00"), (2, "3.679e-01"), (5.99, "5.004e-02"), (13.8, "1.008e-03"),
        (28, "8.315e-07"), (40, "2.061e-09")],
    3: [(0, "1.000e+00"), (1, "8.013e-01"), (7.81, "5.011e-02"), (16.3, "9.842e-04"),
        (30, "1.380e-06"), (40, "1.066e-08")],
    15: [(0, "1.000e+00"), (8, "9.238e-01"), (25, "4.994e-02"), (37.7, "9.991e-04"),
         (60, "2.522e-07"), (70, "4.467e-09")],
    63: [(0, "1.000e+00"), (40, "9.895e-01"), (82.5, "5.022e-02"), (110, "2.290e-04"),
         (140, "8.872e-08"), (160, "2.170e-10")],
    255: [(0, "1.000e+00"), (200, "9.954e-01"), (293.2, "5.020e-02"), (350, "7.133e-05"),
          (400, "1.660e-08"), (450, "5.775e-13")],
}


def test_chi_square_sf_sane():
    assert 0.3 < chi_square_sf(2.0, 2) < 0.5
    assert chi_square_sf(100.0, 2) < 1e-6
    for dof, row in CHI_SQUARE_TAIL.items():
        assert [f"{chi_square_sf(stat, dof):.3e}" for stat, _ in row] == [p for _, p in row]
    # the closed forms at the two starting points of the recurrence
    for stat in (0.01, 0.5, 1.0, 3.84, 10.0, 50.0, 200.0, 1000.0):
        assert chi_square_sf(stat, 2) == pytest.approx(math.exp(-stat / 2), rel=1e-12)
        assert chi_square_sf(stat, 1) == pytest.approx(math.erfc(math.sqrt(stat / 2)), rel=1e-12)


# -- dual forests, channels and bays ------------------------------------------


def test_dual_forest_of_spanning_tree():
    g = grid_graph(3, 3)
    for tree in list(enumerate_spanning_trees(g, 0))[:20]:
        dual = dual_forest(g, tree.edge_set)
        # acyclic, spans every bounded face, one component per missing edge
        faces = {f for members in dual.components for f in members}
        assert len(faces) == 4
        assert len(dual.components) == 4 - len(dual.primal_edges)


def test_dual_forest_records_the_faces_of_each_dual_edge():
    # the forest-to-matching writer reads these pairs instead of the faces
    g = grid_graph(4, 3)
    traced = g.trace_faces()
    dual_edges = 0
    for tree in islice(enumerate_spanning_trees(g, 0), 40):
        dual = dual_forest(g, tree.edge_set)
        assert dual.face_pairs == tuple(traced.sides_of_edge(g.edges[e])
                                        for e in dual.primal_edges)
        dual_edges += len(dual.primal_edges)
    assert dual_edges > 40


def test_dual_forest_detects_cycle():
    g = grid_graph(3, 3)
    boundary = g.infinite_face_edges()
    with pytest.raises(errors.NotBanded):
        # keeping only the boundary edges leaves all four interior duals,
        # which close a cycle around the center
        dual_forest(g, boundary)


def _contacts(dual, members):
    return [f for f in members if f in dual.exits]


def _ladder_rows():
    """grid_graph(4, 2) and the forest of its top and bottom rows."""
    g = grid_graph(4, 2)
    vid = {(int(v.pos[0]), int(v.pos[1])): v.id for v in g.vertices.values()}
    top = [vid[(x, 1)] for x in range(4)]
    bottom = [vid[(x, 0)] for x in range(4)]
    edges = [g.edge_between(a, b).id for a, b in zip(top, top[1:])]
    edges += [g.edge_between(a, b).id for a, b in zip(bottom, bottom[1:])]
    return g, top, bottom, orient_edge_set(g, edges, (top[0], bottom[0]))


def test_classify_single_band_all_bays():
    g = grid_graph(3, 3)
    corners = [v for v in g.vertices if g.degree(v) == 2]
    u, up = corners[0], corners[-1]
    for tree in list(enumerate_spanning_trees(g, up))[:25]:
        dual = classify_components(g, tree, [(u, up)], g)
        assert dual == dual_forest(g, tree.edge_set)
        assert all(len(_contacts(dual, members)) == 1 for members in dual.components)


def test_classify_two_band_ladder_channel():
    g, top, bottom, forest = _ladder_rows()
    pairs = [(bottom[-1], bottom[0]), (top[-1], top[0])]
    dual = classify_components(g, forest, pairs, g)
    assert dual == dual_forest(g, forest.edge_set)
    # one channel: all three squares, reaching the infinite face at both ends
    (channel,) = dual.components
    assert len(channel) == 3 and len(_contacts(dual, channel)) == 2


def test_classify_rejects_a_forest_with_more_bands_than_pairs():
    g, top, bottom, forest = _ladder_rows()
    with pytest.raises(errors.NotBanded, match="forest has 2 components for 1 pairs"):
        classify_components(g, forest, [(top[-1], top[0])], g)


def test_classify_rejects_a_contact_face_on_two_arcs():
    # grid_graph(3, 2) with bands (1,0)-(0,0)-(0,1)-(1,1) and (2,0)-(2,1):
    # both squares form one dual component whose only contact face, the
    # right square, meets the infinite face on both arcs of the band gap
    g = grid_graph(3, 2)
    vid = {(int(v.pos[0]), int(v.pos[1])): v.id for v in g.vertices.values()}
    links = [((1, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 1), (1, 1)), ((2, 0), (2, 1))]
    edges = [g.edge_between(vid[a], vid[b]).id for a, b in links]
    forest = orient_edge_set(g, edges, (vid[(1, 1)], vid[(2, 1)]))
    pairs = [(vid[(1, 0)], vid[(1, 1)]), (vid[(2, 0)], vid[(2, 1)])]
    with pytest.raises(errors.ClassificationFailed, match="on several arcs"):
        classify_components(g, forest, pairs, g)


def test_classify_rejects_a_channel_off_a_band_gap():
    # grid_graph(3, 2) without its bottom middle vertex, which the band path
    # (0,0)-(0,1)-(1,1)-(2,1)-(2,0) goes around: both squares form one dual
    # component reaching the infinite face on either side of the missing
    # vertex, twice on the same arc (found by a search over edge subsets)
    g = grid_graph(3, 2)
    vid = {(int(v.pos[0]), int(v.pos[1])): v.id for v in g.vertices.values()}
    sub = remove_vertices(g, [vid[(1, 0)]])
    path = [vid[p] for p in ((0, 0), (0, 1), (1, 1), (2, 1), (2, 0))]
    edges = [g.edge_between(a, b).id for a, b in zip(path, path[1:])]
    forest = orient_edge_set(sub, edges, (vid[(2, 1)],))
    with pytest.raises(errors.ClassificationFailed,
                       match=r"channel arcs \[1, 1\] are not opposite arcs of a band gap"):
        classify_components(g, forest, [(vid[(2, 0)], vid[(2, 1)])], sub)


def test_banded_forest_rejects_unpaired_channel_faces():
    # grid_graph(4, 2) marked by a plain run that is not a path: the plain
    # corner's square stays a bay while the channel takes the primed
    # corner's square (found by a search over edge subsets)
    g = grid_graph(4, 2)
    vid = {(int(v.pos[0]), int(v.pos[1])): v.id for v in g.vertices.values()}
    plain = [vid[p] for p in ((2, 1), (0, 1), (1, 0))]
    prime = [vid[p] for p in ((3, 1), (3, 0), (2, 0))]
    inst = transport_instance(g, plain, prime, require_plain_path=False)
    links = [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 0), (2, 0)), ((2, 1), (3, 1))]
    edges = [g.edge_between(vid[a], vid[b]).id for a, b in links]
    forest = orient_edge_set(inst.forest_graph, edges, inst.prime_odd)
    # the classifier accepts the forest; the face pairing rejects it
    classify_components(g, forest, list(zip(inst.plain_odd, inst.prime_odd)),
                        inst.forest_graph)
    with pytest.raises(errors.ChannelPairingViolated,
                       match="faces 1 and 3 lie in different dual components"):
        tec_forest_to_matching(inst, forest)


def test_classify_rejects_unpaired_forest():
    g, top, bottom, forest = _ladder_rows()
    with pytest.raises(errors.BandPairingViolated):
        classify_components(g, forest, [(top[0], bottom[0]), (top[-1], bottom[-1])], g)


def test_tec_roundtrip_hexagon():
    g, plain, prime = hexagon_graph(1)
    inst = transport_instance(g, plain, prime, require_plain_path=False)
    mus = list(enumerate_matchings(inst.host_prime))
    forests = [tec_matching_to_forest(inst, mu) for mu in mus]
    assert len(set(forests)) == len(forests)
    for mu, forest in zip(mus, forests):
        assert tec_forest_to_matching(inst, forest).edges == mu.edges
        assert forest.weight(inst.forest_graph) == mu.weight(inst.host_prime)


def test_tec_with_weighted_dual_edges():
    # the extended weighting: forest weight picks up the dual weights of the
    # interior edges missing from the forest.  No banded forest of
    # hexagon_graph(1) has a dual edge, so the hexagon of side 2 is used.
    from dimerforge.trees import banded_forest_weight, dual_forest

    g, plain, prime = hexagon_graph(2)
    dual_weights = {eid: Fraction(eid % 4 + 2, 3) for eid in g.edges}
    inst = transport_instance(g, plain, prime, require_plain_path=False,
                              dual_weights=dual_weights)
    source = inst.smashed.refinement.source
    dual_edges = 0
    for mu in islice(enumerate_matchings(inst.host_prime), 400):
        forest = tec_matching_to_forest(inst, mu)
        dual_edges += len(dual_forest(source, forest.edge_set).primal_edges)
        assert banded_forest_weight(inst, forest) == mu.weight(inst.host_prime)
        assert tec_forest_to_matching(inst, forest).edges == mu.edges
    assert dual_edges > 0


def test_smashed_even_faces_exit_to_every_primed_rooted_dual_forest():
    # why a dual component never holds two primed centers: a smashed corner
    # is in no forest, so its face always exits to the infinite face; with
    # their plain partners two primed centers would make four contact faces,
    # where a component may have two
    instances = checks = 0
    for k in range(40):
        inst, _ = random_transport(split_seed(11, k), require_plain_path=False)
        g0 = inst.forest_graph
        if len(g0.edges) > 14:
            continue
        instances += 1
        source = inst.smashed.refinement.source
        smashed = inst.plain_even_faces + inst.prime_even_faces
        for edges in combinations(sorted(g0.edges), len(g0.vertices) - len(inst.prime_odd)):
            try:
                forest = orient_edge_set(g0, edges, inst.prime_odd)
            except errors.PreconditionViolated:
                continue
            exits = dual_forest(source, forest.edge_set).exits
            assert all(f in exits for f in smashed)
            checks += len(smashed)
    assert (instances, checks) == (34, 1616)


def test_tec_constrained_sets_correspond():
    # containing a forced path matching on the matching side is equivalent
    # to containing the path in the forest (odd index) or keeping its dual
    # path inside a channel (even index)
    from dimerforge.bijections import (
        forced_path_matching,
        site_path_to_refinement,
    )

    g = grid_graph(4, 2)
    vid = {(int(v.pos[0]), int(v.pos[1])): v.id for v in g.vertices.values()}
    plain = [vid[(1, 1)], vid[(0, 1)], vid[(0, 0)]]
    prime = [vid[(3, 1)], vid[(3, 0)], vid[(2, 0)]]
    inst = transport_instance(g, plain, prime, require_plain_path=False)
    ref = inst.smashed.refinement
    top_sites = [vid[(x, 1)] for x in range(1, 4)]
    top = site_path_to_refinement(ref, top_sites)
    top_edges = {g.edge_between(a, b).id for a, b in zip(top_sites, top_sites[1:])}
    for mu in enumerate_matchings(inst.host_prime):
        forest = tec_matching_to_forest(inst, mu)
        has_forced = forced_path_matching(ref, top, drop_start=False) <= mu.edges
        assert has_forced == (top_edges <= forest.edge_set)


def test_tec_forests_and_round_trips_are_pinned():
    # one instance of each shape: hexagon1, grid3x2, two ladders, grid3x3,
    # and the first 60 matchings of hexagon2, the one with channels
    rows = []
    for k, first in [(0, None), (1, None), (2, None), (3, None), (9, None), (14, 60)]:
        inst, _ = random_transport(split_seed(11, k), require_plain_path=False)
        for mu in islice(enumerate_matchings(inst.host_prime), first):
            forest = tec_matching_to_forest(inst, mu)
            back = tec_forest_to_matching(inst, forest)
            assert back.edges == mu.edges
            rows.append((k, forest.roots, forest.assignments, sorted(back.edges)))
    assert len(rows) == 273
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "2866dd2e2e5716d5cdcc19d4c44575db7b328057cb7a288f6f3deecbd4a0755c"


def test_check_banded_builds_the_dual_forest_once_per_matching(monkeypatch):
    # the brute-force forest count is replaced, so only the conversions are
    # counted: the backward map classifies each forest, the forward map not
    from dimerforge import report

    inst, _ = random_transport(split_seed(9, 0), require_plain_path=False)
    matchings = sum(1 for _ in enumerate_matchings(inst.host_prime))
    monkeypatch.setattr(report, "_enumerate_banded", lambda inst: matchings)
    calls = []
    real = trees.dual_forest
    monkeypatch.setattr(trees, "dual_forest",
                        lambda *args: calls.append(args) or real(*args))
    assert report.check_banded(1, 9)[0]
    assert matchings == 4
    assert len(calls) == matchings


def test_tec_reduces_to_tree_correspondence():
    # a single mark pair on each side: banded forests are spanning trees
    g, plain, prime = hexagon_graph(1)
    inst = transport_instance(g, plain, prime, require_plain_path=False)
    trees = {t.edge_set for t in enumerate_spanning_trees(g, prime[0])}
    forests = {tec_matching_to_forest(inst, mu).edge_set
               for mu in enumerate_matchings(inst.host_prime)}
    assert forests == trees


def _exit_read_off(ref, host, mu, forest):
    """Whether each non-root of ``forest`` exits along the primal edge of
    its matched half-edge in ``mu``."""
    cover = mu.cover_map(host)
    return all(e == ref.edge_of_mid[host.edges[cover[v]].other(v)]
               for v, e, _ in forest.assignments)


def test_matching_to_forest_orients_each_vertex_along_its_read_exit():
    # the forest comes from a search of the exits read off the matching; the
    # peeling argument says the searched parent edge is the read exit
    from dimerforge.bijections import temperley_instance, temperley_matching_to_tree
    from dimerforge.refine import dual_refinement

    checked = 0
    for s in range(6):
        g = random_plane_graph(s)
        ref = dual_refinement(g)
        inst = temperley_instance(ref, min(g.infinite_face_vertices()))
        host = inst.host
        for mu in enumerate_matchings(host):
            forest = temperley_matching_to_tree(inst, mu)
            assert len(forest.assignments) == len(g.vertices) - 1
            assert _exit_read_off(ref, host, mu, forest)
            checked += 1
    for k in range(4):
        inst, _ = random_transport(split_seed(5, k), require_plain_path=False)
        ref, host = inst.smashed.refinement, inst.host_prime
        for mu in enumerate_matchings(host):
            forest = tec_matching_to_forest(inst, mu)
            assert len(forest.assignments) == len(inst.forest_graph.vertices) - len(forest.roots)
            assert _exit_read_off(ref, host, mu, forest)
            checked += 1
    assert checked == 249


# -- class weights and independence -------------------------------------------


def test_class_weight_diamond():
    g = diamond_graph()
    cert = check_reflection_symmetry(g, Fraction(0))
    left, right = cert.axis_vertices
    up = next(e for e in g.adj[left] if g.vertices[g.edges[e].other(left)].pos[1] > 0)
    assert class_weight(g, cert, right, [up], set()) == 2
    assert class_weight(g, cert, right, [up], {1}) == 2


def test_class_weight_empty_marking_is_total():
    g = diamond_graph()
    cert = check_reflection_symmetry(g, Fraction(0))
    assert class_weight(g, cert, cert.axis_vertices[0], [], set()) == 4


def test_class_weight_hypotheses():
    g = diamond_graph()
    cert = check_reflection_symmetry(g, Fraction(0))
    left, right = cert.axis_vertices
    up = next(e for e in g.adj[left] if g.vertices[g.edges[e].other(left)].pos[1] > 0)
    with pytest.raises(errors.HypothesisViolated):
        class_weight(g, cert, left, [up], set())  # root incident to the edge
    off_axis = next(v for v in g.vertices if v not in cert.axis_vertices)
    with pytest.raises(errors.HypothesisViolated):
        class_weight(g, cert, off_axis, [up], set())


def test_class_weight_grid_all_subsets_equal():
    g = grid_graph(4, 3)
    cert = check_reflection_symmetry(g, Fraction(1))
    axis = cert.axis_vertices
    root = axis[-1]
    marked = []
    for a in axis[:2]:
        ups = [e for e in g.adj[a] if g.vertices[g.edges[e].other(a)].pos[1] > 1]
        marked.append(ups[0])
    values = {class_weight(g, cert, root, marked, {i + 1 for i in range(2) if b >> i & 1})
              for b in range(4)}
    assert len(values) == 1


def test_independence_diamond():
    g = diamond_graph()
    cert = check_reflection_symmetry(g, Fraction(0))
    rep = independence_report(g, cert, cert.axis_vertices[1], "exit-side")
    assert rep.passed
    assert [w for _, w in rep.table] == [2, 2]


def test_independence_no_variables():
    # every other axis vertex keeps its axis edges, so the exact table would
    # be one cell weighing all the trees, a pass with nothing compared
    g, _ = random_symmetric(0)
    cert = check_reflection_symmetry(g, Fraction(0))
    with pytest.raises(errors.HypothesisViolated, match="no exit-side variables"):
        independence_report(g, cert, 0, "exit-side")


def test_independence_exit_side_enumerated():
    for seed in (2, 5):
        for end in (0, 1):
            g, cert, root = random_exit_side(seed, end)
            rep = independence_report(g, cert, root, "exit-side")
            assert rep.passed and rep.variables
            assert len(rep.table) == 2 ** len(rep.variables)


def test_exact_independence_fails_a_table_with_one_perturbed_cell(monkeypatch):
    # every valid input gives a uniform table, so the first cell's weight is
    # raised by hand: the exact verdict, its render and the suite check fail
    from dimerforge.report import check_independence

    real, calls = trees._forced_tree_weight, []

    def first_cell_raised(g, root, forced):
        calls.append(forced)
        return real(g, root, forced) + (len(calls) == 1)

    monkeypatch.setattr(trees, "_forced_tree_weight", first_cell_raised)
    g = diamond_graph()
    cert = check_reflection_symmetry(g, Fraction(0))
    rep = independence_report(g, cert, cert.axis_vertices[1], "exit-side")
    assert rep.passed is False
    assert [w for _, w in rep.table] == [3, 2]
    assert rep.render().splitlines()[-1] == "FAIL"
    calls.clear()
    passed, detail, observed = check_independence(2, 2026)
    assert (passed, detail) == (False, "instance 0: joint distribution not uniform")
    assert observed.splitlines()[-1] == "FAIL"


def test_independence_hv_diagonal_grid():
    dg = diagonal_grid(3)
    cert = check_reflection_symmetry(dg, Fraction(0))
    rep = independence_report(dg, cert, cert.axis_vertices[0], "hv")
    assert rep.passed
    assert len(rep.variables) == 2


def test_independence_sampled_mode():
    dg = diagonal_grid(3)
    cert = check_reflection_symmetry(dg, Fraction(0))
    rep = independence_report(dg, cert, cert.axis_vertices[0], "hv",
                              samples=800, seed=17)
    assert rep.samples == 800
    assert rep.passed
    assert abs(sum(w for _, w in rep.table) - 800) == 0


def test_independence_requires_axis_root():
    g = diamond_graph()
    cert = check_reflection_symmetry(g, Fraction(0))
    off_axis = next(v for v in g.vertices if v not in cert.axis_vertices)
    with pytest.raises(errors.HypothesisViolated):
        independence_report(g, cert, off_axis, "exit-side")


# -- determinant routes against the enumeration oracle ------------------------


def _parent(t):
    """Each non-root vertex of the forest ``t`` -> (edge id, parent)."""
    return {v: (e, p) for v, e, p in t.assignments}


def _constrained_weight(g, root, forced):
    """Oracle: total weight of the enumerated spanning trees toward ``root``
    in which each vertex of ``forced`` exits along one of its listed edges."""
    return sum((t.weight(g) for t in enumerate_spanning_trees(g, root)
                if all(_parent(t)[v][0] in eids for v, eids in forced.items())),
               Fraction(0))


def test_count_matches_enumeration_at_a_middle_root():
    for seed in range(4):
        g = random_plane_graph(seed, weighted=True)
        root = sorted(g.vertices)[len(g.vertices) // 2]
        total = count_spanning_trees(g)
        assert total == _constrained_weight(g, root, {})
        assert all(_forced_tree_weight(g, v, {}) == total for v in g.vertices)


def test_class_weight_matches_enumeration():
    checked = 0
    for seed in range(10):
        g, cert = random_symmetric(seed)
        axis = cert.axis_vertices
        root = axis[seed % 2 - 1]
        marked = []
        for a in axis:
            ups = [e for e in sorted(g.adj[a])
                   if g.vertices[g.edges[e].other(a)].pos[1] > 0]
            if a != root and ups and g.edges[ups[0]].other(a) != root:
                marked.append(ups[0])
        for bits in range(2 ** len(marked)):
            chosen = {i + 1 for i in range(len(marked)) if bits >> i & 1}
            forced = {next(v for v in (g.edges[e].u, g.edges[e].v) if v in axis):
                      [e if i in chosen else cert.edge_map[e]]
                      for i, e in enumerate(marked, 1)}
            assert class_weight(g, cert, root, marked, chosen) == \
                _constrained_weight(g, root, forced)
            checked += 1
    assert checked >= 20


def test_independence_hv_table_matches_enumeration():
    dg = diagonal_grid(3)
    cert = check_reflection_symmetry(dg, Fraction(0))
    root = cert.axis_vertices[0]
    rep = independence_report(dg, cert, root, "hv")
    assert rep.variables == cert.axis_vertices[1:]
    cells = {}
    for tree in enumerate_spanning_trees(dg, root):
        bits, parent = [], _parent(tree)
        for v in rep.variables:
            here, there = dg.vertices[v].pos, dg.vertices[parent[v][1]].pos
            bits.append(int((there[0] > here[0]) != (there[1] > here[1])))
        cells[tuple(bits)] = cells.get(tuple(bits), 0) + tree.weight(dg)
    assert dict(rep.table) == cells
    assert len(cells) == 4


def test_tree_swap_weights_match_enumeration():
    from dimerforge.generators import random_section2
    from dimerforge.report import check_tree_swap

    seed = 11
    assert check_tree_swap(5, seed)[0]
    for k in range(5):
        inst = random_section2(split_seed(seed, k))
        g0, path, n = inst.base, inst.boundary.inner, inst.boundary.n
        assert all(e.weight == 1 for e in g0.edges.values())
        fwd = {path[2 * i - 1]: [g0.edge_between(path[2 * i - 1], path[2 * i]).id]
               for i in range(1, n)}
        bwd = {path[2 * i - 1]: [g0.edge_between(path[2 * i - 1], path[2 * i - 2]).id]
               for i in range(1, n)}
        lhs = _constrained_weight(g0, path[-1], fwd)
        assert lhs == _constrained_weight(g0, path[0], bwd)
        assert _forced_tree_weight(g0, path[-1], fwd) == lhs
        assert _forced_tree_weight(g0, path[0], bwd) == lhs


def test_independence_hv_rejects_axis_parallel_exits():
    g = grid_graph(3, 3)
    cert = check_reflection_symmetry(g, Fraction(1))
    with pytest.raises(errors.HypothesisViolated):
        independence_report(g, cert, cert.axis_vertices[0], "hv")


def test_independence_rejects_an_axis_parallel_edge_no_tree_exits_along():
    # diagonal_grid(3) with a vertical pendant edge above and below its middle
    # axis vertex: the pendants always hang from it, so no tree exits along
    # those edges, but they give no indicator value
    dg = diagonal_grid(3)
    mid = next(v.id for v in dg.vertices.values() if v.pos == (2, 0))
    vertices, edges = dict(dg.vertices), dict(dg.edges)
    for y in (1, -1):
        vid, eid = len(vertices), len(edges)
        vertices[vid] = Vertex(vid, (Fraction(2), Fraction(y)))
        edges[eid] = Edge(eid, mid, vid)
    g = PlanarGraph.build(vertices, edges)
    cert = check_reflection_symmetry(g, Fraction(0))
    with pytest.raises(errors.HypothesisViolated):
        independence_report(g, cert, cert.axis_vertices[0], "hv")


@pytest.mark.parametrize("k, variables", [(5, 4), (7, 6)])
def test_independence_hv_exact_on_larger_diagonal_grids(k, variables):
    dg = diagonal_grid(k)
    cert = check_reflection_symmetry(dg, Fraction(0))
    rep = independence_report(dg, cert, cert.axis_vertices[0], "hv")
    assert len(rep.variables) == variables
    assert len(rep.table) == 2 ** variables
    assert rep.passed
    assert rep.table[0][1] * 2 ** variables == count_spanning_trees(dg)


def test_banded_conversions_build_the_dual_forest_once(monkeypatch):
    g, plain, prime = hexagon_graph(1)
    inst = transport_instance(g, plain, prime, require_plain_path=False)
    mu = next(enumerate_matchings(inst.host_prime))
    calls = []
    real = trees.dual_forest
    monkeypatch.setattr(trees, "dual_forest",
                        lambda *args: calls.append(args) or real(*args))
    forest = tec_matching_to_forest(inst, mu)
    assert not calls
    assert tec_forest_to_matching(inst, forest).edges == mu.edges
    assert len(calls) == 1
