"""Dual refinement, leaf augmentation, plus/minus, symmetrize, smash,
trimmed squares."""

import hashlib
import random
from fractions import Fraction

import pytest

from builders import reachable_stages
from dimerforge import errors
from dimerforge.aztec import aztec_pair
from dimerforge.generators import (
    grid_graph,
    random_plane_graph,
    random_section2,
    random_transport,
    random_trimmed,
)
from dimerforge.matchings import count_matchings, enumerate_matchings, squarish
from dimerforge.planar import PlanarGraph, Vertex, _components, check_reflection_symmetry
from dimerforge.refine import (
    _grid_edges,
    _peaks,
    _quadruple,
    _removal,
    _replay,
    _square_graph,
    dual_refinement,
    augment_with_leaves,
    section_instance,
    smash_in,
    symmetrize,
    trimmed_square,
)


def single_vertex():
    return PlanarGraph.build({0: Vertex(0, (Fraction(0), Fraction(0)))}, {})


def test_refinement_graph_does_not_trace_faces():
    # only drawn graphs trace faces, so the interior counts of parity, which
    # read traced faces, only ever see straight-line drawings
    with pytest.raises(errors.EmbeddingError) as exc:
        dual_refinement(grid_graph(2, 2)).graph.trace_faces()
    assert str(exc.value) == "face tracing requires a geometric embedding"


def test_refinement_of_path():
    ref = dual_refinement(grid_graph(3, 1))
    assert len(ref.graph.vertices) == 5
    assert len(ref.graph.edges) == 4


def test_refinement_of_square():
    ref = dual_refinement(grid_graph(2, 2))
    assert len(ref.graph.vertices) == 9
    assert len(ref.graph.edges) == 12
    # midpoints join their endpoints and the single bounded face center
    center = ref.center_of_face[[f.index for f in ref.source.trace_faces().bounded][0]]
    assert ref.graph.degree(center) == 4


def test_refinement_vertex_count_is_odd():
    for seed in range(10):
        g = random_plane_graph(seed)
        assert len(dual_refinement(g).graph.vertices) % 2 == 1


def _refinements_of_every_family():
    for seed in range(8):
        yield random_section2(seed).refinement
        yield random_transport(seed)[0].smashed.refinement
        yield random_transport(seed, require_plain_path=False)[0].smashed.refinement
        yield dual_refinement(random_plane_graph(seed, weighted=seed % 2 == 1))
    for n in (1, 2, 3):
        yield aztec_pair(n)[0].transport.smashed.refinement


def test_across_map_matches_the_faces():
    checked = at_infinity = 0
    for ref in _refinements_of_every_family():
        faces = ref.source.trace_faces()
        assert set(ref.across) == set(ref.edge_of_mid)
        for m, halves in ref.across.items():
            nbrs = {ref.graph.edges[e].other(m) for e in ref.graph.adj[m]}
            assert set(halves) == nbrs
            for w, (_, h) in halves.items():
                assert ref.graph.edges[h].ends == {m, w}
            across = {w: far for w, (far, _) in halves.items()}
            e = ref.source.edges[ref.edge_of_mid[m]]
            assert across[e.u] == e.v and across[e.v] == e.u
            fa, fb = faces.sides_of_edge(e)
            for c in nbrs - {e.u, e.v}:
                far = fb if ref.face_of_center[c] == fa else fa
                if far == faces.infinite_index:
                    assert across[c] is None
                    at_infinity += 1
                else:
                    assert across[c] == ref.center_of_face[far] != c
            for w, far in across.items():
                if far is not None:
                    assert across[far] == w
            checked += 1
    assert checked > 400 and at_infinity > 100


def test_refinement_rejects_pendant_in_bounded_face():
    # a square with a pendant vertex hanging inside the bounded face
    text_points = {(0, 0), (3, 0), (3, 3), (0, 3), (1, 1)}
    vertices = {i: Vertex(i, (Fraction(x), Fraction(y)))
                for i, (x, y) in enumerate(sorted(text_points))}
    by_pos = {tuple(v.pos): i for i, v in vertices.items()}
    from dimerforge.planar import Edge

    cyc = [(0, 0), (3, 0), (3, 3), (0, 3)]
    edges = {}
    for k in range(4):
        edges[k] = Edge(k, by_pos[cyc[k]], by_pos[cyc[(k + 1) % 4]])
    edges[4] = Edge(4, by_pos[(0, 0)], by_pos[(1, 1)])
    g = PlanarGraph.build(vertices, edges)
    with pytest.raises(errors.PreconditionViolated):
        dual_refinement(g)


def test_augment_square():
    g, mb = augment_with_leaves(grid_graph(2, 2), [0, 1, 3])
    assert len(g.vertices) == 6
    assert mb.leaves is not None
    assert len(mb.boundary_edges) == 4
    assert g.degree(mb.leaves[0]) == 1
    assert mb.leaves[0] in g.infinite_face_vertices()


def test_augment_single_vertex():
    g, mb = augment_with_leaves(single_vertex(), [0])
    assert len(g.vertices) == 3
    assert len(g.edges) == 2


def test_augmented_leaves_lie_on_the_infinite_face():
    # each leaf hangs off its end of the marked path, drawn in the infinite face
    cases = [(inst.refinement.source, inst.boundary)
             for inst in map(random_section2, range(200))]
    cases.append(augment_with_leaves(single_vertex(), [0]))
    # both leaves at vertex 2, whose first candidate wedges lie in a bounded face
    cases.append(augment_with_leaves(grid_graph(3, 2), [2]))
    for g, mb in cases:
        assert set(mb.leaves) <= g.infinite_face_vertices()
        for leaf, end in zip(mb.leaves, (mb.inner[0], mb.inner[-1])):
            assert g.edge_between(leaf, end) is not None


def test_augment_rejects_disconnected_graph():
    g = grid_graph(2, 2)
    split = PlanarGraph.build(dict(g.vertices), {0: g.edges[0], 3: g.edges[3]},
                              require_connected=False)
    with pytest.raises(errors.Disconnected):
        augment_with_leaves(split, [0])


def test_augment_degree_violation():
    g = grid_graph(3, 3)
    bottom = sorted(g.vertices, key=lambda v: (g.vertices[v].pos[1], g.vertices[v].pos[0]))[:3]
    with pytest.raises(errors.BadDegree):
        augment_with_leaves(g, bottom)


def test_plus_minus_minimal_path():
    inst = section_instance(single_vertex(), [0])
    assert len(inst.plus.vertices) == 2
    assert len(inst.plus.edges) == 1
    assert count_matchings(inst.plus) == 1
    assert count_matchings(inst.minus) == 1


def test_plus_minus_square_instance():
    inst = section_instance(grid_graph(2, 2), [0, 1, 3])
    assert len(inst.refinement.graph.vertices) == 13
    assert len(inst.plus.vertices) == 8
    assert len(inst.minus.vertices) == 8
    assert count_matchings(inst.plus) == 3
    assert count_matchings(inst.minus) == 3


def test_plus_minus_even_vertex_counts():
    for seed in range(8):
        from dimerforge.generators import random_section2

        inst = random_section2(seed)
        assert len(inst.plus.vertices) % 2 == 0
        assert len(inst.minus.vertices) % 2 == 0


def test_symmetrize_minimal_is_four_cycle():
    inst = section_instance(single_vertex(), [0])
    bar = symmetrize(inst)
    assert len(bar.vertices) == 4
    assert len(bar.edges) == 4
    assert count_matchings(bar) == 2


def test_symmetrize_square_instance():
    from builders import fan_square

    inst = section_instance(fan_square(), [0, 1, 3])
    assert count_matchings(inst.plus) == 3
    bar = symmetrize(inst)
    assert count_matchings(bar) == 36
    assert squarish(36)
    cert = check_reflection_symmetry(bar, Fraction(0))
    assert len(cert.axis_vertices) == 2 * inst.boundary.n


def test_symmetrized_graphs_are_pinned():
    ids = [symmetrize(random_section2(seed)).graph_id for seed in range(40)]
    assert hashlib.sha256(" ".join(ids).encode()).hexdigest() == \
        "c78054f735350e238d515ffa4441f5118480011bc83359ff26b0b4ce67170273"


def test_symmetrize_requires_normal_form():
    # the same abstract instance with an L-shaped marked path cannot be
    # mirrored without redrawing; the caller must normalize first
    inst = section_instance(grid_graph(2, 2), [0, 1, 3])
    with pytest.raises(errors.ReembeddingFailed):
        symmetrize(inst)


def test_symmetrize_is_bipartite_and_balanced():
    from builders import fan_square

    inst = section_instance(fan_square(), [0, 1, 3])
    bar = symmetrize(inst)
    color = {}
    stack = [(next(iter(bar.vertices)), 0)]
    while stack:
        v, c = stack.pop()
        if v in color:
            assert color[v] == c
            continue
        color[v] = c
        for w in bar.neighbors(v):
            stack.append((w, 1 - c))
    counts = [sum(1 for c in color.values() if c == k) for k in (0, 1)]
    assert counts[0] == counts[1]


def test_smash_square_corner():
    ref = dual_refinement(grid_graph(2, 2))
    smashed = smash_in(ref, [0])
    assert len(smashed.graph.vertices) == 6
    assert smashed.face_of[0] in ref.graph.vertices


def test_smash_empty_is_identity():
    ref = dual_refinement(grid_graph(2, 2))
    smashed = smash_in(ref, [])
    assert len(smashed.graph.vertices) == 9


def test_smash_shared_face_rejected():
    ref = dual_refinement(grid_graph(2, 2))
    with pytest.raises(errors.SharedFace):
        smash_in(ref, [0, 3])


def test_smash_rejects_bad_targets():
    ref = dual_refinement(grid_graph(3, 3))
    middle = 4  # degree-4 interior vertex
    with pytest.raises(errors.NotDegreeTwo):
        smash_in(ref, [middle])


def test_trimmed_square_no_removals():
    assert count_matchings(trimmed_square(1)) == 2
    assert count_matchings(trimmed_square(2)) == 36
    assert _peaks(_replay(1)) == []  # its only corner four-cycle holds the diagonal


def test_trimmed_square_topmost_removal():
    assert [p for p, _ in _peaks(_replay(2))] == [(0, 3)]
    g = trimmed_square(2, [(0, 3)])
    assert len(g.vertices) == 8
    verdict = squarish(int(count_matchings(g)))
    assert verdict


def test_trimmed_square_is_symmetric():
    g = trimmed_square(2, [(0, 3)])
    # mirror across the diagonal is the map (x,y) -> (x,-y) after rotation
    cert = check_reflection_symmetry(g, Fraction(0))
    assert cert.vertex_map


def test_trimmed_square_errors():
    with pytest.raises(errors.BelowDiagonal):
        trimmed_square(2, [(3, 0)])
    with pytest.raises(errors.BelowDiagonal):
        trimmed_square(3, [(5, 0)])
    with pytest.raises(errors.NotAPeak):
        trimmed_square(2, [(0, 2)])  # degree three, not a corner
    with pytest.raises(errors.NotAPeak):
        trimmed_square(1, [(0, 1)])  # four-cycle touches the diagonal
    with pytest.raises(errors.NotAPeak, match="not a current vertex"):
        trimmed_square(2, [(0, 3), (0, 3)])  # already removed
    with pytest.raises(errors.NotAPeak, match="not a current vertex"):
        trimmed_square(3, [(9, 9)])  # outside the square


def test_every_reachable_stage_stays_connected():
    # breadth-first over every stage that valid removals reach: each removal
    # takes an even-aligned 2x2 block and leaves a connected stage, so
    # _removal need not test connectivity; the stages number Catalan(n)
    counts = []
    for n in range(1, 7):
        start = frozenset(_replay(n))
        seen, frontier = {start}, [start]
        while frontier:
            reached = []
            for present in frontier:
                for peak, quad in _peaks(set(present)):
                    i, j = min(quad)
                    assert i % 2 == 0 and j % 2 == 0, (n, peak)
                    stage = present - set(quad)
                    roots = _components(stage, _grid_edges(stage)).values()
                    assert len(set(roots)) == 1, (n, sorted(present), peak)
                    if stage not in seen:
                        seen.add(stage)
                        reached.append(stage)
            frontier = reached
        counts.append(len(seen))
    assert counts == [1, 2, 5, 14, 42, 132]


def _trial_peaks(present):
    """Oracle: the points strictly above the diagonal that ``_removal``
    accepts, tried one by one, as sorted (peak, four-cycle) pairs."""
    peaks = []
    for p in sorted(present):
        if p[1] > p[0]:
            try:
                peaks.append((p, _removal(present, p)))
            except errors.NotAPeak:
                pass
    return peaks


def test_corner_peaks_are_the_removals_the_validator_accepts():
    # a first disagreement falls on a stage both walks reach, so comparing
    # on the stages the corner rule reaches covers every reachable stage
    counts = []
    for n in range(1, 7):
        stages = reachable_stages(n)
        for present in stages:
            assert _peaks(set(present)) == _trial_peaks(present), (n, sorted(present))
        counts.append(len(stages))
    assert counts == [1, 2, 5, 14, 42, 132]


@pytest.mark.parametrize("n", [0, -2])
def test_trimmed_squares_need_a_positive_half_side(n):
    with pytest.raises(errors.PreconditionViolated):
        trimmed_square(n)
    with pytest.raises(errors.PreconditionViolated):
        random_trimmed(1, n=n)


def test_corner_peaks_lie_on_the_drawn_boundary():
    rng = random.Random(2026)
    stages = checked = 0
    for n in range(1, 6):
        side = 2 * n
        for _ in range(8 * n):
            removals = []
            while True:
                present = _replay(n, removals)
                g = _square_graph(side, present)
                # the boundary read off the drawing: the oracle for the peak
                # test, which needs no drawing
                boundary = {(k // side, k % side) for k in g.infinite_face_vertices()}
                # every bounded face is a unit cell with all four corners
                cells = {c for c in (frozenset({(i, j), (i + 1, j), (i, j + 1),
                                                (i + 1, j + 1)}) for (i, j) in present)
                         if c <= present}
                faces = [frozenset((k // side, k % side) for k in f.vertex_seq)
                         for f in g.trace_faces().bounded]
                assert len(faces) == len(cells) and set(faces) == cells
                for p in present:
                    if p[1] <= p[0]:
                        continue
                    try:
                        quad = _quadruple(present, p)
                    except errors.NotAPeak:
                        continue
                    if all(q[1] > q[0] for q in quad):
                        assert p in boundary, (n, removals, p)
                        checked += 1
                stages += 1
                peaks = [p for p, _ in _peaks(present)]
                if not peaks:
                    break
                removals.append(rng.choice(peaks))
    assert stages >= 800 and checked >= 1200
