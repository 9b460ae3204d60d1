"""Instance generators: validity and determinism."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from dimerforge import generators, planar
from dimerforge.errors import DimerforgeError, GenerationExhausted
from dimerforge.generators import (
    diagonal_grid,
    grid_graph,
    hexagon_graph,
    random_plane_graph,
    random_section2,
    random_symmetric,
    random_transport,
    random_trimmed,
)
from dimerforge.matchings import count_matchings
from dimerforge.planar import check_reflection_symmetry, validate_boundary_path
from dimerforge.refine import _peaks, _replay, section_instance
from dimerforge.trees import split_seed


def test_hexagon_shapes():
    g1, plain1, prime1 = hexagon_graph(1)
    assert len(g1.vertices) == 5
    assert len(plain1) == len(prime1) == 1
    g2, plain2, prime2 = hexagon_graph(2)
    assert len(plain2) == len(prime2) == 3
    faces = g2.trace_faces()
    assert len(g2.vertices) - len(g2.edges) + len(faces.faces) == 2


def test_diagonal_grid_symmetric():
    dg = diagonal_grid(4)
    cert = check_reflection_symmetry(dg, Fraction(0))
    assert len(cert.axis_vertices) == 4


def test_random_section2_valid_and_deterministic(monkeypatch):
    for seed in range(6):
        inst = random_section2(seed)
        # the second draw builds its instance afresh, so the comparison
        # is between two separate builds and not a cache hit
        with monkeypatch.context() as m:
            m.setattr(generators, "_section2_instance",
                      generators._section2_instance.__wrapped__)
            again = random_section2(seed)
        assert again is not inst
        assert inst.base.graph_id == again.base.graph_id
        assert validate_boundary_path(inst.base, list(inst.boundary.inner))
        assert len(inst.refinement.graph.vertices) <= 30


def _section2_draws():
    return [random_section2(split_seed(7, k)) for k in range(200)]


def test_cut_vertices_agree_with_removing_each_point(monkeypatch):
    # on every peel state the draws visit, a point cuts the strip exactly
    # when removing it leaves more than one component
    real, states = generators._cut_vertices, []

    def recording(points, edges):
        states.append((frozenset(points), frozenset(edges)))
        return real(points, edges)

    monkeypatch.setattr(generators, "_cut_vertices", recording)
    _section2_draws()
    assert len(states) > 200
    for points, edges in states:
        brute = {p for p in points
                 if len(set(planar._components(points - {p},
                                               [e for e in edges if p not in e]).values())) > 1}
        assert real(points, edges) == brute, sorted(points)


def test_random_section2_draws_are_pinned():
    # the base graph and the marked midpoints of 200 draws
    rows = [(inst.base.graph_id, inst.mids) for inst in _section2_draws()]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "6c669d21a44b02ebf61eee233927a6e2007aec96520e7837a8747c133410f0ba"


def test_random_section2_derived_graphs_are_pinned():
    # every graph a draw derives, and the augmented graph's rotation and
    # faces: a misplaced refinement vertex or a mis-spliced leaf dart moves it
    rows = []
    for seed in range(40):
        inst = random_section2(seed)
        g = inst.refinement.source
        faces = g.trace_faces()
        rows.append((inst.refinement.graph.graph_id, inst.trimmed.graph_id,
                     inst.plus.graph_id, inst.minus.graph_id,
                     sorted(g.rotation.items()),
                     [(f.index, f.cycle, f.infinite, f.area2) for f in faces.faces],
                     faces.infinite_index, sorted(faces.dart_face.items())))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "f8a67979f01c4b2b1f9747b918f18bf96bdf19e98ab71050f1e9041247843e62"


def _derived(inst):
    return (inst.refinement.graph.graph_id, inst.trimmed.graph_id, inst.plus.graph_id,
            inst.minus.graph_id, inst.mids)


def test_random_section2_shares_each_drawing_built_as_from_scratch(monkeypatch):
    # the shared instance of every drawing the draws reach is the one an
    # uncached build of that drawing gives, and a second draw of a seed
    # returns that very instance without building a graph
    cached, built = generators._section2_instance, []

    def recording(points, edges, cols):
        inst = cached(points, edges, cols)
        built.append(((points, edges, cols), inst))
        return inst

    monkeypatch.setattr(generators, "_section2_instance", recording)
    drawn = _section2_draws()
    assert {id(inst) for inst in drawn} <= {id(inst) for _, inst in built}
    for (points, edges, cols), inst in built:
        g, vid = generators.build_from_points(points, edges)
        fresh = section_instance(g, [vid[(x, 0)] for x in range(cols)])
        assert fresh is not inst
        assert _derived(inst) == _derived(fresh)

    init, inits = planar.PlanarGraph.__init__, []

    def counting_init(self, *args, **kwargs):
        inits.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(planar.PlanarGraph, "__init__", counting_init)
    first = random_section2(split_seed(8, 0))
    inits.clear()
    assert random_section2(split_seed(8, 0)) is first
    assert inits == []


def _instance_state(inst):
    graphs = (inst.base, inst.refinement.graph, inst.trimmed, inst.plus, inst.minus)
    return ([planar.dump_graph(g) for g in graphs],
            [sorted(g.rotation.items()) for g in graphs],
            repr(sorted((m, sorted(row.items())) for m, row in inst.refinement.across.items())),
            inst.mids)


def test_shared_section2_instances_are_never_mutated():
    # the checks that draw section-2 instances read them and change nothing,
    # so the instance a later draw of the same strip shares is as built
    from dimerforge.report import (
        check_bar_squarish,
        check_phi_roundtrip,
        check_section2,
        check_tree_swap,
    )

    seed, count = 2026, 4
    insts = [random_section2(split_seed(seed, k)) for k in range(count)]
    before = [_instance_state(inst) for inst in insts]
    for check in (check_phi_roundtrip, check_section2, check_bar_squarish, check_tree_swap):
        assert check(count, seed)[0], check.__name__
    assert all(random_section2(split_seed(seed, k)) is inst for k, inst in enumerate(insts))
    assert [_instance_state(inst) for inst in insts] == before


def test_random_section2_draw_builds_no_graph_id(monkeypatch):
    # a graph id hashes the full dump, and no part of a draw reads one
    real, calls = planar.dump_graph, []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(planar, "dump_graph", counting)
    # the uncached build is counted whatever drew seed 0 earlier
    monkeypatch.setattr(generators, "_section2_instance",
                        generators._section2_instance.__wrapped__)
    random_section2(0)
    assert calls == []


def test_random_symmetric_certified():
    for seed in range(5):
        g, cert = random_symmetric(seed)
        assert check_reflection_symmetry(g, Fraction(0)).axis_vertices == cert.axis_vertices
    g, _ = random_symmetric(3, need_matchings=True)
    assert count_matchings(g) > 0


def test_random_symmetric_removals_never_disconnect_the_window():
    # every draw lies in the 4 x 3 window around the axis y = 0, and every
    # set of top points removed with their mirrors leaves it connected, so
    # the generator offers each top point without a connectivity test
    window = {(x, y) for x in range(4) for y in (-1, 0, 1)}
    for seed in range(50):
        g, _ = random_symmetric(seed)
        assert {v.pos for v in g.vertices.values()} <= window
    top = [(x, 1) for x in range(4)]
    for r in range(len(top) + 1):
        for removed in combinations(top, r):
            points = window - set(removed) - {(x, -1) for x, _ in removed}
            roots = planar._components(points, generators._grid_edges(points))
            assert len(set(roots.values())) == 1, removed


def test_random_plane_and_symmetric_draws_are_pinned():
    ids = [random_plane_graph(seed, weighted).graph_id
           for seed in range(200) for weighted in (False, True)]
    ids += [random_symmetric(seed, need_matchings)[0].graph_id
            for seed in range(200) for need_matchings in (False, True)]
    assert hashlib.sha256(repr(ids).encode()).hexdigest() == \
        "5beb94b08e65aa54dbf6fb85b63b7aa9233ead6da135b874348a1c075e840dbd"


def test_generators_raise_generation_exhausted_when_every_attempt_fails(monkeypatch):
    def fail(*args):
        raise DimerforgeError("rejected")

    # the uncached build reaches the patched section_instance whatever ran
    # earlier in the process, and keeps the refusals out of the cache
    monkeypatch.setattr(generators, "section_instance", fail)
    monkeypatch.setattr(generators, "_section2_instance",
                        generators._section2_instance.__wrapped__)
    with pytest.raises(GenerationExhausted, match="marked-boundary instance for seed 5"):
        random_section2(5)
    monkeypatch.setattr(generators, "MAX_VERTICES", 1)
    with pytest.raises(GenerationExhausted, match="plane graph for seed 5"):
        random_plane_graph(5)


def test_random_transport_valid():
    for seed in range(5):
        inst, paths = random_transport(seed)
        # both hosts exist and have the same number of vertices
        assert len(inst.host_plain.vertices) == len(inst.host_prime.vertices)
        for idx, hp in paths.items():
            assert len(hp) % 2 == 1
        again, _ = random_transport(seed)
        assert again.host_plain.graph_id == inst.host_plain.graph_id


def test_random_transport_grid_draws_are_pinned():
    # both seeds draw the corner-marked grid shape, whose marks are picked
    # by index along the counterclockwise boundary
    for seed, plain, prime, gid in ((12, (0,), (2,), "c663852e787b"),
                                    (13, (1,), (0,), "fd7d94b45eaa")):
        inst, paths = random_transport(seed)
        source = inst.smashed.refinement.source
        assert len(source.vertices) == 4 and paths == {}
        assert (inst.plain, inst.prime, source.graph_id) == (plain, prime, gid)


def test_lattice_family_graph_ids_are_pinned():
    # vertex ids, edge ids, weights and drawings of every lattice family
    # at fixed seeds: the graph id hashes all of them
    from dimerforge.aztec import aztec_pair
    from dimerforge.refine import trimmed_square

    ids = [grid_graph(c, r).graph_id for c in range(1, 5) for r in range(1, 4)]
    ids += [diagonal_grid(k).graph_id for k in range(1, 6)]
    ids += [hexagon_graph(m)[0].graph_id for m in (1, 2, 3)]
    ids += [random_section2(seed).base.graph_id for seed in range(12)]
    ids += [random_symmetric(seed)[0].graph_id for seed in range(12)]
    ids += [random_plane_graph(seed, weighted).graph_id
            for seed in range(12) for weighted in (False, True)]
    ids += [trimmed_square(2, [(0, 3)]).graph_id, trimmed_square(3).graph_id]
    ids += [side.graph.graph_id for n in (1, 2, 3, 4) for side in aztec_pair(n)]
    assert hashlib.sha256(repr(ids).encode()).hexdigest() == \
        "8ed73cb9cbaabd42b8533300aa7b36d65c329bb8f29a4a8b0fc56c0c35851423"


def test_random_trimmed_deterministic():
    g1, n1, rem1 = random_trimmed(7)
    g2, n2, rem2 = random_trimmed(7)
    assert (n1, rem1) == (n2, rem2)
    assert g1.graph_id == g2.graph_id


def test_random_trimmed_draws_and_stages_are_pinned():
    # the seed -> instance contract, and the valid peaks at every stage of
    # each drawn removal sequence
    draws, stages = [], []
    for n in (None, 1, 2, 3, 4):
        for require_connected in (False, True):
            for k in range(30):
                g, m, removals = random_trimmed(split_seed(12, k), n=n,
                                                require_connected=require_connected)
                draws.append((g.graph_id, m, removals))
                stages += [[p for p, _ in _peaks(_replay(m, removals[:t]))]
                           for t in range(len(removals) + 1)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == \
        "41bcd093695fbd4276754b3cfc7efb90eca36b75921d4dc9e99c4edd4f7ce597"
    assert hashlib.sha256(repr(stages).encode()).hexdigest() == \
        "e63a615b2a1a3244748723c7b5d5cc0372198e35ae8ab9a33fdfeae1896a763c"


def test_random_trimmed_draws_one_graph(monkeypatch):
    # the stages are walked on vertex sets; only the final mirrored square
    # is drawn, whatever the number of removals or connectivity checks
    init = planar.PlanarGraph.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(planar.PlanarGraph, "__init__", counting_init)
    steps = 0
    for require_connected in (False, True):
        for k in range(12):
            built.clear()
            _, _, removals = random_trimmed(split_seed(5, k), n=3,
                                            require_connected=require_connected)
            assert len(built) == 1
            steps += len(removals)
    assert steps > 0


def test_random_plane_graph_sizes():
    for seed in range(6):
        g = random_plane_graph(seed)
        assert 2 <= len(g.vertices) <= 12
        assert g.is_connected()
