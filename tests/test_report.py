"""The per-instance bijection verifiers in ``report``: each check can fail,
and counted class weights agree with enumerated ones.  The default suite's
report is pinned byte for byte."""

import ast
import concurrent.futures
import hashlib
import multiprocessing
import pathlib
import re
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, cycle, islice

import pytest

from dimerforge import (aztec, bijections, errors, generators, matchings, parity, planar, refine,
                        trees)
from dimerforge import report as rp
from dimerforge.generators import (
    grid_graph,
    random_section2,
    random_symmetric,
    random_transport,
)
from dimerforge.matchings import Matching, _forced_matching_weight, enumerate_matchings
from dimerforge.refine import dual_refinement, symmetrize


def _stuck(real):
    """``real`` made constant: every call returns the image of the first
    call, so the map is not injective."""
    first = []

    def stuck(*args, **kwargs):
        if not first:
            first.append(real(*args, **kwargs))
        return first[0]

    return stuck


@pytest.mark.parametrize("module, name, check, args", [
    (bijections, "psi", rp.check_phi_roundtrip, (3, 5)),
    (bijections, "temperley_matching_to_tree", rp.check_temperley, (2, 5)),
    (bijections, "tea_transport", rp.check_transport, (2, 5)),
    (aztec, "aztec_bijection", rp.check_aztec, (2,)),
    (trees, "tec_forest_to_matching", rp.check_banded, (2, 5)),
    (bijections, "reflect_swap", rp.check_class_weights, (4, 5)),
], ids=["psi", "temperley", "transport", "aztec", "banded", "reflect-swap"])
def test_every_bijection_check_can_fail(monkeypatch, module, name, check, args):
    monkeypatch.setattr(module, name, _stuck(getattr(module, name)))
    ok, details, witness = check(*args)
    assert not ok
    assert "round trip failed" in details or "weight not preserved" in details, details
    ids = ast.literal_eval(witness)
    assert ids and all(isinstance(i, int) for i in ids), witness


def _dropping(real):
    """``real`` with the smallest edge taken out of every matching it
    returns, so its image misses two vertices."""
    def dropping(*args, **kwargs):
        out = real(*args, **kwargs)
        return Matching(out.host, out.edges - {min(out.edges)})

    return dropping


@pytest.mark.parametrize("module, name, check", [
    (bijections, "phi", "phi-roundtrip 3"),
    (bijections, "psi", "phi-roundtrip 3"),
    (bijections, "temperley_tree_to_matching", "temperley 2"),
    (bijections, "tea_transport", "transport 2"),
    (aztec, "aztec_bijection", "aztec 2"),
    (trees, "tec_forest_to_matching", "banded 2"),
    (bijections, "reflect_swap", "class-weights 4"),
], ids=["phi", "psi", "temperley", "transport", "aztec", "banded", "reflect-swap"])
def test_a_map_whose_image_misses_vertices_fails_its_check(monkeypatch, module, name, check):
    # no map re-checks its own image: the backward map reads it, or the
    # round trip compares it with the valid matching it came from
    monkeypatch.setattr(module, name, _dropping(getattr(module, name)))
    result = rp.run_suite(f"seed 1\ncheck {check}\n", jobs=1).results[0]
    assert result.render().startswith(f"FAIL {check.split()[0]}: "), result.render()


def test_a_shift_that_loses_an_edge_fails_the_gliding_checks(monkeypatch):
    # the fault starts inside phi, psi and tea_transport, past every check
    # they make on their input
    real = bijections.shift_edges

    def losing(*args):
        out = real(*args)
        return out - {min(out)}

    monkeypatch.setattr(bijections, "shift_edges", losing)
    report = rp.run_suite("seed 1\ncheck phi-roundtrip 3\ncheck transport 2\n", jobs=1)
    assert [r.passed for r in report.results] == [False, False], report.render()


def _rejected_forest(inst):
    """The first spanning forest of the instance's forest graph, rooted at
    the primed marks, that the banded-forest classifier rejects, with the
    error it raises."""
    g0 = inst.forest_graph
    for edges in combinations(sorted(g0.edges), len(g0.vertices) - len(inst.prime_odd)):
        try:
            forest = trees.orient_edge_set(g0, edges, inst.prime_odd)
        except errors.PreconditionViolated:
            continue
        try:
            trees._banded_certificate(inst, forest)
        except errors.DimerforgeError as exc:
            return forest, exc
    raise AssertionError("every spanning forest is banded")


def test_banded_check_fails_on_a_forward_map_that_gives_a_non_banded_forest(monkeypatch):
    # the forward map does not classify; the backward map's classification
    # must still stop the round trip with the named error
    rejected = []

    def forward(inst, mu):
        if not rejected:
            rejected.append(_rejected_forest(inst))
        return rejected[0][0]

    monkeypatch.setattr(trees, "tec_matching_to_forest", forward)
    result = rp.run_suite("seed 1\ncheck banded 1\n", jobs=1).results[0]
    error = rejected[0][1]
    assert type(error) is errors.BandPairingViolated
    assert result.render() == f"FAIL banded: error: {error}"


def test_banded_check_prices_forests_with_their_dual_weights(monkeypatch):
    # the suite draws no dual weights; with them, each matching must weigh
    # what its forest's edges and its dual forest's edges weigh together
    g = grid_graph(3, 3)
    inst = bijections.transport_instance(
        g, [0], [8], require_plain_path=False,
        dual_weights={e: Fraction(e % 4 + 2, 3) for e in g.edges})
    monkeypatch.setattr(generators, "random_transport",
                        lambda seed, require_plain_path=True: (inst, {}))
    assert rp.check_banded(1, 0) == (True, "1 instances: round trips, weights and "
                                     "channel/bay labels hold (1 double enumerations)", None)


def test_banded_check_fails_when_a_forest_weighs_otherwise(monkeypatch):
    # the round trip holds, so only the weight comparison can fail
    g = grid_graph(3, 3)
    inst = bijections.transport_instance(g, [0], [8], require_plain_path=False)
    monkeypatch.setattr(generators, "random_transport",
                        lambda seed, require_plain_path=True: (inst, {}))
    real = trees.banded_forest_weight
    monkeypatch.setattr(trees, "banded_forest_weight", lambda *args: 2 * real(*args))
    first = next(enumerate_matchings(inst.host_prime))
    assert rp.check_banded(1, 0) == (False, "instance 0: weight not preserved",
                                     str(sorted(first.edges)))


def test_transport_check_fails_when_constrained_weights_differ(monkeypatch):
    # one more unit of weight on the plain host whenever a path is forced
    inst, paths = random_transport(1)
    monkeypatch.setattr(generators, "random_transport", lambda seed: (inst, paths))
    real = matchings._forced_matching_weight

    def heavier(g, forced):
        return real(g, forced) + (g is inst.host_plain and bool(forced))

    monkeypatch.setattr(matchings, "_forced_matching_weight", heavier)
    first = min(paths)
    forced = bijections.forced_path_matching(inst.smashed.refinement, paths[first], True)
    w = real(inst.host_plain, forced)
    assert rp.check_transport(1, 0) == (
        False, f"instance 0: constrained weights differ for [{first}]", f"{w + 1} vs {w}")


def test_class_weights_check_fails_on_a_swap_that_keeps_the_marked_edge(monkeypatch):
    # the identity is an involution that keeps every weight, so only the
    # check that the marked edge becomes its mirror image can fail
    monkeypatch.setattr(bijections, "reflect_swap", lambda g, cert, mu, axis_vertex: mu)
    ok, details, witness = rp.check_class_weights(4, 5)
    assert not ok
    edge = int(re.fullmatch(r"instance \d+: swap keeps edge (\d+)", details).group(1))
    assert edge in ast.literal_eval(witness)


def _alternating(real):
    """``real`` with one added to every second result, so two calls in a
    row never agree."""
    bumps = cycle((0, 1))
    return lambda *args: real(*args) + next(bumps)


def _plus_one(real):
    return lambda *args: real(*args) + 1


# one case per count or map comparison of a seeded check: the name patched,
# how, and the report line of the check that compares it
@pytest.mark.parametrize("module, name, wrap, check, rendered", [
    (rp, "count_matchings", _alternating, "section2 2",
     "FAIL section2: instance 0: unbalanced\n  witness: plus=5 minus=6"),
    (refine, "symmetrize", lambda real: lambda inst: inst.plus, "bar-squarish 2",
     "FAIL bar-squarish: instance 0: product identity failed\n  witness: bar=5 2^2*5*5"),
    (rp, "squarish", lambda real: lambda n: False, "bar-squarish 2",
     "FAIL bar-squarish: instance 0: count not squarish\n  witness: 100"),
    (rp, "squarish", lambda real: lambda n: False, "trimmed-squarish 2",
     "FAIL trimmed-squarish: instance 0: n=2, 1 removals\n  witness: 4"),
    (rp, "count_matchings", _plus_one, "temperley 2",
     "FAIL temperley: instance 0: root 0 breaks the correspondence\n"
     "  witness: trees=2 matchings=3"),
    (rp, "enumerate_matchings", lambda real: lambda g: islice(real(g), 1, None), "temperley 2",
     "FAIL temperley: instance 0: tree and matching counts differ\n"
     "  witness: trees=1 matchings=0"),
    (trees, "_forced_tree_weight", _alternating, "tree-swap 2",
     "FAIL tree-swap: instance 0: constrained tree counts differ\n  witness: 5 vs 6"),
    (rp, "_enumerate_banded", _plus_one, "banded 2",
     "FAIL banded: instance 0: forest enumeration disagrees\n"
     "  witness: 5 forests vs 4 matchings"),
    (parity, "interior_vertex_count",
     lambda real: lambda g, cyc: replace(real(g, cyc), faces=real(g, cyc).faces + 1),
     "cycle-parity 3",
     "FAIL cycle-parity: instance 1: even interior count\n  witness: [0, 1, 3, 2]"),
    (matchings, "_forced_matching_weight", _alternating, "class-weights 4",
     "FAIL class-weights: instance 0: matching class weights differ\n  witness: "
     "{0: Fraction(1, 1), 1: Fraction(2, 1), 2: Fraction(1, 1), 3: Fraction(2, 1)}"),
    (trees, "class_weight", _alternating, "class-weights 4",
     "FAIL class-weights: instance 1: tree class weights differ\n  witness: "
     "{0: Fraction(637, 324), 1: Fraction(961, 324), 2: Fraction(637, 324), "
     "3: Fraction(961, 324)}"),
], ids=["section2", "bar-product", "bar-squarish", "trimmed", "temperley-root",
        "temperley-count", "tree-swap", "banded", "cycle-parity", "matching-classes",
        "tree-classes"])
def test_every_seeded_comparison_can_fail(monkeypatch, module, name, wrap, check, rendered):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    result = rp.run_suite(f"seed 2\ncheck {check}\n", jobs=1).results[0]
    assert result.render() == rendered


def _counting_remove_vertices(monkeypatch) -> list:
    """Record the graph of every ``remove_vertices`` call, through each
    module-level name the package binds it to."""
    real, calls = planar.remove_vertices, []

    def counting(g, removed):
        calls.append(g.graph_id)
        return real(g, removed)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dimerforge" and getattr(module, "remove_vertices", None) is real:
            monkeypatch.setattr(module, "remove_vertices", counting)
    return calls


def test_temperley_fault_deletes_the_root_once(monkeypatch):
    # the instance builds the host; neither map nor the count builds another
    ref = dual_refinement(grid_graph(3, 3))
    calls = _counting_remove_vertices(monkeypatch)
    assert rp.temperley_fault(bijections.temperley_instance(ref, 0)) == (192, None)
    assert calls == [ref.graph.graph_id]


def test_symmetrize_deletes_no_vertices(monkeypatch):
    # the section-2 instance holds the trimmed graph that symmetrize reads
    insts = [random_section2(seed) for seed in range(4)]
    calls = _counting_remove_vertices(monkeypatch)
    for inst in insts:
        symmetrize(inst)
    assert calls == []


def test_transport_fault_moves_each_matching_there_and_back_once(monkeypatch):
    # constrained at every index whose forced edges the matching holds
    inst, paths = random_transport(1)
    ref = inst.smashed.refinement
    real, calls = bijections.tea_transport, []

    def recording(instance, mu, constraints=None):
        calls.append((mu.edges, dict(constraints or {})))
        return real(instance, mu, constraints)

    monkeypatch.setattr(bijections, "tea_transport", recording)
    count, fault = rp.transport_fault(inst, paths)
    assert fault is None and len(calls) == 2 * count
    for (edges, chosen), (_, back) in zip(calls[0::2], calls[1::2]):
        assert chosen == back == {i: paths[i] for i in paths if bijections.forced_path_matching(
            ref, paths[i], False) <= edges}
    assert any(chosen for _, chosen in calls)


@pytest.mark.parametrize("seed", [1, 3])
def test_phi_fault_takes_each_plus_matching_there_and_back_once(monkeypatch, seed):
    # no pass starts from the minus side: its matchings are met as images
    inst = random_section2(seed)
    calls = []

    def recording(name):
        real = getattr(bijections, name)

        def record(instance, mu):
            calls.append((name, mu.edges))
            return real(instance, mu)

        return record

    monkeypatch.setattr(bijections, "phi", recording("phi"))
    monkeypatch.setattr(bijections, "psi", recording("psi"))
    count, fault = rp.phi_fault(inst)
    plus = [mu.edges for mu in enumerate_matchings(inst.plus)]
    assert fault is None and count == len(plus)
    assert [name for name, _ in calls] == ["phi", "psi"] * count
    assert [edges for _, edges in calls[0::2]] == plus


@pytest.mark.parametrize("seed", [1, 3])
def test_phi_fault_fails_when_the_minus_side_has_another_count(monkeypatch, seed):
    inst = random_section2(seed)
    real = rp.enumerate_matchings

    def one_short(g):
        mus = list(real(g))
        return mus[1:] if g is inst.minus else mus

    monkeypatch.setattr(rp, "enumerate_matchings", one_short)
    count, fault = rp.phi_fault(inst)
    assert fault == ("matching counts differ", f"plus={count} minus={count - 1}")


def _filtered_weight(g, mus, forced):
    return sum(m.weight(g) for m in mus if forced <= m.edges)


def test_forced_matching_weight_matches_enumeration_on_transport_subsets():
    # a hexagon instance with three constraint paths, and a ladder
    for seed in (1, 3):
        inst, paths = random_transport(seed)
        ref = inst.smashed.refinement
        indices = sorted(paths)
        for host, drop_start in ((inst.host_plain, True), (inst.host_prime, False)):
            mus = list(enumerate_matchings(host))
            for bits in range(2 ** len(indices)):
                chosen = [indices[i] for i in range(len(indices)) if bits >> i & 1]
                forced = set().union(*(bijections.forced_path_matching(ref, paths[i],
                                                                       drop_start)
                                       for i in chosen))
                assert _forced_matching_weight(host, forced) == \
                    _filtered_weight(host, mus, forced), (seed, chosen)


def test_forced_matching_weight_matches_enumeration_on_symmetry_classes():
    classes = 0
    for seed in range(6):
        g, cert = random_symmetric(seed, need_matchings=True)
        a_vertices = set(cert.axis_vertices[0::2])
        marked, used = [], set()
        for a in cert.axis_vertices[0::2]:
            for e in sorted(g.adj[a]):
                ends = {g.edges[e].u, g.edges[e].v}
                if not ends & used and len(ends & a_vertices) == 1:
                    marked.append(e)
                    used |= ends
                    break
        mus = list(enumerate_matchings(g))
        for bits in range(2 ** len(marked)):
            forced = {e if bits >> i & 1 else cert.edge_map[e] for i, e in enumerate(marked)}
            assert _forced_matching_weight(g, forced) == _filtered_weight(g, mus, forced), seed
            classes += 1
    assert classes > 6


def test_forced_matching_weight_of_impossible_sets_is_zero():
    g = grid_graph(2, 2)
    e1, e2 = sorted(g.adj[0])
    assert _forced_matching_weight(g, {e1, e2}) == 0  # two edges at one vertex
    assert _forced_matching_weight(g, {max(g.edges) + 1}) == 0  # not an edge of g


# sha256 of the report of the repository's suite.cfg at any --jobs: a change
# that moves one byte of it changes what the engine computes or prints
SUITE_CFG_SHA256 = "9ac254e9a216e842f09a2e8a15a45ebf2086e32bc20cf9e0b4eb4c17dd5424fb"
SUITE_CFG = pathlib.Path(__file__).resolve().parent.parent / "suite.cfg"


def test_default_suite_report_is_byte_identical():
    text = rp.run_suite(SUITE_CFG.read_text(encoding="utf-8"), jobs=1).render()
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_CFG_SHA256


def test_default_suite_report_is_the_same_on_worker_processes():
    text = rp.run_suite(SUITE_CFG.read_text(encoding="utf-8"), jobs=2).render()
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_CFG_SHA256
    # the pool is shut down before run_suite returns
    assert multiprocessing.active_children() == []


def test_independence_instances_have_exit_side_variables(monkeypatch):
    # the exact half of the independence check, at suite.cfg's seed and at
    # acceptance criterion 13's, compares at least two cells per instance
    items, base_seed = rp.parse_suite_config(SUITE_CFG.read_text(encoding="utf-8"))
    idx, item = next((i, it) for i, it in enumerate(items) if it.name == "independence")
    real = trees.independence_report
    variables = []

    def spy(g, cert, root, kind, **kwargs):
        rep = real(g, cert, root, kind, **kwargs)
        if kind == "exit-side":
            variables.append(len(rep.variables))
        return rep

    monkeypatch.setattr(trees, "independence_report", spy)
    for count, seed in ((item.args[0], trees.split_seed(base_seed, idx)),
                        (20, trees.split_seed(20260810, 13))):
        variables.clear()
        assert rp.check_independence(count, seed)[0]
        assert len(variables) == count and min(variables) >= 1


def test_jobs_bounds_the_worker_count_by_the_items(monkeypatch):
    seen = []

    class InProcessPool:
        """Records its worker count and maps in this process: no worker
        is started, however large ``jobs`` is."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = "seed 4\ncheck grid-kasteleyn 2 2\ncheck cycle-parity 1\ncheck section2 1\n"
    pooled = rp.run_suite(config, jobs=10_000)
    assert len(seen) == 1 and seen[0] <= 3
    assert pooled.render() == rp.run_suite(config, jobs=1).render()
