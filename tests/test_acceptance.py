"""Acceptance criteria.

Every criterion is exact (tolerance zero) except the sampled chi-square
check, whose significance is pinned at 1e-6.  Each test prints one
PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import time
from fractions import Fraction
from functools import lru_cache

from dimerforge import report as rp
from dimerforge.bijections import phi, psi, reflect_swap
from dimerforge.generators import (
    grid_graph,
    random_section2,
    random_symmetric,
)
from dimerforge.matchings import count_matchings, enumerate_matchings, squarish
from dimerforge.refine import symmetrize
from dimerforge.trees import split_seed

BASE_SEED = 20260810


def _report(number: int, name: str, ok: bool, details: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}" + (f" ({details})" if details else ""))
    assert ok, f"criterion {number} failed: {details}"


@lru_cache(maxsize=1)
def _section_instances():
    return [random_section2(split_seed(BASE_SEED, k)) for k in range(200)]


def test_criterion_01_kasteleyn_grid_identity():
    started = time.monotonic()
    ok, details, witness = rp.check_grid_kasteleyn(3, 3)
    elapsed = time.monotonic() - started
    _report(1, "closed-form grid counts", ok and elapsed < 10,
            f"{details}; {elapsed:.1f}s")


def test_criterion_02_plus_minus_equality():
    started = time.monotonic()
    instances = _section_instances()
    ok = True
    detail = ""
    for k, inst in enumerate(instances):
        plus = sum(1 for _ in enumerate_matchings(inst.plus))
        minus = sum(1 for _ in enumerate_matchings(inst.minus))
        if plus != minus:
            ok, detail = False, f"instance {k}: {plus} != {minus}"
            break
        if len(inst.refinement.graph.vertices) > 30:
            ok, detail = False, f"instance {k} too large"
            break
    elapsed = time.monotonic() - started
    _report(2, "plus/minus counts equal on 200 instances",
            ok and elapsed < 60, detail or f"{elapsed:.1f}s")


def test_criterion_03_bijection_soundness():
    cap = 10 ** 4
    for k, inst in enumerate(_section_instances()):
        plus = list(enumerate_matchings(inst.plus))
        if len(plus) > cap:
            continue
        minus = {m.edges for m in enumerate_matchings(inst.minus)}
        images = [phi(inst, mu) for mu in plus]
        if len({m.edges for m in images}) != len(images) or \
                {m.edges for m in images} != minus:
            _report(3, "gliding bijection", False, f"instance {k} not bijective")
        for mu, img in zip(plus, images):
            if psi(inst, img).edges != mu.edges:
                _report(3, "gliding bijection", False, f"instance {k} inverse")
        for edges in minus:
            from dimerforge.matchings import Matching

            mu = Matching(inst.minus.graph_id, edges)
            if phi(inst, psi(inst, mu)).edges != mu.edges:
                _report(3, "gliding bijection", False, f"instance {k} other inverse")
    _report(3, "gliding bijection", True, "200 instances, exhaustive round trips")


def test_criterion_04_symmetrized_product_and_squarish():
    for k, inst in enumerate(_section_instances()):
        bar = symmetrize(inst)
        total = count_matchings(bar)
        expected = (Fraction(2) ** inst.boundary.n
                    * count_matchings(inst.plus) * count_matchings(inst.minus))
        if total != expected:
            _report(4, "symmetrized product identity", False, f"instance {k}")
        if not squarish(int(total)):
            _report(4, "symmetrized product identity", False,
                    f"instance {k}: {total} not squarish")
    _report(4, "symmetrized product identity", True, "200 instances")


def test_criterion_05_trimmed_squares_squarish():
    ok, details, witness = rp.check_trimmed_squarish(50, split_seed(BASE_SEED, 5))
    _report(5, "trimmed squares squarish", ok, witness or details)


def test_criterion_06_tree_matching_correspondence():
    ok, details, witness = rp.check_temperley(30, split_seed(BASE_SEED, 6))
    _report(6, "tree/matching correspondence", ok, witness or details)


def test_criterion_07_root_swap_tree_counts():
    ok, details, witness = rp.check_tree_swap(30, split_seed(BASE_SEED, 7))
    _report(7, "oriented-edge tree counts under root swap", ok, witness or details)


def test_criterion_08_transport():
    started = time.monotonic()
    ok, details, witness = rp.check_transport(10, split_seed(BASE_SEED, 8))
    elapsed = time.monotonic() - started
    _report(8, "run transport", ok, (witness or details) + f"; {elapsed:.1f}s")


def test_criterion_09_aztec():
    started = time.monotonic()
    ok, details, witness = rp.check_aztec(3)
    elapsed = time.monotonic() - started
    _report(9, "triangular regions", ok and elapsed < 60,
            (witness or details) + f"; {elapsed:.1f}s")


def test_criterion_10_banded_forests():
    ok, details, witness = rp.check_banded(10, split_seed(BASE_SEED, 10))
    _report(10, "banded forest correspondence", ok, witness or details)


def test_criterion_11_cycle_parity():
    ok, details, witness = rp.check_cycle_parity(30, split_seed(BASE_SEED, 11))
    _report(11, "interior counts odd", ok, witness or details)


def _in_class(g, cert, mu, marked, chosen) -> bool:
    for i, eid in enumerate(marked, 1):
        want = eid if i in chosen else cert.edge_map[eid]
        if want not in mu.edges:
            return False
    return True


def test_criterion_12_class_weights():
    # enumerate and filter: the independent route to the class weights that
    # the class-weights check counts as w(F) * M(G - V(F))
    instances = 30
    for k in range(instances):
        g, cert = random_symmetric(split_seed(split_seed(BASE_SEED, 12), k),
                                   need_matchings=(k % 2 == 0))
        axis = cert.axis_vertices
        a_vertices = axis[0::2]
        marked = []
        used = set()
        for a in a_vertices:
            for e in sorted(g.adj[a]):
                ends = {g.edges[e].u, g.edges[e].v}
                if ends & used:
                    continue
                if len(ends & set(a_vertices)) != 1:
                    continue
                marked.append(e)
                used |= ends
                break
        mus = list(enumerate_matchings(g))
        if marked and mus:
            anchor = next(v for v in (g.edges[marked[0]].u, g.edges[marked[0]].v)
                          if v in axis)
            weights = []
            for bits in range(2 ** len(marked)):
                chosen = {i + 1 for i in range(len(marked)) if bits >> i & 1}
                cls = [m for m in mus if _in_class(g, cert, m, marked, chosen)]
                weights.append(sum(m.weight(g) for m in cls))
                for m in cls:
                    swapped = reflect_swap(g, cert, m, anchor)
                    if swapped.weight(g) != m.weight(g) or \
                            reflect_swap(g, cert, swapped, anchor).edges != m.edges:
                        _report(12, "symmetry class weights", False,
                                f"instance {k}: swap misbehaved")
            if len(set(weights)) != 1:
                _report(12, "symmetry class weights", False,
                        f"instance {k}: matching classes {weights}")
        # tree level
        from dimerforge.trees import class_weight

        tree_marked = [e for e in marked
                       if g.vertices[g.edges[e].u].pos[1] != g.vertices[g.edges[e].v].pos[1]]
        roots = [v for v in (axis[0], axis[-1])
                 if not any(v in (g.edges[e].u, g.edges[e].v) for e in tree_marked)]
        if tree_marked and roots:
            values = {class_weight(g, cert, roots[0], tree_marked,
                                   {i + 1 for i in range(len(tree_marked))
                                    if bits >> i & 1})
                      for bits in range(2 ** len(tree_marked))}
            if len(values) != 1:
                _report(12, "symmetry class weights", False,
                        f"instance {k}: tree classes {values}")
    _report(12, "symmetry class weights", True, f"{instances} instances, both levels")


def test_criterion_13_independence():
    started = time.monotonic()
    ok, details, witness = rp.check_independence(20, split_seed(BASE_SEED, 13))
    if ok:
        ok, details2, witness = rp.check_independence_sampled(
            10 ** 5, split_seed(BASE_SEED, 113))
        details = f"{details}; {details2}"
    elapsed = time.monotonic() - started
    _report(13, "exit-indicator independence", ok and elapsed < 120,
            (witness or details) + f"; {elapsed:.1f}s")


def test_criterion_14_deterministic_reports():
    config = """
seed 77
check grid-kasteleyn 2 2
check section2 5
check trimmed-squarish 5
check cycle-parity 5
"""
    first = rp.run_suite(config).render()
    second = rp.run_suite(config).render()
    ok = first == second and first.encode() == second.encode()
    _report(14, "byte-identical reports", ok, f"{len(first)} bytes")
