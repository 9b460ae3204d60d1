"""Batch verification: named checks over seeded instance families, and the
suite runner that executes a config of such checks deterministically.

Report text never includes wall-clock times, so identical configs and seeds
produce byte-identical reports; timings are tracked separately for callers
that want them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import methodcaller

from ._geom import parse_frac
from .errors import ConfigError, DimerforgeError
from .matchings import count_matchings, enumerate_matchings, kasteleyn_grid_count, squarish
from .trees import RootedForest, split_seed

# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    witness: str | None = None
    wall_time: float = 0.0

    def render(self) -> str:
        line = f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.details}"
        if not self.passed and self.witness:
            line += f"\n  witness: {self.witness}"
        return line


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"seed {self.seed}"]
        lines += [r.render() for r in self.results]
        lines.append(f"{'PASS' if self.passed else 'FAIL'} "
                     f"({sum(r.passed for r in self.results)}/{len(self.results)} checks)")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Per-instance bijection verifiers (shared by the suite and verify-bijection)
# ---------------------------------------------------------------------------


def _round_trip_fault(domain, forward, backward, prices=None):
    """The first x in ``domain`` with ``backward(forward(x)) != x``, or whose
    image weighs otherwise (x priced by ``prices[0]``, its image by
    ``prices[1]``), as a fault ``(what, edge ids of x)``; else None.

    A round trip that holds on every element makes ``forward`` injective.
    A round trip on one side plus equal sizes makes a bijection; the other
    side is met as images, so no second pass, collision or image test is
    needed once ``backward`` validates what it reads."""
    for x in domain:
        y = forward(x)
        if backward(y) != x:
            what = "round trip failed"
        elif prices and prices[0](x) != prices[1](y):
            what = "weight not preserved"
        else:
            continue
        return what, str(sorted(x.edge_set if isinstance(x, RootedForest) else x.edges))
    return None


def _count_fault(what, domain, image_host, sides):
    """``what`` and the two sizes named by ``sides`` as a fault when the
    perfect matchings of ``image_host`` are not as many as ``domain``; else
    None.  The enumerator counts matchings, where ``count_matchings`` would
    sum their weights."""
    images = sum(1 for _ in enumerate_matchings(image_host))
    if images != len(domain):
        return what, f"{sides[0]}={len(domain)} {sides[1]}={images}"
    return None


def phi_fault(inst):
    """Gliding: phi and psi are mutually inverse between all matchings of
    the plus and the minus graph.  Returns (plus matchings, fault).

    psi validates each image of phi as a matching of the minus graph, as
    the one-pass rule of ``_round_trip_fault`` needs."""
    from .bijections import phi, psi

    plus = list(enumerate_matchings(inst.plus))
    fault = (_round_trip_fault(plus, partial(phi, inst), partial(psi, inst))
             or _count_fault("matching counts differ", plus, inst.minus, ("plus", "minus")))
    return len(plus), fault


def temperley_fault(inst):
    """Temperley: the spanning trees of the source toward the root and the
    matchings of the refinement minus the root correspond bijectively and
    with equal weights.  Returns (trees, fault).

    The matching-to-tree map validates each image as a matching of the
    host, as the one-pass rule of ``_round_trip_fault`` needs."""
    from .bijections import temperley_matching_to_tree, temperley_tree_to_matching
    from .trees import enumerate_spanning_trees

    g = inst.ref.source
    tree_list = list(enumerate_spanning_trees(g, inst.root))
    fault = (_round_trip_fault(tree_list, partial(temperley_tree_to_matching, inst),
                               partial(temperley_matching_to_tree, inst),
                               (methodcaller("weight", g), methodcaller("weight", inst.ref.graph)))
             or _count_fault("tree and matching counts differ", tree_list,
                             inst.host, ("trees", "matchings")))
    return len(tree_list), fault


def transport_fault(inst, paths):
    """Run transport: for every subset of the constraint indices, the
    matchings of the two hosts that contain the forced path edges carry
    equal weight, and transport is an involution on the primed host.
    Returns (primed host matchings, fault).

    The image of ``tea_transport`` does not depend on its constraints, which
    only add checks, so each matching goes there and back once, constrained
    at every index whose forced edges it holds: that checks the glide paths
    against the constraint paths and the image's forced edges for every
    subset class the matching belongs to."""
    from .bijections import forced_path_matching, tea_transport
    from .matchings import _forced_matching_weight

    ref = inst.smashed.refinement
    mus = list(enumerate_matchings(inst.host_prime))
    indices = sorted(paths)
    forced_a = {i: forced_path_matching(ref, paths[i], True) for i in indices}
    forced_b = {i: forced_path_matching(ref, paths[i], False) for i in indices}
    for bits in range(2 ** len(indices)):
        chosen = [indices[i] for i in range(len(indices)) if bits >> i & 1]
        wa = _forced_matching_weight(inst.host_plain, set().union(*(forced_a[i] for i in chosen)))
        wb = _forced_matching_weight(inst.host_prime, set().union(*(forced_b[i] for i in chosen)))
        if wa != wb:
            return len(mus), (f"constrained weights differ for {chosen}", f"{wa} vs {wb}")
    for mu in mus:
        move = partial(tea_transport, inst, constraints={
            i: paths[i] for i in indices if forced_b[i] <= mu.edges})
        fault = _round_trip_fault([mu], move, move)
        if fault:
            return len(mus), fault
    return len(mus), None


# ---------------------------------------------------------------------------
# Check bodies (shared by the suite and the acceptance tests)
# ---------------------------------------------------------------------------


def check_grid_kasteleyn(mmax: int = 3, nmax: int = 3) -> tuple[bool, str, str | None]:
    from .generators import grid_graph

    values = {}
    for m in range(1, mmax + 1):
        for n in range(1, nmax + 1):
            closed = kasteleyn_grid_count(m, n)
            direct = count_matchings(grid_graph(2 * m, 2 * n))
            if closed != direct:
                return False, f"mismatch at ({m},{n})", f"closed={closed} direct={direct}"
            values[(m, n)] = closed
    big = count_matchings(grid_graph(8, 8))
    if big != 12988816:
        return False, "8x8 grid count off", str(big)
    shown = [f"M(2x2)={values[(1, 1)]}"]
    if (2, 2) in values:
        shown.append(f"M(4x4)={values[(2, 2)]}")
    shown.append(f"M(8x8)={big}")
    return True, f"{mmax * nmax} grid sizes agree; " + " ".join(shown), None


def _instances(count, seed, body, summary, indexed=False):
    """Run ``body`` on each child seed ``split_seed(seed, k)``, k < count, after
    k when ``indexed``.  A fault ``(what, witness)`` from the body fails the run
    as ``instance k: what``; else it returns a number to tally or None, and the
    run passes with ``summary`` formatted with the count and the tally."""
    tally = 0
    for k in range(count):
        child = split_seed(seed, k)
        out = body(k, child) if indexed else body(child)
        if isinstance(out, tuple):
            return False, f"instance {k}: {out[0]}", out[1]
        tally += out or 0
    return True, summary.format(count=count, tally=tally), None


def balance_fault(inst):
    """Section 2: the plus and minus graphs have equal matching counts.
    Returns the plus count, or the fault."""
    plus, minus = count_matchings(inst.plus), count_matchings(inst.minus)
    return plus if plus == minus else ("unbalanced", f"plus={plus} minus={minus}")


def bar_fault(inst):
    """The symmetrized graph counts 2^n times the plus and the minus count,
    and that count is squarish.  Returns the fault, or None."""
    from .refine import symmetrize

    total = count_matchings(symmetrize(inst))
    plus, minus, n = count_matchings(inst.plus), count_matchings(inst.minus), inst.boundary.n
    if total != 2 ** n * plus * minus:
        return "product identity failed", f"bar={total} 2^{n}*{plus}*{minus}"
    return None if squarish(int(total)) else ("count not squarish", str(total))


def tree_swap_fault(inst):
    """The base's spanning trees rooted at the last path vertex in which
    each even path vertex v_2, v_4, ... exits forward are as many as those
    rooted at the first in which each exits backward.  Returns the fault,
    or None."""
    from .trees import _forced_tree_weight

    g0, path = inst.base, inst.boundary.inner
    edges = inst.boundary.boundary_edges[1:-1]  # edge j joins path[j] and path[j + 1]
    # every base edge has weight 1, so these weights are tree counts
    odd = range(1, len(edges), 2)
    lhs = _forced_tree_weight(g0, path[-1], {path[j]: [edges[j]] for j in odd})
    rhs = _forced_tree_weight(g0, path[0], {path[j]: [edges[j - 1]] for j in odd})
    return None if lhs == rhs else ("constrained tree counts differ", f"{lhs} vs {rhs}")


def check_section2(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import random_section2

    return _instances(count, seed, lambda child: balance_fault(random_section2(child)),
                      "{count} instances, equal counts on both sides ({tally} matchings total)")


def check_phi_roundtrip(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import random_section2

    return _instances(count, seed, lambda child: phi_fault(random_section2(child))[1],
                      "{count} instances checked exhaustively")


def check_bar_squarish(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import random_section2

    return _instances(count, seed, lambda child: bar_fault(random_section2(child)),
                      "{count} instances: product identity and squarishness hold")


def check_trimmed_squarish(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import random_trimmed

    def trimmed(child):
        g, n, removals = random_trimmed(child)
        total = count_matchings(g)
        return None if squarish(int(total)) else (f"n={n}, {len(removals)} removals", str(total))

    return _instances(count, seed, trimmed,
                      "{count} trimmed squares: every count squarish (empirical check)")


def check_temperley(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .bijections import temperley_instance
    from .generators import grid_graph, random_plane_graph
    from .refine import dual_refinement
    from .trees import count_spanning_trees

    if count_spanning_trees(grid_graph(3, 3)) != 192:
        return False, "3x3 grid tree count is not 192", None

    def rooted(k, child):
        g = random_plane_graph(child, weighted=(k % 2 == 0))
        ref = dual_refinement(g)
        trees_total = count_spanning_trees(g)
        insts = [temperley_instance(ref, v) for v in sorted(g.infinite_face_vertices())]
        for inst in insts:
            if count_matchings(inst.host) != trees_total:
                return f"root {inst.root} breaks the correspondence", \
                    f"trees={trees_total} matchings={count_matchings(inst.host)}"
        return temperley_fault(insts[0])[1]

    return _instances(count, seed, rooted, "3x3 grid =192; {count} instances: root "
                      "independence and round trips", indexed=True)


def check_tree_swap(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import random_section2

    return _instances(count, seed, lambda child: tree_swap_fault(random_section2(child)),
                      "{count} instances: constrained tree counts match under root swap")


def check_transport(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import random_transport

    return _instances(count, seed, lambda child: transport_fault(*random_transport(child))[1],
                      "{count} instances: weights equal for every index subset; "
                      "transport involutive")


def check_aztec(nmax_enum: int = 3) -> tuple[bool, str, str | None]:
    from .aztec import aztec_bijection, aztec_formula, aztec_pair

    expected = [1, 4, 60, 3328, 678912]
    got = [aztec_formula(n) for n in range(1, 6)]
    if got != expected:
        return False, "closed form disagrees", str(got)
    for n in range(1, 6):
        t, tp = aztec_pair(n)
        ct, ctp = count_matchings(t.graph), count_matchings(tp.graph)
        if not (ct == ctp == expected[n - 1]):
            return False, f"n={n}: counts disagree", f"{ct} {ctp} vs {expected[n - 1]}"
    for n in range(1, nmax_enum + 1):
        mus = list(enumerate_matchings(aztec_pair(n)[0].graph))
        if len(mus) != expected[n - 1]:
            return False, f"n={n}: enumeration count off", str(len(mus))
        # an injection between two sets of the same finite size is a bijection
        flip = partial(aztec_bijection, n)
        fault = _round_trip_fault(mus, flip, flip)
        if fault:
            return False, f"n={n}: {fault[0]}", fault[1]
    return True, (f"counts {expected} match the closed form for both variants; "
                  f"bijection involutive for n <= {nmax_enum}"), None


def check_banded(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import random_transport
    from .trees import banded_forest_weight, tec_forest_to_matching, tec_matching_to_forest

    def banded(child):
        inst, _paths = random_transport(child, require_plain_path=False)
        mus = list(enumerate_matchings(inst.host_prime))
        fault = _round_trip_fault(mus, partial(tec_matching_to_forest, inst),
                                  partial(tec_forest_to_matching, inst),
                                  (methodcaller("weight", inst.host_prime),
                                   partial(banded_forest_weight, inst)))
        if fault or len(inst.forest_graph.edges) > 14:
            return fault
        qualifying = _enumerate_banded(inst)
        if qualifying != len(mus):
            return "forest enumeration disagrees", f"{qualifying} forests vs {len(mus)} matchings"
        return 1

    return _instances(count, seed, banded, "{count} instances: round trips, weights and "
                      "channel/bay labels hold ({tally} double enumerations)")


def _enumerate_banded(inst) -> int:
    """Count banded forests with the required pairing by brute force over
    edge subsets (tiny instances only)."""
    from .trees import _banded_certificate, orient_edge_set

    g0 = inst.forest_graph
    total = 0
    for edges in combinations(g0.edges, len(g0.vertices) - len(inst.prime_odd)):
        try:
            _banded_certificate(inst, orient_edge_set(g0, edges, inst.prime_odd))
        except DimerforgeError:
            continue
        total += 1
    return total


def check_cycle_parity(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import random_plane_graph
    from .parity import interior_vertex_count, simple_cycles

    def odd(child):
        g = random_plane_graph(child)
        cycles = simple_cycles(g)
        for cyc in cycles:
            if interior_vertex_count(g, cyc).total % 2 != 1:
                return "even interior count", str(cyc)
        return len(cycles)

    return _instances(count, seed, odd, "{count} graphs, {tally} cycles, interior counts all odd")


def check_class_weights(count: int, seed: int) -> tuple[bool, str, str | None]:
    import random as _random

    from .bijections import reflect_swap
    from .generators import random_symmetric
    from .matchings import _forced_matching_weight
    from .trees import class_weight

    def constant(k, child):
        g, cert = random_symmetric(child, need_matchings=(k % 2 == 0))
        rng = _random.Random(split_seed(seed, 10 ** 6 + k))
        axis = cert.axis_vertices
        # matching level: disjoint edges from the odd-position axis vertices
        # to vertices off them; ``used`` holds the ends of the marked edges
        odd_axis, marked, used = set(axis[0::2]), [], set()
        for a in axis[0::2]:
            options = [e for e in g.adj[a]
                       if not g.edges[e].ends & used and len(g.edges[e].ends & odd_axis) == 1]
            if options and rng.random() < 0.8:
                e = rng.choice(sorted(options))
                marked.append(e)
                used |= g.edges[e].ends
        if marked:
            # the class of ``bits`` forces each marked edge (bit set) or its mirror
            weights = {bits: _forced_matching_weight(
                g, {e if bits >> i & 1 else cert.edge_map[e] for i, e in enumerate(marked)})
                for bits in range(2 ** len(marked))}
            if len(set(weights.values())) != 1:
                return "matching class weights differ", str(weights)
            e0 = g.edges[marked[0]]
            swap = partial(reflect_swap, g, cert, axis_vertex=e0.u if e0.u in axis else e0.v)
            price = methodcaller("weight", g)
            mus = list(enumerate_matchings(g))
            fault = _round_trip_fault(mus, swap, swap, (price, price))
            if fault:
                return f"swap {fault[0]}", fault[1]
            # the swap trades the marked edge for its mirror image at the anchor
            for mu in mus:
                if e0.id in mu.edges and cert.edge_map[e0.id] not in swap(mu).edges:
                    return f"swap keeps edge {e0.id}", str(sorted(mu.edges))
        # tree level
        root_options = [v for v in (axis[0], axis[-1]) if v not in used]
        tree_marked = [e for e in marked
                       if g.vertices[g.edges[e].u].pos[1] != g.vertices[g.edges[e].v].pos[1]]
        if root_options and tree_marked:
            tree_weights = {bits: class_weight(g, cert, root_options[0], tree_marked,
                                               {i + 1 for i in range(len(tree_marked))
                                                if bits >> i & 1})
                            for bits in range(2 ** len(tree_marked))}
            if len(set(tree_weights.values())) != 1:
                return "tree class weights differ", str(tree_weights)
        return None

    return _instances(count, seed, constant, "{count} symmetric instances: class weights "
                      "constant, swaps involutive", indexed=True)


def check_independence(count: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import diagonal_grid, random_exit_side
    from .planar import check_reflection_symmetry
    from .trees import independence_report

    def uniform(k, child):
        rep = independence_report(*random_exit_side(child, k % 2), "exit-side")
        return None if rep.passed else ("joint distribution not uniform", rep.render())

    verdict = _instances(count, seed, uniform, "{count} instances plus a diagonal grid: "
                         "exactly uniform joint laws", indexed=True)
    dg = diagonal_grid(3)
    cert = check_reflection_symmetry(dg, Fraction(0))
    rep = independence_report(dg, cert, cert.axis_vertices[0], "hv")
    if verdict[0] and not rep.passed:
        return False, "diagonal grid horizontal/vertical cells not uniform", rep.render()
    return verdict


def check_independence_sampled(samples: int, seed: int) -> tuple[bool, str, str | None]:
    from .generators import diagonal_grid
    from .planar import check_reflection_symmetry
    from .trees import independence_report

    dg = diagonal_grid(5)
    cert = check_reflection_symmetry(dg, Fraction(0))
    rep = independence_report(dg, cert, cert.axis_vertices[0], "hv", samples=samples, seed=seed)
    detail = (f"5x5 diagonal grid, {samples} samples, chi2={rep.chi_square:.3f}, "
              f"p={rep.p_value:.3e}")
    return rep.passed, detail, None if rep.passed else rep.render()


def check_matchings_file(path: str,
                         expected: Fraction | None = None) -> tuple[bool, str, str | None]:
    from .planar import parse_graph, read_text

    g = parse_graph(read_text(path))
    total = count_matchings(g)
    if len(g.vertices) <= 16:
        by_enum = sum(m.weight(g) for m in enumerate_matchings(g))
        if by_enum != total:
            return False, f"{path}: enumeration disagrees with the count", \
                f"{by_enum} vs {total}"
    if expected is not None and total != expected:
        return False, f"{path}: expected {expected}", str(total)
    return True, f"{path}: weight {total}", None


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def _aztec_order(text: str) -> int:
    if not 1 <= int(text) <= 5:
        raise ValueError("must be from 1 to 5, the orders with a closed-form value")
    return int(text)


_CHECKS = {
    "grid-kasteleyn": (check_grid_kasteleyn, (int, int), False),
    "section2": (check_section2, (int,), True),
    "phi-roundtrip": (check_phi_roundtrip, (int,), True),
    "bar-squarish": (check_bar_squarish, (int,), True),
    "trimmed-squarish": (check_trimmed_squarish, (int,), True),
    "temperley": (check_temperley, (int,), True),
    "tree-swap": (check_tree_swap, (int,), True),
    "transport": (check_transport, (int,), True),
    "aztec": (check_aztec, (_aztec_order,), False),
    "banded": (check_banded, (int,), True),
    "cycle-parity": (check_cycle_parity, (int,), True),
    "class-weights": (check_class_weights, (int,), True),
    "independence": (check_independence, (int,), True),
    "independence-sampled": (check_independence_sampled, (int,), True),
    "matchings-file": (check_matchings_file, (str, parse_frac), False),
}


@dataclass(frozen=True)
class SuiteItem:
    name: str
    args: tuple


def parse_suite_config(text: str, seed_override: int | None = None) -> tuple[list[SuiteItem], int]:
    seed = 0
    items: list[SuiteItem] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "seed":
            if len(parts) != 2:
                raise ConfigError(f"line {lineno}: expected 'seed <int>'")
            try:
                seed = int(parts[1])
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad seed") from exc
        elif parts[0] == "check":
            if len(parts) < 2 or parts[1] not in _CHECKS:
                raise ConfigError(f"line {lineno}: unknown check {parts[1:2]}")
            argtypes = _CHECKS[parts[1]][1]
            raw_args = parts[2:]
            if len(raw_args) > len(argtypes):
                raise ConfigError(f"line {lineno}: too many arguments")
            args = []
            for value, typ in zip(raw_args, argtypes):
                try:
                    args.append(typ(value))
                    if typ is int and args[-1] < 1:
                        raise ValueError("counts must be at least 1")
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}: bad argument {value!r}: {exc}") from exc
            if parts[1].endswith("-file"):
                if not raw_args:
                    raise ConfigError(f"line {lineno}: missing file argument")
                if not os.path.exists(raw_args[0]):
                    raise ConfigError(f"line {lineno}: no such file {raw_args[0]!r}")
            elif not raw_args:
                raise ConfigError(f"line {lineno}: missing arguments")
            items.append(SuiteItem(parts[1], tuple(args)))
        else:
            raise ConfigError(f"line {lineno}: unknown directive {parts[0]!r}")
    if not items:
        # a report of zero checks would pass with nothing verified
        raise ConfigError("no checks")
    return items, seed if seed_override is None else seed_override


def _run_one(item: SuiteItem, idx: int, base_seed: int) -> CheckResult:
    fn, _, seeded = _CHECKS[item.name]
    started = time.monotonic()
    try:
        if seeded:
            ok, details, witness = fn(*item.args, seed=split_seed(base_seed, idx))
        else:
            ok, details, witness = fn(*item.args)
    except DimerforgeError as exc:
        ok, details, witness = False, f"error: {exc}", None
    return CheckResult(item.name, ok, details, witness, time.monotonic() - started)


def run_suite(config_text: str, jobs: int = 1,
              seed: int | None = None) -> VerificationReport:
    """Run a config's checks, in worker processes when ``jobs > 1``.

    ``jobs`` bounds the worker count, as do the item count and the CPUs.
    Results keep config order and each item's child seed is
    ``split_seed(base_seed, index)``, so the report does not depend on
    ``jobs``."""
    items, base_seed = parse_suite_config(config_text, seed)
    run_one = partial(_run_one, base_seed=base_seed)
    if jobs > 1:
        # imported here: multiprocessing would add tens of ms to every startup
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, len(items), os.cpu_count() or 1)
        # forked workers inherit these, so no worker imports them again
        from . import aztec, bijections, generators, parity  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, items, range(len(items))))
    else:
        results = list(map(run_one, items, range(len(items))))
    return VerificationReport(tuple(results), base_seed)
