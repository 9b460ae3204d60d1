"""Spanning trees and forests: enumeration, exact counting, uniform sampling,
the banded-forest/matching correspondence, and symmetry class weights.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import erfc, exp, lgamma, log, prod, sqrt
from typing import Iterator

from .errors import (
    BandPairingViolated,
    ChannelPairingViolated,
    ClassificationFailed,
    HypothesisViolated,
    NotBanded,
    PreconditionViolated,
)
from .matchings import Matching, _bareiss_det
from .planar import PlanarGraph, SymmetryCertificate, _ccw_positions, _components, _find

# ---------------------------------------------------------------------------
# Rooted forests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootedForest:
    """Per-vertex oriented parent assignment toward a designated root set.

    ``assignments`` holds (vertex, edge id, parent vertex) triples, sorted by
    vertex; spanning trees are the single-root case.
    """

    host: str
    roots: tuple[int, ...]
    assignments: tuple[tuple[int, int, int], ...]

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(e for _, e, _ in self.assignments)

    def weight(self, g: PlanarGraph) -> Fraction:
        return prod((g.edges[e].weight for _, e, _ in self.assignments), start=Fraction(1))


def _search_parents(g: PlanarGraph, edges, roots) -> RootedForest:
    """Search the edge set outward from each root in turn; every vertex
    reached, other than a root, exits along the edge it was first reached
    by.  A search from the roots is a forest by construction, so the result
    is a ``RootedForest``.  ``edges`` come in ascending id order, and so does
    each vertex's list of them."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for eid in edges:
        e = g.edges.get(eid)
        if e is None:
            raise PreconditionViolated(f"edge {eid} is not in the graph")
        adj[e.u].append((eid, e.v))
        adj[e.v].append((eid, e.u))
    roots = tuple(sorted(set(roots)))
    assignments = []
    # a root never takes a parent, so a path joining two roots keeps an edge
    # that the search leaves out
    seen = set(roots)
    for r in roots:
        if r not in adj:
            raise PreconditionViolated(f"root {r} not in graph")
        stack = [r]
        while stack:
            v = stack.pop()
            for eid, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    assignments.append((w, eid, v))
                    stack.append(w)
    return RootedForest(g.graph_id, roots, tuple(sorted(assignments)))


def orient_edge_set(g: PlanarGraph, edges, roots) -> RootedForest:
    """Orient a forest given as an edge set toward the given roots; the set
    must be exactly the forest's edges, each listed once.  This is the one
    forest validator."""
    edges = sorted(edges)
    forest = _search_parents(g, edges, roots)
    if len(forest.roots) + len(forest.assignments) != len(g.vertices):
        raise PreconditionViolated("edge set does not span the graph from the roots")
    if edges != sorted(e for _, e, _ in forest.assignments):
        raise PreconditionViolated("edge set is not a forest: it has edges beyond the "
                                   "parent edges toward the roots")
    return forest


# ---------------------------------------------------------------------------
# Enumeration and exact counting
# ---------------------------------------------------------------------------


def enumerate_spanning_trees(g: PlanarGraph, root: int) -> Iterator[RootedForest]:
    """All spanning trees, oriented toward ``root``, in the deterministic
    order induced by include/exclude decisions on ascending edge ids."""
    n = len(g.vertices)
    if root not in g.vertices:
        raise PreconditionViolated(f"root {root} not in graph")
    edge_ids = list(g.edges)

    def connected_with(active_parent: dict[int, int], from_idx: int) -> bool:
        par = dict(active_parent)
        comps = len({_find(par, v) for v in g.vertices})
        for eid in edge_ids[from_idx:]:
            e = g.edges[eid]
            ru, rv = _find(par, e.u), _find(par, e.v)
            if ru != rv:
                par[ru] = rv
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(idx: int, chosen: list[int], par: dict[int, int], remaining: int):
        if remaining == 0:
            # n - 1 union-find merges: a spanning tree, so nothing to re-check
            yield _search_parents(g, chosen, (root,))
            return
        if idx == len(edge_ids):
            return
        eid = edge_ids[idx]
        e = g.edges[eid]
        ru, rv = _find(par, e.u), _find(par, e.v)
        if ru != rv:
            child = dict(par)
            child[ru] = rv
            chosen.append(eid)
            yield from rec(idx + 1, chosen, child, remaining - 1)
            chosen.pop()
        if connected_with(par, idx + 1):
            yield from rec(idx + 1, chosen, par, remaining)

    yield from rec(0, [], {v: v for v in g.vertices}, n - 1)


def _forced_tree_weight(g: PlanarGraph, root: int, forced: dict[int, list[int]]) -> Fraction:
    """Total weight of the spanning trees oriented toward ``root`` in which
    each vertex of ``forced`` exits along one of its listed edge ids.

    By the directed matrix-tree theorem (Tutte 1948; Chaiken 1982) this is
    the determinant of the out-Laplacian with the root's row and column
    deleted, where a forced vertex's row is built from its listed edges
    alone.  Row v is read off the graph's weight table, scaled by d_v, so the
    fraction-free determinant is divided by the product of the d_v.
    """
    table = g.weight_table()
    verts = [v for v in g.vertices if v != root]
    idx = {v: i for i, v in enumerate(verts)}
    lap = [[0] * len(verts) for _ in verts]
    for v in verts:
        row = lap[idx[v]]
        listed = forced.get(v)
        for eid, u, w in table.exits[v]:
            if listed is None or eid in listed:
                row[idx[v]] += w
                if u != root:
                    row[idx[u]] -= w
    return Fraction(_bareiss_det(lap), prod(table.scale[v] for v in verts))


def count_spanning_trees(g: PlanarGraph) -> Fraction:
    """Weighted spanning tree count from a reduced-Laplacian determinant,
    computed fraction-free over exact integers."""
    if not g.vertices:
        return Fraction(0)
    return _forced_tree_weight(g, max(g.vertices), {})


# ---------------------------------------------------------------------------
# Uniform spanning tree sampling (loop-erased random walks)
# ---------------------------------------------------------------------------


def split_seed(seed: int, task: int) -> int:
    """Derive an independent child seed; documented, stable across runs."""
    digest = hashlib.sha256(f"{seed}:{task}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def ust_sample(g: PlanarGraph, root: int, seed: int) -> RootedForest:
    """One spanning tree drawn with probability proportional to its weight
    product, via loop-erased random walks (Wilson 1996).

    Deterministic for a fixed seed, through the Mersenne Twister bit stream
    alone: the walks start from each vertex in ascending order, and a step
    from v reads v's row (k, pick) of the graph's walk table, where T is v's
    total scaled exit weight and k = T.bit_length().  It draws
    r = ``getrandbits(k)`` until pick[r] is not None, that is until r < T;
    pick[r] is then the first exit, in edge-id order, whose cumulative weight
    exceeds r.  These are the draws CPython 3.11's ``randrange(T)`` makes,
    so each seed gives the tree of the walk that called it."""
    step = _ust_exits(g, root, random.Random(seed))
    ids = g.vertex_order()[0]
    return RootedForest(g.graph_id, (root,),
                        tuple((v, x[0], ids[x[1]]) for v, x in zip(ids, step) if x))


def _ust_exits(g: PlanarGraph, root: int,
               rng: random.Random) -> list[tuple[int, int] | None]:
    """The walks of ``ust_sample``, drawn from the seeded ``rng``, on vertex
    positions (``g.vertex_order``); returns the drawn tree's exits by
    position: (edge id, parent position) for each non-root vertex, None for
    the root.  A step is one ``getrandbits`` and one index into the vertex's
    row of ``g.walk_table()``, repeated while the index gives None."""
    if root not in g.vertices:
        raise PreconditionViolated(f"root {root} not in graph")
    # a walk ends only if the positive-weight edges connect its start to the root
    if not g.weight_table().connected:
        raise PreconditionViolated("graph is not connected by positive-weight edges")
    rows = g.walk_table()
    getrandbits = rng.getrandbits
    in_tree = [False] * len(rows)
    in_tree[g.vertex_order()[1][root]] = True
    step: list = [None] * len(rows)
    for start in range(len(rows)):  # positions run in ascending id order
        v = start
        while not in_tree[v]:
            k, pick = rows[v]
            x = pick[getrandbits(k)]
            while x is None:
                x = pick[getrandbits(k)]
            step[v] = x
            v = x[1]
        # the loop-erased walk follows each vertex's last exit
        v = start
        while not in_tree[v]:
            in_tree[v] = True
            v = step[v][1]
    # no walk steps from a tree vertex again, so each step left is the exit
    # the tree took: a spanning tree, since each walk stops on the tree so far
    return step


def chi_square_sf(stat: float, dof: int) -> float:
    """Upper tail probability of the chi-square distribution: the regularized
    upper incomplete gamma Q(dof/2, stat/2).

    Q(a + 1, x) = Q(a, x) + x^a e^-x / Gamma(a + 1), climbing from
    Q(1/2, x) = erfc(sqrt x) for odd dof or Q(0, x) = 0 for even dof; each
    term is taken in log space, so the tail does not underflow before p does.
    """
    x = stat / 2
    if x <= 0:
        return 1.0
    half = dof % 2 / 2
    p = erfc(sqrt(x)) if half else 0.0
    for k in range(dof // 2):
        a = half + k
        p += exp(a * log(x) - x - lgamma(a + 1))
    return p


# ---------------------------------------------------------------------------
# Dual forests, channels and bays
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualForest:
    """Duals of the primal edges missing from a banded forest: an acyclic
    subgraph of the planar dual, spanning all bounded faces."""

    primal_edges: tuple[int, ...]
    face_pairs: tuple[tuple[int, int], ...]  # sides_of_edge of each primal edge
    components: tuple[frozenset[int], ...]  # face-index sets
    exits: dict[int, list[int]]  # bounded face -> its missing boundary edges


def dual_forest(g: PlanarGraph, forest_edges) -> DualForest:
    faces = g.trace_faces()
    inf = faces.infinite_index
    forest_edges = set(forest_edges)
    par = {f.index: f.index for f in faces.bounded}
    used = []
    pairs = []
    exits: dict[int, list[int]] = {}
    for eid in g.edges:
        if eid in forest_edges:
            continue
        fa, fb = faces.sides_of_edge(g.edges[eid])
        if fa == fb:
            continue
        if inf in (fa, fb):
            exits.setdefault(fb if fa == inf else fa, []).append(eid)
            continue
        ra, rb = _find(par, fa), _find(par, fb)
        if ra == rb:
            raise NotBanded(f"dual edges form a cycle at primal edge {eid}")
        par[ra] = rb
        used.append(eid)
        pairs.append((fa, fb))
    groups: dict[int, set[int]] = {}
    for f in faces.bounded:
        groups.setdefault(_find(par, f.index), set()).add(f.index)
    comps = tuple(sorted((frozenset(s) for s in groups.values()), key=min))
    return DualForest(tuple(used), tuple(pairs), comps, exits)


def _boundary_arcs(g: PlanarGraph, marks: list[int]) -> dict[int, int]:
    """Map each boundary edge to the index of the arc between consecutive
    marks (arc i runs counterclockwise from marks[i] to marks[i+1]); the
    marks themselves must sit on the boundary in this cyclic order."""
    cycle = g.ccw_boundary()
    pos = _ccw_positions(
        cycle, marks,
        lambda m: ClassificationFailed(
            f"boundary mark {m} does not appear exactly once on the infinite face"),
        lambda: NotBanded(
            f"distinguished points are not in counterclockwise order: {marks}"))
    start = pos[0]
    arc_of_edge = {}
    arc = 0
    for v, e in cycle[start:] + cycle[:start]:
        if v in marks:
            arc = marks.index(v)
        arc_of_edge[e] = arc
    return arc_of_edge


def classify_components(ambient: PlanarGraph, forest: RootedForest,
                        pairs: list[tuple[int, int]],
                        forest_graph: PlanarGraph) -> DualForest:
    """Check bandedness against the distinguished pairs and that every dual
    forest component is a channel (two contacts with the infinite face,
    crossing the two opposite arcs between consecutive bands) or a bay (one
    contact); return the dual forest.

    ``ambient`` supplies the faces and the boundary; the forest spans
    ``forest_graph``, ambient itself or an induced subgraph of it (smashed
    corners stay out of the bands but their faces stay in the dual).
    """
    forest_edges = forest.edge_set
    dual = dual_forest(ambient, forest_edges)
    band = _components(forest_graph.vertices,
                       ((ambient.edges[e].u, ambient.edges[e].v) for e in forest_edges))
    bands = len(set(band.values()))
    if bands != len(pairs):
        raise NotBanded(f"forest has {bands} components for {len(pairs)} pairs")
    for u, up in pairs:
        if band[u] != band[up]:
            raise BandPairingViolated(f"{u} and {up} lie in different components")
    if len({band[u] for u, _ in pairs}) != len(pairs):
        raise BandPairingViolated("two distinguished pairs share a component")
    # counterclockwise order u_1..u_k, u'_k..u'_1 along the infinite face
    marks = [u for u, _ in pairs] + [up for _, up in reversed(pairs)]
    arc_of_edge = _boundary_arcs(ambient, marks)
    k = len(pairs)
    for members in dual.components:
        touch = sorted(f for f in members if f in dual.exits)
        if not touch:
            raise ClassificationFailed(
                f"dual component {sorted(members)} has no contact with the infinite face")
        if len(touch) > 2:
            raise ClassificationFailed(
                f"dual component {sorted(members)} has {len(touch)} contact faces")
        arcs = []
        for f in touch:
            arcset = {arc_of_edge[e] for e in dual.exits[f]}
            if len(arcset) != 1:
                raise ClassificationFailed(
                    f"contact face {f} touches the infinite face on several arcs")
            arcs += arcset
        if len(touch) == 2:
            a, b = sorted(arcs)
            # the two crossings must sit on the opposite arcs of one band gap:
            # (u_i, u_{i+1}) pairs with (u'_{i+1}, u'_i), arc indices i-1 and 2k-1-i
            if a + b != 2 * k - 2 or a == k - 1:
                raise ClassificationFailed(
                    f"channel arcs {arcs} are not opposite arcs of a band gap")
    return dual


# ---------------------------------------------------------------------------
# Banded forests <-> matchings of the smashed refinement
# ---------------------------------------------------------------------------


def banded_forest_weight(instance, forest: RootedForest) -> Fraction:
    """Weight of a banded forest: the product of its edge weights, times the
    product of the dual weights of the dual forest's edges (all 1 in the
    unweighted-dual case, recovering the plain forest weight)."""
    ref = instance.smashed.refinement
    w = forest.weight(instance.forest_graph)
    dual_w = dict(instance.dual_weights)
    if dual_w:
        for eid in dual_forest(ref.source, forest.edge_set).primal_edges:
            w *= dual_w.get(eid, Fraction(1))
    return w


def _matching_to_forest(ref, host: PlanarGraph, mu: Matching, g: PlanarGraph,
                        roots) -> RootedForest:
    """Read a forest of ``g`` off a matching of ``host``: each non-root
    vertex exits along the primal edge containing its matched half-edge.

    ``orient_edge_set`` validates the list of exits, and the forest it
    returns has those exits as its parent edges.  Each exit is an edge at
    its own vertex.  The validator rejects a repeated id, a vertex the
    search misses and any edge beyond the forest, so the exits are distinct
    and are the edges of a forest with one root per tree.  A non-root leaf
    of that forest has one edge, its searched parent edge, which must then
    be its exit; peel the leaf and its edge, which is no other vertex's
    exit, and repeat."""
    cover = mu.cover_map(host)
    return orient_edge_set(g, [ref.edge_of_mid[host.edges[cover[v]].other(v)]
                               for v in g.vertices if v not in roots], roots)


def _forest_to_matching(ref, host: PlanarGraph, forest: RootedForest, dual: DualForest,
                        primed_faces) -> Matching:
    """The matching of ``host`` read off a forest and its dual forest: the
    forest's tail half-edges, then those of each dual component oriented
    away from its root face.  The root face is the component's primed
    center; a component without one (a bay) is rooted at the face of its
    single boundary exit whose midpoint is in ``host``, and that exit's stub
    half-edge is taken too.  Each half-edge is read off the across-map of
    its midpoint."""
    chosen = {ref.across[ref.mid_of_edge[eid]][v][1] for v, eid, _p in forest.assignments}
    dual_adj: dict[int, list[tuple[int, int]]] = {}
    for eid, (fa, fb) in zip(dual.primal_edges, dual.face_pairs):
        dual_adj.setdefault(fa, []).append((eid, fb))
        dual_adj.setdefault(fb, []).append((eid, fa))
    for members in dual.components:
        # no component holds two primed centers: each smashed face exits to
        # the infinite face, the certificate puts it in its plain partner's
        # component, and a component has at most two contact faces
        root = next((f for f in primed_faces if f in members), None)
        if root is None:
            candidates = [(f, eid) for f in sorted(members) for eid in dual.exits.get(f, ())
                          if ref.mid_of_edge[eid] in host.vertices]
            if len(candidates) != 1:
                raise ClassificationFailed(
                    f"bay {sorted(members)} has {len(candidates)} boundary exits")
            root, eid = candidates[0]
            chosen.add(ref.across[ref.mid_of_edge[eid]][ref.center_of_face[root]][1])
        # depth-first from the root face: each newly reached face takes the
        # half-edge from its center to the midpoint of the edge crossed into
        # it; the dual forest lists its edges, so each face's, by ascending id
        seen = {root}
        stack = [root]
        while stack:
            f = stack.pop()
            for eid, other in dual_adj.get(f, ()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
                    chosen.add(ref.across[ref.mid_of_edge[eid]][ref.center_of_face[other]][1])
    return Matching(host.graph_id, frozenset(chosen))


def _banded_certificate(instance, forest: RootedForest) -> DualForest:
    """Classify a forest of the instance's forest graph against its mark
    pairs, check that each plain even face shares its dual component with
    its primed partner, and return the dual forest."""
    dual = classify_components(instance.smashed.refinement.source, forest,
                               list(zip(instance.plain_odd, instance.prime_odd)),
                               instance.forest_graph)
    comp_of_face = {f: members for members in dual.components for f in members}
    for fa, fb in zip(instance.plain_even_faces, instance.prime_even_faces):
        if comp_of_face[fa] is not comp_of_face[fb]:
            raise ChannelPairingViolated(
                f"faces {fa} and {fb} lie in different dual components")
    return dual


def tec_matching_to_forest(instance, mu: Matching) -> RootedForest:
    """The banded spanning forest of a matching of the primed-deleted host,
    rooted at the primed odd marks.  Bandedness is left to
    ``tec_forest_to_matching``, which classifies the forest for its dual."""
    host = instance.host_prime
    if mu.host != host.graph_id:
        raise PreconditionViolated("matching does not belong to the primed-deleted host")
    return _matching_to_forest(instance.smashed.refinement, host, mu,
                               instance.forest_graph, instance.prime_odd)


def tec_forest_to_matching(instance, forest: RootedForest) -> Matching:
    """Inverse construction: tail half-edges of the forest, of the channels
    rooted at the primed centers, and of the augmented bays."""
    if forest.host != instance.forest_graph.graph_id:
        raise PreconditionViolated("forest does not span the expected graph")
    if set(forest.roots) != set(instance.prime_odd):
        raise PreconditionViolated("forest roots differ from the primed marks")
    return _forest_to_matching(instance.smashed.refinement, instance.host_prime, forest,
                               _banded_certificate(instance, forest), instance.prime_even_faces)


# ---------------------------------------------------------------------------
# Symmetry class weights and independence reports
# ---------------------------------------------------------------------------


def class_weight(g: PlanarGraph, cert: SymmetryCertificate, root: int,
                 marked_edges: list[int], chosen: set[int] | frozenset[int]) -> Fraction:
    """Total weight of the spanning trees rooted at ``root`` in which the
    axis endpoint of each marked edge exits along the edge itself (index in
    ``chosen``) or along its mirror image (otherwise): one determinant, with
    each axis endpoint forced to its wanted edge."""
    axis = set(cert.axis_vertices)
    if root not in axis:
        raise HypothesisViolated(f"root {root} is not on the axis")
    if root not in g.infinite_face_vertices():
        raise HypothesisViolated(f"root {root} is not on the infinite face")
    anchors = []
    seen_vertices: set[int] = set()
    for eid in marked_edges:
        e = g.edges[eid]
        onax = [v for v in (e.u, e.v) if v in axis]
        if len(onax) != 1:
            raise HypothesisViolated(
                f"edge {eid} must touch the axis in exactly one endpoint")
        if root in (e.u, e.v):
            raise HypothesisViolated(f"root {root} is incident to marked edge {eid}")
        if e.u in seen_vertices or e.v in seen_vertices:
            raise HypothesisViolated("marked edges are not pairwise disjoint")
        seen_vertices.update((e.u, e.v))
        anchors.append((onax[0], eid))
    return _forced_tree_weight(
        g, root, {a: [eid if i in chosen else cert.edge_map[eid]]
                  for i, (a, eid) in enumerate(anchors, 1)})


@dataclass(frozen=True)
class IndependenceReport:
    variables: tuple[int, ...]
    table: tuple[tuple[tuple[int, ...], Fraction], ...]
    passed: bool
    samples: int = 0
    chi_square: float | None = None
    p_value: float | None = None

    def render(self) -> str:
        lines = [f"variables: {' '.join(map(str, self.variables))}"]
        for bits, weight in self.table:
            lines.append(f"  {''.join(map(str, bits))}  {weight}")
        if self.samples:
            lines.append(f"samples: {self.samples}")
            lines.append(f"chi-square: {self.chi_square:.6f}  p={self.p_value:.3e}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _exit_bit(g: PlanarGraph, cert: SymmetryCertificate, kind: str,
              v: int, parent_vertex: int) -> int:
    dy = g.vertices[parent_vertex].pos[1] - cert.axis_y
    if kind == "exit-side":
        if dy == 0:
            raise HypothesisViolated(f"vertex {v} exits along the axis")
        return 1 if dy > 0 else 0
    dx = g.vertices[parent_vertex].pos[0] - g.vertices[v].pos[0]
    dyv = g.vertices[parent_vertex].pos[1] - g.vertices[v].pos[1]
    if dx == 0 or dyv == 0:
        raise HypothesisViolated(f"edge at {v} is axis-parallel; not a diagonal grid")
    return 1 if (dx > 0) != (dyv > 0) else 0


def independence_variables(g: PlanarGraph, cert: SymmetryCertificate, root: int,
                           kind: str) -> tuple[int, ...]:
    axis = [v for v in cert.axis_vertices if v != root]
    if kind == "exit-side":
        out = []
        for v in axis:
            on_axis_edge = any(g.edges[e].other(v) in cert.axis_vertices
                               for e in g.adj[v])
            if not on_axis_edge:
                out.append(v)
        return tuple(out)
    return tuple(axis)


def independence_report(g: PlanarGraph, cert: SymmetryCertificate, root: int,
                        kind: str = "exit-side", samples: int = 0,
                        seed: int = 0) -> IndependenceReport:
    """Joint distribution of the per-axis-vertex exit indicators under the
    (weighted) uniform spanning tree rooted at ``root``.

    With ``samples = 0`` the distribution is computed exactly, one
    determinant per cell with each variable forced to exit along the edges
    that give its bit, and PASS means all cells carry equal weight;
    otherwise the tree is sampled and PASS means a chi-square test against
    the uniform law is not rejected at significance 1e-6.  No variable at
    all raises HypothesisViolated in both modes, since a table of one cell
    passes with nothing compared; so does a variable with an edge that
    gives no indicator value, whether or not any tree exits along it.
    """
    if root not in cert.axis_vertices:
        raise HypothesisViolated(f"root {root} is not on the axis")
    if root not in g.infinite_face_vertices():
        raise HypothesisViolated(f"root {root} is not on the infinite face")
    variables = independence_variables(g, cert, root, kind)
    if not variables:
        raise HypothesisViolated(f"no {kind} variables to compare")
    n = len(variables)
    # the exit edges of each variable, split by the indicator value they give
    exits = {v: ([], []) for v in variables}
    for v in variables:
        for eid in g.adj[v]:
            exits[v][_exit_bit(g, cert, kind, v, g.edges[eid].other(v))].append(eid)
    if samples == 0:
        cells = {bits: _forced_tree_weight(g, root, {v: exits[v][b]
                                                     for v, b in zip(variables, bits)})
                 for bits in product((0, 1), repeat=n)}
        passed = len(set(cells.values())) == 1
        return IndependenceReport(variables, tuple(sorted(cells.items())), passed)
    counts = {bits: 0 for bits in product((0, 1), repeat=n)}
    # each variable's walk position and the exit edges that give it bit 1
    position = g.vertex_order()[1]
    ones = [(position[v], frozenset(exits[v][1])) for v in variables]
    # one generator, reseeded per sample: the streams of ust_sample's seeds
    rng = random.Random()
    for k in range(samples):
        rng.seed(split_seed(seed, k))
        step = _ust_exits(g, root, rng)
        counts[tuple(int(step[i][0] in bit1) for i, bit1 in ones)] += 1
    expected = samples / 2 ** n
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    p = chi_square_sf(stat, 2 ** n - 1)
    return IndependenceReport(variables,
                              tuple(sorted((b, Fraction(c)) for b, c in counts.items())),
                              p >= 1e-6, samples=samples, chi_square=stat, p_value=p)
