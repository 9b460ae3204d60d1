"""Invertible transformations between matchings and between matchings and
trees: glide-path families and the plus/minus swap, the tree/matching
correspondence on dual refinements, run-transport between smashed hosts,
and the reflection swap on symmetric graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConditionViolated,
    ConstraintPathMismatch,
    DimerforgeError,
    NotOnAxis,
    PreconditionViolated,
    RootNotOnInfiniteFace,
)
from .gliding import DUAL, FRAME, GlidePath, glide, shift_edges
from .matchings import Matching
from .planar import PlanarGraph, SymmetryCertificate, _ccw_positions, remove_vertices
from .refine import DualRefinement, PlusMinusInstance, SmashedGraph, dual_refinement, smash_in
from .trees import RootedForest, _forest_to_matching, _matching_to_forest, dual_forest

# ---------------------------------------------------------------------------
# Path families for the plus/minus bijection
# ---------------------------------------------------------------------------


def build_path_family(instance: PlusMinusInstance, mu: Matching,
                      from_minus: bool = False) -> tuple[GlidePath, ...]:
    """The system of disjoint alternating paths that pairs up all marked
    midpoints, built generation by generation.

    Odd generations glide on the frame, even generations on the dual frame;
    starting from the minus side swaps the left-to-right sweep directions.
    Each interval of midpoints is used up from one end, every glide ending
    inside it, so the family pairs up all 2n midpoints by construction; only
    disjointness is checked.
    """
    host = instance.minus if from_minus else instance.plus
    if mu.host != host.graph_id:
        raise PreconditionViolated("matching belongs to a different graph")
    cover = mu.cover_map(host)
    trimmed = instance.trimmed
    ref = instance.refinement
    mids = instance.mids
    index_of = {m: j for j, m in enumerate(mids, 1)}
    paths: list[GlidePath] = []
    seen: set[int] = set()
    stack = [(1, len(mids), 1)]
    while stack:
        a, b, gen = stack.pop()
        mode = FRAME if gen % 2 == 1 else DUAL
        left_to_right = (gen % 2 == 1) != from_minus
        j = a if left_to_right else b
        while (a <= j <= b):
            gp = glide(trimmed, ref, cover, mids[j - 1], mode)
            end_mid = gp.vertices[-1]
            k = index_of.get(end_mid)
            if k is None:
                raise PreconditionViolated(
                    f"glide from midpoint {j} ended off the marked boundary")
            if left_to_right and not (j < k <= b):
                raise PreconditionViolated(
                    f"glide from midpoint {j} ended at {k}, outside ({j},{b}]")
            if not left_to_right and not (a <= k < j):
                raise PreconditionViolated(
                    f"glide from midpoint {j} ended at {k}, outside [{a},{j})")
            if not seen.isdisjoint(gp.vertices):
                raise PreconditionViolated("family paths are not vertex-disjoint")
            seen.update(gp.vertices)
            paths.append(gp)
            lo, hi = (j + 1, k - 1) if left_to_right else (k + 1, j - 1)
            if lo <= hi:
                stack.append((lo, hi, gen + 1))
            j = k + 1 if left_to_right else k - 1
    return tuple(paths)


def _swap(instance: PlusMinusInstance, mu: Matching, from_minus: bool) -> Matching:
    """Shift ``mu`` along its path family onto the other half graph."""
    family = build_path_family(instance, mu, from_minus)
    edges = shift_edges(mu.edges, [p.edges for p in family])
    host = instance.plus if from_minus else instance.minus
    return Matching(host.graph_id, edges)


def phi(instance: PlusMinusInstance, mu: Matching) -> Matching:
    """Carry a matching of the plus graph to the minus graph by shifting
    along its path family."""
    return _swap(instance, mu, from_minus=False)


def psi(instance: PlusMinusInstance, mu: Matching) -> Matching:
    """Inverse direction of :func:`phi` (left and right swapped)."""
    return _swap(instance, mu, from_minus=True)


# ---------------------------------------------------------------------------
# Trees <-> matchings on the dual refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TemperleyInstance:
    """A dual refinement rooted at a vertex of the infinite face: the host
    of the tree/matching correspondence is the refinement minus the root."""

    ref: DualRefinement
    root: int
    host: PlanarGraph


def temperley_instance(ref: DualRefinement, root: int) -> TemperleyInstance:
    """Check the root and delete it from the refinement, once for every
    tree and matching the maps carry."""
    g = ref.source
    if root not in g.vertices:
        raise PreconditionViolated(f"root {root} not in graph")
    if root not in g.infinite_face_vertices():
        raise RootNotOnInfiniteFace(f"root {root} is not on the infinite face")
    return TemperleyInstance(ref, root, remove_vertices(ref.graph, [root]))


def temperley_tree_to_matching(inst: TemperleyInstance, tree: RootedForest) -> Matching:
    """Tail half-edges of the rooted tree plus tail half-edges of its dual
    tree rooted at the infinite face; a perfect matching of the refinement
    minus the root.  This is the all-bays case of the banded-forest
    conversion: each dual component hangs off the infinite face by its
    single boundary exit."""
    g = inst.ref.source
    if tree.host != g.graph_id:
        raise PreconditionViolated("tree does not span the source graph")
    if tree.roots != (inst.root,):
        raise PreconditionViolated(f"expected a single root {inst.root}")
    return _forest_to_matching(inst.ref, inst.host, tree, dual_forest(g, tree.edge_set), ())


def temperley_matching_to_tree(inst: TemperleyInstance, mu: Matching) -> RootedForest:
    """Each non-root vertex exits along the primal edge containing its
    matched half-edge; the result is the spanning tree matched to ``mu``."""
    if mu.host != inst.host.graph_id:
        raise PreconditionViolated("matching host does not agree with the root")
    return _matching_to_forest(inst.ref, inst.host, mu, inst.ref.source, (inst.root,))


# ---------------------------------------------------------------------------
# Transport between smashed hosts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportInstance:
    """A smashed refinement with two runs of marked boundary vertices; the
    two hosts delete the plain run and the primed run respectively."""

    smashed: SmashedGraph
    plain: tuple[int, ...]       # v_1..v_{2n+1}
    prime: tuple[int, ...]       # v'_1..v'_{2n+1}
    # each run as deleted from the smashed refinement, v_1, f_2, v_3, ...,
    # v_{2n+1}: the odd marks and the smashed centers of the even marks
    plain_removal: tuple[int, ...]
    prime_removal: tuple[int, ...]
    # the source faces smashed at each run's even marks
    plain_even_faces: tuple[int, ...]
    prime_even_faces: tuple[int, ...]
    host_plain: PlanarGraph      # plain marks deleted
    host_prime: PlanarGraph      # primed marks deleted
    forest_graph: PlanarGraph    # source minus the smashed corners
    dual_weights: tuple[tuple[int, Fraction], ...] = ()  # per primal edge

    @property
    def plain_odd(self) -> tuple[int, ...]:
        return self.plain[0::2]

    @property
    def prime_odd(self) -> tuple[int, ...]:
        return self.prime[0::2]


def _check_cyclic_order(g: PlanarGraph, sequence: list[int]):
    _ccw_positions(
        g.ccw_boundary(), sequence,
        lambda v: ConditionViolated("iii", f"vertex {v} not exactly once on the boundary"),
        lambda: ConditionViolated(
            "iii", f"marks are not in counterclockwise order: {sequence}"))


def _check_run(g: PlanarGraph, marks, which: str, require_path: bool):
    if len(marks) % 2 == 0:
        raise ConditionViolated(which, "a run must list an odd number of vertices")
    for v in marks:
        if v not in g.vertices:
            raise ConditionViolated(which, f"unknown vertex {v}")
    if len(set(marks)) != len(marks):
        raise ConditionViolated(which, "repeated mark")
    if require_path:
        for a, b in zip(marks, marks[1:]):
            if g.edge_between(a, b) is None:
                raise ConditionViolated(which, f"{a},{b} is not an edge")


def transport_instance(g: PlanarGraph, plain, prime, *,
                       require_plain_path: bool = True,
                       dual_weights: dict[int, Fraction] | None = None) -> TransportInstance:
    """Validate the marked runs (conditions on paths, cyclic order, degree-2
    corners in distinct faces), smash the even marks, and build both hosts."""
    plain = tuple(plain)
    prime = tuple(prime)
    if len(plain) != len(prime):
        raise ConditionViolated("iii", "runs have different lengths")
    if set(plain) & set(prime):
        raise ConditionViolated("iii", "the two runs share a vertex")
    _check_run(g, plain, "i", require_plain_path)
    _check_run(g, prime, "ii", True)
    _check_cyclic_order(g, list(plain) + list(reversed(prime)))
    ref = dual_refinement(g, dual_weights)
    targets = plain[1::2] + prime[1::2]
    try:
        smashed = smash_in(ref, targets)
    except DimerforgeError as exc:
        raise ConditionViolated("iv", str(exc)) from exc
    plain_removal, prime_removal = (
        tuple(smashed.face_of[v] if i % 2 else v for i, v in enumerate(marks))
        for marks in (plain, prime))
    return TransportInstance(smashed, plain, prime, plain_removal, prime_removal,
                             tuple(ref.face_of_center[c] for c in plain_removal[1::2]),
                             tuple(ref.face_of_center[c] for c in prime_removal[1::2]),
                             remove_vertices(smashed.graph, plain_removal),
                             remove_vertices(smashed.graph, prime_removal),
                             remove_vertices(g, targets),
                             tuple(sorted((dual_weights or {}).items())))


def site_path_to_refinement(ref: DualRefinement, sites) -> tuple[int, ...]:
    """Interleave a path of source vertices with the midpoints it crosses."""
    out = [sites[0]]
    for a, b in zip(sites, sites[1:]):
        e = ref.source.edge_between(a, b)
        if e is None:
            raise PreconditionViolated(f"{a},{b} is not an edge of the source")
        out.append(ref.mid_of_edge[e.id])
        out.append(b)
    return tuple(out)


def face_path_to_refinement(ref: DualRefinement, face_indices) -> tuple[int, ...]:
    """Interleave a path of bounded faces with the midpoints of the shared
    edges (which must be unique between consecutive faces)."""
    faces = ref.source.trace_faces()
    out = [ref.center_of_face[face_indices[0]]]
    for fa, fb in zip(face_indices, face_indices[1:]):
        shared = [e.id for e in ref.source.edges.values()
                  if set(faces.sides_of_edge(e)) == {fa, fb}]
        if len(shared) != 1:
            raise PreconditionViolated(
                f"faces {fa},{fb} share {len(shared)} edges; path is ambiguous")
        out.append(ref.mid_of_edge[shared[0]])
        out.append(ref.center_of_face[fb])
    return tuple(out)


def forced_path_matching(ref: DualRefinement, h_path, drop_start: bool) -> frozenset[int]:
    """The unique perfect matching of the path minus one endpoint: the
    half-edge of each consecutive pair, read off the across-map of the
    pair's midpoint."""
    seq = h_path[1:] if drop_start else h_path[:-1]
    if len(seq) % 2 == 1:
        raise PreconditionViolated("path minus an endpoint must have even length")
    return frozenset(ref.across[a][b][1] if a in ref.across else ref.across[b][a][1]
                     for a, b in zip(seq[0::2], seq[1::2]))


def tea_transport(instance: TransportInstance, mu: Matching,
                  constraints: dict[int, tuple[int, ...]] | None = None) -> Matching:
    """Glide from every mark of the side opposite to the matching's host,
    verify the constrained glide paths, and shift along the glides' edges
    plus the half-edge from each glide's last midpoint to its blocking mark.

    ``constraints`` maps mark indices (1-based positions in the alternating
    mark sequence) to refinement vertex paths from the plain mark to the
    primed mark; glide i must run along ``constraints[i]`` exactly when i is
    a key.  The matching must also hold the forced edges of each constraint
    path (``forced_path_matching`` of the path minus the mark absent from the
    matching's host), and that needs no check of its own.  Without its
    blocking mark a glide path has an odd number of edges, so when it equals
    the constraint path the forced set is the glide's edges at even
    positions from its start: the matched edges ``cover[site]``.  A matching
    that lacks a forced edge therefore never glides along the constraint
    path, and the path-equality check raises ConstraintPathMismatch for it.
    """
    constraints = constraints or {}
    ref = instance.smashed.refinement
    # glides start from the marks the source host keeps and end at the ones
    # it deletes
    if mu.host == instance.host_prime.graph_id:
        source, target, primed_source = instance.host_prime, instance.host_plain, True
        starts, expected_ends = instance.plain_removal, instance.prime_removal
    elif mu.host == instance.host_plain.graph_id:
        source, target, primed_source = instance.host_plain, instance.host_prime, False
        starts, expected_ends = instance.prime_removal, instance.plain_removal
    else:
        raise PreconditionViolated("matching belongs to neither host")
    cover = mu.cover_map(source)
    paths = []
    shifts = []
    for i, (start, expect) in enumerate(zip(starts, expected_ends), 1):
        mode = FRAME if i % 2 == 1 else DUAL
        gp = glide(source, ref, cover, start, mode)
        if gp.blocked_target != expect:
            raise PreconditionViolated(
                f"glide from mark {i} ended at {gp.blocked_target}, expected {expect}")
        full = gp.vertices + (expect,)
        if i in constraints:
            want = constraints[i]
            if not primed_source:
                want = tuple(reversed(want))
            if full != want:
                raise ConstraintPathMismatch(
                    f"glide path {i} differs from the required constraint path")
        paths.append(full)
        shifts.append(gp.edges + (ref.across[gp.vertices[-1]][expect][1],))
    used: set[int] = set()
    for p in paths:
        if used & set(p):
            raise PreconditionViolated("transport glide paths intersect")
        used |= set(p)
    return Matching(target.graph_id, shift_edges(mu.edges, shifts))


# ---------------------------------------------------------------------------
# Reflection swap
# ---------------------------------------------------------------------------


def reflect_swap(g: PlanarGraph, cert: SymmetryCertificate, mu: Matching,
                 axis_vertex: int) -> Matching:
    """Swap the matching with its mirror image along the component of their
    union through the given on-axis vertex; a weight-preserving involution.

    The union of a matching with its mirror decomposes into alternating
    cycles and doubled edges.  The walk below takes a matching edge, then a
    mirror edge, and so on, so it meets its start again only after a mirror
    step; on a doubled edge it drops the edge and puts it back, which leaves
    the matching unchanged.
    """
    if axis_vertex not in cert.axis_vertices:
        raise NotOnAxis(f"vertex {axis_vertex} is not on the axis")
    cover = mu.cover_map(g)
    mirror_cover = {cert.vertex_map[v]: cert.edge_map[e] for v, e in cover.items()}
    new_edges = set(mu.edges)
    v = axis_vertex
    while True:
        e = cover[v]
        new_edges.discard(e)
        v = g.edges[e].other(v)
        e = mirror_cover[v]
        new_edges.add(e)
        v = g.edges[e].other(v)
        if v == axis_vertex:
            return Matching(mu.host, frozenset(new_edges))
