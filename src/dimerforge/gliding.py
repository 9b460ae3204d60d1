"""The gliding step: from a vertex, follow its matched edge to the midpoint
it leads to, then continue across the midpoint along the other half of the
same primal (or dual) edge.

Glides run on vertex-deleted subgraphs of a dual refinement; a glide ends at
the midpoint whose far side is missing from the host graph (or, on the dual
frame, is the infinite face).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CycleDetected, PreconditionViolated
from .planar import PlanarGraph
from .refine import DualRefinement

FRAME = "frame"
DUAL = "dual"


@dataclass(frozen=True)
class GlidePath:
    vertices: tuple[int, ...]
    blocked_target: int | None  # the absent vertex that stopped the glide
    blocked_at_infinite: bool = False


def _first_site_from_mid(host: PlanarGraph, ref: DualRefinement,
                         mid: int, mode: str) -> int:
    eid = ref.edge_of_mid[mid]
    e = ref.source.edges[eid]
    if mode == FRAME:
        options = [w for w in (e.u, e.v) if w in host.vertices]
    else:
        inf = ref.source.trace_faces().infinite_index
        options = [ref.center_of_face[f]
                   for f in ref.sides_of_primal_edge(eid)
                   if f != inf and ref.center_of_face[f] in host.vertices]
    if len(options) != 1:
        raise PreconditionViolated(
            f"glide start {mid} has {len(options)} possible first steps")
    return options[0]


def glide(host: PlanarGraph, ref: DualRefinement, cover: dict[int, int],
          start: int, mode: str) -> GlidePath:
    """Maximal glide from ``start`` under the matching described by ``cover``.

    ``start`` may be a midpoint (the first step is then its unique present
    neighbor on the chosen frame) or an original/face-center vertex (the
    first step follows its matched edge).  The returned path ends at the
    midpoint where gliding is blocked.
    """
    if mode not in (FRAME, DUAL):
        raise PreconditionViolated(f"unknown glide mode {mode!r}")
    if start not in host.vertices:
        raise PreconditionViolated(f"glide start {start} is not in the host graph")
    path = [start]
    seen = {start}
    inf = ref.source.trace_faces().infinite_index
    if start in ref.edge_of_mid:
        site = _first_site_from_mid(host, ref, start, mode)
        if site in seen:
            raise CycleDetected("glide revisited its start")
        path.append(site)
        seen.add(site)
    else:
        site = start
    while True:
        eid = cover.get(site)
        if eid is None:
            raise PreconditionViolated(f"vertex {site} is not matched")
        mid = host.edges[eid].other(site)
        if mid not in ref.edge_of_mid:
            raise PreconditionViolated(
                f"matched edge {eid} at {site} does not lead to a midpoint")
        if mid in seen:
            raise CycleDetected(f"glide revisited midpoint {mid}")
        path.append(mid)
        seen.add(mid)
        primal = ref.edge_of_mid[mid]
        if mode == FRAME:
            nxt = ref.source.edges[primal].other(site)
            if nxt not in host.vertices:
                return GlidePath(tuple(path), nxt)
        else:
            fa, fb = ref.sides_of_primal_edge(primal)
            other = fb if fa == ref.face_of_center[site] else fa
            if other == inf:
                return GlidePath(tuple(path), None, blocked_at_infinite=True)
            nxt = ref.center_of_face[other]
            if nxt not in host.vertices:
                return GlidePath(tuple(path), nxt)
        if nxt in seen:
            raise CycleDetected(f"glide revisited vertex {nxt}")
        path.append(nxt)
        seen.add(nxt)
        site = nxt


def path_edgeset(graph: PlanarGraph, vertices) -> list[int]:
    """Edge ids along a vertex sequence of the given graph."""
    out = []
    for a, b in zip(vertices, vertices[1:]):
        e = graph.edge_between(a, b)
        if e is None:
            raise PreconditionViolated(f"{a},{b} is not an edge")
        out.append(e.id)
    return out


def shift_edges(mu_edges: frozenset[int], graph: PlanarGraph,
                paths) -> frozenset[int]:
    """Symmetric difference of a matching with the edges along alternating
    paths; raises if any path fails to alternate."""
    from .errors import NotAlternating

    result = set(mu_edges)
    for vertices in paths:
        eids = path_edgeset(graph, vertices)
        pattern = [e in mu_edges for e in eids]
        for a, b in zip(pattern, pattern[1:]):
            if a == b:
                raise NotAlternating("path does not alternate with the matching")
        for e in eids:
            if e in result:
                result.discard(e)
            else:
                result.add(e)
    return frozenset(result)
