"""The gliding step: from a vertex, follow its matched edge to the midpoint
it leads to, then continue across the midpoint along the other half of the
same primal (or dual) edge.

Glides run on vertex-deleted subgraphs of a dual refinement and read its
across-map, which also names each half-edge they cross onto, so a glide
returns the edge ids it walks; a glide ends at the midpoint whose far side
is missing from the host graph (or, on the dual frame, is the infinite
face).  Shifts take those id sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CycleDetected, NotAlternating, PreconditionViolated
from .planar import PlanarGraph
from .refine import DualRefinement

FRAME = "frame"
DUAL = "dual"


@dataclass(frozen=True)
class GlidePath:
    vertices: tuple[int, ...]
    # ids of the edges joining consecutive vertices, in walking order
    edges: tuple[int, ...]
    # the absent vertex that stopped the glide, None for the infinite face
    blocked_target: int | None


def _hop_table(host: PlanarGraph, ref: DualRefinement) -> tuple:
    """(ref, hops, first) of glides on ``host`` under ``ref``, kept by
    ``glide``.  hops maps each host edge from a site to a midpoint to
    (the midpoint, the vertex across it, the half-edge onto that vertex or
    None where it is absent from the host); first maps each midpoint of the
    host to its present neighbours, as (vertex, half-edge), on the frame and
    then on the dual frame."""
    hops = {}
    for eid, e in host.edges.items():
        for site, mid in ((e.u, e.v), (e.v, e.u)):
            if mid in ref.across and site not in ref.across:
                far = ref.across[mid][site][0]
                hops[eid] = mid, far, ref.across[mid][far][1] if far in host.vertices else None
    first = {}
    for mid in host.vertices.keys() & ref.across.keys():
        steps = [(w, h) for w, (_, h) in ref.across[mid].items() if w in host.vertices]
        first[mid] = tuple(tuple(s for s in steps if (s[0] in ref.face_of_center) == dual)
                           for dual in (False, True))
    return ref, hops, first


def glide(host: PlanarGraph, ref: DualRefinement, cover: dict[int, int],
          start: int, mode: str) -> GlidePath:
    """Maximal glide from ``start`` under the matching described by ``cover``.

    ``start`` may be a midpoint (the first step is then its unique present
    neighbor on the frame that ``mode`` names) or an original/face-center
    vertex (the first step follows its matched edge).  Each step then crosses
    a midpoint to the vertex across it, so the frame is the start's own.  The
    returned path ends at the midpoint where gliding is blocked, and holds
    the id of every edge it walks: each matched edge ``cover[site]`` and
    each half-edge it crosses onto, as the across-map names them.  The steps
    are read from the host's hop table for ``ref``, built on the first glide
    on that host under that refinement.
    """
    if mode not in (FRAME, DUAL):
        raise PreconditionViolated(f"unknown glide mode {mode!r}")
    if start not in host.vertices:
        raise PreconditionViolated(f"glide start {start} is not in the host graph")
    kept = host._tables.get(_hop_table)
    if kept is None or kept[0] is not ref:
        kept = host._tables[_hop_table] = _hop_table(host, ref)
    _, hops, first = kept
    path = [start]
    edges = []
    seen = {start}
    site = start
    if start in first:
        options = first[start][mode == DUAL]
        if len(options) != 1:
            raise PreconditionViolated(
                f"glide start {start} has {len(options)} possible first steps")
        site, h = options[0]
        path.append(site)
        edges.append(h)
        seen.add(site)
    while True:
        eid = cover.get(site)
        if eid is None:
            raise PreconditionViolated(f"vertex {site} is not matched")
        hop = hops.get(eid)
        if hop is None:
            raise PreconditionViolated(
                f"matched edge {eid} at {site} does not lead to a midpoint")
        mid, nxt, h = hop
        if mid in seen:
            raise CycleDetected(f"glide revisited midpoint {mid}")
        path.append(mid)
        edges.append(eid)
        seen.add(mid)
        if h is None:
            return GlidePath(tuple(path), tuple(edges), nxt)
        if nxt in seen:
            raise CycleDetected(f"glide revisited vertex {nxt}")
        path.append(nxt)
        edges.append(h)
        seen.add(nxt)
        site = nxt


def shift_edges(mu_edges: frozenset[int], paths) -> frozenset[int]:
    """Symmetric difference of a matching with alternating paths, each given
    as the ids of its distinct edges in order; raises if any path fails to
    alternate, that is, unless the matching holds every edge at one parity
    of position along the path and none at the other."""
    result = set(mu_edges)
    for eids in paths:
        even, odd = eids[0::2], eids[1::2]
        if not (mu_edges.issuperset(even) and mu_edges.isdisjoint(odd)
                or mu_edges.isdisjoint(even) and mu_edges.issuperset(odd)):
            raise NotAlternating("path does not alternate with the matching")
        result.symmetric_difference_update(eids)
    return frozenset(result)
