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


def _first_site_from_mid(host: PlanarGraph, ref: DualRefinement,
                         mid: int, mode: str) -> tuple[int, int]:
    """The start's one present neighbour on the named frame, and the
    half-edge joining them."""
    options = [(w, h) for w, (_, h) in ref.across[mid].items()
               if w in host.vertices and (w in ref.face_of_center) == (mode == DUAL)]
    if len(options) != 1:
        raise PreconditionViolated(
            f"glide start {mid} has {len(options)} possible first steps")
    return options[0]


def glide(host: PlanarGraph, ref: DualRefinement, cover: dict[int, int],
          start: int, mode: str) -> GlidePath:
    """Maximal glide from ``start`` under the matching described by ``cover``.

    ``start`` may be a midpoint (the first step is then its unique present
    neighbor on the frame that ``mode`` names) or an original/face-center
    vertex (the first step follows its matched edge).  Each step then crosses
    a midpoint to the vertex across it, so the frame is the start's own.  The
    returned path ends at the midpoint where gliding is blocked, and holds
    the id of every edge it walks: each matched edge ``cover[site]`` and
    each half-edge it crosses onto, as the across-map names them.
    """
    if mode not in (FRAME, DUAL):
        raise PreconditionViolated(f"unknown glide mode {mode!r}")
    if start not in host.vertices:
        raise PreconditionViolated(f"glide start {start} is not in the host graph")
    path = [start]
    edges = []
    seen = {start}
    site = start
    if start in ref.across:
        site, h = _first_site_from_mid(host, ref, start, mode)
        path.append(site)
        edges.append(h)
        seen.add(site)
    while True:
        eid = cover.get(site)
        if eid is None:
            raise PreconditionViolated(f"vertex {site} is not matched")
        mid = host.edges[eid].other(site)
        across = ref.across.get(mid)
        if across is None:
            raise PreconditionViolated(
                f"matched edge {eid} at {site} does not lead to a midpoint")
        if mid in seen:
            raise CycleDetected(f"glide revisited midpoint {mid}")
        path.append(mid)
        edges.append(eid)
        seen.add(mid)
        nxt = across[site][0]
        if nxt is None or nxt not in host.vertices:
            return GlidePath(tuple(path), tuple(edges), nxt)
        if nxt in seen:
            raise CycleDetected(f"glide revisited vertex {nxt}")
        path.append(nxt)
        edges.append(across[nxt][1])
        seen.add(nxt)
        site = nxt


def shift_edges(mu_edges: frozenset[int], paths) -> frozenset[int]:
    """Symmetric difference of a matching with alternating paths, each given
    as the ids of its edges in order; raises if any path fails to
    alternate."""
    result = set(mu_edges)
    for eids in paths:
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
