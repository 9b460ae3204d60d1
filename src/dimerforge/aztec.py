"""Triangular Aztec regions: generation, the closed-form tiling count, and
the run-transport bijection between the two justifications.

Both regions of order n are realized inside one smashed refinement of a
lattice hexagon: deleting the plain marked run gives the dual graph of the
right-justified region, deleting the primed run the left-justified one.
For odd n a staircase constraint path forces a strip of dominoes and the
regions are the parts strictly above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .bijections import (
    TransportInstance,
    forced_path_matching,
    site_path_to_refinement,
    tea_transport,
    transport_instance,
)
from .errors import LiftFailed
from .generators import hexagon_graph
from .matchings import Matching, enumerate_matchings
from .planar import PlanarGraph, remove_vertices
from .refine import _grid_edges, _lattice_graph


def aztec_formula(n: int) -> int:
    """Closed-form number of domino tilings of the order-n triangular
    region, evaluated exactly."""
    if n < 1:
        raise ValueError("n must be positive")
    value = Fraction(2) ** (n * (n - 1) // 2)
    for i in range(n):
        value *= Fraction(factorial(4 * i + 2), factorial(n + 2 * i + 1))
    assert value.denominator == 1 and value > 0, "tiling count must be a positive integer"
    return int(value)


@dataclass(frozen=True)
class AztecInstance:
    """One variant of the order-n region together with its embedding into
    the smashed-refinement host that the transport bijection runs on."""

    transport: TransportInstance
    host: PlanarGraph                # marked-run-deleted refinement graph
    graph: PlanarGraph               # dual graph of the region's unit cells
    cells: tuple[tuple[int, int], ...]
    host_edge: dict[int, int]        # region edge id -> host edge id
    # the transport's constraint paths by mark index: for odd order the
    # staircase path at the last mark, else none
    constraints: dict[int, tuple[int, ...]]
    fixed_edges: frozenset[int]      # host edges forced on this side (odd order)


def _scaled(pos) -> tuple[int, int]:
    x, y = 2 * pos[0], 2 * pos[1]
    assert x.denominator == 1 and y.denominator == 1
    return (int(x), int(y))


def _staircase_sites(m: int) -> list[tuple[int, int]]:
    sites = [(0, y) for y in range(2 * m, 0, -1)]
    for k in range(1, 2 * m):
        sites.append((k, k))
        sites.append((k, k + 1))
    return sites


def _below_staircase(cell: tuple[int, int]) -> bool:
    a, b = cell
    env = 2 if a == 0 else 2 * ((a + 1) // 2)
    return b < env


def _region_graph(cells) -> tuple[PlanarGraph, dict[tuple[int, int], int]]:
    # a grid subgraph on distinct cells: a valid drawing by construction
    vid = {c: i for i, c in enumerate(sorted(cells))}
    ends = [(vid[c], vid[d]) for c, d in _grid_edges(cells)]
    return _lattice_graph({i: c for c, i in vid.items()}, ends), vid


def _build_side(n: int, variant: str, inst: TransportInstance,
                constraint_sites) -> AztecInstance:
    ref = inst.smashed.refinement
    primed = variant == "Tp"
    host = inst.host_prime if primed else inst.host_plain
    if n % 2 == 0:
        keep = set(host.vertices)
        fixed: frozenset[int] = frozenset()
        constraints = {}
    else:
        cpath = site_path_to_refinement(ref, constraint_sites)
        constraints = {len(inst.plain): cpath}
        fixed = set(forced_path_matching(ref, cpath, drop_start=not primed))
        on_path = set(cpath)
        below = {v for v in host.vertices
                 if v not in on_path and _below_staircase(_scaled(host.vertices[v].pos))}
        below_matchings = list(enumerate_matchings(
            remove_vertices(host, set(host.vertices) - below)))
        if len(below_matchings) != 1:
            raise LiftFailed(
                f"strip below the staircase has {len(below_matchings)} matchings")
        fixed |= set(below_matchings[0].edges)
        keep = {v for v in host.vertices if v not in on_path and v not in below}
        fixed = frozenset(fixed)
    cells = {_scaled(host.vertices[v].pos): v for v in keep}
    graph, vid = _region_graph(set(cells))
    to_host = {vid[c]: v for c, v in cells.items()}
    # the region dual must be the induced host subgraph, edge by edge
    images = {e.id: host.edge_between(to_host[e.u], to_host[e.v])
              for e in graph.edges.values()}
    induced_edges = sum(1 for e in host.edges.values()
                        if e.u in keep and e.v in keep)
    if any(h is None for h in images.values()) or len(images) != induced_edges:
        raise LiftFailed("region adjacency does not match the refinement subgraph")
    return AztecInstance(inst, host, graph, tuple(sorted(cells)),
                         {r: h.id for r, h in images.items()}, constraints, fixed)


@lru_cache(maxsize=None)
def aztec_pair(n: int) -> tuple[AztecInstance, AztecInstance]:
    """Both variants of the order-n region over a shared transport
    instance."""
    if n < 1:
        raise ValueError("n must be positive")
    m = n // 2 if n % 2 == 0 else (n + 1) // 2
    g, plain, prime = hexagon_graph(m)
    inst = transport_instance(g, plain, prime)
    sites = None
    if n % 2 == 1:
        pos_id = {(int(v.pos[0]), int(v.pos[1])): v.id for v in g.vertices.values()}
        sites = [pos_id[p] for p in _staircase_sites(m)]
    return (_build_side(n, "T", inst, sites), _build_side(n, "Tp", inst, sites))


def aztec_graph(n: int, variant: str = "T") -> AztecInstance:
    if variant not in ("T", "Tp"):
        raise ValueError("variant must be 'T' or 'Tp'")
    t, tp = aztec_pair(n)
    return t if variant == "T" else tp


def lift_to_host(instance: AztecInstance, mu: Matching) -> Matching:
    """Embed a region matching into the refinement host, adding the forced
    staircase and strip edges for odd orders."""
    if mu.host != instance.graph.graph_id:
        raise LiftFailed("matching does not belong to this region")
    mu.cover_map(instance.graph)
    images = frozenset(instance.host_edge[e] for e in mu.edges)
    return Matching(instance.host.graph_id, instance.fixed_edges | images)


def project_from_host(instance: AztecInstance, mu: Matching) -> Matching:
    """Inverse of :func:`lift_to_host`: keep the edges inside the region."""
    mu.cover_map(instance.host)
    region_edge = {h: r for r, h in instance.host_edge.items()}
    if mu.edges.difference(region_edge) != instance.fixed_edges:
        raise LiftFailed("host matching does not respect the forced edges")
    return Matching(instance.graph.graph_id,
                    frozenset(region_edge[e] for e in mu.edges if e in region_edge))


def aztec_bijection(n: int, mu: Matching) -> Matching:
    """Carry a tiling of one variant to the other via run transport (with
    the staircase path constrained for odd orders)."""
    t, tp = aztec_pair(n)
    if mu.host == t.graph.graph_id:
        src, dst = t, tp
    elif mu.host == tp.graph.graph_id:
        src, dst = tp, t
    else:
        raise LiftFailed("matching belongs to neither region variant")
    return project_from_host(dst, tea_transport(src.transport, lift_to_host(src, mu),
                                                src.constraints))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def tiling_svg(instance: AztecInstance, mu: Matching) -> str:
    """Dominoes of a tiling as an SVG drawing (purely cosmetic)."""
    if mu.host != instance.graph.graph_id:
        raise LiftFailed("matching does not belong to this region")
    mu.cover_map(instance.graph)
    scale = 20  # pixels per cell
    xs = [c[0] for c in instance.cells]
    ys = [c[1] for c in instance.cells]
    x0, y1 = min(xs), max(ys)
    width = (max(xs) - x0 + 1) * scale
    height = (y1 - min(ys) + 1) * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    for eid in sorted(mu.edges):
        e = instance.graph.edges[eid]
        ax, ay = instance.graph.vertices[e.u].pos
        bx, by = instance.graph.vertices[e.v].pos
        x = (min(ax, bx) - x0) * scale
        y = (y1 - max(ay, by)) * scale
        w = (abs(bx - ax) + 1) * scale
        h = (abs(by - ay) + 1) * scale
        color = "#d8894f" if ax != bx else "#5f8dd3"
        parts.append(
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{color}" '
            f'stroke="black" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts)
