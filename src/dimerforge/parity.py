"""Interior counting for simple cycles of an embedded graph.

For any simple cycle, the numbers v, e, f of vertices, edges and bounded
faces strictly inside satisfy v - e + f = 1, so v + e + f (the number of
refinement vertices inside) is always odd.  This parity is the backbone of
every gliding argument, so it gets its own exhaustively testable operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _geom
from .errors import NotAPath
from .planar import PlanarGraph


class NotACycle(NotAPath):
    pass


@dataclass(frozen=True)
class InteriorCount:
    vertices: int
    edges: int
    faces: int

    @property
    def total(self) -> int:
        return self.vertices + self.edges + self.faces

    @property
    def parity(self) -> str:
        return "odd" if self.total % 2 == 1 else "even"


def interior_vertex_count(g: PlanarGraph, cycle: list[int]) -> InteriorCount:
    """Count original vertices, edges and bounded faces strictly inside a
    simple cycle (edge endpoints may lie on the cycle).

    Vertices and edge midpoints are tested with exact winding numbers on
    the graph's lattice doubled, where every midpoint is a lattice point;
    faces are read off the face decomposition (the faces left of the
    counterclockwise cycle plus both sides of every interior edge).  In a
    straight-line drawing no vertex and no edge midpoint off the cycle lies
    on a cycle edge, so a nonzero winding number means strictly inside.
    """
    if len(cycle) < 3:
        raise NotACycle("a cycle needs at least 3 vertices")
    if len(set(cycle)) != len(cycle):
        raise NotACycle("repeated vertex")
    cycle_edges = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        e = g.edge_between(a, b)
        if e is None:
            raise NotACycle(f"{a},{b} is not an edge")
        cycle_edges.append(e.id)
    lat = g.lattice()
    pts = lat.rescaled(2 * lat.scale)
    polygon = [pts[v] for v in cycle]
    if _geom.polygon_area2(polygon) < 0:
        # reversed about the first vertex: edge i still joins vertices i, i+1
        cycle = cycle[:1] + cycle[:0:-1]
        cycle_edges.reverse()
        polygon = polygon[:1] + polygon[:0:-1]

    on_cycle = set(cycle)
    v_in = 0
    for v in g.vertices:
        if v in on_cycle:
            continue
        if _geom.winding_number(pts[v], polygon) != 0:
            v_in += 1
    e_in = []
    cyc_set = set(cycle_edges)
    for e in g.edges.values():
        if e.id in cyc_set:
            continue
        (ax, ay), (bx, by) = lat.points[e.u], lat.points[e.v]
        if _geom.winding_number((ax + bx, ay + by), polygon) != 0:
            e_in.append(e.id)

    faces = g.trace_faces()
    inside_faces: set[int] = set()
    for a, eid in zip(cycle, cycle_edges):
        inside_faces.add(faces.dart_face[(eid, a)])  # face left of the ccw cycle
    for eid in e_in:
        inside_faces.update(faces.sides_of_edge(g.edges[eid]))
    inside_faces.discard(faces.infinite_index)

    count = InteriorCount(v_in, len(e_in), len(inside_faces))
    # the exact Euler identity behind the parity claim
    assert count.vertices - count.edges + count.faces == 1, \
        f"interior Euler identity failed for cycle {cycle}"
    return count


def simple_cycles(g: PlanarGraph):
    """All simple cycles, each as a vertex list starting at its smallest
    vertex with the smaller neighbor second (so each cycle appears once)."""
    out = []
    for s in g.vertices:
        stack = [(s, [s], {s})]
        while stack:
            v, path, seen = stack.pop()
            for eid in g.adj[v]:
                w = g.edges[eid].other(v)
                if w == s and len(path) >= 3:
                    if path[1] < path[-1]:
                        out.append(list(path))
                elif w > s and w not in seen:
                    stack.append((w, path + [w], seen | {w}))
    return out
