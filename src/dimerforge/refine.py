"""Graph surgery: dual refinements, leaf augmentation, the plus/minus pair,
symmetrization, smashing, the grid-edge rule of the lattice families, and
the trimmed-square generator.

The dual refinement of a plane graph superimposes the graph, its planar
dual, and the midpoints of its edges.  Everything downstream (gliding,
matchings-to-trees correspondences) runs on vertex-deleted subgraphs of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import _geom
from ._geom import LatticePoint
from .errors import (
    BelowDiagonal,
    Disconnected,
    EmbeddingError,
    NotAPeak,
    NotDegreeTwo,
    NotOnInfiniteFace,
    PreconditionViolated,
    ReembeddingFailed,
    SharedFace,
)
from .planar import (
    Edge,
    Lattice,
    MarkedBoundary,
    PlanarGraph,
    Vertex,
    remove_vertices,
    validate_boundary_path,
)

# ---------------------------------------------------------------------------
# Dual refinement
# ---------------------------------------------------------------------------

_UNIT = Fraction(1)  # the weight of every built edge that is given no other


@dataclass(frozen=True)
class DualRefinement:
    """The refinement graph together with the maps back to its source."""

    source: PlanarGraph
    graph: PlanarGraph
    mid_of_edge: dict[int, int]      # source edge id -> refinement vertex id
    center_of_face: dict[int, int]   # source face index -> refinement vertex id
    edge_of_mid: dict[int, int]      # the inverse maps; every other vertex
    face_of_center: dict[int, int]   # of the refinement is a source vertex
    # midpoint -> {neighbour: (the vertex across the midpoint from it on the
    # same primal or dual edge, None where that side is the infinite face;
    # the id of the half-edge joining the midpoint to the neighbour)}
    across: dict[int, dict[int, tuple[int | None, int]]]


def dual_refinement(g: PlanarGraph,
                    dual_weights: dict[int, Fraction] | None = None) -> DualRefinement:
    """Superimpose g, its planar dual, and the midpoints of its edges.

    Each midpoint vertex joins the two endpoints of its edge (inheriting the
    edge weight) and the centers of the bounded faces containing the edge
    (weight 1, or the supplied per-primal-edge dual weight).
    """
    faces = g.trace_faces()
    inf = faces.infinite_index
    boundary = g.infinite_face_vertices()
    for v in g.vertices:
        if g.degree(v) == 1 and v not in boundary:
            raise PreconditionViolated(
                f"degree-one vertex {v} lies inside a bounded face")
    dual_weights = dual_weights or {}

    # each new position is one Fraction per coordinate over the lattice:
    # a midpoint is (p_u + p_v) / 2L, a face centre the mean of the face's
    # distinct vertices, their sum over kL
    lat = g.lattice()
    pts = lat.points
    half = 2 * lat.scale
    vertices: dict[int, Vertex] = dict(g.vertices)
    next_id = max(g.vertices) + 1
    mid_of_edge: dict[int, int] = {}
    for eid, e in g.edges.items():
        (ux, uy), (vx, vy) = pts[e.u], pts[e.v]
        vertices[next_id] = Vertex(next_id, (Fraction(ux + vx, half), Fraction(uy + vy, half)))
        mid_of_edge[eid] = next_id
        next_id += 1
    center_of_face: dict[int, int] = {}
    for f in faces.bounded:
        corners = [pts[v] for v in {v for v, _ in f.cycle}]
        k = len(corners) * lat.scale
        vertices[next_id] = Vertex(next_id, (Fraction(sum(x for x, _ in corners), k),
                                             Fraction(sum(y for _, y in corners), k)))
        center_of_face[f.index] = next_id
        next_id += 1

    edges: dict[int, Edge] = {}
    across: dict[int, dict[int, tuple[int | None, int]]] = {}
    for eid, e in g.edges.items():
        m = mid_of_edge[eid]
        h = len(edges)
        edges[h] = Edge(h, e.u, m, e.weight)
        edges[h + 1] = Edge(h + 1, m, e.v, e.weight)
        across[m] = {e.u: (e.v, h), e.v: (e.u, h + 1)}
    for eid, e in g.edges.items():
        fa, fb = faces.sides_of_edge(e)
        if fa == fb and fa != inf:
            raise PreconditionViolated(
                f"edge {eid} is a bridge inside bounded face {fa}")
        m = mid_of_edge[eid]
        ca, cb = center_of_face.get(fa), center_of_face.get(fb)
        # halves of a dual edge inherit its weight; the stubs joining boundary
        # midpoints to face centers belong to no dual edge and stay at 1
        interior = inf not in (fa, fb)
        w = dual_weights.get(eid, _UNIT) if interior else _UNIT
        for c, far in ((ca, cb), (cb, ca)):
            if c is not None:
                h = len(edges)
                across[m][c] = (far, h)
                edges[h] = Edge(h, m, c, w)

    # combinatorial rotation: correct for any planar drawing that keeps face
    # centers inside their faces, regardless of synthesized coordinates
    rotation: dict[int, tuple[int, ...]] = {}
    for v in g.vertices:
        rotation[v] = tuple(across[mid_of_edge[eid]][v][1] for eid in g.rotation[v])
    for eid, e in g.edges.items():
        m = mid_of_edge[eid]
        half = across[m]
        fa = faces.dart_face[(eid, e.u)]  # face left of u -> v
        fb = faces.dart_face[(eid, e.v)]
        order = [half[e.v][1]]
        if fa != inf:
            order.append(half[center_of_face[fa]][1])
        order.append(half[e.u][1])
        if fb != inf and fb != fa:
            order.append(half[center_of_face[fb]][1])
        rotation[m] = tuple(order)
    for f in faces.bounded:
        c = center_of_face[f.index]
        rotation[c] = tuple(across[mid_of_edge[eid]][c][1] for _, eid in f.cycle)

    graph = PlanarGraph.trusted(vertices, edges, rotation=rotation)
    assert len(graph.vertices) % 2 == 1, "refinement must have oddly many vertices"
    return DualRefinement(g, graph, mid_of_edge, center_of_face,
                          {m: e for e, m in mid_of_edge.items()},
                          {c: f for f, c in center_of_face.items()}, across)


# ---------------------------------------------------------------------------
# Leaf augmentation
# ---------------------------------------------------------------------------

_LEAF_DIRS = [(1, 0), (-1, 0), (1, 1), (-1, 1), (0, 1), (-1, -1), (0, -1), (1, -1)]
_LEAF_RADII = [4, 16, 64, 256, 1]  # the radius 1/r for each r, tried in this order


def _leaf_candidates(scale: int, apos, occupied: set, segments: list):
    """Points around ``apos`` on the lattice of ``scale``, a multiple of every
    leaf radius denominator, that are not ``occupied`` and whose segment to
    ``apos`` meets none of the boxed ``segments`` besides at ``apos``."""
    ax, ay = apos
    for r in _LEAF_RADII:
        step = scale // r
        for dx, dy in _LEAF_DIRS:
            p = (ax + step * dx, ay + step * dy)
            if p in occupied:
                continue
            _, _, x0, x1, y0, y1 = _geom.boxed(apos, p)
            if not any(u0 <= x1 and x0 <= u1 and w0 <= y1 and y0 <= w1
                       and _geom.segments_conflict(apos, p, c, d)
                       for c, d, u0, u1, w0, w1 in segments):
                yield p


def augment_with_leaves(g0: PlanarGraph, path: list[int]) -> tuple[PlanarGraph, MarkedBoundary]:
    """Attach leaf vertices before and after the marked boundary path, drawn
    in the infinite face.  The first candidate pair, in ``_leaf_candidates``
    order, whose leaves both lie on the infinite face is taken.
    """
    mb = validate_boundary_path(g0, path)
    if not g0.is_connected():
        raise Disconnected("graph is not connected")
    v1, v_last = mb.inner[0], mb.inner[-1]
    leaf0 = max(g0.vertices) + 1
    leaf1 = leaf0 + 1
    e0 = max(g0.edges, default=-1) + 1
    e1 = e0 + 1
    scale = lcm(g0.lattice().scale, *_LEAF_RADII)
    pts = g0.lattice().rescaled(scale)
    occupied = set(pts.values())
    segments = [_geom.boxed(pts[e.u], pts[e.v]) for e in g0.edges.values()]
    edges = dict(g0.edges)
    edges[e0] = Edge(e0, leaf0, v1)
    edges[e1] = Edge(e1, v_last, leaf1)
    for p0 in _leaf_candidates(scale, pts[v1], occupied, segments):
        for p1 in _leaf_candidates(scale, pts[v_last], occupied | {p0}, segments):
            if _geom.segments_conflict(pts[v1], p0, pts[v_last], p1):
                continue
            # valid by construction: the leaves avoid each other and all of
            # g0, and pendant edges to new vertices keep g0 simple
            vertices = dict(g0.vertices)
            vertices[leaf0] = Vertex(leaf0, (Fraction(p0[0], scale), Fraction(p0[1], scale)))
            vertices[leaf1] = Vertex(leaf1, (Fraction(p1[0], scale), Fraction(p1[1], scale)))
            g = PlanarGraph(vertices, edges, geometric=True)
            onb = g.infinite_face_vertices()
            if leaf0 not in onb:
                break  # a pendant edge splits no face: leaf0 stays inside for every p1
            if leaf1 in onb:
                return g, MarkedBoundary(mb.inner, mb.n, (e0,) + mb.boundary_edges + (e1,),
                                         leaves=(leaf0, leaf1))
    raise EmbeddingError("could not place the boundary leaves in the infinite face")


# ---------------------------------------------------------------------------
# The plus/minus pair and the symmetrized graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlusMinusInstance:
    """Everything derived from one marked boundary: the refinement of the
    augmented graph (its ``source``), the even-trimmed stage graph, and the
    two half graphs."""

    base: PlanarGraph
    boundary: MarkedBoundary
    refinement: DualRefinement
    trimmed: PlanarGraph         # refinement minus v0, v2, ..., v_{2n}
    plus: PlanarGraph            # trimmed minus odd-indexed midpoints
    minus: PlanarGraph           # trimmed minus even-indexed midpoints
    mids: tuple[int, ...]        # refinement vertex ids of m_1..m_{2n}


def section_instance(g0: PlanarGraph, path: list[int]) -> PlusMinusInstance:
    """The marked midpoints m_1..m_{2n}, the refinement graph minus the even
    path vertices v_0, v_2, ..., v_{2n}, and its plus and minus halves."""
    g, mb = augment_with_leaves(g0, path)
    ref = dual_refinement(g)
    mids = tuple(ref.mid_of_edge[e] for e in mb.boundary_edges)
    trimmed = remove_vertices(ref.graph, mb.full_path[0::2])
    plus = remove_vertices(trimmed, mids[0::2])
    minus = remove_vertices(trimmed, mids[1::2])
    return PlusMinusInstance(g0, mb, ref, trimmed, plus, minus, mids)


def symmetrize(inst: PlusMinusInstance) -> PlanarGraph:
    """Glue the even-trimmed refinement graph to its mirror image along the
    marked midpoints.

    The graph itself is defined combinatorially (vertex and edge doubling
    with identification along the midpoints).  For the drawing, the input
    must be in normal form: the marked path horizontal with the rest of the
    graph strictly above it.  The odd path vertices are then lifted off the
    axis by an exactly validated offset and the whole drawing is mirrored,
    which yields a genuine symmetric straight-line embedding.
    """
    mids, trimmed = inst.mids, inst.trimmed
    odds = inst.boundary.inner[0::2]

    axis_y = {trimmed.vertices[m].pos[1] for m in mids}
    if len(axis_y) != 1:
        raise ReembeddingFailed("marked midpoints are not on one horizontal line")
    y0 = axis_y.pop()
    on_axis = set(mids) | set(odds)
    for v in trimmed.vertices.values():
        if v.id in on_axis:
            continue
        if v.pos[1] <= y0:
            raise ReembeddingFailed(
                f"vertex {v.id} does not lie strictly above the marked line")

    delta = Fraction(1, 4)
    for _ in range(12):
        vertices = {}
        for v in trimmed.vertices.values():
            y = v.pos[1] - y0
            if v.id in odds:
                y += delta
            vertices[v.id] = Vertex(v.id, (v.pos[0], y))
        try:
            # removing the even path vertices may legitimately disconnect
            # path-like stretches; the drawing is still validated in full
            top = PlanarGraph.build(vertices, dict(trimmed.edges),
                                    require_connected=False)
            break
        except EmbeddingError:
            delta /= 4
    else:
        raise ReembeddingFailed("could not lift the path vertices off the axis")

    mirror_of: dict[int, int] = {m: m for m in mids}
    vertices = dict(top.vertices)
    next_id = max(vertices) + 1
    for v in top.vertices:
        if v in mirror_of:
            continue
        pos = top.vertices[v].pos
        vertices[next_id] = Vertex(next_id, (pos[0], -pos[1]))
        mirror_of[v] = next_id
        next_id += 1
    edges: dict[int, Edge] = {}
    next_eid = 0
    for e in top.edges.values():
        edges[next_eid] = Edge(next_eid, e.u, e.v, e.weight)
        next_eid += 1
        mu, mv = mirror_of[e.u], mirror_of[e.v]
        if (mu, mv) != (e.u, e.v):
            edges[next_eid] = Edge(next_eid, mu, mv, e.weight)
            next_eid += 1
    # the validated top half lies above the axis and meets it only at the
    # shared midpoints, so it and its mirror image cannot cross
    return PlanarGraph.trusted(vertices, edges, geometric=True)


# ---------------------------------------------------------------------------
# Smashing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmashedGraph:
    """Refinement graph with boundary corners smashed in: each target vertex
    is deleted together with its two boundary edge midpoints, and the deletion
    is attributed to the center of the bounded face that contained it."""

    refinement: DualRefinement
    face_of: dict[int, int]   # smashed vertex -> face-center vertex id
    graph: PlanarGraph


def smash_in(refinement: DualRefinement, targets) -> SmashedGraph:
    g = refinement.source
    faces = g.trace_faces()
    inf = faces.infinite_index
    boundary = g.infinite_face_vertices()
    boundary_edges = g.infinite_face_edges()
    face_of: dict[int, int] = {}
    removed_vertices: set[int] = set()
    used_faces: dict[int, int] = {}
    for v in sorted(set(targets)):
        if v not in g.vertices:
            raise NotDegreeTwo(f"unknown vertex {v}")
        if g.degree(v) != 2:
            raise NotDegreeTwo(f"vertex {v} has degree {g.degree(v)}")
        if v not in boundary:
            raise NotOnInfiniteFace(f"vertex {v} is not on the infinite face")
        sides = set()
        for eid in g.adj[v]:
            sides.update(faces.sides_of_edge(g.edges[eid]))
            if eid not in boundary_edges:
                raise NotOnInfiniteFace(
                    f"edge {eid} at vertex {v} is not on the infinite face")
        bounded_sides = sorted(sides - {inf})
        if len(bounded_sides) != 1:
            raise PreconditionViolated(
                f"vertex {v} does not have a unique bounded face")
        f = bounded_sides[0]
        if f in used_faces:
            raise SharedFace(
                f"vertices {used_faces[f]} and {v} share bounded face {f}")
        used_faces[f] = v
        face_of[v] = refinement.center_of_face[f]
        removed_vertices.add(v)
        for eid in g.adj[v]:
            removed_vertices.add(refinement.mid_of_edge[eid])
    graph = remove_vertices(refinement.graph, removed_vertices)
    return SmashedGraph(refinement, face_of, graph)


# ---------------------------------------------------------------------------
# Grid subgraphs and trimmed squares
# ---------------------------------------------------------------------------


def _grid_edges(points) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The edges of the grid subgraph on a set of lattice points: each
    point's unit step right, then up, in sorted point order."""
    return [(p, q) for p in sorted(points)
            for q in ((p[0] + 1, p[1]), (p[0], p[1] + 1)) if q in points]


def _lattice_graph(points: dict[int, LatticePoint], ends: list[tuple[int, int]],
                   weights=None) -> PlanarGraph:
    """The straight-line graph on the distinct integer ``points`` (vertex id
    -> point, by ascending id) whose edge k joins ``ends[k]``, weighted
    ``weights[k]`` or 1; not validated, every caller draws a valid one.
    The points are its lattice, and its rotation is read off them."""
    edges = {k: Edge(k, u, v, _UNIT if weights is None else weights[k])
             for k, (u, v) in enumerate(ends)}
    frac = {c: Fraction(c) for c in {c for p in points.values() for c in p}}
    vertices = {v: Vertex(v, (frac[x], frac[y])) for v, (x, y) in points.items()}
    return PlanarGraph.trusted(vertices, edges, geometric=True, lattice=Lattice(1, points))


def _diagonal(p: tuple[int, int]) -> LatticePoint:
    """Where the lattice map (x, y) -> (x + y, y - x) draws p: a square grid
    with its main diagonal on the horizontal axis."""
    return (p[0] + p[1], p[1] - p[0])


def _square_graph(side: int, present: set[tuple[int, int]]) -> PlanarGraph:
    # grid subgraphs are always valid embeddings, and the mirrored removals
    # may legitimately disconnect the final graph
    def vid(p):
        return p[0] * side + p[1]

    points = {vid(p): _diagonal(p) for p in sorted(present)}
    return _lattice_graph(points, [(vid(p), vid(q)) for p, q in _grid_edges(present)])


def _quadruple(present: set[tuple[int, int]], peak: tuple[int, int]):
    i, j = peak
    nbrs = [p for p in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)) if p in present]
    if len(nbrs) != 2:
        raise NotAPeak(f"{peak} has {len(nbrs)} neighbors, expected 2")
    (a1, a2), (b1, b2) = nbrs
    if a1 == b1 or a2 == b2:
        raise NotAPeak(f"{peak} is not a corner (collinear neighbors)")
    fourth = (a1 + b1 - i, a2 + b2 - j)
    if fourth not in present:
        raise NotAPeak(f"{peak} has no opposite four-cycle vertex")
    return [peak, nbrs[0], nbrs[1], fourth]


def _replay(n: int, removals=()) -> set[tuple[int, int]]:
    """The stage left by a removal sequence, each step validated."""
    if n < 1:
        raise PreconditionViolated(f"half side n must be positive, got {n}")
    present = {(i, j) for i in range(2 * n) for j in range(2 * n)}
    for peak in removals:
        present -= set(_removal(present, peak))
    return present


def _mirrored(present: set[tuple[int, int]]) -> set[tuple[int, int]]:
    # a stage removes only vertices strictly above the diagonal, so the
    # mirrored square keeps exactly the vertices whose mirror image remains
    return {(i, j) for (i, j) in present if (j, i) in present}


def _removal(present: set[tuple[int, int]], peak) -> list[tuple[int, int]]:
    """The four-cycle of ``peak`` if it is a valid next removal.

    A valid removal never disconnects the stage.  By induction on the
    removals, the removed points are a union of even-aligned 2x2 blocks
    {2a, 2a+1} x {2b, 2b+1}, closed toward the corner (0, 2n-1): with (i, j)
    they hold every (i', j') with i' <= i and j' >= j, a Young diagram
    anchored there.  A peak strictly above the diagonal has (i+1, j) and
    (i, j-1) in the square, and a present point keeps them by that closure,
    so a corner peak misses (i-1, j) and (i, j+1).  Each is outside the
    square or in a removed block that does not hold the peak: i is 0 or
    i - 1 is the odd row of its block, and j is 2n-1 or j + 1 is the even
    column of its block.  So i is even and j odd, the four-cycle
    {i, i+1} x {j-1, j} is an even-aligned block, its neighbour blocks
    {i-2, i-1} x {j-1, j} and {i, i+1} x {j+1, j+2} are removed or outside,
    and the diagram stays closed.
    Every remaining point (i, j) therefore walks through present points
    along increasing i to (2n-1, j), then along decreasing j to (2n-1, 0).
    """
    i, j = peak
    if peak not in present:
        raise NotAPeak(f"{peak} is not a current vertex")
    if j <= i:
        raise BelowDiagonal(f"{peak} is not strictly above the diagonal")
    quad = _quadruple(present, peak)
    off = [p for p in quad if p[1] <= p[0]]
    if off:
        raise NotAPeak(f"four-cycle of {peak} touches the diagonal at {off}")
    return quad


def _peaks(present: set[tuple[int, int]]) -> list[tuple[tuple[int, int], list]]:
    """The valid next removals at a stage, as sorted (peak, four-cycle) pairs:
    the corners of its Young diagram.  By ``_removal``'s proof a peak is an
    (i, j) with i even, j odd and j >= i + 3 that misses (i-1, j) and
    (i, j+1), and its four-cycle is the block {i, i+1} x {j-1, j}.

    A peak needs no drawing to be seen on the current boundary.  Every
    bounded face of a stage is a unit cell with all four corners present:
    the full square is so, and removing the four-cycle of a corner peak p
    deletes every edge inside the 3x3 block of cells around it, merging the
    nine cells into one region that holds p's outward cell, which lacked a
    corner and so already lay in the infinite face.  A degree-two corner
    touches three cells that lack a corner, so it lies on the infinite face.
    """
    corners = sorted((i, j) for i, j in present
                     if i % 2 == 0 and j % 2 == 1 and j >= i + 3
                     and (i - 1, j) not in present
                     and (i, j + 1) not in present)
    return [((i, j), [(i, j), (i + 1, j), (i, j - 1), (i + 1, j - 1)]) for i, j in corners]


def trimmed_square(n: int, removals=()) -> PlanarGraph:
    """A square grid of even side drawn with its diagonal horizontal, with
    four-cycle quadruples recursively removed at boundary peaks strictly above
    the diagonal and the removals mirrored below it."""
    return _square_graph(2 * n, _mirrored(_replay(n, removals)))

