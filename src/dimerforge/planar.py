"""Embedded plane graphs: loading, validation, faces, marked boundaries.

The embedding source of truth is the set of exact rational straight-line
coordinates.  Geometric decisions read their integer image, the graph's
``Lattice``: every coordinate times the lcm of all coordinate denominators.
Validation happens once, at the input boundary: the geometric
validator of ``PlanarGraph.build`` runs on parsed graph files and on the trial
lifts of ``refine.symmetrize``; ``PlanarGraph.trusted`` makes every other graph,
valid by construction (for a reason stated where it is built) or cosmetic,
except those that vertex deletion and leaf augmentation derive from a graph
already made.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from itertools import accumulate, chain, repeat
from math import gcd, lcm

from . import _geom
from ._geom import LatticePoint, Point, ccw_direction_key, frac_str, parse_frac
from .errors import (
    BadDegree,
    Disconnected,
    EmbeddingError,
    NotAPath,
    NotOnInfiniteFace,
    NotSimple,
    NotSymmetric,
    ParseError,
    WeightMismatch,
)

# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    id: int
    pos: Point


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    weight: Fraction = Fraction(1)

    def other(self, w: int) -> int:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise KeyError(f"vertex {w} not an endpoint of edge {self.id}")

    @property
    def ends(self) -> frozenset[int]:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class Face:
    index: int
    cycle: tuple[tuple[int, int], ...]  # (tail vertex, edge) darts in traversal order
    infinite: bool
    area2: Fraction

    @property
    def vertex_seq(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.cycle)

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(e for _, e in self.cycle)


@dataclass(frozen=True)
class FaceDecomposition:
    faces: tuple[Face, ...]
    infinite_index: int
    dart_face: dict[tuple[int, int], int]  # (edge, tail) -> face index

    @property
    def infinite_face(self) -> Face:
        return self.faces[self.infinite_index]

    @property
    def bounded(self) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if not f.infinite)

    def sides_of_edge(self, edge: "Edge") -> tuple[int, int]:
        """Face indices on the two sides of an edge (equal for a bridge)."""
        return (self.dart_face[(edge.id, edge.u)], self.dart_face[(edge.id, edge.v)])


@dataclass(frozen=True)
class WeightTable:
    """Edge weights made integers one vertex at a time: the Laplacian rows
    of the tree layer read it, the walks of its sampler draw from a table
    built on its exits (``PlanarGraph.walk_table``), and the matching DP
    weighs edge uv as its exit weight at v times d_u."""

    scale: dict[int, int]  # v -> d_v, the lcm of the weight denominators at v
    # v -> (edge, neighbour, weight * d_v) of its positive-weight edges, by edge id
    exits: dict[int, tuple[tuple[int, int, int], ...]]

    @cached_property
    def connected(self) -> bool:
        """Whether the positive-weight edges connect the graph; only the
        sampler asks, so it is found on the first read."""
        pairs = ((v, u) for v, out in self.exits.items() for _, u, _ in out)
        return len(set(_components(self.exits, pairs).values())) <= 1


# the most entries a walk row tabulates: a vertex whose exit total T has
# 2^T.bit_length() above it keeps a cumulative search instead
WALK_ROW_CAP = 64


class _SearchRow:
    """A walk row too long to tabulate, indexed like one: ``row[r]`` is the
    (edge, neighbour position) of the first exit whose cumulative weight
    exceeds r, and None for r at or above the exit total."""

    __slots__ = ("total", "cum", "pick")

    def __init__(self, out: tuple[tuple[int, int, int], ...]):
        self.cum = tuple(accumulate(x for _, _, x in out))
        self.total = self.cum[-1]
        self.pick = tuple((e, u) for e, u, _ in out)

    def __getitem__(self, r: int) -> tuple[int, int] | None:
        return self.pick[bisect_right(self.cum, r)] if r < self.total else None


def _walk_row(out: tuple[tuple[int, int, int], ...]) -> tuple[int, tuple | _SearchRow]:
    """(k, pick) for a vertex with exits ``out``, each (edge, neighbour
    position, scaled weight): k is the bit length of the exit total T, and
    pick[r] for r < 2^k is the (edge, neighbour position) of the first exit
    whose cumulative weight exceeds r, or None when r >= T.  Each exit fills
    as many consecutive entries as its scaled weight."""
    total = sum(x for _, _, x in out)
    k = total.bit_length()
    if 1 << k > WALK_ROW_CAP:
        return k, _SearchRow(out)
    pick = chain.from_iterable(repeat((e, u), x) for e, u, x in out)
    return k, tuple(pick) + (None,) * ((1 << k) - total)


@dataclass(frozen=True)
class Lattice:
    """The drawing scaled to integers.  The scale is positive, so every
    geometric predicate has the same sign on the image as on the drawing."""

    scale: int  # L, the lcm of all coordinate denominators
    points: dict[int, LatticePoint]  # v -> (x * L, y * L)

    def rescaled(self, scale: int) -> dict[int, LatticePoint]:
        """The points on a finer lattice; ``scale`` is a multiple of L."""
        k = scale // self.scale
        return {v: (x * k, y * k) for v, (x, y) in self.points.items()}


def kept(build):
    """``build(g)`` run on the first call on a graph and kept in its tables:
    every later call on that graph returns the same object.  A build that
    raises keeps nothing, so the next call builds again."""
    @wraps(build)
    def table(g):
        made = g._tables.get(build)
        if made is None:
            made = g._tables[build] = build(g)
        return made
    return table


class PlanarGraph:
    """Straight-line embedded simple graph with a rotation system.

    Instances are immutable by convention: all mutating surgery lives in
    functions that build new graphs.
    """

    def __init__(self, vertices: dict[int, Vertex], edges: dict[int, Edge], *,
                 geometric: bool, rotation: dict[int, tuple[int, ...]] | None = None,
                 lattice: Lattice | None = None):
        self.vertices = dict(sorted(vertices.items()))
        self.edges = dict(sorted(edges.items()))
        self.geometric = geometric
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for e in self.edges.values():
            if e.u not in adj or e.v not in adj:
                raise ParseError(f"edge {e.id} references an unknown vertex")
            adj[e.u].append(e.id)
            adj[e.v].append(e.id)
        self.adj = {v: tuple(ids) for v, ids in adj.items()}  # ascending, as self.edges
        # the tables derived from this graph, each keyed by its builder
        self._tables = {} if lattice is None else {PlanarGraph.lattice.__wrapped__: lattice}
        self.rotation = rotation if rotation is not None else self._rotation_from_angles()

    def __getstate__(self):
        # a copy builds its own tables; pickle cannot find their builders by name
        return {**vars(self), "_tables": {}}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, vertices: dict[int, Vertex], edges: dict[int, Edge],
              require_connected: bool = True) -> "PlanarGraph":
        """Fully validated constructor for geometric graphs."""
        g = cls(vertices, edges, geometric=True)
        g._validate(require_connected)
        return g

    @classmethod
    def trusted(cls, vertices: dict[int, Vertex], edges: dict[int, Edge], *,
                rotation: dict[int, tuple[int, ...]] | None = None,
                geometric: bool = False, lattice: Lattice | None = None) -> "PlanarGraph":
        """Constructor for graphs the program builds itself: a geometric
        drawing is valid by construction, other coordinates are cosmetic.
        Simplicity is still enforced; the geometric checks are not.  A
        builder drawing on integer points passes them as its ``lattice``,
        so they are not derived again from the coordinates.
        """
        g = cls(vertices, edges, geometric=geometric, rotation=rotation, lattice=lattice)
        g._check_simple()
        return g

    def _rotation_from_angles(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's edges by ``ccw_direction_key`` of their directions,
        ties by edge id.  The darts are grouped by primitive direction, the
        few distinct directions ranked once, and each vertex takes its darts
        in rank order, those of one direction in edge-id order."""
        pts = self.lattice().points
        darts: dict[LatticePoint, list[tuple[int, int]]] = {}
        for e in self.edges.values():
            (ux, uy), (vx, vy) = pts[e.u], pts[e.v]
            k = gcd(vx - ux, vy - uy) or 1
            dx, dy = (vx - ux) // k, (vy - uy) // k
            darts.setdefault((dx, dy), []).append((e.u, e.id))
            darts.setdefault((-dx, -dy), []).append((e.v, e.id))
        rotation: dict[int, list[int]] = {v: [] for v in self.adj}
        for step in sorted(darts, key=ccw_direction_key):
            for v, eid in darts[step]:
                rotation[v].append(eid)
        return {v: tuple(eids) for v, eids in rotation.items()}

    @kept
    def lattice(self) -> Lattice:
        scale = lcm(*{c.denominator for v in self.vertices.values() for c in v.pos})
        return Lattice(scale, {
            i: (v.pos[0].numerator * (scale // v.pos[0].denominator),
                v.pos[1].numerator * (scale // v.pos[1].denominator))
            for i, v in self.vertices.items()})

    # -- validation -----------------------------------------------------------

    def _check_simple(self):
        seen_ends = {}
        for e in self.edges.values():
            if e.u == e.v:
                raise NotSimple(f"edge {e.id} is a loop")
            if e.weight.numerator < 0:
                raise ParseError(f"edge {e.id} has negative weight")
            key = (e.u, e.v) if e.u < e.v else (e.v, e.u)
            if key in seen_ends:
                raise NotSimple(f"edges {seen_ends[key]} and {e.id} are parallel")
            seen_ends[key] = e.id

    def _validate(self, require_connected: bool = True):
        self._check_simple()
        pts = self.lattice().points
        positions = {}
        for v, p in pts.items():
            if p in positions:
                raise EmbeddingError(f"vertices {positions[p]} and {v} share position")
            positions[p] = v
        # the exact tests below run only where bounding boxes meet, which
        # every conflict does; the first conflict named stays the same
        boxes = [(e, _geom.boxed(pts[e.u], pts[e.v])) for e in self.edges.values()]
        # no vertex in the interior of an edge
        for e, (a, b, x0, x1, y0, y1) in boxes:
            for v, p in pts.items():
                if (x0 <= p[0] <= x1 and y0 <= p[1] <= y1 and v != e.u and v != e.v
                        and _geom.cross(a, b, p) == 0):
                    raise EmbeddingError(f"vertex {v} lies on edge {e.id}")
        # pairwise segment conflicts
        for i, (e1, (a, b, x0, x1, y0, y1)) in enumerate(boxes):
            for e2, (c, d, u0, u1, w0, w1) in boxes[i + 1:]:
                if (u0 <= x1 and x0 <= u1 and w0 <= y1 and y0 <= w1
                        and _geom.segments_conflict(a, b, c, d)):
                    raise EmbeddingError(f"edges {e1.id} and {e2.id} cross")
        comp = self.component_map()
        if require_connected and len(set(comp.values())) > 1:
            raise Disconnected("graph is not connected")
        # Euler check through face tracing, per connected component
        faces = self.trace_faces()
        counts: dict[int, list[int]] = {}
        for v, c in comp.items():
            counts.setdefault(c, [0, 0, 0])[0] += 1
        for e in self.edges.values():
            counts[comp[e.u]][1] += 1
        for f in faces.faces:
            if f.cycle:
                counts[comp[f.cycle[0][0]]][2] += 1
        for c, (v_count, e_count, f_count) in counts.items():
            if e_count and v_count - e_count + f_count != 2:
                raise EmbeddingError(
                    f"Euler check failed: V={v_count} E={e_count} F={f_count}")

    # -- basic queries --------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int):
        return tuple(self.edges[e].other(v) for e in self.adj[v])

    def edge_between(self, u: int, v: int) -> Edge | None:
        for eid in self.adj.get(u, ()):
            if self.edges[eid].other(u) == v:
                return self.edges[eid]
        return None

    def is_connected(self) -> bool:
        return len(set(self.component_map().values())) <= 1

    def component_map(self) -> dict[int, int]:
        """Each vertex mapped to a representative of its connected component."""
        return _components(self.vertices, ((e.u, e.v) for e in self.edges.values()))

    @property
    @kept
    def graph_id(self) -> str:
        return hashlib.sha256(dump_graph(self).encode()).hexdigest()[:12]

    @kept
    def weight_table(self) -> WeightTable:
        # each weight read once, as its (numerator, denominator)
        parts = {i: (e.u, e.v, e.weight.numerator, e.weight.denominator)
                 for i, e in self.edges.items()}
        scale, exits = {}, {}
        for v, ids in self.adj.items():
            d = scale[v] = lcm(*(parts[e][3] for e in ids))
            out = []
            for e in ids:
                a, b, num, den = parts[e]
                if num:
                    out.append((e, b if a == v else a, num * (d // den)))
            exits[v] = tuple(out)
        return WeightTable(scale, exits)

    @kept
    def vertex_order(self) -> tuple[tuple[int, ...], dict[int, int]]:
        """(ids, position): the vertex ids by their position in
        ``self.vertices``, which is ascending id order, and each id's
        position; the walk table's rows and entries are positions."""
        ids = tuple(self.vertices)
        return ids, {v: i for i, v in enumerate(ids)}

    @kept
    def walk_table(self) -> tuple[tuple[int, tuple | _SearchRow], ...]:
        """Row i is the (k, pick) of ``_walk_row`` for the vertex at
        position i, its exits' neighbours given by position: the rows a
        loop-erased walk step draws from, built on the first walk on this
        graph."""
        ids, position = self.vertex_order()
        exits = self.weight_table().exits
        return tuple(_walk_row(tuple((e, position[u], x) for e, u, x in exits[v]))
                     for v in ids)

    # -- faces ----------------------------------------------------------------

    @kept
    def trace_faces(self) -> FaceDecomposition:
        if not self.geometric:
            raise EmbeddingError("face tracing requires a geometric embedding")
        # the dart (edge, tail) arriving at v is followed by the predecessor
        # of its edge in the counterclockwise order at v: this traces every
        # face with its interior on the left, so bounded faces come out
        # counterclockwise and the infinite face clockwise
        follow = {(eid, self.edges[eid].other(v)): (rot[i - 1], v)
                  for v, rot in self.rotation.items() for i, eid in enumerate(rot)}
        lat = self.lattice()
        pts, area_scale = lat.points, lat.scale ** 2
        faces: list[Face] = []
        areas: list[int] = []  # twice each face's area on the lattice
        dart_face: dict[tuple[int, int], int] = {}
        for start in sorted(follow):
            if start in dart_face:
                continue
            idx = len(faces)
            cycle = []
            cur = start
            while cur not in dart_face:
                dart_face[cur] = idx
                cycle.append((cur[1], cur[0]))
                cur = follow[cur]
            areas.append(_geom.polygon_area2([pts[tail] for tail, _ in cycle]))
            faces.append(Face(idx, tuple(cycle), False, Fraction(areas[-1], area_scale)))
        if faces:
            # the outer orbit of every connected component is unbounded; for
            # a connected graph this is the single face of smallest signed area
            comp = self.component_map()
            best: dict[int, int] = {}
            for f in faces:
                c = comp[f.cycle[0][0]]
                if c not in best or (areas[best[c]], best[c]) > (areas[f.index], f.index):
                    best[c] = f.index
            for idx in best.values():
                faces[idx] = Face(idx, faces[idx].cycle, True, faces[idx].area2)
            infinite_index = min(best.values(), key=lambda i: (areas[i], i))
        else:
            # edgeless graph: one face, the infinite one, with empty cycle
            faces = [Face(0, (), True, Fraction(0))]
            infinite_index = 0
        return FaceDecomposition(tuple(faces), infinite_index, dart_face)

    def infinite_face_vertices(self) -> frozenset[int]:
        faces = self.trace_faces()
        if not self.edges:
            return frozenset(self.vertices)
        return frozenset(faces.infinite_face.vertex_seq)

    def infinite_face_edges(self) -> frozenset[int]:
        return self.trace_faces().infinite_face.edge_set

    def ccw_boundary(self) -> list[tuple[int, int]]:
        """(vertex, edge to the next vertex) pairs of the infinite face walk
        in counterclockwise order around the graph, starting from the tail
        of the last clockwise dart."""
        cyc = self.trace_faces().infinite_face.cycle  # clockwise darts (tail, edge)
        return [(cyc[k][0], cyc[k - 1][1]) for k in range(len(cyc) - 1, -1, -1)]


def _find(par: dict, x):
    """Union-find root of ``x``, halving the path on the way."""
    while par[x] != x:
        par[x] = par[par[x]]
        x = par[x]
    return x


def _components(vertices, pairs) -> dict:
    """Each vertex mapped to the union-find root of its connected component
    in the graph the pairs draw on the vertices."""
    par = {v: v for v in vertices}
    for a, b in pairs:
        par[_find(par, a)] = _find(par, b)
    return {v: _find(par, v) for v in par}


def _ccw_positions(walk: list[tuple[int, int]], marks, not_once, out_of_order) -> list[int]:
    """Index of each mark in a counterclockwise boundary walk.  Raises
    ``not_once(mark)`` for a mark that is not on the walk exactly once and
    ``out_of_order()`` when the marks do not follow the walk cyclically."""
    verts = [v for v, _ in walk]
    for m in marks:
        if verts.count(m) != 1:
            raise not_once(m)
    pos = [verts.index(m) for m in marks]
    shift = pos.index(min(pos))
    if pos[shift:] + pos[:shift] != sorted(pos):
        raise out_of_order()
    return pos


def remove_vertices(g: PlanarGraph, removed) -> PlanarGraph:
    """Induced subgraph on the complement of ``removed``.  Deleting vertices
    keeps an embedding valid and a simple graph simple, so the geometric
    flag is inherited and nothing is checked again."""
    removed = set(removed)
    vertices = {i: v for i, v in g.vertices.items() if i not in removed}
    edges = {i: e for i, e in g.edges.items()
             if e.u not in removed and e.v not in removed}
    rotation = {v: tuple(filter(edges.__contains__, rot))
                for v, rot in g.rotation.items() if v not in removed}
    return PlanarGraph(vertices, edges, geometric=g.geometric, rotation=rotation)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def read_text(path: str) -> str:
    """An input file's text.  A file that is not UTF-8 raises ParseError; one
    that cannot be opened raises the OSError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def parse_graph(text: str, *, require_connected: bool = True) -> PlanarGraph:
    """Parse the line-oriented graph format and fully validate the result.

    Format: ``v <id> <x> <y>`` and ``e <id> <u> <v> [weight]`` with rational
    numbers written as ``p`` or ``p/q``; ``#`` starts a comment.
    ``require_connected=False`` admits multi-component drawings (needed to
    reload dumped derived graphs, which may legitimately be disconnected).
    """
    vertices: dict[int, Vertex] = {}
    edges: dict[int, Edge] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v":
                if len(parts) != 4:
                    raise ValueError("expected: v <id> <x> <y>")
                vid = int(parts[1])
                if vid < 0:
                    raise ValueError("negative id")
                if vid in vertices:
                    raise ValueError(f"duplicate vertex id {vid}")
                vertices[vid] = Vertex(vid, (parse_frac(parts[2]), parse_frac(parts[3])))
            elif parts[0] == "e":
                if len(parts) not in (4, 5):
                    raise ValueError("expected: e <id> <u> <v> [weight]")
                eid = int(parts[1])
                if eid < 0:
                    raise ValueError("negative id")
                if eid in edges:
                    raise ValueError(f"duplicate edge id {eid}")
                w = parse_frac(parts[4]) if len(parts) == 5 else Fraction(1)
                edges[eid] = Edge(eid, int(parts[2]), int(parts[3]), w)
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not vertices:
        raise ParseError("no vertices")
    return PlanarGraph.build(vertices, edges, require_connected=require_connected)


def dump_graph(g: PlanarGraph) -> str:
    lines = []
    for v in g.vertices.values():
        lines.append(f"v {v.id} {frac_str(v.pos[0])} {frac_str(v.pos[1])}")
    for e in g.edges.values():
        if e.weight == 1:
            lines.append(f"e {e.id} {e.u} {e.v}")
        else:
            lines.append(f"e {e.id} {e.u} {e.v} {frac_str(e.weight)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Marked boundary paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkedBoundary:
    """A boundary path v1..v_{2n-1} whose even-indexed vertices have degree
    two, optionally completed with the two added leaves v0 and v_{2n}, and
    the edges along its full path, whose midpoints become the marked
    edge-vertices once the leaves are added."""

    inner: tuple[int, ...]
    n: int
    boundary_edges: tuple[int, ...]  # edge j joins full_path[j] and full_path[j + 1]
    leaves: tuple[int, int] | None = None

    @property
    def full_path(self) -> tuple[int, ...]:
        if self.leaves is None:
            return self.inner
        return (self.leaves[0],) + self.inner + (self.leaves[1],)


def validate_boundary_path(g: PlanarGraph, path: list[int]) -> MarkedBoundary:
    if not path:
        raise NotAPath("empty path")
    if len(path) % 2 == 0:
        raise NotAPath("path must have an odd number of vertices v1..v_{2n-1}")
    if len(set(path)) != len(path):
        raise NotAPath("repeated vertex in path")
    for v in path:
        if v not in g.vertices:
            raise NotAPath(f"unknown vertex {v}")
    boundary_vertices = g.infinite_face_vertices()
    boundary_edges = g.infinite_face_edges() if g.edges else frozenset()
    path_edges = []
    for a, b in zip(path, path[1:]):
        e = g.edge_between(a, b)
        if e is None:
            raise NotAPath(f"{a},{b} is not an edge")
        if e.id not in boundary_edges:
            raise NotOnInfiniteFace(f"edge {a}-{b} is not on the infinite face")
        path_edges.append(e.id)
    for v in path:
        if v not in boundary_vertices:
            raise NotOnInfiniteFace(f"vertex {v} is not on the infinite face")
    for i, v in enumerate(path, 1):
        if i % 2 == 0 and g.degree(v) != 2:
            raise BadDegree(f"v{i}={v} has degree {g.degree(v)}, expected 2")
    return MarkedBoundary(tuple(path), (len(path) + 1) // 2, tuple(path_edges))


# ---------------------------------------------------------------------------
# Reflection symmetry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryCertificate:
    axis_y: Fraction
    vertex_map: dict[int, int]
    edge_map: dict[int, int]
    axis_vertices: tuple[int, ...]  # ordered left to right


def check_reflection_symmetry(g: PlanarGraph, axis_y: Fraction) -> SymmetryCertificate:
    """Certify invariance under reflection across the horizontal line y=axis_y."""
    axis_y = Fraction(axis_y)
    by_pos = {v.pos: v.id for v in g.vertices.values()}
    vmap = {}
    for v in g.vertices.values():
        mirror = (v.pos[0], 2 * axis_y - v.pos[1])
        if mirror not in by_pos:
            raise NotSymmetric(f"vertex {v.id} has no mirror image")
        vmap[v.id] = by_pos[mirror]
    emap = {}
    for e in g.edges.values():
        m = g.edge_between(vmap[e.u], vmap[e.v])
        if m is None:
            raise NotSymmetric(f"edge {e.id} has no mirror image")
        if m.weight != e.weight:
            raise WeightMismatch(
                f"edge {e.id} weight {e.weight} != mirror {m.id} weight {m.weight}")
        emap[e.id] = m.id
    axis = sorted((v.id for v in g.vertices.values() if v.pos[1] == axis_y),
                  key=lambda i: g.vertices[i].pos[0])
    return SymmetryCertificate(axis_y, vmap, emap, tuple(axis))
