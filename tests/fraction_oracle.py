"""The geometry of a drawing decided on its rational coordinates themselves,
in Fraction arithmetic: the all-pairs validator, the rotation system and the
face areas as they were before the engine moved them onto the integer
lattice.  The differential tests hold the lattice predicates to it."""

from fractions import Fraction
from functools import cmp_to_key

from dimerforge.errors import Disconnected, EmbeddingError
from dimerforge.planar import PlanarGraph


def cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _half(d) -> int:
    return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1


def _ccw_direction_cmp(d1, d2) -> int:
    h1, h2 = _half(d1), _half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = d1[0] * d2[1] - d1[1] * d2[0]
    return -1 if c > 0 else 1 if c < 0 else 0


_direction_key = cmp_to_key(_ccw_direction_cmp)


def point_on_segment(p, a, b) -> bool:
    if cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_conflict(a, b, c, d) -> bool:
    shared = {a, b} & {c, d}
    if len(shared) == 2:
        return True
    d1, d2, d3, d4 = cross(c, d, a), cross(c, d, b), cross(a, b, c), cross(a, b, d)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return True
    return (any(p not in shared and point_on_segment(p, a, b) for p in (c, d))
            or any(p not in shared and point_on_segment(p, c, d) for p in (a, b)))


def polygon_area2(polygon) -> Fraction:
    n = len(polygon)
    return sum((polygon[i][0] * polygon[(i + 1) % n][1]
                - polygon[(i + 1) % n][0] * polygon[i][1] for i in range(n)), Fraction(0))


def rotation(g: PlanarGraph) -> dict[int, tuple[int, ...]]:
    """Each vertex's edges by counterclockwise angle, ties by edge id."""
    rot = {}
    for v, incident in g.adj.items():
        p = g.vertices[v].pos
        dirs = []
        for eid in incident:
            q = g.vertices[g.edges[eid].other(v)].pos
            dirs.append(((q[0] - p[0], q[1] - p[1]), eid))
        dirs.sort(key=lambda t: (_direction_key(t[0]), t[1]))
        rot[v] = tuple(eid for _, eid in dirs)
    return rot


def face_areas(g: PlanarGraph) -> list[Fraction]:
    """Twice the signed area of each traced face of ``g``."""
    return [polygon_area2([g.vertices[v].pos for v in f.vertex_seq])
            for f in g.trace_faces().faces]


def validate(vertices, edges, require_connected: bool = True) -> PlanarGraph:
    """The checks of ``PlanarGraph.build`` in their order, all pairs of
    edges and all vertex-edge pairs tested exactly on the rational
    coordinates; the same error for the same fault."""
    g = PlanarGraph(vertices, edges, geometric=True, rotation={})
    g.rotation = rotation(g)
    g._check_simple()
    positions = {}
    for v in g.vertices.values():
        if v.pos in positions:
            raise EmbeddingError(f"vertices {positions[v.pos]} and {v.id} share position")
        positions[v.pos] = v.id
    for e in g.edges.values():
        a, b = g.vertices[e.u].pos, g.vertices[e.v].pos
        for v in g.vertices.values():
            if v.id not in (e.u, e.v) and point_on_segment(v.pos, a, b):
                raise EmbeddingError(f"vertex {v.id} lies on edge {e.id}")
    eids = list(g.edges)
    for i, ei in enumerate(eids):
        e1 = g.edges[ei]
        a, b = g.vertices[e1.u].pos, g.vertices[e1.v].pos
        for ej in eids[i + 1:]:
            e2 = g.edges[ej]
            if segments_conflict(a, b, g.vertices[e2.u].pos, g.vertices[e2.v].pos):
                raise EmbeddingError(f"edges {ei} and {ej} cross")
    comp = g.component_map()
    if require_connected and len(set(comp.values())) > 1:
        raise Disconnected("graph is not connected")
    counts: dict[int, list[int]] = {}
    for v, c in comp.items():
        counts.setdefault(c, [0, 0, 0])[0] += 1
    for e in g.edges.values():
        counts[comp[e.u]][1] += 1
    for f in g.trace_faces().faces:
        if f.cycle:
            counts[comp[f.cycle[0][0]]][2] += 1
    for v_count, e_count, f_count in counts.values():
        if e_count and v_count - e_count + f_count != 2:
            raise EmbeddingError(f"Euler check failed: V={v_count} E={e_count} F={f_count}")
    return g
