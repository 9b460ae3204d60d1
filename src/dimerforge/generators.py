"""Standard graph builders and seeded random instance generators.

Every generator is deterministic in its seed and only emits instances that
pass the validators of the constructions they feed.  Most draw once: every
drawing that ``random_section2``, ``random_plane_graph`` and
``random_transport`` can reach is valid, as the census tests check member by
member.  ``random_symmetric`` (when asked for perfect matchings) and
``random_exit_side`` can refuse a draw, so they retry with derived sub-seeds
up to a fixed budget.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations

from .errors import DimerforgeError, GenerationExhausted
from .planar import Edge, PlanarGraph, _components, check_reflection_symmetry
from .refine import (
    _UNIT,
    _diagonal,
    _grid_edges,
    _lattice_graph,
    _mirrored,
    _peaks,
    _replay,
    _square_graph,
    section_instance,
)
from .trees import split_seed

WEIGHT_POOL = [Fraction(1), Fraction(1), Fraction(1), Fraction(2),
               Fraction(1, 2), Fraction(3), Fraction(1, 3)]
MAX_SECTION2_REFINEMENT = 30  # most vertices of a random_section2 refinement


# ---------------------------------------------------------------------------
# Deterministic builders
# ---------------------------------------------------------------------------


def build_from_points(points, edges_by_points, weights=None):
    """Graph on distinct integer points, not validated: every caller draws a
    connected grid subgraph (or its image under a lattice map) or a
    non-crossing four-cycle, so edges meet only at shared ends."""
    pts = sorted(points)
    vid = {p: i for i, p in enumerate(pts)}
    pairs = sorted(edges_by_points)
    ws = None if weights is None else [weights.get(pq, _UNIT) for pq in pairs]
    return _lattice_graph(dict(enumerate(pts)), [(vid[a], vid[b]) for a, b in pairs], ws), vid


def grid_graph(cols: int, rows: int) -> PlanarGraph:
    """Grid graph on cols x rows lattice points with unit spacing."""
    points = {(x, y) for x in range(cols) for y in range(rows)}
    g, _ = build_from_points(points, _grid_edges(points))
    return g


def diagonal_grid(k: int) -> PlanarGraph:
    """k x k grid rotated so its main diagonal is the horizontal axis."""
    square = {(x, y) for x in range(k) for y in range(k)}
    # both unit steps raise x + y, so each image pair stays in sorted order
    edges = [(_diagonal(p), _diagonal(q)) for p, q in _grid_edges(square)]
    g, _ = build_from_points(map(_diagonal, square), edges)
    return g


def hexagon_graph(m: int):
    """The lattice hexagon bounded by x=0, x=2m-1, y=x, y=x+2m+1, y=-x+4m
    and y=3m-1, with its two staircase runs of marked boundary vertices.

    Returns (graph, plain_run, prime_run) where the runs are the 2m-1 marked
    vertex ids on each side, ordered from the top.
    """
    if m < 1:
        raise ValueError("m must be positive")
    points = {(x, y) for x in range(2 * m)
              for y in range(x, min(3 * m - 1, x + 2 * m + 1, -x + 4 * m) + 1)}
    g, vid = build_from_points(points, _grid_edges(points))
    plain, prime = [], []
    for i in range(1, 2 * m):
        if i % 2 == 1:
            k = (i + 1) // 2
            plain.append(vid[(m - k, 3 * m - k)])
            prime.append(vid[(m - 1 + k, 3 * m - k)])
        else:
            k = i // 2
            plain.append(vid[(m - 1 - k, 3 * m - k)])
            prime.append(vid[(m + k, 3 * m - k)])
    return g, tuple(plain), tuple(prime)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def _cut_vertices(points, edges) -> set:
    """The cut vertices of the connected graph that ``edges`` draw on
    ``points``, from one depth-first search with low points (Hopcroft and
    Tarjan, 1973): a non-root vertex cuts when some child's subtree reaches
    no higher than it, the root when it has two children."""
    adj = {p: [] for p in points}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    root = min(points)
    disc = {root: 0}
    low = {root: 0}
    cut = set()
    root_children = 0
    stack = [(root, None, iter(adj[root]))]
    while stack:
        u, parent, rest = stack[-1]
        for w in rest:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, u, iter(adj[w])))
                break
            if w != parent:
                low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            if parent == root:
                root_children += 1
            elif parent is not None:
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    cut.add(parent)
    if root_children > 1:
        cut.add(root)
    return cut


def random_section2(seed: int):
    """A random marked-boundary instance: a grid strip whose even-indexed
    bottom vertices have no upward edges, randomly peeled from above.

    The refinement of a strip with E edges has 2E + 5 vertices, so the edge
    budget keeps it within ``MAX_SECTION2_REFINEMENT``."""
    edge_budget = (MAX_SECTION2_REFINEMENT - 5) // 2
    rng = random.Random(split_seed(seed, 0))
    n = rng.choice([1, 2, 2, 3, 3])
    cols = 2 * n - 1
    h = rng.choice([1, 2, 2])
    points = {(x, y) for x in range(cols) for y in range(h + 1)}

    # the odd-column path vertices (even-indexed on the path) have no
    # upward step, so they stay degree 2; every row is joined left to
    # right and column 0 joins the rows, so the strip is connected
    edges = {(p, q) for p, q in _grid_edges(points)
             if not (q == (p[0], 1) and p[0] % 2 == 1)}
    # random peeling, then keep peeling until the refinement fits the
    # vertex budget
    wanted = rng.randint(0, max(0, (len(points) - cols) // 2))
    while wanted > 0 or len(edges) > edge_budget:
        # the strip stays connected, so a peel keeps it connected
        # exactly when it takes no cut vertex; a point above the bottom
        # row and farthest from it is never one, so a candidate remains
        cut = _cut_vertices(points, edges)
        p = rng.choice([p for p in sorted(points) if p[1] > 0 and p not in cut])
        points -= {p}
        edges = {e for e in edges if p not in e}
        wanted -= 1
    return _section2_instance(frozenset(points), frozenset(edges), cols)


@lru_cache(maxsize=None)
def _section2_instance(points: frozenset, edges: frozenset, cols: int):
    """The plus/minus instance of a drawn strip, marked along its bottom row
    of ``cols`` points.  The draws reach a few hundred strips, so each is
    built once per process and every later draw of it shares the instance,
    which nothing mutates.  The unbounded cache relies on that finite
    family (``cols`` at most 5 and at most 2 rows above the bottom one): a
    wider draw must bound it."""
    g, vid = build_from_points(points, edges)
    return section_instance(g, [vid[(x, 0)] for x in range(cols)])


def random_symmetric(seed: int, need_matchings: bool = False):
    """A random horizontally symmetric graph with exact rational weights
    constant on reflection orbits, connected by construction; retries, when
    asked, until perfect matchings exist."""
    from .matchings import count_matchings

    for attempt in range(300):
        rng = random.Random(split_seed(seed, attempt))
        w = 3
        h = 1
        points = {(x, y) for x in range(w + 1) for y in range(-h, h + 1)}
        for _ in range(rng.randint(0, 4)):
            # every removal keeps the set connected: the axis row y = 0 is
            # never removed and forms a path, and each point left at y = +-1
            # sits on its column's axis point; at most four removals from a
            # top row of four always leave a candidate, and the 12 points of
            # the 4 x 3 box lose 2 each, so 4 to 12 points remain
            p = rng.choice([p for p in sorted(points) if p[1] > 0])
            points -= {p, (p[0], -p[1])}
        edge_pairs = _grid_edges(points)
        weights = {}
        for a, b in sorted(edge_pairs):
            am, bm = (a[0], -a[1]), (b[0], -b[1])
            mirror = tuple(sorted((am, bm)))
            if mirror in weights:
                weights[(a, b)] = weights[mirror]
            else:
                weights[(a, b)] = rng.choice(WEIGHT_POOL)
        # mirrored removals and mirrored weights: symmetric by construction
        g, _ = build_from_points(points, edge_pairs, weights)
        cert = check_reflection_symmetry(g, Fraction(0))
        if need_matchings and count_matchings(g) == 0:
            continue
        return g, cert
    raise GenerationExhausted(f"no valid symmetric instance for seed {seed}")


def random_exit_side(seed: int, end: int):
    """A ``random_symmetric`` draw with a nonempty set of its axis edges
    deleted, rooted at axis end ``end`` (0 the first, 1 the last), such that
    the root has at least one exit-side variable; returns the graph, its
    reflection certificate and the root.

    An axis edge is its own mirror image, so deleting axis edges keeps the
    graph symmetric and its drawing valid.  Each draw tries its subsets in an
    order shuffled by a child rng and keeps the first connected result whose
    root has a variable."""
    for attempt in range(50):
        draw = split_seed(seed, attempt)
        g, cert = random_symmetric(draw)
        root = (cert.axis_vertices[0], cert.axis_vertices[-1])[end]
        axis = set(cert.axis_vertices)
        axis_edges = [e.id for e in g.edges.values() if e.u in axis and e.v in axis]
        at = [{e for e in axis_edges if v in g.edges[e].ends} for v in axis - {root}]
        subsets = [set(c) for r in range(1, len(axis_edges) + 1)
                   for c in combinations(axis_edges, r)]
        random.Random(draw).shuffle(subsets)
        for drop in subsets:
            # an axis vertex left with no axis edge is an exit-side variable
            if not any(es <= drop for es in at):
                continue
            kept = {e: g.edges[e] for e in g.edges if e not in drop}
            component = _components(g.vertices, ((e.u, e.v) for e in kept.values()))
            if len(set(component.values())) > 1:
                continue
            h = PlanarGraph.trusted(dict(g.vertices), kept, geometric=True)
            return h, check_reflection_symmetry(h, cert.axis_y), root
    raise GenerationExhausted(f"no exit-side instance for seed {seed}")


def random_plane_graph(seed: int, weighted: bool = False) -> PlanarGraph:
    """A random connected grid subgraph of at most a 4 x 3 box, with 3 to 12
    vertices (and optional random rational weights)."""
    rng = random.Random(split_seed(seed, 0))
    cols = rng.choice([2, 3, 4])
    rows = rng.choice([2, 3])
    points = {(x, y) for x in range(cols) for y in range(rows)}
    for _ in range(rng.randint(0, len(points) // 2)):
        if len(points) <= 3:
            break
        # the set stays connected, so a removal keeps it connected
        # exactly when it takes no cut vertex
        cut = _cut_vertices(points, _grid_edges(points))
        points -= {rng.choice([p for p in sorted(points) if p not in cut])}
    if not weighted:
        return _plane_graph(frozenset(points))
    edge_pairs = _grid_edges(points)
    weights = {p: rng.choice(WEIGHT_POOL) for p in sorted(edge_pairs)}
    return build_from_points(points, edge_pairs, weights)[0]


@cache
def _plane_graph(points: frozenset) -> PlanarGraph:
    """The unweighted grid subgraph on a drawn point set.  The draws reach
    about 1 000 sets, so each is built once per process and every later
    draw of it shares the graph, which nothing mutates.  The unbounded cache
    relies on that finite family (subsets of at most a 4 x 3 box): a wider
    draw must bound it."""
    return build_from_points(points, _grid_edges(points))[0]


def random_trimmed(seed: int, n: int | None = None, require_connected: bool = False):
    """A random trimmed-square instance: seeded peak removals, mirrored.

    Mirrored removals may disconnect the result (which is fine for counting
    but not for the graph-file format); ``require_connected`` skips peaks
    that would do so.  With ``n`` left open, n is 1, 2 or 3, whose
    reachable stages number 1 + 2 + 5: every draw is one of 8 graphs.
    """
    rng = random.Random(seed)
    if n is None:
        n = rng.choice([1, 2, 2, 3])
    present = _replay(n)
    removals: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, 3 * n)):
        peaks = _peaks(present)
        rng.shuffle(peaks)
        for peak, quad in peaks:
            if not require_connected:
                break
            stage = _mirrored(present - set(quad))
            if len(set(_components(stage, _grid_edges(stage)).values())) == 1:
                break
        else:
            break
        present -= set(quad)
        removals.append(peak)
    return _trimmed_graph(2 * n, frozenset(_mirrored(present))), n, removals


@lru_cache(maxsize=256)
def _trimmed_graph(side: int, present: frozenset) -> PlanarGraph:
    """The drawing of a mirrored stage, shared by every draw of it in the
    process; nothing mutates it.  The stages grow with a caller's ``n`` (1,
    2, 5, 14, 42 and 132 of them for n = 1 to 6), so the cache is bounded;
    256 holds all 196 to n = 6."""
    return _square_graph(side, present)


def random_transport(seed: int, require_plain_path: bool = True):
    """A random marked-run transport instance from a seeded catalog of
    shapes (corner-marked grids, ladders, lattice hexagons) with random
    rational edge weights."""
    from .bijections import (
        face_path_to_refinement,
        site_path_to_refinement,
        transport_instance,
    )

    rng = random.Random(split_seed(seed, 0))
    shape = rng.choice(["grid0", "hex1", "ladder", "ladder", "hex2"])
    # each shape gives its graph, its two runs of marks (grid0 draws them
    # after the weights) and, by lattice position, the sites of
    # constraint paths 1 and 3 and the cells of path 2
    rows = ()
    if shape == "grid0":
        g = grid_graph(*rng.choice([(2, 2), (3, 2), (3, 3)]))
    elif shape == "ladder":
        length = rng.choice([4, 5, 6])
        g = grid_graph(length, 2)
        runs = ([(1, 1), (0, 1), (0, 0)],
                [(length - 1, 1), (length - 1, 0), (length - 2, 0)])
        bottom = [(x, 0) for x in range(length - 1)]
        rows = ([(x, 1) for x in range(1, length)], bottom, bottom)
    else:
        g, plain, prime = hexagon_graph(1 if shape == "hex1" else 2)
        if shape == "hex2":
            rows = ([(1, 5), (2, 5)], [(0, 4), (1, 4), (2, 4)],
                    [(0, 4), (1, 4), (2, 4), (3, 4)])
    g = _reweight(g, {e.id: rng.choice(WEIGHT_POOL) for e in g.edges.values()})
    vid = {(int(v.pos[0]), int(v.pos[1])): v.id for v in g.vertices.values()}
    if shape == "grid0":
        boundary = list(dict.fromkeys(v for v, _ in g.ccw_boundary()))
        i = rng.randrange(len(boundary))
        j = (i + rng.randrange(1, len(boundary))) % len(boundary)
        plain, prime = [boundary[i]], [boundary[j]]
    elif shape == "ladder":
        plain, prime = ([vid[p] for p in run] for run in runs)
    inst = transport_instance(g, plain, prime, require_plain_path=require_plain_path)
    paths = {}
    if rows:
        ref = inst.smashed.refinement
        top, cells, bottom = rows
        paths = {1: site_path_to_refinement(ref, [vid[p] for p in top]),
                 2: face_path_to_refinement(ref, _cell_faces(g, cells)),
                 3: site_path_to_refinement(ref, [vid[p] for p in bottom])}
    return inst, paths


def _reweight(g: PlanarGraph, weights: dict[int, Fraction]) -> PlanarGraph:
    """``g`` with new edge weights; the drawing and rotation are ``g``'s, so
    only the weights are checked again."""
    edges = {eid: Edge(eid, e.u, e.v, weights.get(eid, e.weight))
             for eid, e in g.edges.items()}
    return PlanarGraph.trusted(dict(g.vertices), edges, rotation=g.rotation, geometric=True)


def _cell_faces(g: PlanarGraph, lower_left_corners) -> list[int]:
    """Face indices of the unit cells with the given lower-left corners."""
    faces = g.trace_faces()
    out = []
    for (x, y) in lower_left_corners:
        want = {(Fraction(x), Fraction(y)), (Fraction(x + 1), Fraction(y)),
                (Fraction(x), Fraction(y + 1)), (Fraction(x + 1), Fraction(y + 1))}
        for f in faces.bounded:
            pts = {g.vertices[v].pos for v in f.vertex_seq}
            if pts == want:
                out.append(f.index)
                break
        else:
            raise DimerforgeError(f"no unit cell at {(x, y)}")
    return out
