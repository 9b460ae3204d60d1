"""Small fixed drawings, stage sets and instance families that only the
tests build."""

from types import SimpleNamespace
from unittest import mock

from dimerforge import generators
from dimerforge.generators import (
    MAX_SECTION2_REFINEMENT,
    WEIGHT_POOL,
    _cut_vertices,
    _section2_instance,
    build_from_points,
    random_transport,
)
from dimerforge.planar import PlanarGraph
from dimerforge.refine import _grid_edges, _peaks, _replay


def diamond_graph() -> PlanarGraph:
    """Four-cycle drawn as a diamond, symmetric about the horizontal axis."""
    pts = [(-1, 0), (1, 0), (0, 1), (0, -1)]
    edges = [((-1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0))]
    g, _ = build_from_points(pts, edges)
    return g


def fan_square() -> PlanarGraph:
    """The four-cycle drawn in marked-path normal form: three vertices on a
    horizontal line and the fourth above, so the bottom path can be marked
    and the graph symmetrized."""
    pts = [(0, 0), (1, 0), (2, 0), (1, 1)]
    edges = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (1, 1)), ((0, 0), (1, 1))]
    g, _ = build_from_points(pts, edges)
    return g


def reachable_stages(n: int) -> list[frozenset]:
    """Every stage of the half-side-n trimmed square that removals at the
    peaks ``_peaks`` finds reach, breadth first from the full square."""
    start = frozenset(_replay(n))
    seen, frontier = {start: None}, [start]
    while frontier:
        reached = []
        for present in frontier:
            for _, quad in _peaks(set(present)):
                stage = present - set(quad)
                if stage not in seen:
                    seen[stage] = None
                    reached.append(stage)
        frontier = reached
    return list(seen)


def section2_family() -> list[tuple[frozenset, frozenset, int]]:
    """Every drawing ``random_section2`` can return, as the (points, edges,
    cols) keys ``_section2_instance`` takes: a breadth-first search over the
    draw's choices of n, h, the peel count, every order of non-cut peels
    and the peels the edge budget forces.  Every end state must build
    within the refinement limit, which is why the draw never retries."""
    budget = (MAX_SECTION2_REFINEMENT - 5) // 2
    keys = {}
    for n in (1, 2, 3):
        cols = 2 * n - 1
        for h in (1, 2):
            points = frozenset((x, y) for x in range(cols) for y in range(h + 1))
            edges = frozenset((p, q) for p, q in _grid_edges(points)
                              if not (q == (p[0], 1) and p[0] % 2 == 1))
            # a state is (points, edges, peels still wanted)
            frontier = {(points, edges, w) for w in range((len(points) - cols) // 2 + 1)}
            seen, ends = set(frontier), set()
            while frontier:
                reached = set()
                for pts, es, wanted in frontier:
                    candidates = []
                    if wanted > 0 or len(es) > budget:
                        cut = _cut_vertices(pts, es)
                        candidates = [p for p in pts if p[1] > 0 and p not in cut]
                        # a point above the bottom row and farthest from it
                        # is never a cut vertex, so no draw's peel is stuck
                        assert candidates, (sorted(pts), wanted)
                    if not candidates:
                        ends.add((pts, es))
                    for p in candidates:
                        state = (pts - {p}, frozenset(e for e in es if p not in e),
                                 max(wanted - 1, 0))
                        if state not in seen:
                            seen.add(state)
                            reached.add(state)
                frontier = reached
            for pts, es in sorted(ends, key=lambda k: (sorted(k[0]), sorted(k[1]))):
                # peels continue while over budget, so no end state is
                assert len(es) <= budget, sorted(es)
                inst = _section2_instance(pts, es, cols)
                assert len(inst.refinement.graph.vertices) <= MAX_SECTION2_REFINEMENT, \
                    sorted(es)
                keys[pts, es, cols] = None
    return list(keys)


def plane_family() -> list[frozenset]:
    """Every point set ``random_plane_graph`` can draw: a breadth-first
    search from each of its six boxes over non-cut peels, at most half of
    the box's points and none once three points remain."""
    sets = {}
    for cols in (2, 3, 4):
        for rows in (2, 3):
            box = frozenset((x, y) for x in range(cols) for y in range(rows))
            seen, frontier = {box}, [box]
            while frontier:
                reached = []
                for pts in frontier:
                    sets[pts] = None
                    if len(pts) <= 3 or len(box) - len(pts) >= len(box) // 2:
                        continue
                    for p in pts - _cut_vertices(pts, _grid_edges(pts)):
                        if pts - {p} not in seen:
                            seen.add(pts - {p})
                            reached.append(pts - {p})
                frontier = reached
    return list(sets)


class _ScriptedRandom:
    """Stands in for ``random.Random`` in a generator: it plays the option
    indices of ``path``, then the first option, and records each choice
    made and how many options it had.  Draws from ``WEIGHT_POOL`` always
    take the first weight."""

    def __init__(self, path):
        self.path, self.picks, self.widths, self.values = path, [], [], []

    def _pick(self, options):
        k = len(self.picks)
        self.picks.append(self.path[k] if k < len(self.path) else 0)
        self.widths.append(len(options))
        self.values.append(options[self.picks[-1]])
        return self.values[-1]

    def choice(self, seq):
        return seq[0] if seq is WEIGHT_POOL else self._pick(seq)

    def randrange(self, start, stop=None):
        return self._pick(range(start) if stop is None else range(start, stop))


def transport_family() -> dict:
    """Every catalog draw of ``random_transport``, each weight the first of
    ``WEIGHT_POOL`` since no validation reads a weight: a depth-first walk
    over its choices of shape, size and ``grid0`` marks, for each
    ``require_plain_path``.  Maps (require_plain_path, the values chosen)
    to the (instance, paths) the draw returns; a draw that fails to build
    raises."""
    family = {}
    for plain_path in (True, False):
        stack = [()]
        while stack:
            path = stack.pop()
            rng = _ScriptedRandom(path)
            with mock.patch.object(generators, "random", SimpleNamespace(Random=lambda _: rng)):
                drawn = random_transport(0, require_plain_path=plain_path)
            family.setdefault((plain_path, tuple(rng.values)), drawn)
            for k in range(len(path), len(rng.picks)):
                stack.extend(tuple(rng.picks[:k]) + (i,) for i in range(1, rng.widths[k]))
    return family
