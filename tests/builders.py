"""Small fixed drawings and stage sets that only the tests build."""

from dimerforge.generators import build_from_points
from dimerforge.planar import PlanarGraph
from dimerforge.refine import _peaks, _replay


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
