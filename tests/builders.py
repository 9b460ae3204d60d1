"""Small fixed drawings that only the tests build."""

from dimerforge.generators import build_from_points
from dimerforge.planar import PlanarGraph


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
