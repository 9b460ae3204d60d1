"""Exact plane geometry over rationals.

All predicates here are decided with Fraction arithmetic; no floating point
ever enters a combinatorial decision.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key

Point = tuple[Fraction, Fraction]

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_frac(text: str) -> Fraction:
    """A rational written ``p`` or ``p/q`` in ASCII digits with an optional
    minus.  Anything else, a zero q, or a number too long for ``int`` is a
    ValueError."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from exc


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed area of the triangle o,a,b (positive = counterclockwise)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _half(d: Point) -> int:
    # 0 for directions with angle in [0, pi), 1 for [pi, 2*pi)
    if d[1] > 0 or (d[1] == 0 and d[0] > 0):
        return 0
    return 1


def ccw_direction_cmp(d1: Point, d2: Point) -> int:
    """Compare direction vectors by counterclockwise angle from the +x axis."""
    h1, h2 = _half(d1), _half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = d1[0] * d2[1] - d1[1] * d2[0]
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


ccw_direction_key = cmp_to_key(ccw_direction_cmp)


def point_on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment ab."""
    if cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_conflict(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments ab and cd intersect anywhere besides shared endpoints.

    Sharing one endpoint is fine; overlap along a subsegment, a proper
    crossing, or touching in the interior of either segment is a conflict.
    """
    shared = {a, b} & {c, d}
    if len(shared) == 2:
        return True  # identical or reversed segment
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return True
    # collinear / touching cases: any endpoint interior to the other segment
    for p in (c, d):
        if p not in shared and point_on_segment(p, a, b):
            return True
    for p in (a, b):
        if p not in shared and point_on_segment(p, c, d):
            return True
    return False


def winding_number(p: Point, polygon: list[Point]) -> int:
    """Winding number of a closed polygon around p (p must not be on it)."""
    wn = 0
    n = len(polygon)
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        if a[1] <= p[1]:
            if b[1] > p[1] and cross(a, b, p) > 0:
                wn += 1
        else:
            if b[1] <= p[1] and cross(a, b, p) < 0:
                wn -= 1
    return wn


def point_in_polygon(p: Point, polygon: list[Point]) -> int:
    """1 if p is strictly inside, 0 if on the boundary, -1 if outside."""
    n = len(polygon)
    for i in range(n):
        if point_on_segment(p, polygon[i], polygon[(i + 1) % n]):
            return 0
    return 1 if winding_number(p, polygon) != 0 else -1


def polygon_area2(polygon: list[Point]) -> Fraction:
    """Twice the signed area (positive for counterclockwise traversal)."""
    total = Fraction(0)
    n = len(polygon)
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        total += a[0] * b[1] - b[0] * a[1]
    return total
