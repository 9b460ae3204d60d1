"""Exact plane geometry on integer lattice points.

Every predicate here takes points with integer coordinates: a drawing's
rational coordinates reach them through ``PlanarGraph.lattice()``, which
scales them by a positive integer and so keeps the sign of every predicate.
No floating point and no Fraction arithmetic enters a combinatorial decision.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cmp_to_key

from .errors import NumberTooLong

Point = tuple[Fraction, Fraction]
LatticePoint = tuple[int, int]

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
    """``p`` or ``p/q``; a number with more digits than ``int`` writes is
    NumberTooLong."""
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise NumberTooLong(f"a rational with more than {sys.get_int_max_str_digits()} "
                            "digits cannot be written") from exc


def cross(o: LatticePoint, a: LatticePoint, b: LatticePoint) -> int:
    """Twice the signed area of the triangle o,a,b (positive = counterclockwise)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# within one half-plane of directions, d1 comes before d2 iff d1 x d2 > 0
_turn_key = cmp_to_key(lambda d1, d2: d1[1] * d2[0] - d1[0] * d2[1])


def ccw_direction_key(d: LatticePoint):
    """Sort key ordering direction vectors by counterclockwise angle from the
    +x axis: first the half-plane, [0, pi) before [pi, 2*pi), then the turn."""
    return (0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1, _turn_key(d))


def point_on_segment(p: LatticePoint, a: LatticePoint, b: LatticePoint) -> bool:
    """True iff p lies on the closed segment ab."""
    if cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def boxed(a: LatticePoint, b: LatticePoint) -> tuple:
    """Segment ab with its bounding box: (a, b, xmin, xmax, ymin, ymax).
    Two segments can only meet where their boxes do."""
    return (a, b, min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))


def segments_conflict(a: LatticePoint, b: LatticePoint,
                      c: LatticePoint, d: LatticePoint) -> bool:
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


def winding_number(p: LatticePoint, polygon: list[LatticePoint]) -> int:
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


def polygon_area2(polygon: list[LatticePoint]) -> int:
    """Twice the signed area (positive for counterclockwise traversal)."""
    total = 0
    n = len(polygon)
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        total += a[0] * b[1] - b[0] * a[1]
    return total
