"""Exact enumeration and counting of perfect matchings.

Two independent routes are kept deliberately separate: a lexicographic
enumerator (the oracle every bijection test leans on) and a frontier
dynamic program for counts that enumeration cannot reach.  The closed-form
grid count evaluates Kasteleyn's product exactly, as one integer determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import FrontierTooWide, NotAMatching
from .planar import PlanarGraph, kept, remove_vertices


@dataclass(frozen=True)
class Matching:
    """A perfect matching, stored as the set of chosen edge ids."""

    host: str
    edges: frozenset[int]

    def sorted_edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.edges))

    def cover_map(self, g: PlanarGraph) -> dict[int, int]:
        """vertex -> matched edge id; validates the matching on the way."""
        cover: dict[int, int] = {}
        for eid in self.edges:
            e = g.edges.get(eid)
            if e is None:
                raise NotAMatching(f"edge {eid} is not in the graph")
            for w in (e.u, e.v):
                if w in cover:
                    raise NotAMatching(f"vertex {w} covered twice")
                cover[w] = eid
        if len(cover) != len(g.vertices):
            raise NotAMatching("matching does not cover every vertex")
        return cover

    def weight(self, g: PlanarGraph) -> Fraction:
        w = Fraction(1)
        for eid in self.edges:
            w *= g.edges[eid].weight
        return w


# ---------------------------------------------------------------------------
# Enumeration (deterministic order: lexicographic by sorted edge ids)
# ---------------------------------------------------------------------------


def enumerate_matchings(g: PlanarGraph) -> Iterator[Matching]:
    """Yield every perfect matching exactly once, ordered lexicographically
    by the sorted tuple of edge ids.  This order is part of the contract.

    A search node holds the usable edges (a bitmask over edge positions in
    id order), the uncovered vertices (a bitmask over vertex positions) and
    the chosen edge ids (a linked tuple).  An edge is usable while both ends
    are uncovered and no branch has excluded it.  A node first checks the
    vertices whose usable edges just changed: one left with none ends the
    branch, and one left with a single edge forces that edge in, which
    changes its ends' neighbours in turn.  It then branches on its smallest
    usable edge k: first with k, by excluding every other edge at one end of
    k so that the forcing rule takes it, then without k, in the same frame.
    Every matching with k sorts before every one without it, since the other
    edges in which they differ are all greater than k, and a forced edge lies
    in every matching of its subtree; so the order is lexicographic.  The
    masks depend on the graph alone and are built on its first enumeration."""
    if len(g.vertices) % 2 == 1:
        return
    host = g.graph_id
    edge_ids, ends, star, around = _enumeration_table(g)

    def rec(usable, uncovered, chosen, touched):
        while True:
            while touched:
                low = touched & -touched
                touched ^= low
                left = usable & star[low.bit_length() - 1]
                if not left:
                    return
                if not left & (left - 1):
                    k = left.bit_length() - 1
                    chosen = (edge_ids[k], chosen)
                    a, b = ends[k]
                    usable &= ~(star[a] | star[b])
                    uncovered ^= 1 << a | 1 << b
                    touched = (touched | around[a] | around[b]) & uncovered
            if not uncovered:
                break
            low = usable & -usable
            a, b = ends[low.bit_length() - 1]
            # with this edge, which a then keeps alone; then without it
            yield from rec(usable & ~(star[a] ^ low), uncovered, chosen,
                           (1 << a | around[a]) & uncovered)
            usable ^= low
            touched = 1 << a | 1 << b
        edges = []
        while chosen:
            eid, chosen = chosen
            edges.append(eid)
        yield Matching(host, frozenset(edges))

    full = (1 << len(star)) - 1
    yield from rec((1 << len(ends)) - 1, full, None, full)


@kept
def _enumeration_table(g: PlanarGraph) -> tuple:
    """(edge ids, ends, star, around) of the enumerator, kept on ``g``: the
    ids ascending, each edge's ends as vertex positions, and per vertex
    position the mask of its edges and the mask of its neighbours."""
    at = g.vertex_order()[1]
    ends = [(at[e.u], at[e.v]) for e in g.edges.values()]
    star = [0] * len(at)
    around = [0] * len(at)
    for k, (a, b) in enumerate(ends):
        star[a] |= 1 << k
        star[b] |= 1 << k
        around[a] |= 1 << b
        around[b] |= 1 << a
    return tuple(g.edges), tuple(ends), tuple(star), tuple(around)


# ---------------------------------------------------------------------------
# Counting (frontier dynamic program)
# ---------------------------------------------------------------------------

# The widest counting plan, in frontier slots, that ``count_matchings``
# runs.  Each slot can double the states a layer holds: the 20 x 20 grid
# (width 20, at most 184 756 states) counts in about 7 s of CPU with an
# 80 MB peak RSS, and the order-20 Aztec region (width 21, 352 716 states)
# in 39 s with 149 MB (Python 3.11, 2-CPU host).
MAX_COUNT_WIDTH = 20


def _elimination_order(g: PlanarGraph) -> list[int]:
    """BFS order from a minimum-degree vertex; keeps the frontier narrow on
    the grid-like graphs this engine works with."""
    order: list[int] = []
    seen: set[int] = set()
    remaining = set(g.vertices)
    head = 0  # order[head:] is the BFS queue
    while remaining:
        start = min(remaining, key=lambda v: (g.degree(v), v))
        order.append(start)
        seen.add(start)
        while head < len(order):
            v = order[head]
            head += 1
            remaining.discard(v)
            for w in sorted(g.neighbors(v)):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
    return order


def count_matchings(g: PlanarGraph) -> Fraction:
    """Exact matching generating function: sum over perfect matchings of the
    product of edge weights (the count when all weights are 1).

    Edge uv weighs w * d_u * d_v on the weight table's integers, which
    multiplies every matching, and so the sum, by the product of the d_v.  A
    state is the set of processed vertices still waiting for a later
    partner, one bit each, in the slot the plan gave it.  At each vertex a
    state pairs it with one waiting earlier neighbour or, if a neighbour
    comes later, lets it wait.  A waiting vertex whose last neighbour this
    is must take this pairing, so a state holding two of them ends here,
    and no state ever holds a vertex that can wait no longer.  The plan is
    built on the graph's first count; the sum over the states runs on every
    call.  A plan wider than ``MAX_COUNT_WIDTH`` slots raises
    ``FrontierTooWide`` before any state is built.
    """
    if len(g.vertices) % 2 == 1:
        return Fraction(0)
    steps, width, scale = _count_plan(g)
    if width > MAX_COUNT_WIDTH:
        raise FrontierTooWide(f"counting needs {width} frontier slots, "
                              f"more than the limit of {MAX_COUNT_WIDTH}")
    states = {0: 1}
    for must, wait, pairs in steps:
        nxt: dict[int, int] = {}
        for s, acc in states.items():
            m = s & must
            if m:
                if not m & (m - 1):
                    k = s ^ m
                    nxt[k] = nxt.get(k, 0) + acc * pairs[m]
                continue
            if wait:
                k = s | wait
                nxt[k] = nxt.get(k, 0) + acc
            for bit, w in pairs.items():
                if s & bit:
                    k = s ^ bit
                    nxt[k] = nxt.get(k, 0) + acc * w
        states = nxt
    return Fraction(states.get(0, 0), scale)


@kept
def _count_plan(g: PlanarGraph) -> tuple:
    """(steps, width, scale) of the counting DP, kept on ``g``.  Step i, for
    the vertex at position i of the elimination order, is (must, wait,
    pairs): pairs maps the slot bit of each neighbour u placed before it to
    w * d_u, must holds the slots of those whose last neighbour it is, and
    wait is the slot it takes while it waits, or 0 when no neighbour comes
    later.  The slots of the vertices that die at a step are freed before
    the lowest free slot goes to the vertex that waits, so width, the
    number of slots, is the most vertices that wait after any step; scale
    is the product of the d_v."""
    table = g.weight_table()
    order = _elimination_order(g)
    pos = {v: i for i, v in enumerate(order)}
    last = {v: max([i, *(pos[u] for _, u, _ in table.exits[v])]) for i, v in enumerate(order)}
    slot: dict[int, int] = {}
    used = width = 0
    steps = []
    for i, v in enumerate(order):
        must, pairs = 0, {}
        for _, u, w in table.exits[v]:
            if pos[u] < i:
                pairs[slot[u]] = w * table.scale[u]
                if last[u] == i:
                    must |= slot[u]
        used ^= must
        wait = 0
        if last[v] > i:
            wait = slot[v] = ~used & (used + 1)
            used |= wait
            width = max(width, used.bit_length())
        steps.append((must, wait, pairs))
    return tuple(steps), width, math.prod(table.scale.values())


def _forced_matching_weight(g: PlanarGraph, forced) -> Fraction:
    """Total weight of the perfect matchings of ``g`` that contain the edge
    set F = ``forced``: each is F plus a matching of G - V(F), so the sum is
    w(F) * M(G - V(F)), or 0 when an edge of F is not in ``g`` or two share
    a vertex."""
    edges = [g.edges.get(eid) for eid in forced]
    ends = [v for e in edges if e is not None for v in (e.u, e.v)]
    if None in edges or len(set(ends)) < len(ends):
        return Fraction(0)
    return math.prod(e.weight for e in edges) * count_matchings(remove_vertices(g, ends))


# ---------------------------------------------------------------------------
# Closed-form grid count
# ---------------------------------------------------------------------------


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss 1968)."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def kasteleyn_grid_count(m: int, n: int) -> int:
    """Number of perfect matchings of the 2m x 2n grid graph: Kasteleyn's
    product of a_j + b_k over j <= m, k <= n, with a_j = 4cos^2(pi j/(2m+1))
    and b_k = 4cos^2(pi k/(2n+1)) (Kasteleyn 1961; Temperley-Fisher 1961),
    evaluated exactly.

    The a_j are the eigenvalues of the m x m tridiagonal matrix X with
    diagonal 1, 2, ..., 2 and off-diagonal 1, and the product over k of
    y + b_k is D_n(y), where D_0 = 1, D_1 = y + 1 and
    D_k = (y + 2) D_{k-1} - D_{k-2}.  So the count is det D_n(X).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    m, n = min(m, n), max(m, n)  # the product is symmetric; keep X small

    zero = [0] * m

    def times(c: int, p: list[list[int]]) -> list[list[int]]:
        """(X + cI) p: row i of X holds 1 beside the diagonal and 1 (i = 0)
        or 2 on it, so row i of the product reads rows i - 1, i and i + 1."""
        padded = [zero, *p, zero]
        return [[y + (c + 1 + (i > 0)) * x + z for y, x, z in zip(*padded[i:i + 3])]
                for i in range(m)]

    prev = [[int(i == j) for j in range(m)] for i in range(m)]
    cur = times(1, prev)
    for _ in range(n - 1):
        prev, cur = cur, [[x - y for x, y in zip(a, b)]
                          for a, b in zip(times(2, cur), prev)]
    return _bareiss_det(cur)


# ---------------------------------------------------------------------------
# Squarishness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquarishVerdict:
    kind: str  # "square" | "twice-square" | "no"
    root: int | None = None

    def __bool__(self) -> bool:
        return self.kind != "no"

    def __str__(self):
        if self.kind == "square":
            return f"{self.root}^2"
        if self.kind == "twice-square":
            return f"2*{self.root}^2"
        return "not squarish"


def squarish(value: int) -> SquarishVerdict:
    """Classify an integer as a perfect square, twice a perfect square, or
    neither, with the square root as witness."""
    if value < 0:
        return SquarishVerdict("no")
    s = math.isqrt(value)
    if s * s == value:
        return SquarishVerdict("square", s)
    if value % 2 == 0:
        s = math.isqrt(value // 2)
        if 2 * s * s == value:
            return SquarishVerdict("twice-square", s)
    return SquarishVerdict("no")
