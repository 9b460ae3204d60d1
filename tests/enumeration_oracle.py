"""The lexicographic matching enumerator on Python sets, as it was before the
engine moved it onto vertex and edge bitmasks.  The differential tests hold
`matchings.enumerate_matchings` to its sequence."""

from dimerforge.matchings import Matching
from dimerforge.planar import PlanarGraph


def enumerate_matchings(g: PlanarGraph):
    """Yield every perfect matching exactly once, ordered lexicographically
    by the sorted tuple of edge ids."""
    if len(g.vertices) % 2 == 1:
        return
    host = g.graph_id
    edge_order = sorted(g.edges)

    def rec(uncovered: set[int], min_eid: int, chosen: list[int]):
        if not uncovered:
            yield Matching(host, frozenset(chosen))
            return
        # the matching's smallest remaining edge id cannot exceed the
        # smallest "last available edge" over uncovered vertices
        cap = None
        for v in uncovered:
            best = -1
            for eid in g.adj[v]:
                if eid >= min_eid and g.edges[eid].other(v) in uncovered:
                    best = max(best, eid)
            if best < 0:
                return  # some vertex can never be covered
            cap = best if cap is None else min(cap, best)
        for eid in edge_order:
            if eid < min_eid:
                continue
            if eid > cap:
                break
            e = g.edges[eid]
            if e.u in uncovered and e.v in uncovered:
                uncovered.difference_update((e.u, e.v))
                chosen.append(eid)
                yield from rec(uncovered, eid + 1, chosen)
                chosen.pop()
                uncovered.update((e.u, e.v))

    yield from rec(set(g.vertices), 0, [])
