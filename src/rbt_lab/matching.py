"""Exact maximum matching on general graphs, plus matchability predicates.

The core solver is Edmonds-style blossom contraction over the bitmask
adjacency rows, O(n^3).  Odd cycles are common in triangle-free graphs, so
bipartite-only matchers are not enough here.
"""

from __future__ import annotations

from collections import deque

from .graph import Edge, Graph, Record, iter_bits


class MatchingResult(Record):
    """A matching: pairwise disjoint edges, their count, and the matched vertex mask."""

    __slots__ = ("edges", "size", "matched_set")

    def __init__(self, edges: tuple[Edge, ...], size: int, matched_set: int):
        self._fill(edges, size, matched_set)

    def is_valid_for(self, g: Graph) -> bool:
        """Check the structural invariants against a source graph."""
        seen = 0
        for e in self.edges:
            if not (0 <= e.u < e.v < g.n) or not g.has_edge(e.u, e.v):
                return False
            pair = (1 << e.u) | (1 << e.v)
            if seen & pair:
                return False
            seen |= pair
        return self.size == len(self.edges) and self.matched_set == seen


def _matching_from_pairs(match: list[int]) -> MatchingResult:
    edges = []
    mask = 0
    for u, v in enumerate(match):
        if v > u:
            edges.append(Edge(u, v))
            mask |= (1 << u) | (1 << v)
    edges.sort(key=lambda e: e.index)
    return MatchingResult(edges=tuple(edges), size=len(edges), matched_set=mask)


def maximum_matching(g: Graph) -> MatchingResult:
    """Maximum-cardinality matching via blossom contraction.

    The witness edges are a valid matching of optimal size; no canonical
    choice among equal-size matchings is promised.
    """
    n = g.n
    rows = g.rows
    match = [-1] * n
    # greedy seed in colex order cuts the number of augmentation phases
    for u, v in greedy_maximal_matching(g).edges:
        match[u] = v
        match[v] = u
    for root in range(n):
        if match[root] == -1:
            _augment_from(rows, n, match, root)
    return _matching_from_pairs(match)


def _augment_from(rows: tuple[int, ...], n: int, match: list[int], root: int) -> bool:
    """One alternating-forest phase; augments `match` in place when a path is found."""
    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    in_tree[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        x = a
        while True:
            x = base[x]
            on_path[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if on_path[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in iter_bits(rows[v]):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom around the stem vertex
                stem = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, stem, to, in_blossom)
                mark_path(to, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not in_tree[i]:
                            in_tree[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # augmenting path: flip matched/unmatched back to the root
                    u = to
                    while u != -1:
                        pv = parent[u]
                        next_u = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = next_u
                    return True
                in_tree[match[to]] = True
                queue.append(match[to])
    return False


def matching_number(g: Graph) -> int:
    return maximum_matching(g).size


def greedy_maximal_matching(g: Graph) -> MatchingResult:
    """Maximal (not necessarily maximum) matching, first fit over the edges in colex order.

    Walks v ascending and matches v to its least untaken neighbour u < v,
    the first free edge of v's colex block: no edge before that block
    touches v, so v is still free when it is reached.
    """
    taken = 0
    edges = []
    for v, row in enumerate(g.rows):
        if free := row & ((1 << v) - 1) & ~taken:
            low = free & -free
            taken |= low | 1 << v
            edges.append(Edge(low.bit_length() - 1, v))
    return MatchingResult(edges=tuple(edges), size=len(edges), matched_set=taken)


def _nearly_matchable(ell: int, n: int) -> bool:
    """The threshold 2l >= n - 2 on a matching number l of a graph on n vertices."""
    return 2 * ell >= n - 2


def is_nearly_matchable(g: Graph) -> bool:
    """True iff some matching of size l satisfies 2l >= n - 2."""
    return _nearly_matchable(matching_number(g), g.n)
