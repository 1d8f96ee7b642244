"""Canonical forms under vertex relabeling: the least colex image.

One permutation of the vertices relabels every graph of a system; the
canonical form is the lexicographically least tuple of colex bit integers
over all n! relabelings, with graph order kept.  It is computed by a
depth-first search over labelings, the lexicographic-extremal form of
orderly generation (Read, "Every one a winner", 1978; Faradzev, 1978).
Labels n-1, n-2, ... go to one vertex at a time, so the most significant
rows are settled first, and a partial labeling is cut as soon as lower
bounds on the graphs' images show that it cannot beat the best tuple found
so far.  Twins, two vertices whose swap fixes every graph (`_twins`, shared
with the search's class tree), give the same images; one is tried per node.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Graph, iter_bits

# the largest n whose search witnesses and first levels are
# canonical forms; above it witnesses are reported raw, so changing it
# changes reports.  The first level is grown as a tree of one-vertex
# extensions, so at n = 8 it takes 34,874 canonical forms for its 12,346
# classes, which fit the canonical_bits cache.
CANONICAL_MAX_N = 8


@lru_cache(maxsize=1 << 18)
def canonical_bits(n: int, bits: int) -> int:
    """Minimum colex bit-string of the graph over all vertex relabelings."""
    return _least_image(n, (bits,))[0]


def canonical_system_bits(n: int, graphs: tuple[int, ...]) -> tuple[int, ...]:
    """Minimum tuple of bit-strings under one shared vertex relabeling.

    Graph order is preserved; only vertices are renamed.
    """
    return _least_image(n, graphs)


def _twins(n: int, rows_per_graph: list[tuple[int, ...]]) -> list[int]:
    """twins[v]: the vertices u < v whose transposition with v fixes every graph."""
    return [sum(1 << u for u in range(v)
                if all(r[u] & ~(1 << v) == r[v] & ~(1 << u) for r in rows_per_graph))
            for v in range(n)]


def _least_image(n: int, graphs: tuple[int, ...]) -> tuple[int, ...]:
    """The pruned labeling search behind both public forms.

    It is kept apart from them so that a call of one public name is never
    counted or timed as a call of the other.  At a node of the search,
    labels n-1 .. r are given and r vertices are unlabelled.  Each
    graph's image is then at least the sum of three parts on disjoint bit
    positions: the edges among labelled vertices, which are fixed; for each
    labelled vertex, its unlabelled neighbours packed into the lowest
    positions of its row; and 2^e - 1 for the e edges among the unlabelled
    vertices, which can only take colex indices below C(r, 2).  A node is
    cut when this tuple of bounds is not below the best tuple found.
    """
    rows = [Graph.from_bits(n, g).rows for g in graphs]
    base = [q * (q - 1) // 2 for q in range(n)]  # colex index of edge (0, q)
    twins = _twins(n, rows)
    label = [0] * n
    full = (1 << n) - 1
    best: tuple[int, ...] | None = None

    def descend(unl: int, bound: list[int], inner: list[int]) -> None:
        # bound[i]: graph i's lower bound without the 2^e - 1 term;
        # inner[i]: its edge count e among the unlabelled vertices unl
        nonlocal best
        p = unl.bit_count() - 1  # the label to give next
        if p < 0:
            best = tuple(bound)
            return
        done = full ^ unl
        children = []
        for v in iter_bits(unl):
            if twins[v] & unl:
                continue
            rest = unl ^ (1 << v)
            child_bound, child_inner, key = [], [], []
            for r, b, e in zip(rows, bound, inner):
                d = (r[v] & rest).bit_count()
                b += ((1 << d) - 1) << base[p]
                for w in iter_bits(r[v] & done):
                    # edge vw moves from the top of w's packed low bits to position p
                    q = base[label[w]]
                    b += (1 << (q + p)) - (1 << (q + (r[w] & unl).bit_count() - 1))
                child_bound.append(b)
                child_inner.append(e - d)
                key.append(b + (1 << (e - d)) - 1)
            children.append((tuple(key), v, child_bound, child_inner))
        children.sort()
        for key, v, child_bound, child_inner in children:
            if best is not None and key >= best:
                break  # the children are sorted, so no later one beats best
            label[v] = p
            descend(unl ^ (1 << v), child_bound, child_inner)

    descend(full, [0] * len(graphs), [g.bit_count() for g in graphs])
    return best
