"""Canonical forms under vertex relabeling: the least colex image.

One permutation of the vertices relabels every graph of a system; the
canonical form is the lexicographically least tuple of colex bit integers
over all n! relabelings, with graph order kept.  It is computed by a
depth-first search over labelings, the lexicographic-extremal form of
orderly generation (Read, "Every one a winner", 1978; Faradzev, 1978).
Labels n-1, n-2, ... go to one vertex at a time, so the most significant
rows are settled first, and a partial labeling is cut as soon as lower
bounds on the graphs' images show that it cannot beat the best tuple found
so far.  A node's bounds are packed into one integer, with a C(n, 2)-bit
field per graph, so that cut is one integer comparison.  Twins, two
vertices whose swap fixes every graph (`_twins`, shared with the search's
class tree), give the same images; one is tried per node.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import _check_vertex_count, iter_bits

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


def _twins(n: int, rows_per_graph: list[list[int]]) -> list[int]:
    """twins[v]: the vertices u < v whose transposition with v fixes every graph."""
    twins = [0] * n
    for v in range(n):
        for u in range(v):
            for r in rows_per_graph:
                if r[u] & ~(1 << v) != r[v] & ~(1 << u):
                    break
            else:
                twins[v] |= 1 << u
    return twins


def _rows(n: int, bits: int) -> list[int]:
    """The adjacency rows of a colex edge-bit integer, decoded without a `Graph`."""
    if bits < 0 or bits >> (n * (n - 1) // 2):
        raise ValueError(f"edge bits out of range for n={n}")
    # row v's lower part is the colex slice of edges (0, v)..(v-1, v); it
    # gains its upper part only after v's own turn below
    rows = [bits >> (v * (v - 1) // 2) & ((1 << v) - 1) for v in range(n)]
    for v in range(n):
        for u in iter_bits(rows[v]):
            rows[u] |= 1 << v
    return rows


def _least_image(n: int, graphs: tuple[int, ...]) -> tuple[int, ...]:
    """The pruned labeling search behind both public forms.

    It is kept apart from them so that a call of one public name is never
    counted or timed as a call of the other.  At a node of the search,
    labels n-1 .. r are given and r vertices are unlabelled.  Each
    graph's image is then at least the sum of three parts on disjoint bit
    positions: the edges among labelled vertices, which are fixed; for each
    labelled vertex, its unlabelled neighbours packed into the lowest
    positions of its row; and 2^e - 1 for the e edges among the unlabelled
    vertices, which can only take colex indices below C(r, 2).  The first
    two parts lie at or above bit C(r, 2), so the bound's low C(r, 2) bits
    are the 2^e - 1 term.  The t bounds are one integer, graph i's at shift
    (t-1-i)·C(n, 2); each bound and each image is below 2^C(n, 2), so these
    integers compare as the tuples do.  A node is cut when its integer is
    not below the best image found, which is split into a tuple at the end.
    """
    _check_vertex_count(n)
    m = n * (n - 1) // 2
    t = len(graphs)
    shifts = [(t - 1 - i) * m for i in range(t)]
    rows = [_rows(n, g) for g in graphs]
    per_graph = list(zip(rows, shifts))
    base = [q * (q - 1) // 2 for q in range(n + 1)]  # colex index of edge (0, q)
    twins = _twins(n, rows)
    at = [0] * n  # base[label of w], for labelled w
    full = (1 << n) - 1
    best = 1 << (t * m)  # above every image

    def descend(unl: int, bound: int) -> None:
        nonlocal best
        p = unl.bit_count() - 1  # the label to give next
        if p < 0:
            best = bound
            return
        done = full ^ unl
        top = base[p]
        low = (1 << base[p + 1]) - 1  # each graph's 2^e - 1 term
        children = []
        vs = unl
        while vs:
            v = vs & -vs
            vs ^= v
            if twins[v.bit_length() - 1] & unl:
                continue
            rest = unl ^ v
            v = v.bit_length() - 1
            child = bound
            for r, shift in per_graph:
                d = (r[v] & rest).bit_count()
                # v's d edges into rest leave the 2^e - 1 term and are packed into row p
                e_mask = bound >> shift & low
                step = ((1 << d) - 1 << top) - e_mask + (e_mask >> d)
                nb = r[v] & done
                while nb:
                    w = nb & -nb
                    nb ^= w
                    w = w.bit_length() - 1
                    # edge vw moves from the top of w's packed low bits to position p
                    q = at[w]
                    step += (1 << (q + p)) - (1 << (q + (r[w] & unl).bit_count() - 1))
                child += step << shift
            children.append((child, v))
        children.sort()
        for child, v in children:
            if child >= best:
                break  # the children are sorted, so no later one beats best
            at[v] = top
            descend(unl ^ (1 << v), child)

    descend(full, sum((1 << g.bit_count()) - 1 << shift for g, shift in zip(graphs, shifts)))
    return tuple(best >> shift & ((1 << m) - 1) for shift in shifts)
