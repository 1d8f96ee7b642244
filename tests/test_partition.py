import random

import pytest

from rbt_lab import (
    Graph,
    MantelPartition,
    greedy_maximal_matching,
    mantel_edge_bound,
    mantel_partition,
    mask_of,
    max_edge_count,
    maximum_matching,
    verify_partition,
)
from rbt_lab.graph import iter_bits
from rbt_lab.partition import _edge_bound
from rbt_lab.reports import PreconditionError

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def random_triangle_free(rng: random.Random, n: int) -> Graph:
    """Triangle-free process: add random edges that close no triangle."""
    rows = [0] * n
    pairs = [(u, v) for v in range(n) for u in range(v)]
    rng.shuffle(pairs)
    budget = rng.randrange(0, len(pairs) + 1)
    edges = []
    for u, v in pairs:
        if len(edges) >= budget:
            break
        if rows[u] & rows[v]:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def test_partition_path_example():
    p = mantel_partition(P3)
    assert p.x_side == (1,)
    assert p.y_side == (0,)
    assert p.z_side == mask_of([2])
    assert verify_partition(P3, p)


def test_partition_c5_example():
    p = mantel_partition(C5)
    assert verify_partition(C5, p)
    # the colex greedy seed pairs (0,1) and (2,3), with 4 in Z
    assert p.z_side == mask_of([4])
    assert set(p.x_side) == {0, 3}
    assert set(p.y_side) == {1, 2}
    assert not C5.has_edge(4, 1) and not C5.has_edge(4, 2)


def test_partition_k33():
    k33 = Graph.complete_bipartite(3, 3)
    p = mantel_partition(k33)
    assert p.size == 3
    assert p.z_side == 0
    assert verify_partition(k33, p)


def test_partition_rejects_triangles():
    with pytest.raises(PreconditionError):
        mantel_partition(Graph.complete(3))


def test_verify_rejects_swapped_sides():
    p = mantel_partition(P3)
    swapped = MantelPartition(x_side=p.y_side, y_side=p.x_side,
                              z_side=p.z_side, size=p.size)
    assert not verify_partition(P3, swapped)


def test_verify_rejects_edge_inside_z():
    # 0-1 is a matching edge; 2-3 is an edge wrongly left inside Z
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    bogus = MantelPartition(x_side=(0,), y_side=(1,), z_side=mask_of([2, 3]), size=1)
    assert not verify_partition(g, bogus)


def test_verify_rejects_wrong_matching_size():
    # structurally valid split around the pairs (0,2) and (1,3), but the
    # graph admits a bigger matching through the Z edges: nu = 3, not 2
    g = Graph.from_edges(6, [(0, 2), (1, 3), (2, 3), (4, 0), (5, 1)])
    bogus = MantelPartition(x_side=(0, 1), y_side=(2, 3), z_side=mask_of([4, 5]), size=2)
    assert maximum_matching(g).size == 3
    assert not verify_partition(g, bogus)


def partition_mutations(g, p):
    """(invariant, partition) for each one-way break of a valid partition p of g."""
    xs, ys, z, size = p.x_side, p.y_side, p.z_side, p.size
    yield "size", MantelPartition(xs, ys, z, size + 1)
    yield "size", MantelPartition(xs, ys, z, size - 1)
    yield "repeated vertex", MantelPartition(xs, (ys[1],) + ys[1:], z, size)
    yield "x = y", MantelPartition(xs, (xs[0],) + ys[1:], z, size)
    misfits = [(i, j) for i in range(size) for j in range(size)
               if not g.has_edge(xs[i], ys[j])]
    if misfits:
        i, j = misfits[0]
        swapped = list(ys)
        swapped[i], swapped[j] = ys[j], ys[i]
        yield "not an edge", MantelPartition(xs, tuple(swapped), z, size)
    yield "z meets x or y", MantelPartition(xs, ys, z | 1 << xs[-1], size)
    yield "z meets x or y", MantelPartition(xs, ys, z | 1 << ys[-1], size)
    if z:
        yield "uncovered vertex", MantelPartition(xs, ys, z & (z - 1), size)


def test_verify_rejects_each_broken_invariant():
    rng = random.Random(2718)
    seen = dict.fromkeys(["size", "repeated vertex", "x = y", "not an edge",
                          "z meets x or y", "uncovered vertex"], 0)
    graphs = 0
    while graphs < 200:
        g = random_triangle_free(rng, rng.randint(4, 14))
        p = mantel_partition(g)
        if p.size < 2:
            continue
        graphs += 1
        assert verify_partition(g, p)
        for invariant, bad in partition_mutations(g, p):
            assert not verify_partition(g, bad), (invariant, g.edges(), bad)
            seen[invariant] += 1
    assert min(seen.values()) >= 50, seen


def test_verify_rejects_a_repeated_vertex_alone():
    # y = (2, 2) repeats a vertex; every other invariant holds: (0, 2) and
    # (1, 2) are edges, {0, 1, 2} and Z = {3} cover the graph, 3 sends its
    # only edge into X, and the matching number is 2 (0-3, 1-2)
    g = Graph.from_edges(4, [(0, 2), (1, 2), (0, 3)])
    bogus = MantelPartition(x_side=(0, 1), y_side=(2, 2), z_side=mask_of([3]), size=2)
    assert maximum_matching(g).size == 2
    assert not verify_partition(g, bogus)


@pytest.mark.parametrize("x_side, y_side", [((-1,), (0,)), ((0,), (-1,)), ((0,), (2,))])
def test_verify_rejects_a_label_outside_the_graph(x_side, y_side):
    # a label outside 0..n-1 is refused; a negative one must not reach a mask
    g = Graph.from_edges(2, [(0, 1)])
    assert not verify_partition(g, MantelPartition(x_side, y_side, 0, 1))


def test_partition_exhaustive_small():
    for n in range(1, 7):
        for bits in range(1 << max_edge_count(n)):
            g = Graph.from_bits(n, bits)
            if not g.is_triangle_free():
                continue
            p = mantel_partition(g)
            assert verify_partition(g, p), f"n={n} bits={bits}"


def test_partition_random_wide():
    rng = random.Random(31415)
    for _ in range(1000):
        n = rng.randint(2, 32)
        g = random_triangle_free(rng, n)
        p = mantel_partition(g)
        assert verify_partition(g, p)


def test_degree_bound_inside_xy():
    # every w in X u Y sees at most l vertices of X u Y
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(2, 16)
        g = random_triangle_free(rng, n)
        p = mantel_partition(g)
        xy = mask_of(p.x_side) | mask_of(p.y_side)
        for w in iter_bits(xy):
            assert g.degree_into(w, xy) <= p.size


def test_matched_set_degree_bounds():
    # for any matching in a triangle-free graph: outside vertices see at most
    # l matched vertices; if the matching is maximal, their total degree is
    # at most l as well
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 16)
        g = random_triangle_free(rng, n)
        for matching in (maximum_matching(g), greedy_maximal_matching(g)):
            w = matching.matched_set
            ell = matching.size
            for x in range(n):
                if w >> x & 1:
                    continue
                assert g.degree_into(x, w) <= ell
                assert g.degree_into(x, g.vertex_mask) <= ell  # maximality-based bound


def test_edge_bound_examples():
    r = mantel_edge_bound(C5)
    assert r.value == 5 and r.bound == 6 and not r.tight

    r = mantel_edge_bound(Graph.complete_bipartite(3, 3))
    assert r.value == 9 and r.bound == 9 and r.tight

    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    r = mantel_edge_bound(star)
    assert r.value == 4 and r.bound == 4 and r.tight

    with pytest.raises(PreconditionError):
        mantel_edge_bound(Graph.complete(3))


def test_edge_bound_random():
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(2, 24)
        g = random_triangle_free(rng, n)
        assert mantel_edge_bound(g).slack >= 0


def test_edge_bound_from_the_partition_size_matches_mantel_edge_bound():
    # the partition command builds its edge-bound report from the partition's own size
    rng = random.Random(31)
    for _ in range(300):
        g = random_triangle_free(rng, rng.randint(1, 40))
        assert _edge_bound(g, mantel_partition(g).size) == mantel_edge_bound(g)
