import random

import pytest

from rbt_lab import Graph, Triangle, edge, edge_at, iter_bits, mask_of, max_edge_count
from rbt_lab.graph import PairError, bits_to_hex


def naive_triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            for c in range(b + 1, g.n):
                if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
                    out.append((a, b, c))
    return out


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    m = max_edge_count(n)
    bits = sum(1 << i for i in range(m) if rng.random() < p)
    return Graph.from_bits(n, bits)


def test_edge_normalization():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3).index == 3 * 2 // 2 + 1
    with pytest.raises(ValueError):
        edge(2, 2)


def test_edge_index_round_trip():
    for i in range(max_edge_count(64)):
        assert edge_at(i).index == i


def test_edge_count_examples():
    assert Graph.complete(4).edge_count() == 6
    assert Graph.empty(5).edge_count() == 0
    assert Graph.complete_bipartite(2, 3).edge_count() == 6


def test_degree_into_examples():
    k4 = Graph.complete(4)
    assert k4.degree_into(0, k4.vertex_mask) == 3
    assert k4.degree_into(0, mask_of([1, 2])) == 2
    assert k4.degree_into(0, 0) == 0
    k23 = Graph.complete_bipartite(2, 3)
    assert [k23.degree_into(x, k23.vertex_mask) for x in (0, 4)] == [3, 2]
    assert k23.degree_into(0, mask_of([0, 1])) == 0
    # membership of x itself in the target mask is ignored
    assert k4.degree_into(0, mask_of([0, 1])) == 1


def test_triangle_examples():
    k3 = Graph.complete(3)
    assert k3.triangles() == [Triangle(0, 1, 2)]
    assert not k3.is_triangle_free()
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert c5.triangles() == []
    assert c5.is_triangle_free()
    assert Graph.complete_bipartite(2, 3).is_triangle_free()


def test_triangles_exhaustive_small():
    for n in range(1, 6):
        for bits in range(1 << max_edge_count(n)):
            g = Graph.from_bits(n, bits)
            got = sorted((t.a, t.b, t.c) for t in g.triangles())
            assert got == naive_triangles(g)


def test_triangles_random_medium():
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randint(6, 8)
        g = random_graph(rng, n, rng.random())
        got = sorted((t.a, t.b, t.c) for t in g.triangles())
        assert got == naive_triangles(g)
        assert g.is_triangle_free() == (not got)


def test_mantel_bound_n6():
    # max edges among triangle-free graphs on 6 vertices is floor(36/4) = 9
    best = 0
    for bits in range(1 << max_edge_count(6)):
        g = Graph.from_bits(6, bits)
        if g.is_triangle_free():
            best = max(best, g.edge_count())
    assert best == 9


def test_symmetry_and_irreflexivity_enforced():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b01])  # self-loop
    with pytest.raises(ValueError):
        Graph(2, [0b100, 0b000])  # out-of-range bit
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(65)


def test_derived_graphs_pass_validation():
    # operations build rows without re-validating; the public constructor checks them
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 12)
        g, h = random_graph(rng, n), random_graph(rng, n)
        u = rng.randrange(n)
        derived = [
            g & h, g | h, Graph.complete(n),
            Graph.complete_bipartite(u, n - u), Graph.from_edges(n, g.edges()),
        ]
        for d in derived:
            assert Graph(d.n, d.rows) == d


def test_constructors_reject_vertex_counts():
    for build in (
        lambda: Graph.complete(0),
        lambda: Graph.complete(65),
        lambda: Graph.complete_bipartite(40, 25),
        lambda: Graph.complete_bipartite(3, -1),
        lambda: Graph.from_bits(0, 0),
        lambda: Graph.from_edges(0, []),
        lambda: Graph.from_edges(65, []),
    ):
        with pytest.raises(ValueError):
            build()


def test_hex_round_trip_example():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    assert g.to_hex() == "03"
    assert Graph.from_hex(3, "03") == g
    assert Graph.from_hex(3, "04") == Graph.from_edges(3, [(1, 2)])


def test_hex_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 64)
        g = random_graph(rng, n, rng.random())
        assert Graph.from_hex(n, g.to_hex()) == g


def test_hex_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_hex(3, "0")  # odd length
    with pytest.raises(ValueError):
        Graph.from_hex(3, "0304")  # wrong byte count
    with pytest.raises(ValueError):
        Graph.from_hex(3, "ff")  # bits beyond C(3,2)
    # exactly 2 * nbytes hex digits: whitespace is never skipped
    for n, text in ((3, " 03"), (3, "03\n"), (3, "0 3"), (6, "03 04"), (6, "\t0304")):
        with pytest.raises(ValueError, match="invalid hex graph"):
            Graph.from_hex(n, text)


def test_hex_checks_the_vertex_count_before_the_bytes():
    for n in (0, 65, 70):
        with pytest.raises(ValueError, match=f"vertex count must be in 1..64, got {n}"):
            Graph.from_hex(n, "")


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0, 0)], "loop edge (0, 0) not allowed"),
        ([(-1, -1)], "loop edge (-1, -1) not allowed"),
        ([(-1, 2)], "negative vertex label in (-1, 2)"),
        ([(5, -1)], "negative vertex label in (5, -1)"),
        ([(0, 3)], "edge (0, 3) has vertex >= n=3"),
        ([(3, 0)], "edge (3, 0) has vertex >= n=3"),
        ([(0, 1), (0, 1)], "duplicate edge (0, 1)"),
        ([(0, 1), (1, 0)], "duplicate edge (1, 0)"),
        ([(1, 0), (0, 1)], "duplicate edge (0, 1)"),
        ([[1, 2], [2, 1]], "duplicate edge (2, 1)"),
    ],
)
def test_from_edges_error_messages(pairs, message):
    with pytest.raises(ValueError) as info:
        Graph.from_edges(3, pairs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "pairs, message",
    [
        # a bool is an int subclass, so only `type(x) is int` keeps it out
        ([(True, 2)], "edge 0 is not a pair of int labels: (True, 2)"),
        ([(0, 1), (2, False)], "edge 1 is not a pair of int labels: (2, False)"),
        ([(0, 1.0)], "edge 0 is not a pair of int labels: (0, 1.0)"),
        ([(0, 1), (1.5, 2)], "edge 1 is not a pair of int labels: (1.5, 2)"),
        ([(0, 1, 2)], "edge 0 is not a pair of int labels: (0, 1, 2)"),
        ([[0, 1], [2]], "edge 1 is not a pair of int labels: [2]"),
        ([()], "edge 0 is not a pair of int labels: ()"),
        ([(0, "1")], "edge 0 is not a pair of int labels: (0, '1')"),
        (["01"], "edge 0 is not a pair of int labels: '01'"),
        ([b"\x00\x01"], "edge 0 is not a pair of int labels: b'\\x00\\x01'"),
        ([{0, 1}], "edge 0 is not a pair of int labels: {0, 1}"),
        ([(0, 2), 7], "edge 1 is not a pair of int labels: 7"),
        ([None], "edge 0 is not a pair of int labels: None"),
    ],
)
def test_from_edges_rejects_what_is_not_a_pair_of_int_labels(pairs, message):
    with pytest.raises(PairError) as info:
        Graph.from_edges(3, pairs)
    assert str(info.value) == message
    assert isinstance(info.value, ValueError)
    assert info.value.index == int(message.split()[1])


def test_from_edges_names_the_first_faulty_pair_in_order():
    with pytest.raises(ValueError) as info:
        Graph.from_edges(3, [(0, 1), (0, 3), (True, 1)])
    assert str(info.value) == "edge (0, 3) has vertex >= n=3"
    with pytest.raises(ValueError) as info:
        Graph.from_edges(3, [(1, 0), (0, 1), (0, 1.0)])
    assert str(info.value) == "duplicate edge (0, 1)"
    with pytest.raises(PairError) as info:
        Graph.from_edges(3, [(0, 1), (True, 1), (0, 3)])
    assert info.value.index == 1


def test_from_edges_takes_lists_tuples_and_one_pass_iterators():
    ref = Graph(3, [0b110, 0b001, 0b001])
    assert Graph.from_edges(3, [[0, 1], (2, 0)]) == ref
    assert Graph.from_edges(3, iter([edge(1, 0), (0, 2)])) == ref
    assert Graph.from_edges(3, ((u, v) for u, v in [(0, 1), (0, 2)])) == ref


def reference_from_bits(n: int, bits: int) -> Graph:
    """One edge_at call per set bit."""
    rows = [0] * n
    for i in iter_bits(bits):
        u, v = edge_at(i)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def test_from_bits_matches_per_edge_reference():
    rng = random.Random(64)
    for n in range(1, 65):
        m = max_edge_count(n)
        for bits in (0, (1 << m) - 1, rng.getrandbits(m), rng.getrandbits(m) & rng.getrandbits(m)):
            assert Graph.from_bits(n, bits) == reference_from_bits(n, bits)
            assert Graph.from_bits(n, bits).to_bits() == bits


def test_edge_lists_and_hex_match_per_edge_reference():
    # both decoders mirror the lower triangle by one bit-matrix transpose at
    # stride w, the least power of two >= n: every n meets one of w = 1..64
    rng = random.Random(4096)
    for n in range(1, 65):
        m = max_edge_count(n)
        for bits in (0, (1 << m) - 1, rng.getrandbits(m), rng.getrandbits(m) & rng.getrandbits(m)):
            ref = reference_from_bits(n, bits)
            pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in ref.edges()]
            rng.shuffle(pairs)
            assert Graph.from_edges(n, pairs) == ref
            assert Graph.from_hex(n, bits_to_hex(n, bits)) == ref


def test_bits_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.random())
        assert Graph.from_bits(n, g.to_bits()) == g


def test_edges_are_colex_sorted():
    rng = random.Random(17)
    g = random_graph(rng, 10, 0.4)
    indices = [e.index for e in g.edges()]
    assert indices == sorted(indices)


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []
