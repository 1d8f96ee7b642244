import json
import random
from itertools import combinations, permutations

import pytest

from rbt_lab import (
    Graph,
    GraphSystem,
    RainbowWitness,
    auxiliary_incidence_graph,
    bipartite_deficiency_check,
    edge,
    edge_multiplicities,
    find_rainbow_triangle,
    is_nested,
    is_rbt_free,
    iter_bits,
    mask_of,
    max_edge_count,
    maximum_matching,
    nest_reduce,
    system_from_json,
    triangle_incidence,
)


def rainbow_oracle(s: GraphSystem) -> bool:
    """Brute force over all 3-sets and all ordered assignments of distinct indices."""
    for a, b, c in combinations(range(s.n), 3):
        pairs = ((a, b), (a, c), (b, c))
        if not all(any(g.has_edge(u, v) for g in s.graphs) for u, v in pairs):
            continue
        for idx in permutations(range(s.t), 3):
            if (
                s.graphs[idx[0]].has_edge(*pairs[0])
                and s.graphs[idx[1]].has_edge(*pairs[1])
                and s.graphs[idx[2]].has_edge(*pairs[2])
            ):
                return True
    return False


# -- per-triangle Hall check, the reference for the word-parallel detector ------


def sdr_possible(m1: int, m2: int, m3: int) -> bool:
    """Hall's condition for three sets of graph indices."""
    if not (m1 and m2 and m3):
        return False
    if min((m1 | m2).bit_count(), (m1 | m3).bit_count(), (m2 | m3).bit_count()) < 2:
        return False
    return (m1 | m2 | m3).bit_count() >= 3


def pick_sdr(masks):
    """First distinct assignment (i1, i2, i3), i_k in masks[k], by graph index."""
    for i1 in iter_bits(masks[0]):
        for i2 in iter_bits(masks[1] & ~(1 << i1)):
            for i3 in iter_bits(masks[2] & ~(1 << i1) & ~(1 << i2)):
                return (i1, i2, i3)
    return None


def reference_witness(s: GraphSystem) -> RainbowWitness | None:
    """First union triangle passing Hall's check, first assignment by graph index."""
    if s.t < 3 or sum(1 for g in s.graphs if g.edge_count()) < 3:
        return None
    for tri in s.union().triangles():
        masks = [s.edge_membership(e.u, e.v) for e in tri.edges]
        if not sdr_possible(*masks):
            continue
        by_index = sorted(zip(pick_sdr(masks), tri.edges))
        return RainbowWitness(
            triangle=tri,
            graph_indices=tuple(i for i, _ in by_index),
            edges=tuple(e for _, e in by_index),
        )
    return None


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    m = max_edge_count(n)
    return Graph.from_bits(n, sum(1 << i for i in range(m) if rng.random() < p))


def random_system(rng: random.Random, n: int, t: int) -> GraphSystem:
    p = rng.uniform(0.05, 0.6)
    return GraphSystem(n=n, graphs=tuple(random_graph(rng, n, p) for _ in range(t)))


def test_minimal_rainbow_triangle():
    s = GraphSystem.of(
        Graph.from_edges(3, [(0, 1)]),
        Graph.from_edges(3, [(1, 2)]),
        Graph.from_edges(3, [(0, 2)]),
    )
    w = find_rainbow_triangle(s)
    assert w is not None
    assert tuple(w.triangle) == (0, 1, 2)
    assert w.is_valid_for(s)
    assert not is_rbt_free(s)


def test_two_graphs_never_rainbow():
    s = GraphSystem.of(Graph.complete(4), Graph.complete(4))
    assert find_rainbow_triangle(s) is None


def test_identical_bipartite_graphs_are_free():
    k23 = Graph.complete_bipartite(2, 3)
    assert is_rbt_free(GraphSystem.of(k23, k23, k23))
    assert is_rbt_free(GraphSystem(n=5, graphs=(k23,) * 4))


def test_two_complete_one_empty_is_free():
    s = GraphSystem.of(Graph.complete(5), Graph.complete(5), Graph.empty(5))
    assert is_rbt_free(s)
    assert not is_rbt_free(GraphSystem.of(*(Graph.complete(3),) * 3))


def test_rainbow_agreement_exhaustive_tiny():
    # every system on 3 vertices with t = 3 and t = 4
    m = max_edge_count(3)
    for t in (3, 4):
        for packed in range(1 << (m * t)):
            graphs = tuple(
                Graph.from_bits(3, (packed >> (m * i)) & ((1 << m) - 1))
                for i in range(t)
            )
            s = GraphSystem(n=3, graphs=graphs)
            w = find_rainbow_triangle(s)
            if w is None:
                assert not rainbow_oracle(s)
                if t == 3:
                    # per-triangle membership bound over every free triple
                    assert triangle_incidence(s, (0, 1, 2)) <= 6
            else:
                assert w.is_valid_for(s)
                assert rainbow_oracle(s)


def test_rainbow_agreement_random():
    rng = random.Random(4242)
    for _ in range(10_000):
        n = rng.randint(3, 10)
        t = rng.randint(1, 5)
        s = random_system(rng, n, t)
        w = find_rainbow_triangle(s)
        if w is None:
            assert not rainbow_oracle(s)
        else:
            assert w.is_valid_for(s)


def near_copies(rng: random.Random, n: int, t: int) -> GraphSystem:
    """Perturbed copies of one random graph, some emptied: often rainbow-free."""
    m = max_edge_count(n)
    base = rng.getrandbits(m)
    graphs = []
    for _ in range(t):
        g = base
        for _ in range(rng.randint(0, 3)):
            g ^= 1 << rng.randrange(m)
        graphs.append(Graph.from_bits(n, 0 if rng.random() < 0.2 else g))
    return GraphSystem(n=n, graphs=tuple(graphs))


def test_witness_matches_per_triangle_reference():
    rng = random.Random(2718)
    found = free = 0
    for k in range(2400):
        n = rng.randint(3, 10)
        t = rng.randint(3, 6)
        s = random_system(rng, n, t) if k % 2 else near_copies(rng, n, t)
        w = find_rainbow_triangle(s)
        assert w == reference_witness(s)
        if w is None:
            free += 1
        else:
            found += 1
    # both outcomes are exercised in quantity
    assert found > 500 and free > 500


def test_witness_matches_reference_dense():
    # K_n + (t - 1) M and t copies of the balanced complete bipartite graph
    # are rainbow-free for every t; one extra edge in the last graph makes
    # only the triangles through it rainbow, late ones for an edge at the top
    rng = random.Random(31)
    for n, rounds, copies in ((32, 3, [*range(3, 9), 16, 32]), (64, 1, range(3, 9))):
        kn, bip = Graph.complete(n), Graph.complete_bipartite(n // 2, n - n // 2)
        for _ in range(rounds):
            order = list(range(n))
            rng.shuffle(order)
            m = Graph.from_edges(n, [(order[2 * i], order[2 * i + 1]) for i in range(n // 2)])
            extra = [e for e in ((n - 1, n - 2), (n - 1, n - 3), (0, 1)) if not m.has_edge(*e)]
            for t in copies:
                for graphs in ([kn] + [m] * (t - 1), [bip] * t):
                    assert find_rainbow_triangle(GraphSystem.of(*graphs)) is None
                    assert reference_witness(GraphSystem.of(*graphs)) is None
                    for u, v in extra:
                        grown = graphs[-1].to_bits() | 1 << edge(u, v).index
                        s = GraphSystem.of(*graphs[:-1], Graph.from_bits(n, grown))
                        w = find_rainbow_triangle(s)
                        assert w is not None and w == reference_witness(s)
                        assert w.is_valid_for(s)


def random_matching(rng: random.Random, n: int) -> Graph:
    order = list(range(n))
    rng.shuffle(order)
    return Graph.from_edges(n, [(order[2 * i], order[2 * i + 1]) for i in range(n // 2)])


def test_witness_matches_reference_few_c_many_a():
    # each b has a few rainbow c above it and many a below it in K_n: only
    # the triangles on an edge where two of the matchings differ are rainbow
    rng = random.Random(1616)
    for n in (16, 32, 64):
        kn = Graph.complete(n)
        for k in (2, 2, 3, 3, 4, 4):
            # two of the matchings M, M' differ at some uv in M with uv' in
            # M': the triangle u, v, v' is rainbow.  With k > 2 the c-set of
            # a term holds several c, and its least a may come from any
            matchings = [random_matching(rng, n) for _ in range(k)]
            if len(set(matchings)) == 1:
                continue
            s = GraphSystem.of(kn, *matchings)
            w = find_rainbow_triangle(s)
            assert w is not None and w == reference_witness(s)
        m = random_matching(rng, n)
        missing = [e for e in kn.edges() if not m.has_edge(*e)]
        for t in (3, 4, 8, 16):
            # K_n + (t - 1) M is rainbow-free; one more edge xy in one of the
            # copies makes x, y and the partner of x a rainbow triangle, and
            # only triangles through xy rainbow
            graphs = [kn] + [m] * (t - 1)
            k = rng.randrange(1, t)
            extra = rng.choice(missing)
            graphs[k] = Graph.from_bits(n, m.to_bits() | 1 << extra.index)
            s = GraphSystem.of(*graphs)
            w = find_rainbow_triangle(s)
            assert w is not None and w == reference_witness(s)
            assert w.is_valid_for(s)


def thinned_copies(rng: random.Random, n: int, t: int) -> GraphSystem:
    """Each graph keeps each edge of one sparse base graph with its own odds.

    The edges then fall into many membership classes of every size.
    """
    m = max_edge_count(n)
    density = rng.uniform(0.02, 0.15)
    base = [i for i in range(m) if rng.random() < density]
    graphs = []
    for _ in range(t):
        keep = rng.uniform(0.3, 1.0)
        graphs.append(Graph.from_bits(n, sum(1 << i for i in base if rng.random() < keep)))
    return GraphSystem(n=n, graphs=tuple(graphs))


def test_witness_matches_reference_up_to_n64():
    # edges held by one graph, by two, and by three or more all occur here in
    # quantity, so the kernel meets every shape of membership mask
    rng = random.Random(6464)
    found = free = 0
    mask_sizes = [0, 0, 0, 0]
    for k in range(300):
        n = rng.randint(11, 64)
        t = rng.randint(3, 8)
        s = thinned_copies(rng, n, t) if k % 3 else near_copies(rng, n, t)
        w = find_rainbow_triangle(s)
        assert w == reference_witness(s)
        if w is None:
            free += 1
        else:
            found += 1
            assert w.is_valid_for(s)
        for e in s.union().edges():
            mask_sizes[min(3, s.edge_membership(e.u, e.v).bit_count())] += 1
    assert found > 50 and free > 50
    assert min(mask_sizes[1:]) > 1000


def relabel(s: GraphSystem, perm: list[int]) -> GraphSystem:
    """The system with every vertex x renamed perm[x]."""
    return GraphSystem.of(*(Graph.from_edges(s.n, [(perm[e.u], perm[e.v]) for e in g.edges()])
                            for g in s.graphs))


def test_witness_matches_reference_dense_relabelled():
    # the cases of test_witness_matches_reference_dense under a random
    # relabelling, which moves the first rainbow triangle and the rows the
    # kernel scans before it finds one
    rng = random.Random(3131)
    for n, rounds, copies in ((32, 3, [*range(3, 9), 16, 32]), (64, 1, range(3, 9))):
        kn, bip = Graph.complete(n), Graph.complete_bipartite(n // 2, n - n // 2)
        for _ in range(rounds):
            m = random_matching(rng, n)
            extra = [e for e in ((n - 1, n - 2), (n - 1, n - 3), (0, 1)) if not m.has_edge(*e)]
            for t in copies:
                for graphs in ([kn] + [m] * (t - 1), [bip] * t):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    s = relabel(GraphSystem.of(*graphs), perm)
                    assert find_rainbow_triangle(s) is None
                    assert reference_witness(s) is None
                    for u, v in extra:
                        grown = graphs[-1].to_bits() | 1 << edge(u, v).index
                        s = relabel(GraphSystem.of(*graphs[:-1], Graph.from_bits(n, grown)), perm)
                        w = find_rainbow_triangle(s)
                        assert w is not None and w == reference_witness(s)
                        assert w.is_valid_for(s)


def test_witness_matches_reference_on_tied_edge_counts():
    # graphs with equal edge counts, which the kernel's sort leaves in index
    # order: K_n with three distinct perfect matchings, placed first, last and
    # second, and t copies of one graph, whose triangles are all rainbow
    rng = random.Random(2020)
    for n in (6, 8, 16, 32, 64):
        kn = Graph.complete(n)
        for _ in range(4):
            matchings = []
            while len(matchings) < 3:
                m = random_matching(rng, n)
                if m not in matchings:
                    matchings.append(m)
            for graphs in ([kn, *matchings], [*matchings, kn], [matchings[0], kn, *matchings[1:]]):
                s = GraphSystem.of(*graphs)
                w = find_rainbow_triangle(s)
                assert w == reference_witness(s)
                assert w is None or w.is_valid_for(s)
        for t in (3, 4, 7):
            g = random_graph(rng, n, rng.uniform(0.05, 0.5))
            s = GraphSystem(n=n, graphs=(g,) * t)
            w = find_rainbow_triangle(s)
            assert w == reference_witness(s)
            assert (w is None) == g.is_triangle_free()


def test_witness_matches_reference_on_triangle_free_unions():
    # distinct random halves of one K_{n/2,n/2} have a bipartite union; one
    # edge added inside a part of one graph makes the triangles through it
    # the only ones, rainbow where their other two edges lie in two other graphs
    rng = random.Random(4646)
    for n in (6, 10, 16, 33, 64):
        bip = Graph.complete_bipartite(n // 2, n - n // 2)
        for t in (3, 4, 6):
            graphs = [Graph.from_bits(n, bip.to_bits() & rng.getrandbits(max_edge_count(n)))
                      for _ in range(t)]
            s = GraphSystem.of(*graphs)
            assert find_rainbow_triangle(s) is None and reference_witness(s) is None
            for _ in range(3):
                part = rng.choice([range(n // 2), range(n // 2, n)])
                u, v = rng.sample(part, 2)
                k = rng.randrange(t)
                grown = graphs[:k] + [graphs[k] | Graph.from_edges(n, [(u, v)])] + graphs[k + 1:]
                s = GraphSystem.of(*grown)
                w = find_rainbow_triangle(s)
                assert w == reference_witness(s)
                assert w is None or w.is_valid_for(s)


def test_witness_matches_reference_k64_and_63_matchings():
    # K_64 + 63 M is rainbow-free; one more edge in any graph but the first
    # gives a rainbow triangle with the partner of either end
    rng = random.Random(6363)
    n = 64
    kn, m = Graph.complete(n), random_matching(rng, n)
    graphs = [kn] + [m] * 63
    assert find_rainbow_triangle(GraphSystem.of(*graphs)) is None
    assert reference_witness(GraphSystem.of(*graphs)) is None
    missing = [e for e in kn.edges() if not m.has_edge(*e)]
    for k in (1, 32, 63):
        extra = rng.choice(missing)
        grown = graphs[:k] + [Graph.from_bits(n, m.to_bits() | 1 << extra.index)] + graphs[k + 1:]
        s = GraphSystem.of(*grown)
        w = find_rainbow_triangle(s)
        assert w is not None and w == reference_witness(s)
        assert w.is_valid_for(s)


def test_witness_indices_strictly_increasing():
    rng = random.Random(606)
    seen = 0
    while seen < 200:
        s = random_system(rng, rng.randint(3, 8), rng.randint(3, 5))
        w = find_rainbow_triangle(s)
        if w is None:
            continue
        seen += 1
        i1, i2, i3 = w.graph_indices
        assert i1 < i2 < i3
        assert sorted(w.edges) == sorted(w.triangle.edges)


def test_incidence_examples():
    s = GraphSystem.of(Graph.complete(5), Graph.complete(5), Graph.empty(5))
    assert triangle_incidence(s, (0, 1, 2)) == 6
    assert triangle_incidence(s, (2, 3, 4)) == 6

    full = GraphSystem.of(*(Graph.complete(4),) * 3)
    assert triangle_incidence(full, (0, 1, 3)) == 9
    assert find_rainbow_triangle(full) is not None

    lone = GraphSystem.of(Graph.complete(4), Graph.empty(4), Graph.empty(4))
    assert triangle_incidence(lone, (0, 1, 2)) == 3


def test_incidence_validation():
    s = GraphSystem.of(Graph.empty(4), Graph.empty(4))
    with pytest.raises(ValueError):
        triangle_incidence(s, (0, 1, 2))  # t != 3
    s3 = GraphSystem.of(*(Graph.empty(4),) * 3)
    with pytest.raises(ValueError):
        triangle_incidence(s3, (0, 1))
    with pytest.raises(ValueError):
        triangle_incidence(s3, (0, 1, 7))


def test_auxiliary_graph_matches_rainbow_structure():
    rng = random.Random(987)
    for _ in range(400):
        s = random_system(rng, rng.randint(3, 7), 3)
        free = is_rbt_free(s)
        for z in combinations(range(s.n), 3):
            aux = auxiliary_incidence_graph(s, z)
            assert aux.edge_count() == triangle_incidence(s, z)
            has_pm = maximum_matching(aux).size == 3
            if has_pm:
                assert not free
            if free:
                # deficient bipartite graph: at most (q-1)q = 6 edges
                report = bipartite_deficiency_check(
                    aux, mask_of([0, 1, 2]), mask_of([3, 4, 5])
                )
                assert report.witness is not None and report.witness["applicable"]
                assert report.slack >= 0
                assert triangle_incidence(s, z) <= 6


def test_nest_reduce_forced_example():
    e1 = Graph.from_edges(3, [(0, 1)])
    e2 = Graph.from_edges(3, [(1, 2)])
    both = e1 | e2
    out = nest_reduce(GraphSystem.of(e1, e2, both))
    assert [g.edge_count() for g in out.graphs] == [0, 2, 2]
    assert out.graphs[1] == both and out.graphs[2] == both


def test_nest_reduce_fixed_points():
    a = Graph.from_edges(4, [(0, 1)])
    b = Graph.from_edges(4, [(0, 1), (2, 3)])
    c = Graph.complete(4)
    nested = GraphSystem.of(a, b, c)
    assert nest_reduce(nested) == nested

    same = GraphSystem.of(b, b, b)
    assert nest_reduce(same) == same


def test_nest_reduce_invariants_random():
    rng = random.Random(321)
    for _ in range(10_000):
        n = rng.randint(2, 10)
        t = rng.randint(1, 5)
        s = random_system(rng, n, t)
        out = nest_reduce(s)
        assert is_nested(out)
        assert out.total_edges() == s.total_edges()
        assert edge_multiplicities(out) == edge_multiplicities(s)
        if is_rbt_free(s):
            assert is_rbt_free(out)


def test_json_round_trip_both_forms():
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(1, 64)
        t = rng.randint(1, 5)
        s = GraphSystem(
            n=n, graphs=tuple(random_graph(rng, n, rng.random()) for _ in range(t))
        )
        assert system_from_json(s.to_json(compact=False)) == s
        assert system_from_json(s.to_json(compact=True)) == s


def test_json_edge_lists_follow_graph_edges():
    # the edge-list form is built from the rows, in the order of Graph.edges()
    rng = random.Random(778)
    for n in (1, 2, 5, 32, 64):
        for t in (1, 3, 8):
            s = random_system(rng, n, t)
            doc = {"n": n, "graphs": [[[e.u, e.v] for e in g.edges()] for g in s.graphs]}
            assert json.dumps(s.to_json_dict(), indent=2) == json.dumps(doc, indent=2)


def test_json_parse_examples():
    s = system_from_json('{"n":3,"graphs":[[[0,1]],[[1,2]],[[0,2]]]}')
    assert s.t == 3 and s.edge_counts() == (1, 1, 1)

    s = system_from_json('{"n":3,"hex":["03","04","00"]}')
    assert s.graphs[0] == Graph.from_edges(3, [(0, 1), (0, 2)])
    assert s.graphs[1] == Graph.from_edges(3, [(1, 2)])
    assert s.graphs[2] == Graph.empty(3)


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"n":3,"graphs":[[[0,0]]]}', "graph 0: loop edge (0, 0) not allowed"),
        ('{"n":3,"graphs":[[[0,1],[-1,2]]]}', "graph 0: negative vertex label in (-1, 2)"),
        ('{"n":3,"graphs":[[],[[0,3]]]}', "graph 1: edge (0, 3) has vertex >= n=3"),
        ('{"n":3,"graphs":[[[0,1],[1,0]]]}', "graph 0: duplicate edge (1, 0)"),
        ('{"n":3,"graphs":[[[1,2],[1,2]]]}', "graph 0: duplicate edge (1, 2)"),
        ('{"n":3,"graphs":[[[true,1]]]}', "graph 0, edge 0: expected [u, v]"),
        ('{"n":3,"graphs":[[[0,1],[1,false]]]}', "graph 0, edge 1: expected [u, v]"),
        ('{"n":3,"graphs":[[[0,1.0]]]}', "graph 0, edge 0: expected [u, v]"),
        ('{"n":3,"graphs":[[[0,1],[0,1,2]]]}', "graph 0, edge 1: expected [u, v]"),
        ('{"n":3,"graphs":[[[0,1],[1]]]}', "graph 0, edge 1: expected [u, v]"),
        ('{"n":3,"graphs":[[[0,1],"ab"]]}', "graph 0, edge 1: expected [u, v]"),
        ('{"n":3,"graphs":[[[0,1]],5]}', "graph 1: edge list expected"),
        ('{"n":3,"hex":["03"," 04"]}', "graph 1: invalid hex graph ' 04'"),
    ],
)
def test_json_parse_error_messages(doc, message):
    with pytest.raises(ValueError) as info:
        system_from_json(doc)
    assert str(info.value).startswith(message)


def test_a_multi_fault_edge_list_names_its_first_faulty_pair():
    # the range fault comes before the malformed pair, so it is the one named
    with pytest.raises(ValueError) as info:
        system_from_json('{"n":3,"graphs":[[[0,1],[0,3],[true,1]]]}')
    assert str(info.value) == "graph 0: edge (0, 3) has vertex >= n=3"
    with pytest.raises(ValueError) as info:
        system_from_json('{"n":3,"graphs":[[[1,0],[0,1],[2,1.5]]]}')
    assert str(info.value) == "graph 0: duplicate edge (0, 1)"
    with pytest.raises(ValueError) as info:
        system_from_json('{"n":3,"graphs":[[[0,1]],[[0,1],[2],[2,2]]]}')
    assert str(info.value) == "graph 1, edge 1: expected [u, v]"


# -- the two-loop edge-list decoder, the oracle for the one-loop decoder --------


def two_loop_from_edges(n, edges):
    """Graph.from_edges before it checked each pair's form, mirrored per edge."""
    lower = [0] * n
    for pair in edges:
        u, v = pair
        if u > v:
            u, v = v, u
        if not 0 <= u < v < n:
            edge(*pair)  # raises the loop or negative-label error first
            raise ValueError(f"edge {tuple(pair)} has vertex >= n={n}")
        if lower[v] >> u & 1:
            raise ValueError(f"duplicate edge {tuple(pair)}")
        lower[v] |= 1 << u
    rows = list(lower)
    for v in range(n):
        for u in iter_bits(lower[v]):
            rows[u] |= 1 << v
    return Graph(n, rows)


def two_loop_decode(doc):
    """The "graphs" branch of system_from_json_dict when it type-checked every pair first."""
    n = doc["n"]
    graphs = []
    for gi, edge_list in enumerate(doc["graphs"]):
        for ei, pair in enumerate(edge_list):
            # `type(x) is int` rejects bools and floats
            if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int):
                raise ValueError(f"graph {gi}, edge {ei}: expected [u, v]")
        try:
            graphs.append(two_loop_from_edges(n, edge_list))
        except ValueError as exc:
            raise ValueError(f"graph {gi}: {exc}") from None
    return GraphSystem(n=n, graphs=tuple(graphs))


def one_fault(rng, kind, n, pairs):
    """A pair of the given fault kind for an edge list on n vertices holding `pairs`."""
    u, v = rng.choice(pairs) if pairs else (0, 0)
    label = rng.randrange(n)
    if kind == "bool":
        pair = [u, v]
        pair[rng.randrange(2)] = rng.choice([True, False])
        return pair
    if kind == "float":
        pair = [u, v]
        pair[rng.randrange(2)] = float(pair[0]) + rng.choice([0, 0.5])
        return pair
    if kind == "length 1":
        return [label]
    if kind == "length 3":
        return [u, v, label]
    if kind == "string":
        return rng.choice([f"{u}{v}", [str(u), v], [u, str(v)]])
    if kind == "loop":
        return [label, label]
    if kind == "negative":
        pair = [label, -rng.randint(1, 3)]
        return pair if rng.random() < 0.5 else pair[::-1]
    if kind == "label >= n":
        pair = [label, n + rng.randrange(3)]
        return pair if rng.random() < 0.5 else pair[::-1]
    if kind == "duplicate":
        return [u, v]
    assert kind == "flipped duplicate"
    return [v, u]


FAULT_KINDS = ["bool", "float", "length 1", "length 3", "string", "loop", "negative",
               "label >= n", "duplicate", "flipped duplicate"]


def decode_outcome(decode, doc):
    try:
        return decode(doc)
    except ValueError as exc:
        return str(exc)


def test_one_loop_decoder_matches_the_two_loop_decoder():
    rng = random.Random(3434)
    checked = set()
    for n in range(1, 65):
        for density in (0.0, 1.0, rng.random()):
            t = rng.randint(1, 3)
            graphs, lists = tuple(random_graph(rng, n, density) for _ in range(t)), []
            for g in graphs:
                pairs = [[e.u, e.v] if rng.random() < 0.5 else [e.v, e.u] for e in g.edges()]
                rng.shuffle(pairs)
                lists.append(pairs)
            docs = [{"n": n, "graphs": lists}]
            for kind in FAULT_KINDS:
                gi = rng.randrange(t)
                if kind.endswith("duplicate") and not lists[gi]:
                    continue
                faulty = [list(pairs) for pairs in lists]
                faulty[gi].insert(rng.randint(0, len(faulty[gi])), one_fault(rng, kind, n, lists[gi]))
                docs.append({"n": n, "graphs": faulty})
                checked.add(kind)
            for doc in docs:
                got = decode_outcome(system_from_json, json.dumps(doc))
                assert got == decode_outcome(two_loop_decode, doc), doc
            assert system_from_json(json.dumps(docs[0])) == GraphSystem(n=n, graphs=graphs)
    assert checked == set(FAULT_KINDS)


def test_json_parse_rejects_bad_input():
    with pytest.raises(ValueError, match="loop"):
        system_from_json('{"n":3,"graphs":[[[0,0]]]}')
    with pytest.raises(ValueError, match="duplicate"):
        system_from_json('{"n":3,"graphs":[[[0,1],[1,0]]]}')
    with pytest.raises(ValueError, match="n must be"):
        system_from_json('{"n":65,"hex":[""]}')
    with pytest.raises(ValueError, match="line 1"):
        system_from_json("{not json")
    with pytest.raises(ValueError):
        system_from_json('{"n":3}')
    with pytest.raises(ValueError):
        system_from_json('{"n":3,"graphs":[[[0,1]]],"hex":["00"]}')
    with pytest.raises(ValueError):
        system_from_json('{"n":3,"graphs":[[[0,3]]]}')
