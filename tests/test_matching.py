import random

import pytest

from rbt_lab import (
    Graph,
    MatchingResult,
    bipartite_deficiency_check,
    greedy_maximal_matching,
    is_nearly_matchable,
    mask_of,
    max_edge_count,
    maximum_matching,
)
from rbt_lab.reports import PreconditionError

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def brute_matching_size(g: Graph) -> int:
    """Branch on the lowest unmatched vertex; exact by full enumeration."""
    memo: dict[int, int] = {}

    def best(avail: int) -> int:
        if not avail:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        u = (avail & -avail).bit_length() - 1
        rest = avail ^ (1 << u)
        res = best(rest)  # leave u unmatched
        nb = g.rows[u] & rest
        while nb:
            low = nb & -nb
            v = low.bit_length() - 1
            nb ^= low
            res = max(res, 1 + best(rest ^ (1 << v)))
        memo[avail] = res
        return res

    return best((1 << g.n) - 1)


def bipartite_augmenting_size(g: Graph, left: int) -> int:
    """Textbook augmenting-path matcher for bipartite graphs (oracle)."""
    left_vertices = [v for v in range(g.n) if left >> v & 1]
    match: dict[int, int] = {}

    def try_assign(u: int, seen: set[int]) -> bool:
        for v in range(g.n):
            if g.has_edge(u, v) and v not in seen:
                seen.add(v)
                if v not in match or try_assign(match[v], seen):
                    match[v] = u
                    return True
        return False

    size = 0
    for u in left_vertices:
        if try_assign(u, set()):
            size += 1
    return size


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    m = max_edge_count(n)
    return Graph.from_bits(n, sum(1 << i for i in range(m) if rng.random() < p))


def test_matching_examples():
    assert maximum_matching(C5).size == 2
    assert maximum_matching(Graph.complete(4)).size == 2
    assert maximum_matching(Graph.empty(6)).size == 0
    assert maximum_matching(Graph.complete_bipartite(3, 3)).size == 3


def test_matching_result_invariants():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        res = maximum_matching(g)
        assert res.is_valid_for(g)


def test_matching_exhaustive_small():
    for n in range(1, 7):
        for bits in range(1 << max_edge_count(n)):
            g = Graph.from_bits(n, bits)
            res = maximum_matching(g)
            assert res.is_valid_for(g)
            assert res.size == brute_matching_size(g), f"n={n} bits={bits}"


def test_matching_random_oracle():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        assert maximum_matching(g).size == brute_matching_size(g)


def test_matching_networkx_oracle_larger_n():
    # cross-library check where brute force cannot reach
    nx = pytest.importorskip("networkx")
    rng = random.Random(888)
    for _ in range(60):
        n = rng.randint(13, 32)
        g = random_graph(rng, n, rng.uniform(0.05, 0.6))
        gx = nx.Graph()
        gx.add_nodes_from(range(n))
        gx.add_edges_from((e.u, e.v) for e in g.edges())
        expected = len(nx.max_weight_matching(gx, maxcardinality=True))
        assert maximum_matching(g).size == expected


def test_matching_bipartite_koenig_consistency():
    rng = random.Random(55)
    for _ in range(300):
        a = rng.randint(1, 5)
        b = rng.randint(1, 5)
        n = a + b
        left = (1 << a) - 1
        g = Graph.from_edges(
            n, [(u, v) for u in range(a) for v in range(a, n) if rng.random() < 0.5]
        )
        assert maximum_matching(g).size == bipartite_augmenting_size(g, left)


def test_greedy_is_maximal_and_deterministic():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    res = greedy_maximal_matching(path)
    assert [(e.u, e.v) for e in res.edges] == [(0, 1), (2, 3)]
    assert res.size == 2

    assert greedy_maximal_matching(Graph.empty(4)).size == 0
    assert greedy_maximal_matching(Graph.complete(3)).size == 1

    rng = random.Random(8)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        res = greedy_maximal_matching(g)
        assert res.is_valid_for(g)
        # maximality: no remaining edge avoids the matched set
        for e in g.edges():
            assert res.matched_set & ((1 << e.u) | (1 << e.v))
        assert res == greedy_maximal_matching(g)


def greedy_by_edge_scan(g: Graph) -> MatchingResult:
    """First-fit matching over g.edges() in colex order, one Edge per edge."""
    taken = 0
    edges = []
    for e in g.edges():
        pair = (1 << e.u) | (1 << e.v)
        if not taken & pair:
            taken |= pair
            edges.append(e)
    return MatchingResult(edges=tuple(edges), size=len(edges), matched_set=taken)


def test_greedy_matches_the_colex_edge_scan():
    graphs = [Graph.empty(n) for n in range(1, 21)] + [Graph.complete(n) for n in range(1, 21)]
    rng = random.Random(20)
    graphs += [random_graph(rng, rng.randint(1, 20), rng.random()) for _ in range(500)]
    for g in graphs:
        assert greedy_maximal_matching(g) == greedy_by_edge_scan(g), g


def test_greedy_edges_come_in_colex_order():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        indices = [e.index for e in greedy_maximal_matching(g).edges]
        assert indices == sorted(indices)


def test_nearly_matchable_examples():
    assert is_nearly_matchable(Graph.complete(4))
    assert not is_nearly_matchable(Graph.empty(4))
    assert is_nearly_matchable(C5)


def test_bipartite_deficiency_examples():
    # K_{2,3} plus an isolated vertex padded into the 2-side: q=3, nu=2
    g = Graph.from_edges(6, [(u, v) for u in (0, 1) for v in (3, 4, 5)])
    report = bipartite_deficiency_check(g, mask_of([0, 1, 2]), mask_of([3, 4, 5]))
    assert report.witness is not None and report.witness["applicable"]
    assert report.value == 6 and report.bound == 6 and report.tight

    # perfect matching present: bound not applicable
    pm = Graph.from_edges(6, [(0, 3), (1, 4), (2, 5)])
    report = bipartite_deficiency_check(pm, mask_of([0, 1, 2]), mask_of([3, 4, 5]))
    assert report.witness is not None and not report.witness["applicable"]

    # q=1 with no edges: 0 <= 0, tight
    report = bipartite_deficiency_check(Graph.empty(2), mask_of([0]), mask_of([1]))
    assert report.value == 0 and report.bound == 0 and report.tight


def test_bipartite_deficiency_rejects_bad_parts():
    g = Graph.from_edges(4, [(0, 1)])
    with pytest.raises(PreconditionError):
        bipartite_deficiency_check(g, mask_of([0, 1]), mask_of([2, 3]))
    with pytest.raises(PreconditionError):
        bipartite_deficiency_check(Graph.empty(4), mask_of([0]), mask_of([1, 2, 3]))
    with pytest.raises(PreconditionError):
        bipartite_deficiency_check(Graph.empty(4), mask_of([0, 1]), mask_of([1, 2]))


def test_bipartite_deficiency_exhaustive_q_le_3():
    # no violation is ever reported over all bipartite graphs with q <= 3
    for q in (1, 2, 3):
        n = 2 * q
        left = (1 << q) - 1
        right = ((1 << n) - 1) ^ left
        cross = [(u, v) for u in range(q) for v in range(q, n)]
        for bits in range(1 << len(cross)):
            g = Graph.from_edges(n, [cross[i] for i in range(len(cross)) if bits >> i & 1])
            report = bipartite_deficiency_check(g, left, right)
            assert report.slack >= 0
            if report.witness and report.witness["applicable"] and report.tight:
                # equality forces the complete bipartite graph on q-1 vs q parts
                assert g.edge_count() == (q - 1) * q
