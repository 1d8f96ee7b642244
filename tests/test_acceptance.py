"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines alongside pytest's own verdicts.  Every check is exact; the time
limits are asserted with the wall clock.
"""

import random
import time
from fractions import Fraction

from rbt_lab import (
    Graph,
    GraphSystem,
    balanced_bipartite_system,
    bipartite_triple,
    certify_nearly_matchable,
    certify_partition_bounds,
    certify_product_nested,
    certify_sum_t3,
    certify_weighted_sum,
    check_unmatched_cross_degree,
    edge,
    exhaustive_max_product,
    exhaustive_max_sum,
    greedy_maximal_matching,
    is_nearly_matchable,
    is_rbt_free,
    mantel_partition,
    matching_number,
    max_edge_count,
    maximum_matching,
    scan_alpha_beta_inequality,
    scan_lpq_inequality,
    two_complete_one_empty,
    verify_partition,
)

from test_search import max_triangle_free_edges


def report(num: int, label: str, detail: str, elapsed: float, limit: float) -> None:
    line = f"ACCEPTANCE {num} ({label}): PASS - {detail} [{elapsed:.2f}s / limit {limit:.0f}s]"
    print(line)
    assert elapsed < limit, f"criterion {num} exceeded its time limit: {line}"


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    m = max_edge_count(n)
    return Graph.from_bits(n, sum(1 << i for i in range(m) if rng.random() < p))


def random_triangle_free(rng: random.Random, n: int) -> Graph:
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


def strip_triangles(g: Graph) -> Graph:
    while True:
        tris = g.triangles()
        if not tris:
            return g
        t = tris[0]
        g = Graph.from_bits(g.n, g.to_bits() & ~(1 << edge(t.a, t.b).index))


def test_c01_exhaustive_n3():
    started = time.perf_counter()
    sum_report = exhaustive_max_sum(3, 3)
    product_report = exhaustive_max_product(3)
    elapsed = time.perf_counter() - started
    assert sum_report.best_value == 6 == 3 * 2
    assert product_report.best_value == 8 == (9 // 4) ** 3
    report(1, "exhaustive n=3 t=3", "max sum 6, max product 8", elapsed, 1.0)


def test_c02_exhaustive_n4():
    started = time.perf_counter()
    sum_report = exhaustive_max_sum(4, 3)
    product_report = exhaustive_max_product(4)
    elapsed = time.perf_counter() - started
    assert sum_report.best_value == 12
    assert product_report.best_value == 64
    report(2, "exhaustive n=4 t=3", "max sum 12, max product 64", elapsed, 30.0)


def test_c03_essential_uniqueness_n5():
    started = time.perf_counter()
    r = exhaustive_max_sum(5, 3)
    assert r.best_value == 20 == 5 * 4
    assert r.witnesses and not r.witness_overflow
    full = max_edge_count(5)
    for witness in r.witness_systems():
        counts = sorted(witness.edge_counts())
        assert counts == [0, full, full], f"non-pattern maximizer: {counts}"
    elapsed = time.perf_counter() - started
    report(
        3,
        "essential uniqueness n=5",
        f"max sum 20; all {len(r.witnesses)} maximizers are two-complete-one-empty",
        elapsed,
        600.0,
    )


def test_c04_exhaustive_n4_t4():
    started = time.perf_counter()
    r = exhaustive_max_sum(4, 4)
    elapsed = time.perf_counter() - started
    assert r.best_value == 16 == 4 * (16 // 4)
    report(4, "exhaustive n=4 t=4", "max sum 16", elapsed, 600.0)


def test_c05_mantel_reproduction():
    started = time.perf_counter()
    values = [max_triangle_free_edges(n) for n in (4, 5, 6)]
    elapsed = time.perf_counter() - started
    assert values == [4, 6, 9]
    assert values == [n * n // 4 for n in (4, 5, 6)]
    report(5, "Mantel bound n=4,5,6", f"maxima {values}", elapsed, 5.0)


def matched_set_degree_checks(g: Graph) -> None:
    # (i) for any matching: outside vertices see at most l matched vertices
    # (ii) for a maximal matching: their total degree is at most l
    for matching in (maximum_matching(g), greedy_maximal_matching(g)):
        w = matching.matched_set
        for x in range(g.n):
            if w >> x & 1:
                continue
            assert g.degree_into(x, w) <= matching.size
            assert g.degree_into(x, g.vertex_mask) <= matching.size


def test_c06_partition_property_suite():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for bits in range(1 << max_edge_count(n)):
            g = Graph.from_bits(n, bits)
            if not g.is_triangle_free():
                continue
            assert verify_partition(g, mantel_partition(g))
            checked += 1
    rng = random.Random(60601)
    for _ in range(1000):
        n = rng.randint(2, 32)
        g = random_triangle_free(rng, n)
        assert verify_partition(g, mantel_partition(g))
        matched_set_degree_checks(g)
        checked += 1
    elapsed = time.perf_counter() - started
    report(6, "partition suite", f"{checked} graphs verified, zero failures", elapsed, 30.0)


def test_c07_certifier_property_suite():
    started = time.perf_counter()
    rng = random.Random(70707)
    samples = 0
    applied = {"sum_t3": 0, "weighted": 0, "nearly": 0, "nested": 0,
               "cross": 0, "prop31": 0}
    while samples < 10_000:
        n = rng.randint(3, 8)
        if rng.random() < 0.25:
            # bipartite-union proposal: dense but always rainbow-free
            a = rng.randint(1, n - 1)
            template = Graph.complete_bipartite(a, n - a)
            graphs = [
                Graph.from_edges(n, [e for e in template.edges() if rng.random() < 0.8])
                for _ in range(3)
            ]
            s = GraphSystem(n=n, graphs=tuple(graphs))
        else:
            p = rng.uniform(0.05, 0.5)
            s = GraphSystem(
                n=n, graphs=tuple(random_graph(rng, n, p) for _ in range(3))
            )
            if not is_rbt_free(s):
                continue
        samples += 1
        b, c, d = s.graphs

        assert certify_sum_t3(s).slack >= 0
        applied["sum_t3"] += 1

        stripped = strip_triangles(b)
        assert certify_weighted_sum(stripped, c, d).slack >= 0
        applied["weighted"] += 1

        if is_nearly_matchable(b):
            assert certify_nearly_matchable(b, c, d).slack >= 0
            applied["nearly"] += 1

        core = b & c & d
        assert certify_product_nested(core, c, d).slack >= 0
        applied["nested"] += 1

        matching = maximum_matching(b)
        for x in range(n):
            if not matching.matched_set >> x & 1:
                assert check_unmatched_cross_degree(b, c, d, matching, x)
                applied["cross"] += 1
                break

        if n > 2 * matching_number(core) + 2:
            r = certify_partition_bounds(core, c, d)
            assert r.slack >= 0
            assert r.witness is not None
            assert r.witness["b_bound"] >= r.witness["b_value"]
            assert r.witness["cd_bound"] >= r.witness["cd_value"]
            applied["prop31"] += 1
    elapsed = time.perf_counter() - started
    detail = f"10000 systems, applications {applied}, zero violations"
    assert all(count > 1000 for count in applied.values()), applied
    report(7, "certifier suite", detail, elapsed, 120.0)


def test_c08_nesting_suite():
    from rbt_lab import edge_multiplicities, is_nested, nest_reduce

    started = time.perf_counter()
    rng = random.Random(80808)
    for _ in range(10_000):
        n = rng.randint(2, 10)
        t = rng.randint(1, 5)
        p = rng.uniform(0.05, 0.6)
        s = GraphSystem(n=n, graphs=tuple(random_graph(rng, n, p) for _ in range(t)))
        out = nest_reduce(s)  # the unique nested chain with the same multiplicities
        assert is_nested(out)
        assert out.total_edges() == s.total_edges()
        assert edge_multiplicities(out) == edge_multiplicities(s)
        if is_rbt_free(s):
            assert is_rbt_free(out)
    elapsed = time.perf_counter() - started
    report(8, "nesting suite", "10000 systems reduced, zero failures", elapsed, 60.0)


def brute_matching_size(g: Graph) -> int:
    memo: dict[int, int] = {}

    def best(avail: int) -> int:
        if not avail:
            return 0
        if avail in memo:
            return memo[avail]
        u = (avail & -avail).bit_length() - 1
        rest = avail ^ (1 << u)
        res = best(rest)
        nb = g.rows[u] & rest
        while nb:
            low = nb & -nb
            v = low.bit_length() - 1
            nb ^= low
            res = max(res, 1 + best(rest ^ (1 << v)))
        memo[avail] = res
        return res

    return best((1 << g.n) - 1)


def test_c09_matching_oracle():
    started = time.perf_counter()
    for n in range(1, 7):
        for bits in range(1 << max_edge_count(n)):
            g = Graph.from_bits(n, bits)
            assert maximum_matching(g).size == brute_matching_size(g)
    rng = random.Random(90909)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        assert maximum_matching(g).size == brute_matching_size(g)
    elapsed = time.perf_counter() - started
    report(9, "matching oracle", "all n<=6 graphs + 500 random n<=12", elapsed, 60.0)


def test_c10_inequality_scans():
    started = time.perf_counter()
    rational_violations = list(
        scan_alpha_beta_inequality(Fraction(1, 100), Fraction(10))
    )
    integer_violations = list(scan_lpq_inequality(30, 60))
    elapsed = time.perf_counter() - started
    assert rational_violations == []
    assert integer_violations == []
    report(
        10,
        "inequality scans",
        "alpha-beta grid 1001x1001 and l<=30, q<=60 clean",
        elapsed,
        10.0,
    )


def test_c11_constructors_attain_bounds():
    started = time.perf_counter()
    for n in range(3, 65):
        s = two_complete_one_empty(n)
        assert is_rbt_free(s)
        assert s.total_edges() == n * (n - 1)
        for t in range(1, 9):
            s = balanced_bipartite_system(n, t)
            assert is_rbt_free(s)
            assert s.total_edges() == t * (n * n // 4)
        counts = bipartite_triple(n).edge_counts()
        assert counts[0] * counts[1] * counts[2] == (n * n // 4) ** 3
    elapsed = time.perf_counter() - started
    report(11, "extremal constructors", "n=3..64, t<=8 all tight", elapsed, 5.0)
