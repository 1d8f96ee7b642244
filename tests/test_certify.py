import random
from fractions import Fraction

import pytest

from rbt_lab import (
    Graph,
    GraphSystem,
    alpha_beta_inequality_holds,
    certify_nearly_matchable,
    certify_partition_bounds,
    certify_product_nested,
    certify_sum_t,
    certify_sum_t3,
    certify_triangle_incidence,
    certify_weighted_sum,
    check_unmatched_cross_degree,
    conjecture_margin,
    lpq_inequality_holds,
    lpq_inequality_sides,
    matches_balanced_bipartite_copies,
    matches_two_complete_one_empty,
    max_edge_count,
    maximum_matching,
    partition_bound_params,
    scan_alpha_beta_inequality,
    scan_lpq_inequality,
)
from rbt_lab.reports import PreconditionError, RainbowFoundError

K5 = Graph.complete(5)
E5 = Graph.empty(5)
K23 = Graph.complete_bipartite(2, 3)
K22 = Graph.complete_bipartite(2, 2)


def test_sum_t3_examples():
    r = certify_sum_t3(GraphSystem.of(K5, K5, E5))
    assert r.value == 20 and r.bound == 20 and r.tight
    assert r.witness is not None and r.witness["equality_pattern"]

    r = certify_sum_t3(GraphSystem.of(E5, E5, E5))
    assert r.value == 0 and r.bound == 20

    r = certify_sum_t3(GraphSystem.of(K23, K23, K23))
    assert r.value == 18 and r.bound == 20 and not r.tight


def test_sum_t3_preconditions():
    with pytest.raises(PreconditionError):
        certify_sum_t3(GraphSystem.of(K5, K5))
    one_edge = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(PreconditionError):
        certify_sum_t3(GraphSystem.of(one_edge, one_edge, one_edge))
    rainbow = GraphSystem.of(
        Graph.from_edges(3, [(0, 1)]),
        Graph.from_edges(3, [(1, 2)]),
        Graph.from_edges(3, [(0, 2)]),
    )
    with pytest.raises(RainbowFoundError):
        certify_sum_t3(rainbow)


def test_sum_t_examples():
    r = certify_sum_t(GraphSystem(n=4, graphs=(K22,) * 4))
    assert r.value == 16 and r.bound == 16 and r.tight

    r = certify_sum_t(GraphSystem(n=5, graphs=(K23,) * 5))
    assert r.value == 30 and r.bound == 30 and r.tight

    r = certify_sum_t(GraphSystem(n=6, graphs=(Graph.empty(6),) * 4))
    assert r.value == 0 and r.bound == 36

    with pytest.raises(PreconditionError):
        certify_sum_t(GraphSystem.of(K5, K5, E5))


def test_equality_patterns():
    assert matches_two_complete_one_empty(GraphSystem.of(K5, E5, K5))
    assert not matches_two_complete_one_empty(GraphSystem.of(K5, K5, K5))
    assert matches_balanced_bipartite_copies(GraphSystem(n=5, graphs=(K23,) * 4))
    relabeled = K23.relabel([2, 4, 0, 1, 3])
    assert matches_balanced_bipartite_copies(GraphSystem(n=5, graphs=(relabeled,) * 4))
    assert not matches_balanced_bipartite_copies(GraphSystem(n=5, graphs=(K5,) * 4))


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_balanced_bipartite_pattern_beyond_canonical_range(n):
    a = n // 2
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    relabeled = Graph.complete_bipartite(a, n - a).relabel(perm)
    assert matches_balanced_bipartite_copies(GraphSystem(n=n, graphs=(relabeled,) * 4))
    # trade a cross edge for one inside part {0..a-1}: the edge count stays
    # floor(n^2/4), and vertices 0, 1 and a + 1 now span a triangle
    traded = relabeled.without_edge(perm[2], perm[a]).with_edge(perm[0], perm[1])
    assert traded.edge_count() == n * n // 4
    assert not traded.is_triangle_free()
    assert not matches_balanced_bipartite_copies(GraphSystem(n=n, graphs=(traded,) * 4))
    # triangle-free but unbalanced, so short of floor(n^2/4) edges
    unbalanced = Graph.complete_bipartite(a - 1, n - a + 1)
    assert not matches_balanced_bipartite_copies(GraphSystem(n=n, graphs=(unbalanced,) * 4))


def test_weighted_examples():
    r = certify_weighted_sum(K23, K23, K23)
    assert r.value == 24 and r.bound == 24 and r.tight

    with pytest.raises(PreconditionError):
        certify_weighted_sum(Graph.complete(3), Graph.empty(3), Graph.empty(3))

    r = certify_weighted_sum(E5, K5, K5)
    assert r.value == 20 and r.bound == 24


def test_nearly_matchable_examples():
    pm = Graph.from_edges(4, [(0, 2), (1, 3)])  # perfect matching inside K22
    r = certify_nearly_matchable(pm, K22, K22)
    assert r.value == 8 and r.bound == 8 and r.tight

    r = certify_nearly_matchable(K23, K23, K23)
    assert r.value == 12 and r.bound == 12 and r.tight

    r = certify_nearly_matchable(K22, Graph.empty(4), Graph.empty(4))
    assert r.value == 0 and r.bound == 8

    with pytest.raises(PreconditionError):
        certify_nearly_matchable(Graph.empty(4), K22, K22)


def test_product_nested_examples():
    r = certify_product_nested(K23, K23, K23)
    assert r.value == 216 and r.bound == 216 and r.tight

    r = certify_product_nested(E5, K5, K5)
    assert r.value == 0 and r.bound == 216

    with pytest.raises(PreconditionError):
        certify_product_nested(K5, K23, K23)


def test_conjecture_margin_examples():
    r = conjecture_margin(K23, K23, K23)
    assert r.slack == 0 and r.tight
    assert r.witness is not None and not r.witness["counterexample"]

    r = conjecture_margin(K5, K5, E5)
    assert r.value == 0 and r.slack == r.bound == 216

    with pytest.raises(RainbowFoundError):
        conjecture_margin(
            Graph.from_edges(3, [(0, 1)]),
            Graph.from_edges(3, [(1, 2)]),
            Graph.from_edges(3, [(0, 2)]),
        )


def test_triangle_incidence_certifier():
    r = certify_triangle_incidence(GraphSystem.of(K5, K5, E5))
    assert r.value == 6 and r.bound == 6 and r.tight

    r = certify_triangle_incidence(GraphSystem.of(E5, E5, E5))
    assert r.value == 0


def test_partition_bounds_star_example():
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    params = partition_bound_params(star)
    assert (params.ell, params.p, params.q) == (1, 2, 3)
    assert params.alpha == Fraction(1) and params.beta == Fraction(3, 2)

    r = certify_partition_bounds(star, star, star)
    assert r.witness is not None
    assert r.witness["b_value"] == 3 and r.witness["b_bound"] == 3
    assert r.witness["cd_value"] == 6 and r.witness["cd_bound"] == 12
    # headline is the b side: its slack 0 is the smaller one
    assert r.value == 3 and r.bound == 3 and r.tight


def test_partition_bounds_preconditions():
    c4 = Graph.cycle(4)
    with pytest.raises(PreconditionError, match="n > 2l"):
        certify_partition_bounds(c4, c4, c4)  # nu=2, n=4: nearly matchable case
    with pytest.raises(PreconditionError, match="contained"):
        certify_partition_bounds(K5, K23, K23)
    tri = Graph.complete(3)
    with pytest.raises(PreconditionError):
        certify_partition_bounds(tri, tri, tri)


def test_cross_degree_examples():
    b = Graph.from_edges(3, [(0, 1)])
    k3 = Graph.complete(3)
    m = maximum_matching(b)
    with pytest.raises(RainbowFoundError):
        check_unmatched_cross_degree(b, k3, k3, m, 2)

    c = Graph.from_edges(3, [(0, 2)])
    d = Graph.empty(3)
    assert check_unmatched_cross_degree(b, c, d, m, 2)

    with pytest.raises(PreconditionError):
        check_unmatched_cross_degree(b, c, d, m, 0)  # matched vertex
    with pytest.raises(PreconditionError):
        check_unmatched_cross_degree(c, b, d, maximum_matching(b), 2)  # edges not in first


def test_lpq_examples():
    assert lpq_inequality_holds(1, 0, 0)
    assert lpq_inequality_holds(1, 1, 1)
    assert lpq_inequality_holds(2, 2, 4)
    with pytest.raises(PreconditionError):
        lpq_inequality_holds(1, 2, 1)


def test_lpq_sides_exact_values():
    assert lpq_inequality_sides(1, 0, 0) == (4, 4)
    assert lpq_inequality_sides(1, 1, 1) == (32, 32)  # tight at odd q
    assert lpq_inequality_sides(2, 2, 4) == (4 * 2592, 4 * 4096)


def test_lpq_matches_fraction_oracle():
    rng = random.Random(40)
    for _ in range(500):
        ell = rng.randint(1, 30)
        q = rng.randint(0, 60)
        p = rng.randint(0, q)
        lhs = (ell * ell + ell * p) * (
            Fraction(ell * ell) + ell * q + Fraction(q * q, 2) - Fraction(p * p, 2)
        ) ** 2
        rhs = ((2 * ell + q) ** 2 // 4) ** 3
        got_lhs, got_rhs = lpq_inequality_sides(ell, p, q)
        assert Fraction(got_lhs, 4) == lhs
        assert got_rhs == 4 * rhs
        assert lpq_inequality_holds(ell, p, q) == (lhs <= rhs)


def test_alpha_beta_examples():
    assert alpha_beta_inequality_holds(Fraction(0), Fraction(1))
    assert alpha_beta_inequality_holds(Fraction(1), Fraction(1))
    assert alpha_beta_inequality_holds(Fraction(1, 2), Fraction(1))
    # spot values behind those checks
    a, b = Fraction(1, 2), Fraction(1)
    assert (1 + a) * (1 + 2 * b + 2 * b * b - 2 * a * a) == Fraction(27, 4)
    with pytest.raises(PreconditionError):
        alpha_beta_inequality_holds(Fraction(2), Fraction(1))
    with pytest.raises(PreconditionError):
        alpha_beta_inequality_holds(Fraction(-1), Fraction(1))


def test_scan_lpq_small():
    assert list(scan_lpq_inequality(5, 10)) == []
    with pytest.raises(PreconditionError):
        list(scan_lpq_inequality(0, 10))


def test_scan_alpha_beta_agrees_with_pointwise():
    step = Fraction(1, 7)
    top = Fraction(3)
    assert list(scan_alpha_beta_inequality(step, top)) == []
    grid = [k * step for k in range(int(top / step) + 1)]
    for b in grid:
        for a in grid:
            if a <= b:
                assert alpha_beta_inequality_holds(a, b)


def test_scan_alpha_beta_degenerate():
    assert list(scan_alpha_beta_inequality(Fraction(1, 100), Fraction(0))) == []
    tight = alpha_beta_inequality_holds(Fraction(0), Fraction(0))
    assert tight  # 1 <= 1 at the origin


def test_report_json_schema():
    r = certify_sum_t3(GraphSystem.of(K5, K5, E5))
    doc = r.to_json_dict()
    assert doc["claim"] == "sum-t3"
    assert doc["value"] == "20" and doc["bound"] == "20" and doc["slack"] == "0"
    assert doc["tight"] is True


def random_free_triple(rng: random.Random, n: int) -> GraphSystem | None:
    from rbt_lab import is_rbt_free

    m = max_edge_count(n)
    p = rng.uniform(0.05, 0.5)
    graphs = tuple(
        Graph.from_bits(n, sum(1 << i for i in range(m) if rng.random() < p))
        for _ in range(3)
    )
    s = GraphSystem(n=n, graphs=graphs)
    return s if is_rbt_free(s) else None


def test_value_sides_monotone_under_edge_addition():
    rng = random.Random(3000)
    for _ in range(300):
        n = rng.randint(3, 8)
        s = random_free_triple(rng, n)
        if s is None:
            continue
        b, c, d = s.graphs
        i = rng.randrange(3)
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or s.graphs[i].has_edge(u, v):
            continue
        grown = list(s.graphs)
        grown[i] = grown[i].with_edge(u, v)
        gb, gc, gd = grown
        assert gb.edge_count() + gc.edge_count() + gd.edge_count() >= s.total_edges()
        assert 2 * gb.edge_count() + gc.edge_count() + gd.edge_count() >= (
            2 * b.edge_count() + c.edge_count() + d.edge_count()
        )
        assert gc.edge_count() + gd.edge_count() >= c.edge_count() + d.edge_count()
        assert (
            gb.edge_count() * gc.edge_count() * gd.edge_count()
            >= b.edge_count() * c.edge_count() * d.edge_count()
        )


def test_certifiers_never_negative_on_random_free_triples():
    rng = random.Random(1234)
    checked = 0
    while checked < 500:
        n = rng.randint(3, 8)
        s = random_free_triple(rng, n)
        if s is None:
            continue
        checked += 1
        assert certify_sum_t3(s).slack >= 0
        assert conjecture_margin(*s.graphs).slack >= 0
        assert certify_triangle_incidence(s).slack >= 0
