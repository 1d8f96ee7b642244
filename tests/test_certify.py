import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import pytest

from rbt_lab import (
    Graph,
    GraphSystem,
    MatchingResult,
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
    edge,
    lpq_inequality_holds,
    lpq_inequality_sides,
    matches_balanced_bipartite_copies,
    matches_two_complete_one_empty,
    max_edge_count,
    maximum_matching,
    partition_bound_params,
    scan_alpha_beta_inequality,
    scan_lpq_inequality,
    triangle_incidence,
)
from rbt_lab import certify
from rbt_lab.certify import _alpha_beta_row, _lpq_row, _ratio_text, _row_max, _run_above
from rbt_lab.reports import CertReport, PreconditionError, RainbowFoundError

K5 = Graph.complete(5)
E5 = Graph.empty(5)
K23 = Graph.complete_bipartite(2, 3)
K22 = Graph.complete_bipartite(2, 2)


def test_cert_report_derives_slack_and_tight():
    assert CertReport("x", 5, 7).to_json_dict() == {
        "claim": "x", "value": "5", "bound": "7", "slack": "2", "tight": False, "witness": None,
    }
    tight = CertReport("x", 7, 7, {"k": 1})
    assert (tight.slack, tight.tight, tight.passed) == (0, True, True)
    assert tight.to_json_dict() == {
        "claim": "x", "value": "7", "bound": "7", "slack": "0", "tight": True, "witness": {"k": 1},
    }
    violated = CertReport("x", 9, 7)
    assert (violated.slack, violated.tight, violated.passed) == (-2, False, False)
    assert violated.to_json_dict()["slack"] == "-2"


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
    perm = [2, 4, 0, 1, 3]
    relabeled = Graph.from_edges(5, [(perm[e.u], perm[e.v]) for e in K23.edges()])
    assert matches_balanced_bipartite_copies(GraphSystem(n=5, graphs=(relabeled,) * 4))
    assert not matches_balanced_bipartite_copies(GraphSystem(n=5, graphs=(K5,) * 4))


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_balanced_bipartite_pattern_beyond_canonical_range(n):
    a = n // 2
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    k = Graph.complete_bipartite(a, n - a)
    relabeled = Graph.from_edges(n, [(perm[e.u], perm[e.v]) for e in k.edges()])
    assert matches_balanced_bipartite_copies(GraphSystem(n=n, graphs=(relabeled,) * 4))
    # trade a cross edge for one inside part {0..a-1}: the edge count stays
    # floor(n^2/4), and vertices 0, 1 and a + 1 now span a triangle
    cross, inside = edge(perm[2], perm[a]), edge(perm[0], perm[1])
    traded = Graph.from_bits(n, relabeled.to_bits() & ~(1 << cross.index) | 1 << inside.index)
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


def test_ratio_text_is_the_fractions_spelling():
    for den in range(1, 61):
        for num in range(0, 121):
            assert _ratio_text(num, den) == str(Fraction(num, den)), (num, den)


def test_prop31_witness_ratios_are_the_params_fractions():
    # B bipartite, so triangle-free, and C = D = B keep the triple rainbow-free
    rng = random.Random(3131)
    seen = set()
    for _ in range(400):
        n = rng.randint(3, 16)
        left = rng.randint(1, n - 1)
        p = rng.choice([0.0, 0.05, 0.15, 0.3])
        pairs = [(u, v) for u in range(left) for v in range(left, n) if rng.random() < p]
        b = Graph.from_edges(n, pairs)
        try:
            report = certify_partition_bounds(b, b, b)
        except PreconditionError:
            continue
        params = partition_bound_params(b)
        for name in ("alpha", "beta"):
            value = getattr(params, name)
            assert report.witness[name] == (None if value is None else str(value))
            seen.add(None if value is None else value.denominator)
    # the empty B, whole numbers and halves all met
    assert {None, 1, 2}.issubset(seen) and len(seen) > 4, seen


def test_partition_bounds_preconditions():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
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


def test_cross_degree_refuses_a_forged_matching():
    # a MatchingResult whose size or matched set disagrees with its edges is
    # not a matching of B, so no verdict is given for it
    b = Graph.from_edges(4, [(0, 1)])
    c = Graph.from_edges(4, [(0, 3)])
    d = Graph.empty(4)
    honest = maximum_matching(b)
    assert check_unmatched_cross_degree(b, c, d, honest, 3)
    for forged in (
        MatchingResult(honest.edges, 0, honest.matched_set),
        MatchingResult(honest.edges, honest.size, honest.matched_set | 1 << 2),
    ):
        with pytest.raises(PreconditionError, match="not a matching of the first graph"):
            check_unmatched_cross_degree(b, c, d, forged, 3)


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


def fraction_sides_32(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    return (1 + alpha) * (1 + 2 * beta + 2 * beta * beta - 2 * alpha * alpha), (1 + beta) ** 3


def test_alpha_beta_row_matches_fraction_form():
    # the inequality holds on its whole domain, so only the sides can show a wrong row
    rng = random.Random(32)
    checked = 0
    while checked < 500:
        x = Fraction(rng.randint(0, 300), rng.randint(1, 40))
        y = Fraction(rng.randint(0, 300), rng.randint(1, 40))
        alpha, beta = min(x, y), max(x, y)
        if alpha.denominator == beta.denominator:
            continue
        checked += 1
        lhs, rhs = fraction_sides_32(alpha, beta)
        # any common multiple of the denominators works, as the scan's steps need
        v = lcm(alpha.denominator, beta.denominator) * rng.randint(1, 3)
        row_lhs, row_rhs, _ = _alpha_beta_row(v, int(beta * v))
        assert Fraction(row_lhs(int(alpha * v)), v**3) == lhs
        assert Fraction(row_rhs, v**3) == rhs
        assert alpha_beta_inequality_holds(alpha, beta) == (lhs <= rhs)


@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 3), (2, 2), (0.5, 1.0), (0.1, 0.3),
                                         (1, 2.5), (0.75, 4), (1e-9, 1e9)])
def test_alpha_beta_point_query_takes_ints_and_floats(alpha, beta):
    lhs, rhs = fraction_sides_32(Fraction(alpha), Fraction(beta))
    assert alpha_beta_inequality_holds(alpha, beta) == (lhs <= rhs)
    with pytest.raises(PreconditionError):
        alpha_beta_inequality_holds(beta + 1, beta)


def reference_triangle_incidence(s: GraphSystem) -> tuple[int, list[int]]:
    """The first 3-set of greatest incidence, one triangle_incidence call per 3-set."""
    worst, worst_z = 0, []
    for z in combinations(range(s.n), 3):
        count = triangle_incidence(s, z)
        if count > worst:
            worst, worst_z = count, list(z)
    return worst, worst_z


def test_triangle_incidence_matches_per_3set_reference():
    rng = random.Random(3303)
    checked = 0
    while checked < 300:
        s = random_free_triple(rng, rng.randint(3, 9))
        if s is None:
            continue
        checked += 1
        r = certify_triangle_incidence(s)
        assert (r.value, r.witness["worst_3set"]) == reference_triangle_incidence(s)
    e2 = Graph.empty(2)
    assert certify_triangle_incidence(GraphSystem.of(e2, e2, e2)).witness == {"worst_3set": []}


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


def reference_scan_lpq(ell_max: int, q_max: int) -> list[tuple[int, int, int]]:
    """Every grid point through the point query, in (l, q, p) order."""
    return [
        (ell, p, q)
        for ell in range(1, ell_max + 1)
        for q in range(q_max + 1)
        for p in range(q + 1)
        if not lpq_inequality_holds(ell, p, q)
    ]


def reference_scan_alpha_beta(step: Fraction, max_value: Fraction) -> list:
    """Every grid point of the denominator-cleared comparison, in (beta, alpha) order."""
    u, v = step.numerator, step.denominator
    out = []
    for kb in range(int(max_value / step) + 1):
        b = kb * u
        rhs = (v + b) ** 3
        b_terms = v * v + 2 * b * v + 2 * b * b
        for ka in range(kb + 1):
            a = ka * u
            if (v + a) * (b_terms - 2 * a * a) > rhs:
                out.append((Fraction(a, v), Fraction(b, v)))
    return out


@pytest.mark.parametrize("ell_max, q_max", [(1, 0), (5, 10), (12, 40), (30, 60), (40, 7)])
def test_scan_lpq_matches_reference(ell_max, q_max):
    assert list(scan_lpq_inequality(ell_max, q_max)) == reference_scan_lpq(ell_max, q_max)


ALPHA_BETA_GRIDS = [("1/100", "10"), ("1/10", "2"), ("3/7", "30"), ("2", "40"), ("1/3", "0"),
                    ("1/1000", "1")]


@pytest.mark.parametrize("step, top", ALPHA_BETA_GRIDS)
def test_scan_alpha_beta_matches_reference(step, top):
    step, top = Fraction(step), Fraction(top)
    assert list(scan_alpha_beta_inequality(step, top)) == reference_scan_alpha_beta(step, top)


def test_lpq_row_max_is_the_brute_force_max():
    for ell in range(1, 61):
        for q in range(121):
            lhs, _, peak = _lpq_row(ell, q)
            assert _row_max(lhs, peak, q) == max(lhs(p) for p in range(q + 1)), (ell, q)


@pytest.mark.parametrize("step, top", ALPHA_BETA_GRIDS)
def test_alpha_beta_row_max_is_the_brute_force_max(step, top):
    step = Fraction(step)
    u, v = step.numerator, step.denominator
    for kb in range(int(Fraction(top) / step) + 1):
        lhs, _, peak = _alpha_beta_row(v, kb * u)
        row = [lhs(ka * u) for ka in range(kb + 1)]
        assert _row_max(lambda ka: row[ka], peak // u, kb) == max(row), kb


def lowered_lpq_row(ell: int, q: int):
    """Row (l, q) with its right side moved to a value the row takes, less 0 or 1."""
    lhs, _, peak = _lpq_row(ell, q)
    return lhs, lhs((7 * ell + 3 * q) % (q + 1)) - (ell + q) % 2, peak


def lowered_alpha_beta_row(u: int):
    def row(v: int, b: int):
        lhs, _, peak = _alpha_beta_row(v, b)
        kb = b // u
        return lhs, lhs((5 * kb + 1) % (kb + 1) * u) - kb % 2, peak

    return row


def test_scans_list_the_violators_of_lowered_rows(monkeypatch):
    # the real grids have no violators; rows whose right side cuts through
    # the left side run the scans' violator branch
    monkeypatch.setattr(certify, "_lpq_row", lowered_lpq_row)
    for ell_max, q_max in [(1, 0), (5, 10), (12, 40), (30, 60)]:
        expected = []
        for ell in range(1, ell_max + 1):
            for q in range(q_max + 1):
                lhs, rhs, _ = lowered_lpq_row(ell, q)
                expected += [(ell, p, q) for p in range(q + 1) if lhs(p) > rhs]
        assert expected
        assert list(scan_lpq_inequality(ell_max, q_max)) == expected
    for step, top in [("1/10", "2"), ("3/7", "30"), ("2", "40"), ("1/100", "3")]:
        step, top = Fraction(step), Fraction(top)
        u, v = step.numerator, step.denominator
        row = lowered_alpha_beta_row(u)
        monkeypatch.setattr(certify, "_alpha_beta_row", row)
        expected = []
        for kb in range(int(top / step) + 1):
            lhs, rhs, _ = row(v, kb * u)
            expected += [(Fraction(ka * u, v), Fraction(kb * u, v))
                         for ka in range(kb + 1) if lhs(ka * u) > rhs]
        assert expected
        assert list(scan_alpha_beta_inequality(step, top)) == expected


def test_run_above_matches_brute_force():
    # the real grids have no violators, so the run search is exercised on
    # strictly concave and strictly log-concave integer rows with bars that
    # cut through them
    rng = random.Random(3132)
    for _ in range(3000):
        hi = rng.randint(0, 40)
        if rng.random() < 0.5:
            c0, c1, c2 = rng.randint(-50, 50), rng.randint(-200, 200), rng.randint(1, 9)

            def f(k, c0=c0, c1=c1, c2=c2):
                return c0 + c1 * k - c2 * k * k
        else:
            x, y, e = rng.randint(1, 30), rng.randint(0, 9), rng.randint(1, 3)

            def f(k, x=x, y=y, e=e, hi=hi):
                return comb(hi, k) * (x + y * k) ** e
        values = [f(k) for k in range(hi + 1)]
        for bar in (rng.choice(values) - rng.randint(0, 1), max(values), min(values) - 1):
            assert list(_run_above(f, hi, bar)) == [k for k, y in enumerate(values) if y > bar]


def test_run_above_plateau_peak():
    # -(2k - 5)^2 peaks at k = 2 and k = 3 alike
    def f(k):
        return -((2 * k - 5) ** 2)

    assert list(_run_above(f, 6, -2)) == [2, 3]
    assert list(_run_above(f, 6, -1)) == []
    assert list(_run_above(f, 6, -10)) == [1, 2, 3, 4]


def test_scan_alpha_beta_degenerate():
    assert list(scan_alpha_beta_inequality(Fraction(1, 100), Fraction(0))) == []
    tight = alpha_beta_inequality_holds(Fraction(0), Fraction(0))
    assert tight  # 1 <= 1 at the origin


def test_scan_alpha_beta_defaults_are_the_rationals_they_spell():
    # the defaults are strings, so that defining the function forms no Fraction
    assert certify.scan_alpha_beta_inequality.__defaults__ == ("1/100", "10")
    assert list(scan_alpha_beta_inequality()) == []
    with pytest.raises(PreconditionError, match="multiple of step"):
        list(scan_alpha_beta_inequality("1/7", "1/2"))


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
        grown[i] = Graph.from_bits(n, grown[i].to_bits() | 1 << edge(u, v).index)
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
