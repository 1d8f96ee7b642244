"""Machine checks for the quantitative bounds on rainbow-triangle-free systems.

Every decision here is made in exact integer or rational arithmetic; no
float ever feeds a pass/fail verdict.  Certifiers raise PreconditionError
(or RainbowFoundError with a witness) on invalid input and otherwise return
a CertReport, whose slack is negative where the bound fails.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb, gcd, isqrt, lcm, prod
from typing import TYPE_CHECKING, Callable, Iterator

from .graph import Graph, max_edge_count
from .matching import MatchingResult, _nearly_matchable, matching_number
from .partition import mantel_partition
from .reports import CertReport, PreconditionError, RainbowFoundError
from .systems import GraphSystem, find_rainbow_triangle

if TYPE_CHECKING:
    from fractions import Fraction


def floor_quarter_sq(n: int) -> int:
    """Balanced bipartite edge count, floor(n^2 / 4)."""
    return n * n // 4


def theory_bound(objective: str, n: int, t: int) -> int | None:
    """Upper bound on the objective over rainbow-free t-tuples on n vertices.

    sum: n(n-1) for triples on n >= 3 vertices, t*floor(n^2/4) for t >= 4,
    and None where no theorem applies (t <= 2, or triples on n < 3, where
    three copies of one edge already exceed n(n-1)).  product: floor(n^2/4)^3,
    a theorem when the first graph lies in the other two and false without
    that at every n >= 15 (see conjecture_margin); the objective is defined
    for triples only.
    """
    if objective == "sum":
        if t == 3:
            return n * (n - 1) if n >= 3 else None
        return t * floor_quarter_sq(n) if t >= 4 else None
    if objective == "product":
        if t != 3:
            raise ValueError(f"the product objective is defined for t = 3, got t={t}")
        return floor_quarter_sq(n) ** 3
    raise ValueError(f"unknown objective {objective!r}")


def _require_rbt_free(s: GraphSystem, context: str) -> None:
    witness = find_rainbow_triangle(s)
    if witness is not None:
        raise RainbowFoundError(
            f"{context}: system contains a rainbow triangle on {tuple(witness.triangle)}",
            witness=witness,
        )


def _triple(b: Graph, c: Graph, d: Graph, context: str) -> GraphSystem:
    s = GraphSystem.of(b, c, d)
    _require_rbt_free(s, context)
    return s


# -- sum bounds ----------------------------------------------------------------


def matches_two_complete_one_empty(s: GraphSystem) -> bool:
    """Equality pattern for triples: two complete graphs plus one empty graph."""
    full = max_edge_count(s.n)
    return sorted(s.edge_counts()) == [0, full, full]


def matches_balanced_bipartite_copies(s: GraphSystem) -> bool:
    """Equality pattern for t >= 4: identical copies of the balanced complete bipartite graph.

    By the equality case of Mantel's theorem, a triangle-free graph with
    floor(n^2/4) edges is K_{floor(n/2), ceil(n/2)}, so no relabeling is needed.
    """
    first = s.graphs[0]
    if any(g != first for g in s.graphs[1:]):
        return False
    return first.edge_count() == floor_quarter_sq(s.n) and first.is_triangle_free()


def certify_sum_t3(s: GraphSystem) -> CertReport:
    """Total edge bound n(n-1) for rainbow-free triples, with equality pattern report.

    The bound genuinely needs n >= 3: at n = 2 three copies of the single
    edge already sum to 3 > n(n-1).
    """
    if s.t != 3:
        raise PreconditionError(f"sum-t3 needs exactly 3 graphs, got {s.t}")
    if s.n < 3:
        raise PreconditionError(f"sum-t3 needs n >= 3, got n={s.n}")
    _require_rbt_free(s, "sum-t3")
    value = s.total_edges()
    bound = theory_bound("sum", s.n, 3)
    witness: dict = {"edge_counts": list(s.edge_counts())}
    if value == bound and s.n >= 5:
        witness["equality_pattern"] = matches_two_complete_one_empty(s)
    return CertReport("sum-t3", value, bound, witness)


def certify_sum_t(s: GraphSystem) -> CertReport:
    """Total edge bound t * floor(n^2/4) for rainbow-free systems with t >= 4."""
    if s.t < 4:
        raise PreconditionError(f"sum-t needs at least 4 graphs, got {s.t}")
    _require_rbt_free(s, "sum-t")
    value = s.total_edges()
    bound = theory_bound("sum", s.n, s.t)
    return CertReport("sum-t", value, bound, {"edge_counts": list(s.edge_counts())})


# -- triple bounds through the first graph's structure --------------------------


def certify_weighted_sum(b: Graph, c: Graph, d: Graph) -> CertReport:
    """2|B| + |C| + |D| <= 4*floor(n^2/4) when B is triangle-free."""
    if not b.is_triangle_free():
        raise PreconditionError("weighted: first graph contains a triangle")
    counts = _triple(b, c, d, "weighted").edge_counts()
    value = 2 * counts[0] + counts[1] + counts[2]
    bound = 4 * floor_quarter_sq(b.n)
    return CertReport("weighted", value, bound, {"edge_counts": list(counts)})


def certify_nearly_matchable(b: Graph, c: Graph, d: Graph) -> CertReport:
    """|C| + |D| <= 2*floor(n^2/4) when B has a matching of size >= (n-2)/2."""
    ell = matching_number(b)
    if not _nearly_matchable(ell, b.n):
        raise PreconditionError(f"nearly-matchable: matching number {ell} too small for n={b.n}")
    _triple(b, c, d, "nearly-matchable")
    value = c.edge_count() + d.edge_count()
    bound = 2 * floor_quarter_sq(b.n)
    return CertReport("nearly-matchable", value, bound, {"matching_size": ell})


def certify_product_nested(b: Graph, c: Graph, d: Graph) -> CertReport:
    """|B||C||D| <= floor(n^2/4)^3 under the containment B <= C intersect D."""
    if not b.is_subgraph_of(c & d):
        raise PreconditionError("product-nested: first graph is not contained in the other two")
    counts = _triple(b, c, d, "product-nested").edge_counts()
    bound = theory_bound("product", b.n, 3)
    return CertReport("product-nested", prod(counts), bound, {"edge_counts": list(counts)})


def conjecture_margin(b: Graph, c: Graph, d: Graph) -> CertReport:
    """Product versus floor(n^2/4)^3 with no containment assumed.

    Without the containment the bound fails from n = 15 on: with S the first
    3 of 15 vertices and T the rest, G1 = every edge meeting S,
    G2 = K_S + K_T and G3 = K_T are rainbow-free, and their edge counts
    39, 69 and 66 multiply to 177,606 > 56^3 = 175,616.  An excess is
    reported, not raised: the report comes back with negative slack and a
    full witness.
    """
    s = _triple(b, c, d, "conjecture")
    counts = s.edge_counts()
    value = prod(counts)
    bound = theory_bound("product", b.n, 3)
    witness = {
        "edge_counts": list(counts),
        "system_hex": [g.to_hex() for g in s.graphs],
        "counterexample": value > bound,
    }
    return CertReport("conjecture", value, bound, witness)


# -- matching-partition parameter bounds ----------------------------------------


def _ell_p_q(b: Graph) -> tuple[int, int, int]:
    part = mantel_partition(b)
    q = part.z_side.bit_count()
    p = max((b.degree_into(x, part.z_side) for x in part.x_side), default=0)
    return part.size, p, q


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for num >= 0 and den > 0, without forming the Fraction."""
    g = gcd(num, den)
    return f"{num // g}" if g == den else f"{num // g}/{den // g}"


def certify_partition_bounds(b: Graph, c: Graph, d: Graph) -> CertReport:
    """Both partition-parameter bounds for a contained triple with small matching.

    Checks |B| <= l^2 + lp and |C| + |D| <= 2(l^2 + lq + C(q,2) - C(p,2)).
    The headline value/bound pair is the side with the smaller slack; the
    witness carries both sides and the derived parameters.
    """
    if not b.is_subgraph_of(c & d):
        raise PreconditionError("prop31: first graph is not contained in the other two")
    if not b.is_triangle_free():
        raise PreconditionError("prop31: first graph contains a triangle")
    b_value, c_value, d_value = _triple(b, c, d, "prop31").edge_counts()
    ell, p, q = _ell_p_q(b)
    if _nearly_matchable(ell, b.n):
        raise PreconditionError(
            f"prop31: needs n > 2l + 2 (n={b.n}, l={ell}); "
            "the nearly-matchable bound applies instead"
        )
    b_bound = ell * ell + ell * p
    cd_value = c_value + d_value
    cd_bound = 2 * (ell * ell + ell * q + comb(q, 2) - comb(p, 2))
    witness = {
        "matching_size": ell,
        "p": p,
        "q": q,
        "alpha": _ratio_text(p, 2 * ell) if ell else None,
        "beta": _ratio_text(q, 2 * ell) if ell else None,
        "b_value": b_value,
        "b_bound": b_bound,
        "cd_value": cd_value,
        "cd_bound": cd_bound,
    }
    if b_bound - b_value <= cd_bound - cd_value:
        return CertReport("prop31", b_value, b_bound, witness)
    return CertReport("prop31", cd_value, cd_bound, witness)


def check_unmatched_cross_degree(
    b: Graph, c: Graph, d: Graph, matching: MatchingResult, x: int
) -> bool:
    """Degree bound d_C(x, W) + d_D(x, W) <= 2l for x outside the matched set W."""
    if not 0 <= x < b.n:
        raise PreconditionError(f"vertex {x} out of range")
    if not matching.is_valid_for(b):
        raise PreconditionError("the matching is not a matching of the first graph")
    if matching.matched_set >> x & 1:
        raise PreconditionError(f"vertex {x} is covered by the matching")
    _triple(b, c, d, "cross-degree")
    w = matching.matched_set
    return c.degree_into(x, w) + d.degree_into(x, w) <= 2 * matching.size


# -- standalone inequalities -----------------------------------------------------


def _lpq_row(ell: int, q: int) -> tuple[Callable[[int], int], int, int]:
    """Row (l, q) of lpq_inequality_sides: the left side as a function of p, the right side,
    and the floor of the left side's real maximizer over p >= 0 (see scan_lpq_inequality).
    """
    d = 2 * ell * ell + 2 * ell * q + q * q
    rhs = 4 * floor_quarter_sq(2 * ell + q) ** 3
    peak = (isqrt(4 * ell * ell + 5 * d) - 2 * ell) // 5
    return (lambda p: (ell * ell + ell * p) * (d - p * p) ** 2), rhs, peak


def lpq_inequality_sides(ell: int, p: int, q: int) -> tuple[int, int]:
    """Both sides of (l^2+lp) * (l^2+lq+q^2/2-p^2/2)^2 <= floor((2l+q)^2/4)^3.

    Returned scaled by 4, which clears the halves, so the comparison is pure
    integer arithmetic.
    """
    if ell < 0 or p < 0 or q < 0:
        raise PreconditionError("l, p, q must be nonnegative")
    if p > q:
        raise PreconditionError(f"need p <= q, got p={p}, q={q}")
    lhs, rhs, _ = _lpq_row(ell, q)
    return lhs(p), rhs


def lpq_inequality_holds(ell: int, p: int, q: int) -> bool:
    """Exact floor-form check; see lpq_inequality_sides for the arithmetic."""
    lhs, rhs = lpq_inequality_sides(ell, p, q)
    return lhs <= rhs


def _alpha_beta_row(v: int, b: int) -> tuple[Callable[[int], int], int, int]:
    """Both sides of (v+a)(v^2+2bv+2b^2-2a^2) <= (v+b)^3, the left as a function of a,
    and the floor of the left side's real maximizer over a >= 0 (see scan_alpha_beta_inequality).
    """
    b_terms = v * v + 2 * b * v + 2 * b * b
    peak = (isqrt(4 * v * v + 6 * b_terms) - 2 * v) // 6
    return (lambda a: (v + a) * (b_terms - 2 * a * a)), (v + b) ** 3, peak


def alpha_beta_inequality_holds(alpha: Fraction, beta: Fraction) -> bool:
    """Exact rational check of (1+a)(1+2b+2b^2-2a^2) <= (1+b)^3 for 0 <= a <= b."""
    from fractions import Fraction

    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha < 0:
        raise PreconditionError(f"alpha must be nonnegative, got {alpha}")
    if alpha > beta:
        raise PreconditionError(f"need alpha <= beta, got {alpha} > {beta}")
    v = lcm(alpha.denominator, beta.denominator)
    lhs, rhs, _ = _alpha_beta_row(v, beta.numerator * (v // beta.denominator))
    return lhs(alpha.numerator * (v // alpha.denominator)) <= rhs


def _run_above(f: Callable[[int], int], hi: int, bar: int) -> range:
    """The k in 0..hi with f(k) > bar, for a row f that rises to one peak.

    A strictly concave f has strictly falling steps f(k+1) - f(k), a positive
    strictly log-concave f strictly falling ratios f(k+1) / f(k): either way
    f(k) < f(k+1) holds below some peak and nowhere from it on, so the k above
    any bar form one run around the peak, found in O(log hi) exact calls of f.
    """
    peak = bisect_left(range(hi), True, key=lambda k: f(k) >= f(k + 1))
    if f(peak) <= bar:
        return range(0)
    first = bisect_left(range(peak), True, key=lambda k: f(k) > bar)
    end = bisect_left(range(peak, hi + 1), True, key=lambda k: f(k) <= bar)
    return range(first, peak + end)


def _row_max(f: Callable[[int], int], peak: int, hi: int) -> int:
    """Max of f over 0..hi, for a row f that rises up to a real maximizer x* and falls after it.

    `peak` is floor(x*) with x* >= 0, so on the integers f rises up to peak
    and falls from peak + 1 on: the max is f(peak) or f(peak + 1), or f(hi)
    when the whole range lies below x*.
    """
    if peak >= hi:
        return f(hi)
    return max(f(peak), f(peak + 1))


def scan_lpq_inequality(
    ell_max: int = 30, q_max: int = 60
) -> Iterator[tuple[int, int, int]]:
    """Yield every violating (l, p, q) with 1 <= l <= ell_max, 0 <= p <= q <= q_max.

    Both parities of q are covered.  An empty iterator means the inequality
    held everywhere on the grid.  Violators come in (l, q, p) order.  Each
    row (l, q) is decided at its closed-form peak: with D = 2l^2 + 2lq + q^2
    the scaled left side f(p) = (l^2 + lp)(D - p^2)^2 of `_lpq_row`, which
    `lpq_inequality_sides` evaluates too, is positive and strictly
    log-concave on 0 <= p <= q, since D > q^2 >= p^2.  Its log has
    derivative 1/(l + p) - 4p/(D - p^2), which falls through zero once, where
    5p^2 + 4lp = D, at x* = (sqrt(4l^2 + 5D) - 2l)/5.  So f rises up to x*
    and falls after it, the row's integer max is f(floor(x*)) or
    f(floor(x*) + 1), or f(q) when q <= floor(x*), and floor(x*) is
    (isqrt(4l^2 + 5D) - 2l) // 5.  Only a row whose max exceeds the right
    side is searched for its violators (see `_run_above`).
    """
    if ell_max < 1 or q_max < 0:
        raise PreconditionError("empty scan range")
    for ell in range(1, ell_max + 1):
        for q in range(q_max + 1):
            lhs, rhs, peak = _lpq_row(ell, q)
            if _row_max(lhs, peak, q) > rhs:
                yield from ((ell, p, q) for p in _run_above(lhs, q, rhs))


def scan_alpha_beta_inequality(
    step: Fraction | str = "1/100", max_value: Fraction | str = "10"
) -> Iterator[tuple[Fraction, Fraction]]:
    """Yield every violating (alpha, beta) on the grid {0, step, ..., max_value}^2, alpha <= beta.

    Runs the denominator-cleared form of the same comparison: with step u/v
    and grid numerators a, b the inequality is equivalent to
    (v+a)(v^2+2bv+2b^2-2a^2) <= (v+b)^3.  Point queries through
    alpha_beta_inequality_holds agree by construction: both evaluate the
    row `_alpha_beta_row`.  Violators come in (beta, alpha) order.
    Each row b is decided at its closed-form peak: with B = v^2 + 2bv + 2b^2
    the left side f(a) = (v+a)(B - 2a^2) has f'(a) = B - 6a^2 - 4va and
    f'' = -12a - 4v < 0, so it is strictly concave and rises up to the root
    of 6a^2 + 4va = B, a* = (sqrt(4v^2 + 6B) - 2v)/6, and falls after it.
    On the grid index k = a/u the peak is k* = a*/u, whose floor is
    floor(a*) // u, and the row's integer max is at floor(k*) or
    floor(k*) + 1, or at kb when kb <= floor(k*).  Only a row whose max
    exceeds the right side is searched for its violators (see `_run_above`).
    """
    from fractions import Fraction

    step = Fraction(step)
    max_value = Fraction(max_value)
    if step <= 0 or max_value < 0:
        raise PreconditionError("empty scan range")
    count = max_value / step
    if count.denominator != 1:
        raise PreconditionError("max_value must be a multiple of step")
    u, v = step.numerator, step.denominator
    for kb in range(int(count) + 1):
        lhs, rhs, peak = _alpha_beta_row(v, kb * u)

        def row(ka: int) -> int:
            return lhs(ka * u)

        if _row_max(row, peak // u, kb) > rhs:
            ka_run = _run_above(row, kb, rhs)
            yield from ((Fraction(ka * u, v), Fraction(kb * u, v)) for ka in ka_run)
