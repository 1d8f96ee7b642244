"""Machine checks for the quantitative bounds on rainbow-triangle-free systems.

Every decision here is made in exact integer or rational arithmetic; no
float ever feeds a pass/fail verdict.  Certifiers raise PreconditionError
(or RainbowFoundError with a witness) on invalid input and otherwise return
a CertReport; only the open product conjecture is allowed to report a
violated bound instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .graph import Graph, max_edge_count
from .matching import MatchingResult, matching_number
from .partition import mantel_partition
from .reports import CertReport, PreconditionError, RainbowFoundError, make_report
from .systems import GraphSystem, find_rainbow_triangle, triangle_incidence


def floor_quarter_sq(n: int) -> int:
    """Balanced bipartite edge count, floor(n^2 / 4)."""
    return n * n // 4


def theory_bound(objective: str, n: int, t: int) -> int | None:
    """Upper bound on the objective over rainbow-free t-tuples on n vertices.

    sum: n(n-1) for triples on n >= 3 vertices, t*floor(n^2/4) for t >= 4,
    and None where no theorem applies (t <= 2, or triples on n < 3, where
    three copies of one edge already exceed n(n-1)).  product: the open
    conjecture floor(n^2/4)^3; the objective is defined for triples only.
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
    return make_report("sum-t3", value, bound, witness)


def certify_sum_t(s: GraphSystem) -> CertReport:
    """Total edge bound t * floor(n^2/4) for rainbow-free systems with t >= 4."""
    if s.t < 4:
        raise PreconditionError(f"sum-t needs at least 4 graphs, got {s.t}")
    _require_rbt_free(s, "sum-t")
    value = s.total_edges()
    bound = theory_bound("sum", s.n, s.t)
    return make_report("sum-t", value, bound, {"edge_counts": list(s.edge_counts())})


# -- triple bounds through the first graph's structure --------------------------


def certify_weighted_sum(b: Graph, c: Graph, d: Graph) -> CertReport:
    """2|B| + |C| + |D| <= 4*floor(n^2/4) when B is triangle-free."""
    if not b.is_triangle_free():
        raise PreconditionError("weighted: first graph contains a triangle")
    _triple(b, c, d, "weighted")
    value = 2 * b.edge_count() + c.edge_count() + d.edge_count()
    bound = 4 * floor_quarter_sq(b.n)
    witness = {"edge_counts": [b.edge_count(), c.edge_count(), d.edge_count()]}
    return make_report("weighted", value, bound, witness)


def certify_nearly_matchable(b: Graph, c: Graph, d: Graph) -> CertReport:
    """|C| + |D| <= 2*floor(n^2/4) when B has a matching of size >= (n-2)/2."""
    ell = matching_number(b)
    if 2 * ell < b.n - 2:
        raise PreconditionError(
            f"nearly-matchable: matching number {ell} too small for n={b.n}"
        )
    _triple(b, c, d, "nearly-matchable")
    value = c.edge_count() + d.edge_count()
    bound = 2 * floor_quarter_sq(b.n)
    return make_report("nearly-matchable", value, bound, {"matching_size": ell})


def certify_product_nested(b: Graph, c: Graph, d: Graph) -> CertReport:
    """|B||C||D| <= floor(n^2/4)^3 under the containment B <= C intersect D."""
    if not b.is_subgraph_of(c & d):
        raise PreconditionError(
            "product-nested: first graph is not contained in the other two"
        )
    _triple(b, c, d, "product-nested")
    value = b.edge_count() * c.edge_count() * d.edge_count()
    bound = floor_quarter_sq(b.n) ** 3
    witness = {"edge_counts": [b.edge_count(), c.edge_count(), d.edge_count()]}
    return make_report("product-nested", value, bound, witness)


def conjecture_margin(b: Graph, c: Graph, d: Graph) -> CertReport:
    """Product versus floor(n^2/4)^3 with no containment assumed.

    The bound is an open conjecture, so an excess is not an error: the report
    comes back with negative slack and a full witness for later scrutiny.
    """
    s = _triple(b, c, d, "conjecture")
    value = b.edge_count() * c.edge_count() * d.edge_count()
    bound = theory_bound("product", b.n, 3)
    witness = {
        "edge_counts": [b.edge_count(), c.edge_count(), d.edge_count()],
        "system_hex": [g.to_hex() for g in s.graphs],
        "counterexample": value > bound,
    }
    return make_report("conjecture", value, bound, witness)


def certify_triangle_incidence(s: GraphSystem) -> CertReport:
    """Max over all 3-sets of the per-triangle membership count, against the bound 6."""
    if s.t != 3:
        raise PreconditionError(f"triangle-incidence needs 3 graphs, got {s.t}")
    _require_rbt_free(s, "triangle-incidence")
    worst = 0
    worst_z: list[int] = []
    n = s.n
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                count = triangle_incidence(s, (a, b, c))
                if count > worst:
                    worst = count
                    worst_z = [a, b, c]
    return make_report("triangle-incidence", worst, 6, {"worst_3set": worst_z})


# -- matching-partition parameter bounds ----------------------------------------


@dataclass(frozen=True)
class PartitionBoundParams:
    """Matching size l, peak X-to-Z degree p, |Z| = q, and the normalized ratios.

    alpha = p/2l and beta = q/2l are exact rationals, only formed when l >= 1.
    """

    ell: int
    p: int
    q: int
    alpha: Fraction | None
    beta: Fraction | None

    def __post_init__(self):
        if not 0 <= self.p <= self.q:
            raise ValueError(f"need 0 <= p <= q, got p={self.p}, q={self.q}")
        if (self.alpha is None) != (self.beta is None):
            raise ValueError("alpha and beta must be formed together")
        if self.alpha is not None and self.alpha > self.beta:
            raise ValueError(f"alpha={self.alpha} exceeds beta={self.beta}")


def partition_bound_params(b: Graph) -> PartitionBoundParams:
    """Derive (l, p, q) from the matching partition of a triangle-free graph."""
    part = mantel_partition(b)
    ell = part.size
    q = part.z_side.bit_count()
    p = max((b.degree_into(x, part.z_side) for x in part.x_side), default=0)
    if ell >= 1:
        alpha: Fraction | None = Fraction(p, 2 * ell)
        beta: Fraction | None = Fraction(q, 2 * ell)
    else:
        alpha = beta = None
    return PartitionBoundParams(ell=ell, p=p, q=q, alpha=alpha, beta=beta)


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
    _triple(b, c, d, "prop31")
    params = partition_bound_params(b)
    ell, p, q = params.ell, params.p, params.q
    if b.n <= 2 * ell + 2:
        raise PreconditionError(
            f"prop31: needs n > 2l + 2 (n={b.n}, l={ell}); "
            "the nearly-matchable bound applies instead"
        )
    b_value = b.edge_count()
    b_bound = ell * ell + ell * p
    cd_value = c.edge_count() + d.edge_count()
    cd_bound = 2 * (ell * ell + ell * q + comb(q, 2) - comb(p, 2))
    witness = {
        "matching_size": ell,
        "p": p,
        "q": q,
        "alpha": str(params.alpha) if params.alpha is not None else None,
        "beta": str(params.beta) if params.beta is not None else None,
        "b_value": b_value,
        "b_bound": b_bound,
        "cd_value": cd_value,
        "cd_bound": cd_bound,
    }
    if b_bound - b_value <= cd_bound - cd_value:
        return make_report("prop31", b_value, b_bound, witness)
    return make_report("prop31", cd_value, cd_bound, witness)


def check_unmatched_cross_degree(
    b: Graph, c: Graph, d: Graph, matching: MatchingResult, x: int
) -> bool:
    """Degree bound d_C(x, W) + d_D(x, W) <= 2l for x outside the matched set W."""
    if not 0 <= x < b.n:
        raise PreconditionError(f"vertex {x} out of range")
    for e in matching.edges:
        if not b.has_edge(e.u, e.v):
            raise PreconditionError(f"matching edge {tuple(e)} is not in the first graph")
    if matching.matched_set >> x & 1:
        raise PreconditionError(f"vertex {x} is covered by the matching")
    _triple(b, c, d, "cross-degree")
    w = matching.matched_set
    return c.degree_into(x, w) + d.degree_into(x, w) <= 2 * matching.size


# -- standalone inequalities -----------------------------------------------------


def lpq_inequality_sides(ell: int, p: int, q: int) -> tuple[int, int]:
    """Both sides of (l^2+lp) * (l^2+lq+q^2/2-p^2/2)^2 <= floor((2l+q)^2/4)^3.

    Returned scaled by 4, which clears the halves, so the comparison is pure
    integer arithmetic.
    """
    if ell < 0 or p < 0 or q < 0:
        raise PreconditionError("l, p, q must be nonnegative")
    if p > q:
        raise PreconditionError(f"need p <= q, got p={p}, q={q}")
    doubled = 2 * ell * ell + 2 * ell * q + q * q - p * p
    lhs = (ell * ell + ell * p) * doubled * doubled
    rhs = 4 * ((2 * ell + q) ** 2 // 4) ** 3
    return lhs, rhs


def lpq_inequality_holds(ell: int, p: int, q: int) -> bool:
    """Exact floor-form check; see lpq_inequality_sides for the arithmetic."""
    lhs, rhs = lpq_inequality_sides(ell, p, q)
    return lhs <= rhs


def alpha_beta_inequality_holds(alpha: Fraction, beta: Fraction) -> bool:
    """Exact rational check of (1+a)(1+2b+2b^2-2a^2) <= (1+b)^3 for 0 <= a <= b."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha < 0:
        raise PreconditionError(f"alpha must be nonnegative, got {alpha}")
    if alpha > beta:
        raise PreconditionError(f"need alpha <= beta, got {alpha} > {beta}")
    lhs = (1 + alpha) * (1 + 2 * beta + 2 * beta * beta - 2 * alpha * alpha)
    rhs = (1 + beta) ** 3
    return lhs <= rhs


def scan_lpq_inequality(
    ell_max: int = 30, q_max: int = 60
) -> Iterator[tuple[int, int, int]]:
    """Yield every violating (l, p, q) with 1 <= l <= ell_max, 0 <= p <= q <= q_max.

    Both parities of q are covered.  An empty iterator means the inequality
    held everywhere on the grid.
    """
    if ell_max < 1 or q_max < 0:
        raise PreconditionError("empty scan range")
    for ell in range(1, ell_max + 1):
        for q in range(q_max + 1):
            for p in range(q + 1):
                if not lpq_inequality_holds(ell, p, q):
                    yield (ell, p, q)


def scan_alpha_beta_inequality(
    step: Fraction = Fraction(1, 100), max_value: Fraction = Fraction(10)
) -> Iterator[tuple[Fraction, Fraction]]:
    """Yield every violating (alpha, beta) on the grid {0, step, ..., max_value}^2, alpha <= beta.

    Runs the denominator-cleared form of the same comparison: with step u/v
    and grid numerators a, b the inequality is equivalent to
    (v+a)(v^2+2bv+2b^2-2a^2) <= (v+b)^3.  Point queries through
    alpha_beta_inequality_holds agree by construction (same rational
    inequality, multiplied by v^3).
    """
    step = Fraction(step)
    max_value = Fraction(max_value)
    if step <= 0 or max_value < 0:
        raise PreconditionError("empty scan range")
    count = max_value / step
    if count.denominator != 1:
        raise PreconditionError("max_value must be a multiple of step")
    u, v = step.numerator, step.denominator
    for kb in range(int(count) + 1):
        b = kb * u
        rhs = (v + b) ** 3
        b_terms = v * v + 2 * b * v + 2 * b * b
        for ka in range(kb + 1):
            a = ka * u
            if (v + a) * (b_terms - 2 * a * a) > rhs:
                yield (Fraction(a, v), Fraction(b, v))
