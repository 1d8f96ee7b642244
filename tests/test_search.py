import concurrent.futures
import json
import os
import random
from collections import Counter
from itertools import combinations, permutations
from math import factorial, gcd, lcm
from pathlib import Path

import pytest

from rbt_lab import (
    Graph,
    GraphSystem,
    balanced_bipartite_system,
    bipartite_triple,
    exhaustive_max_product,
    exhaustive_max_sum,
    is_rbt_free,
    local_search_product,
    max_edge_count,
    theory_bound,
    two_complete_one_empty,
)
from rbt_lab import search
from rbt_lab.canonical import canonical_bits, canonical_system_bits
from rbt_lab.search import (
    _close_pairs,
    _cross,
    _first_level,
    _optimistic,
    _orderings,
    _random_rbt_free_triple,
    _search_chunk,
    _seed_value,
    _shuffle,
    _through_pairs,
    _value,
    rbt_free_bits,
)


# -- per-triangle Hall check, the reference for the search's rainbow kernel ----------


def triangle_edges(n):
    """Colex edge indices (ab, ac, bc) of every triangle a < b < c."""
    def index(u, v):
        return v * (v - 1) // 2 + u

    return [(index(a, b), index(a, c), index(b, c)) for a, b, c in combinations(range(n), 3)]


def memberships(graphs, e1, e2, e3):
    """Bit i of the k-th mask is set when graph i holds the k-th edge."""
    masks = [0, 0, 0]
    for i, g in enumerate(graphs):
        for k, e in enumerate((e1, e2, e3)):
            if g >> e & 1:
                masks[k] |= 1 << i
    return masks


def pair_assignable(ma, mb):
    return bool(ma and mb and (ma | mb).bit_count() >= 2)


def triangle_rainbow(m1, m2, m3):
    """Hall's condition for a system of distinct representatives of three sets."""
    if not (m1 and m2 and m3):
        return False
    if min((m1 | m2).bit_count(), (m1 | m3).bit_count(), (m2 | m3).bit_count()) < 2:
        return False
    return (m1 | m2 | m3).bit_count() >= 3


def reference_rbt_free(n, graphs):
    return not any(triangle_rainbow(*memberships(graphs, *tri)) for tri in triangle_edges(n))


def reference_allowed_mask(n, prefix):
    allowed = (1 << max_edge_count(n)) - 1
    for tri in triangle_edges(n):
        masks = memberships(prefix, *tri)
        for k in range(3):
            if pair_assignable(masks[k - 1], masks[k - 2]):
                allowed &= ~(1 << tri[k])
    return allowed


# -- oracles built on the kernel: unpruned enumeration and the last-slot mask ---------


def allowed_last_graph_mask(n, prefix):
    """Edges admissible in one more graph appended to a rainbow-free prefix.

    An edge e is excluded exactly when some triangle through e has its other
    two edges assignable to two distinct prefix graphs; any subset of the
    returned mask keeps the extended system rainbow-free.
    """
    through = _through_pairs(n)
    union = forbidden = 0
    for g in prefix:
        forbidden |= _cross(through, union, g)
        union |= g
    return ((1 << max_edge_count(n)) - 1) & ~forbidden


def brute_force_max(objective, n, t):
    """Reference maximum by unpruned enumeration of every ordered tuple.

    Deliberately structure-free: no branch-and-bound, no isomorphism
    reduction, no last-slot closure.  Only for cross-validating the real
    search at tiny sizes.
    """
    if objective not in ("sum", "product"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "product" and t != 3:
        raise ValueError("product objective is defined for t = 3")
    bits = max_edge_count(n) * t
    if bits > 18:
        raise ValueError("brute-force reference limited to 2^18 tuples")
    m = max_edge_count(n)
    best = 0
    space = range(1 << m)

    def rec(prefix):
        nonlocal best
        if len(prefix) == t:
            # the slow per-triangle test only for tuples that would raise the max
            value = _value(objective, prefix)
            if value > best and reference_rbt_free(n, prefix):
                best = value
            return
        for g in space:
            rec(prefix + (g,))

    rec(())
    return best


def max_triangle_free_edges(n):
    """Maximum edges of a triangle-free graph on n vertices, by full enumeration."""
    if not 1 <= n <= 6:
        raise ValueError("full graph enumeration supported for n <= 6")
    through = _through_pairs(n)
    best = 0
    for g in range(1 << max_edge_count(n)):
        # g holds a triangle iff one of its edges closes one with two others
        if g.bit_count() > best and not g & _cross(through, g, g):
            best = g.bit_count()
    return best


def reference_first_level(n):
    """Every graph on n vertices canonicalized, the oracle for `_first_level(n)`."""
    return sorted({canonical_bits(n, g) for g in range(1 << max_edge_count(n))})


def extension_first_level(n):
    """Every one-vertex extension of every class canonicalized, in one global set.

    Every graph on q vertices is a class on q - 1 vertices, up to
    relabeling, plus a vertex q - 1 with some neighbourhood s, so this is
    the second oracle for `_first_level(n)`, one that reaches n = 7.
    """
    classes = [0]
    for q in range(2, n + 1):
        top = max_edge_count(q - 1)
        classes = sorted(
            {canonical_bits(q, h | s << top) for h in classes for s in range(1 << (q - 1))})
    return classes


def reference_search_chunk(objective, n, t, incumbent, tie_cap, first_graphs):
    """The per-submask walk with the loose bound, the oracle for `search._search_chunk`.

    Every admissible child with no more edges than the graph before it is
    walked in ascending order and cut only when even m edges in each later
    graph could not reach the running best; the last graph h is read off
    the forbidden mask.  A chunk record covers the sorted tuples whose last
    two graphs (g, h) form a closed pair, so a leaf counts only when g is
    every edge its slot allowed that h leaves free, and |h| <= |g|.  Each
    hit stands for all its orderings, canonicalized.  Returns best and the
    least tie_cap witnesses of the chunk record.
    """
    m = max_edge_count(n)
    full = (1 << m) - 1
    through = _through_pairs(n)
    is_sum = objective == "sum"
    best = incumbent
    hits = set()

    def extend(prefix, part, union, forbidden, slot):
        # slot: the avail and union under which prefix[-1] was chosen
        nonlocal best, hits
        avail = full & ~forbidden
        if len(prefix) == t - 1:
            count = avail.bit_count()
            value = part + count if is_sum else part * count
            if value < best or count > prefix[-1].bit_count():
                return
            if prefix[-1] != slot[0] & ~_cross(through, slot[1], avail):
                return
            if value > best:
                best, hits = value, set()
            hits.add(tuple(prefix) + (avail,))
            return
        remaining = t - len(prefix)
        cap = prefix[-1].bit_count()
        rows = [_cross(through, union, 1 << e) for e in range(m)]
        cross = {0: 0}
        g = 0
        while True:
            gc = g.bit_count()
            cand = part + gc if is_sum else part * gc
            optimistic = cand + (remaining - 1) * m if is_sum else cand * m ** (remaining - 1)
            if gc <= cap and optimistic >= best:
                prefix.append(g)
                extend(prefix, cand, union | g, forbidden | cross[g], (avail, union))
                prefix.pop()
            g = (g - avail) & avail
            if not g:
                break
            low = g & -g
            cross[g] = cross[g ^ low] | rows[low.bit_length() - 1]

    for g1 in first_graphs:
        cand = g1.bit_count()
        if (cand + (t - 1) * m if is_sum else cand * m ** (t - 1)) >= best:
            extend([g1], cand, g1, 0, (full, 0))
    witnesses = {canonical_system_bits(n, p) for hit in hits for p in permutations(hit)}
    return best, sorted(witnesses)[:tie_cap]


def system_value(objective: str, s: GraphSystem) -> int:
    counts = s.edge_counts()
    if objective == "sum":
        return sum(counts)
    prod = 1
    for c in counts:
        prod *= c
    return prod


def test_pruned_matches_unpruned_n3():
    assert exhaustive_max_sum(3, 3).best_value == brute_force_max("sum", 3, 3) == 6
    assert exhaustive_max_sum(3, 4).best_value == brute_force_max("sum", 3, 4)
    assert exhaustive_max_sum(3, 5).best_value == brute_force_max("sum", 3, 5) == 10
    assert exhaustive_max_product(3).best_value == brute_force_max("product", 3, 3) == 8


def test_pruned_matches_unpruned_n4_product():
    assert exhaustive_max_product(4).best_value == brute_force_max("product", 4, 3) == 64


def test_exhaustive_t1_is_the_complete_graph():
    # one graph cannot hold a rainbow triangle: a precomputed record, no search
    for n in range(1, 6):
        full = (1 << max_edge_count(n)) - 1
        report = exhaustive_max_sum(n, 1)
        assert report.best_value == brute_force_max("sum", n, 1) == max_edge_count(n)
        assert report.witnesses == [(full,)]
        assert not report.witness_overflow
        assert (report.nodes, report.pruned) == (1, 0)
        assert report.references == {}


def test_exhaustive_t2_matches_unpruned():
    for n in range(2, 5):
        assert exhaustive_max_sum(n, 2).best_value == brute_force_max("sum", n, 2)


@pytest.mark.parametrize("checkpointed", [False, True])
def test_exhaustive_t2_is_two_complete_graphs_n8(tmp_path, monkeypatch, checkpointed):
    # written down like t = 1: no first level is built, no chunk is searched
    monkeypatch.setattr(search, "_first_level", lambda *args: pytest.fail("first level built"))
    monkeypatch.setattr(search, "_search_chunk", lambda *args: pytest.fail("chunk searched"))
    checkpoint = str(tmp_path / "ck.json") if checkpointed else None
    report = exhaustive_max_sum(8, 2, checkpoint=checkpoint)
    full = (1 << 28) - 1
    assert report.best_value == 56
    assert report.witnesses == [(full, full)]
    assert not report.witness_overflow
    assert (report.nodes, report.pruned, report.references) == (1, 0, {})


@pytest.mark.parametrize("n, best", [(9, 72), (64, 4032)])
def test_exhaustive_t2_is_not_budgeted(monkeypatch, n, best):
    # no limit of a walked search applies, since none is walked: neither the
    # canonical range of the first level nor the depth of the walk
    monkeypatch.setattr(search, "_first_level", lambda *args: pytest.fail("first level built"))
    monkeypatch.setattr(search, "_search_chunk", lambda *args: pytest.fail("chunk searched"))
    report = exhaustive_max_sum(n, 2)
    full = (1 << max_edge_count(n)) - 1
    assert report.best_value == best
    assert report.witnesses == [(full, full)]
    assert (report.nodes, report.pruned, report.references) == (1, 0, {})


@pytest.mark.parametrize("call", [
    lambda n, **kw: exhaustive_max_sum(n, 1, **kw),
    lambda n, **kw: exhaustive_max_sum(n, 2, **kw),
    lambda n, **kw: exhaustive_max_sum(n, 3, **kw),
    lambda n, **kw: exhaustive_max_product(n, **kw),
])
@pytest.mark.parametrize("n", [0, -1, 65])
def test_exhaustive_checks_the_vertex_count_first(tmp_path, monkeypatch, call, n):
    # refused before the seed, the first level or the checkpoint
    for name in ("_seed_value", "_first_level", "_children", "_save_checkpoint"):
        monkeypatch.setattr(search, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    path = tmp_path / "ck.json"
    with pytest.raises(ValueError, match=f"vertex count must be in 1..64, got {n}"):
        call(n, checkpoint=str(path))
    assert not path.exists()


@pytest.mark.parametrize("n", [0, 65])
def test_local_search_checks_the_vertex_count_first(monkeypatch, n):
    monkeypatch.setattr(search, "_local_restart", lambda *args: pytest.fail("restart run"))
    with pytest.raises(ValueError, match=f"vertex count must be in 1..64, got {n}"):
        local_search_product(n, 1)


def test_witnesses_reset_when_the_best_rises_above_the_seed(monkeypatch):
    # at n = 2 the t = 3 seed (K2, K2, empty) is below the optimum: without a
    # triangle, three copies of K2 win, and no tuple of the seed value may
    # survive, neither inside a chunk nor from a chunk whose best is lower
    for size in (64, 1):
        monkeypatch.setattr(search, "_CHUNK_SIZE", size)
        report = exhaustive_max_sum(2, 3)
        assert report.references["seed_value"] == 2
        assert report.best_value == 3
        assert report.witnesses == [(1, 1, 1)]


def cycle_types(n, most=None):
    """Every partition of n, largest part first: the cycle types of S_n."""
    if n == 0:
        yield []
        return
    for k in range(min(n, n if most is None else most), 0, -1):
        for rest in cycle_types(n - k, k):
            yield [k] + rest


def burnside_class_counts(n):
    """counts[e]: the classes of graphs on n vertices with e edges, by Burnside's lemma.

    A permutation of cycle type c fixes the graphs that are unions of its
    cycles on pairs (Harary and Palmer, Graphical Enumeration, 1973): a
    k-cycle of vertices holds floor((k-1)/2) pair cycles of length k and,
    for even k, one of length k/2; cycles of lengths a and b join in
    gcd(a, b) pair cycles of length lcm(a, b).  The fixed graphs with e
    edges are the coefficient of x^e in the product of (1 + x^len) over
    those pair cycles; counts[e] is their mean over S_n.
    """
    m = max_edge_count(n)
    total = [0] * (m + 1)
    for parts in cycle_types(n):
        perms = factorial(n)
        for k, mult in Counter(parts).items():
            perms //= k ** mult * factorial(mult)
        lengths = []
        for i, a in enumerate(parts):
            lengths += [a] * ((a - 1) // 2) + ([a // 2] if a % 2 == 0 else [])
            for b in parts[:i]:
                lengths += [lcm(a, b)] * gcd(a, b)
        fixed = [1] + [0] * m
        for length in lengths:
            for e in range(m, length - 1, -1):
                fixed[e] += fixed[e - length]
        for e in range(m + 1):
            total[e] += perms * fixed[e]
    assert all(x % factorial(n) == 0 for x in total)
    return [x // factorial(n) for x in total]


def test_burnside_counts_sum_to_the_graph_classes():
    # OEIS A000088, and C(n, 2) + 1 counts
    totals = [sum(burnside_class_counts(n)) for n in range(1, 10)]
    assert totals == [1, 2, 4, 11, 34, 156, 1044, 12346, 274668]
    assert all(len(burnside_class_counts(n)) == max_edge_count(n) + 1 for n in range(1, 10))


def edge_count_histogram(classes, m):
    counts = Counter(c.bit_count() for c in classes)
    return [counts[e] for e in range(m + 1)]


@pytest.mark.parametrize("n", range(1, 8))
def test_first_level_per_edge_count_is_the_burnside_count(n):
    m = max_edge_count(n)
    assert edge_count_histogram(_first_level(n), m) == burnside_class_counts(n)


@pytest.mark.parametrize("fewest, classes", [(14, 6_996), (16, 3_793), (22, 100)])
def test_first_level_n8_per_edge_count_is_the_burnside_count(fewest, classes):
    # n = 8 is past every full-scan oracle; these are the floors its searches use
    expected = [x if e >= fewest else 0 for e, x in enumerate(burnside_class_counts(8))]
    level = _first_level(8, fewest)
    assert len(level) == len(set(level)) == classes
    assert edge_count_histogram(level, 28) == expected


def test_exhaustive_reference_values():
    assert exhaustive_max_sum(4, 3).best_value == 12
    assert exhaustive_max_sum(4, 4).best_value == 16
    assert exhaustive_max_product(2).best_value == 1
    assert exhaustive_max_sum(2, 4).best_value == 4  # t*floor(4/4), every pair free


@pytest.mark.parametrize("n", range(1, 7))
def test_first_level_matches_the_reference(n):
    assert _first_level(n) == reference_first_level(n)


def test_first_level_matches_the_extension_oracle_n7():
    assert _first_level(7) == extension_first_level(7)


def test_first_level_counts_the_graph_classes():
    # OEIS A000088; the n = 7 level takes about 1 s
    counts = [len(_first_level(n)) for n in range(1, 8)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044]


@pytest.mark.parametrize("n, misses", [(6, 384), (7, 2_898)])
def test_first_level_canonicalization_count(n, misses):
    # a cold level canonicalizes only the extensions that pass the degree
    # and twin filters, plus the parents that cannot be read off the form
    canonical_bits.cache_clear()
    _first_level(n)
    assert canonical_bits.cache_info().misses == misses


@pytest.mark.parametrize("n", range(1, 8))
def test_first_level_cut_is_the_level_filtered_by_edge_count(n):
    # the floors cut no class on the way to one with enough edges
    level = _first_level(n)
    for fewest in range(max_edge_count(n) + 2):
        assert _first_level(n, fewest) == [c for c in level if c.bit_count() >= fewest]


@pytest.mark.parametrize("q", range(2, 8))
def test_parent_keeps_all_but_the_mean_degree(q):
    # what the floors rest on: the top vertex of a canonical form has the
    # least degree, at most floor(2|c| / q), and the floor never falls
    low = (1 << max_edge_count(q - 1)) - 1
    for c in _first_level(q):
        assert (c & low).bit_count() >= c.bit_count() - 2 * c.bit_count() // q
    floors = [search._parent_floor(q, x) for x in range(max_edge_count(q) + 1)]
    assert floors == sorted(floors)


def test_witnesses_are_free_and_recompute():
    for report, objective in [
        (exhaustive_max_sum(4, 3), "sum"),
        (exhaustive_max_sum(4, 4), "sum"),
        (exhaustive_max_product(4), "product"),
    ]:
        assert report.exhaustive
        assert report.witnesses
        for witness in report.witness_systems():
            assert is_rbt_free(witness)
            assert system_value(objective, witness) == report.best_value


def test_rainbow_bits_matches_system_level():
    rng = random.Random(71)
    for _ in range(500):
        n = rng.randint(3, 6)
        t = rng.randint(1, 4)
        m = max_edge_count(n)
        bits = [rng.randrange(1 << m) for _ in range(t)]
        s = GraphSystem(n=n, graphs=tuple(Graph.from_bits(n, b) for b in bits))
        assert rbt_free_bits(n, bits) == is_rbt_free(s) == reference_rbt_free(n, bits)


def test_rainbow_kernel_matches_per_triangle_reference():
    rng = random.Random(74)
    outcomes = set()
    for _ in range(600):
        n = rng.randint(3, 6)
        m = max_edge_count(n)
        graphs = []
        for _ in range(rng.randint(1, 5)):
            density = rng.random()
            graphs.append(sum(1 << e for e in range(m) if rng.random() < density))
        free = reference_rbt_free(n, graphs)
        outcomes.add(free)
        assert rbt_free_bits(n, graphs) == free
        assert allowed_last_graph_mask(n, graphs) == reference_allowed_mask(n, graphs)
    assert outcomes == {True, False}


def test_exhaustive_n5_pinned():
    report = exhaustive_max_sum(5, 3)
    assert report.best_value == 20
    full = (1 << 10) - 1
    assert report.witnesses == [(0, full, full), (full, 0, full), (full, full, 0)]
    assert not report.witness_overflow
    # counters, not results: the 8 of the 34 first graphs, one per class,
    # with at least 20/3 edges expanded plus the closed (G2, G3) pairs
    # visited; pruned counts the Close-by-One branches cut, since the other
    # first graphs are never built
    assert (report.nodes, report.pruned) == (49, 264)
    product = exhaustive_max_product(5)
    assert (product.nodes, product.pruned) == (99, 522)
    wide = exhaustive_max_sum(4, 5)
    assert (wide.nodes, wide.pruned) == (7, 83)


def test_exhaustive_t4_subtree_bound_pinned():
    # counters, not results: a G2 subtree is cut when even its largest
    # graph, with every later graph as large, cannot reach the best value
    report = exhaustive_max_sum(5, 4)
    assert report.best_value == 24
    assert (report.nodes, report.pruned) == (16, 1_332)


@pytest.mark.parametrize("n, t, space_bits", [
    (5, 5, 40), (5, 6, 50), (6, 4, 45), (6, 5, 60),
    (6, 8, 105), (7, 5, 84), (7, 6, 105), (6, 16, 225),
    (5, 32, 310),  # the largest t a search accepts
])
def test_exhaustive_t4_and_above_pinned(n, t, space_bits):
    # the t >= 4 sum theorem: t * floor(n^2/4), met only by t copies of the
    # balanced complete bipartite graph.  Each run takes a second or less,
    # whatever the size 2^(C(n,2) * (t - 1)) of its space of tuples
    assert max_edge_count(n) * (t - 1) == space_bits
    report = exhaustive_max_sum(n, t)
    assert report.best_value == report.references["seed_value"] == t * (n * n // 4)
    expected = balanced_bipartite_system(n, t)
    assert report.witnesses == [canonical_system_bits(n, tuple(g.to_bits() for g in expected.graphs))]
    assert not report.witness_overflow


def test_exhaustive_n7_pinned():
    # exact t = 3 at n = 7, about half of it the first level: the product meets the
    # conjectured floor(49/4)^3 only at the K_{3,4} triple, and the sum meets
    # n(n-1) only at (K7, K7, empty) in its three orders
    product = exhaustive_max_product(7)
    assert product.best_value == theory_bound("product", 7, 3) == 1_728
    triple = tuple(g.to_bits() for g in bipartite_triple(7).graphs)
    assert product.witnesses == [canonical_system_bits(7, triple)]
    full = (1 << 21) - 1
    total = exhaustive_max_sum(7, 3)
    assert total.best_value == 42
    assert total.witnesses == [(0, full, full), (full, 0, full), (full, full, 0)]
    assert not product.witness_overflow and not total.witness_overflow
    # counters, not results: they pin the walk and its cuts at a size
    # where Close-by-One does most of the work
    assert (product.nodes, product.pruned) == (12_890, 157_863)
    assert (total.nodes, total.pruned) == (1_472, 20_448)


# sum at n <= 5 over t = 3..5, and product at n <= 6, each with every witness
ORDERING_SETUPS = [("sum", n, t) for n in range(1, 6) for t in range(3, 6)] + [
    ("product", n, 3) for n in range(1, 7)]


@pytest.mark.parametrize("objective, n, t", ORDERING_SETUPS)
@pytest.mark.parametrize("witness_cap", [1, 64])
def test_report_matches_the_all_graphs_walk(objective, n, t, witness_cap):
    # the search walks one first graph per class; a walk whose first graphs
    # are every graph on n vertices, with each hit expanded to its orderings
    # and canonicalized, must find the same maximizers
    seed = _seed_value(objective, n, t)
    walk = _search_chunk(objective, n, t, seed, witness_cap + 1, range(1 << max_edge_count(n)))
    if objective == "sum":
        report = exhaustive_max_sum(n, t, witness_cap=witness_cap)
    else:
        report = exhaustive_max_product(n, witness_cap=witness_cap)
    assert report.best_value == walk["best"]
    assert report.witnesses == [tuple(w) for w in walk["witnesses"][:witness_cap]]
    assert report.witness_overflow == (len(walk["witnesses"]) > witness_cap)


@pytest.mark.parametrize("objective, n, t", ORDERING_SETUPS)
def test_witness_set_is_closed_under_graph_order(objective, n, t):
    # the search walks one order of the graphs; every other order of every
    # witness, canonicalized, must come back from the expansion
    if objective == "sum":
        report = exhaustive_max_sum(n, t, witness_cap=10**6)
    else:
        report = exhaustive_max_product(n, witness_cap=10**6)
    assert report.witnesses and not report.witness_overflow
    found = set(report.witnesses)
    for w in report.witnesses:
        assert {canonical_system_bits(n, p) for p in permutations(w)} <= found


@pytest.mark.parametrize("objective, n, t", ORDERING_SETUPS)
def test_searched_first_graphs_are_the_classes_with_enough_edges(monkeypatch, objective, n, t):
    # the workers build and search exactly the classes on n vertices whose
    # first graph lets the optimistic bound reach the seed value
    seed = _seed_value(objective, n, t)
    fewest = min(e for e in range(max_edge_count(n) + 1)
                 if (t * e if objective == "sum" else e ** t) >= seed)
    searched = []

    def recording(objective, n, t, incumbent, tie_cap, first_graphs):
        searched.extend(first_graphs)
        return _search_chunk(objective, n, t, incumbent, tie_cap, first_graphs)

    monkeypatch.setattr(search, "_search_chunk", recording)
    if objective == "sum":
        exhaustive_max_sum(n, t)
    else:
        exhaustive_max_product(n)
    assert sorted(searched) == [c for c in _first_level(n) if c.bit_count() >= fewest]


# the sizes with 2^(C(n,2)*t) <= 2^32 tuples, where the reference walk stays
# within a second
ORACLE_SETUPS = [("sum", n, t) for n in range(1, 6) for t in range(2, 7)
                 if max_edge_count(n) * t <= 32] + [("product", n, 3) for n in range(1, 6)]


@pytest.mark.parametrize("objective, n, t", ORACLE_SETUPS)
@pytest.mark.parametrize("one_per_class", [False, True])
def test_search_chunk_matches_the_reference_walk(objective, n, t, one_per_class):
    # from incumbent 0 the best rises inside a node, so the ties dropped
    # when it rises, and the least ones kept under a small cap, are checked
    # too; the first graphs are every graph, or the search's one per class
    first = _first_level(n) if one_per_class else range(1 << max_edge_count(n))
    for incumbent in (_seed_value(objective, n, t), 0):
        for tie_cap in (1, 2, 3, 65):
            expected = reference_search_chunk(objective, n, t, incumbent, tie_cap, first)
            if t < 3:
                # t <= 2 is written down, not walked: the walk must find that record
                report = exhaustive_max_sum(n, t, witness_cap=tie_cap)
                assert (report.best_value, report.witnesses) == expected
                continue
            record = _search_chunk(objective, n, t, incumbent, tie_cap, first)
            assert (record["best"], record["witnesses"]) == expected


@pytest.mark.parametrize("objective", ["sum", "product"])
def test_search_chunk_matches_the_reference_walk_n6(objective):
    # from incumbent 0 the best rises inside the chunk, so the ties kept
    # and dropped are checked too
    classes = random.Random(6).sample(_first_level(6), 8)
    for chunk in (sorted(classes[:4]), sorted(classes[4:])):
        for tie_cap in (2, 3, 65):
            record = _search_chunk(objective, 6, 3, 0, tie_cap, chunk)
            assert (record["best"], record["witnesses"]) == reference_search_chunk(
                objective, 6, 3, 0, tie_cap, chunk)


@pytest.mark.parametrize("objective, tie_cap, index", [("sum", 2, 0), ("product", 3, 1),
                                                       ("sum", 65, 2)])
def test_search_chunk_matches_the_reference_walk_n7(objective, tie_cap, index):
    # one reference walk over the 2^21 choices of G2 takes about 2 s
    g1 = [random.Random(7).randrange(1 << 21) for _ in range(3)][index]
    record = _search_chunk(objective, 7, 3, 0, tie_cap, [g1])
    assert (record["best"], record["witnesses"]) == reference_search_chunk(
        objective, 7, 3, 0, tie_cap, [g1])


def reference_closed_pairs(avail, rows):
    """Every closed pair (g, h) of the conflict relation `rows` on avail, by brute force."""
    def derive(x):
        conflicts = 0
        for bit, row in rows.items():
            if x & bit:
                conflicts |= row
        return avail & ~conflicts

    subsets = [x for x in range(avail + 1) if x & avail == x]
    return [(derive(h), h) for h in subsets if derive(derive(h)) == h]


def test_close_pairs_matches_brute_force():
    # random symmetric conflict relations on up to 10 elements, with the
    # objectives' own scores: the pairs returned are exactly the closed pairs
    # with cap >= |g| >= |h| at the best score, each once
    rng = random.Random(75)
    for trial in range(300):
        k = rng.randint(0, 10)
        avail = sum(1 << e for e in range(k) if rng.random() < 0.8)
        density = rng.random()
        rows = {1 << e: 0 for e in range(k) if avail >> e & 1}
        for x in rows:
            for y in rows:
                if x <= y and rng.random() < density:
                    rows[x] |= y
                    rows[y] |= x
        closed = reference_closed_pairs(avail, rows)
        is_sum = trial % 2 == 0
        score = _optimistic(is_sum, 2, rng.randint(0, 5) if is_sum else rng.randint(1, 5))
        cap = rng.randint(0, avail.bit_count())
        sorted_pairs = [(g, h) for g, h in closed if cap >= g.bit_count() >= h.bit_count()]
        values = [score(g.bit_count(), h.bit_count()) for g, h in sorted_pairs]
        top = max(values, default=0)
        for bar in {0, top, top + 1, rng.randint(0, top + 1)}:
            pairs, final, nodes, _ = _close_pairs(avail, rows, cap, score, bar)
            assert len(pairs) == len(set(pairs))
            if top >= bar and sorted_pairs:
                assert final == top
                assert sorted(pairs) == sorted(
                    p for p, v in zip(sorted_pairs, values) if v == top)
            else:
                # no pair reaches the bar
                assert (pairs, final) == ([], bar)
            assert nodes <= len(closed)
        # a constant score cuts nothing, so every closed pair is visited once
        pairs, final, nodes, pruned = _close_pairs(avail, rows, avail.bit_count(),
                                                   lambda gc, hc: 0, 0)
        assert (final, nodes, pruned) == (0, len(closed), 0)
        assert sorted(pairs) == sorted((g, h) for g, h in closed
                                       if g.bit_count() >= h.bit_count())


def test_bit_positions():
    # the search walks C(n,2)-bit edge masks, wider than any adjacency row
    rng = random.Random(9)
    for x in [0, 1, 6, 1 << 70] + [rng.getrandbits(300) for _ in range(20)]:
        assert list(search.iter_bits(x)) == [i for i in range(x.bit_length()) if x >> i & 1]


def test_allowed_last_mask_is_exact():
    rng = random.Random(72)
    for _ in range(200):
        n = rng.randint(3, 5)
        m = max_edge_count(n)
        while True:
            prefix = [rng.randrange(1 << m) for _ in range(rng.randint(1, 3))]
            if reference_rbt_free(n, prefix):
                break
        allowed = allowed_last_graph_mask(n, prefix)
        for e in range(m):
            extended = prefix + [1 << e]
            assert reference_rbt_free(n, extended) == bool(allowed >> e & 1)
        # the full allowed mask itself is admissible
        assert reference_rbt_free(n, prefix + [allowed])


def test_random_fill_guard_is_exact_and_maximal():
    # replay the fill's move order, adding each edge iff the per-triangle
    # oracle accepts the grown triple
    for n in range(3, 9):
        m = max_edge_count(n)
        for seed in range(4):
            for restart in (1, 2, 5):
                graphs = _random_rbt_free_triple(n, random.Random((seed << 20) ^ restart))
                moves = [(i, e) for i in range(3) for e in range(m)]
                random.Random((seed << 20) ^ restart).shuffle(moves)
                expected = [0, 0, 0]
                for i, e in moves:
                    grown = list(expected)
                    grown[i] |= 1 << e
                    if reference_rbt_free(n, grown):
                        expected = grown
                assert graphs == expected
                for i in range(3):
                    others = [graphs[j] for j in range(3) if j != i]
                    assert graphs[i] == allowed_last_graph_mask(n, others)


def reference_fill(n, rng):
    """The fill as first written: nested rows, `rng.shuffle` and a `% 3` loop."""
    adj = [[0] * n for _ in range(3)]
    forb = [[0] * n for _ in range(3)]
    moves = [(i, a, b) for i in range(3) for b in range(n) for a in range(b)]
    rng.shuffle(moves)
    for i, a, b in moves:
        if forb[i][a] >> b & 1 or forb[i][b] >> a & 1:
            continue
        adj[i][a] |= 1 << b
        adj[i][b] |= 1 << a
        for j, k in ((i + 1) % 3, (i + 2) % 3), ((i + 2) % 3, (i + 1) % 3):
            forb[j][b] |= adj[k][a]
            forb[j][a] |= adj[k][b]
    return [Graph._trusted(n, rows).to_bits() for rows in adj]


def test_shuffle_draws_what_random_shuffle_draws():
    # 3384 and 6048 are the move counts 3 * C(n,2) at n = 48 and 64
    for length in [*range(301), 3384, 6048]:
        for seed in (0, 1, 2, 1 << 20 ^ 7):
            expected, reference = list(range(length)), random.Random(seed)
            reference.shuffle(expected)
            items, rng = list(range(length)), random.Random(seed)
            _shuffle(items, rng)
            assert items == expected, (length, seed)
            # the same draws, so the generator ends in the same state
            assert rng.getstate() == reference.getstate(), (length, seed)


@pytest.mark.parametrize("n, seeds", [(n, range(8)) for n in range(1, 13)]
                         + [(48, range(3)), (64, range(3))])
def test_random_fill_matches_the_reference_fill(n, seeds):
    for seed in seeds:
        for restart in (1, 2, 7):
            key = (seed << 20) ^ restart
            got = _random_rbt_free_triple(n, random.Random(key))
            assert got == reference_fill(n, random.Random(key)), (n, seed, restart)


def test_constructors_attain_bounds():
    for n in range(3, 21):
        s = two_complete_one_empty(n)
        assert is_rbt_free(s) and s.total_edges() == n * (n - 1)
        for t in (1, 4, 8):
            s = balanced_bipartite_system(n, t)
            assert is_rbt_free(s) and s.total_edges() == t * (n * n // 4)
        s = bipartite_triple(n)
        assert system_value("product", s) == (n * n // 4) ** 3


def test_constructor_validation():
    with pytest.raises(ValueError):
        two_complete_one_empty(0)
    with pytest.raises(ValueError):
        balanced_bipartite_system(5, 0)


def test_mantel_maximum_small():
    assert max_triangle_free_edges(2) == 1
    assert max_triangle_free_edges(3) == 2
    assert max_triangle_free_edges(4) == 4
    assert max_triangle_free_edges(5) == 6
    with pytest.raises(ValueError):
        max_triangle_free_edges(7)


def test_orderings_are_the_distinct_permutations():
    rng = random.Random(7)
    for _ in range(300):
        w = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        assert sorted(_orderings(w)) == sorted(set(permutations(w)))
    assert _orderings((5,) * 20) == [(5,) * 20]


def test_many_copies_of_one_graph_expand_to_one_witness():
    # the t! orderings of (K2, ..., K2) are one tuple
    report = exhaustive_max_sum(2, 20)
    assert (report.best_value, report.witnesses) == (20, [(1,) * 20])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda **kw: exhaustive_max_sum(9, 3, **kw),
                 "canonicalization supported up to n=8", id="sum-n9-canonical-range"),
    pytest.param(lambda **kw: exhaustive_max_product(9, **kw),
                 "canonicalization supported up to n=8", id="product-n9-canonical-range"),
    (lambda **kw: exhaustive_max_sum(64, 4, **kw), "canonicalization supported up to n=8"),
    (lambda **kw: exhaustive_max_sum(4, 33, **kw), "t must be <= 32, got 33"),
    (lambda **kw: exhaustive_max_sum(1, 2000, **kw), "t must be <= 32, got 2000"),
])
def test_search_limits_refuse_before_any_work(tmp_path, monkeypatch, call, message):
    for name in ("_seed_value", "_first_level", "_children", "_search_chunk", "_save_checkpoint"):
        monkeypatch.setattr(search, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    path = tmp_path / "ck.json"
    with pytest.raises(ValueError, match=message):
        call(checkpoint=str(path))
    assert list(tmp_path.iterdir()) == []


def test_search_reads_no_environment_variable(monkeypatch):
    # no setting outside the call's own options, such as a space budget
    # left in the environment by an older version, changes a search
    class Unreadable(dict):
        def __getitem__(self, key, *default):
            pytest.fail(f"environment variable {key} read")
        get = __contains__ = __getitem__

    monkeypatch.setattr(os, "environ", Unreadable())
    assert exhaustive_max_sum(4, 4).best_value == 16
    assert exhaustive_max_sum(5, 5).best_value == 30


# setups whose seed is the optimum, so no chunk's incumbent rises and the
# counters, not only the results, are the same however the work is split
SEEDED_AT_THE_OPTIMUM = [(exhaustive_max_sum, (4, 3)), (exhaustive_max_sum, (4, 4)),
                         (exhaustive_max_product, (4,))]


def counted(report):
    return (report.best_value, report.witnesses, report.witness_overflow,
            report.nodes, report.pruned)


def test_thread_count_invariance(monkeypatch):
    monkeypatch.setattr(search, "_CHUNK_SIZE", 1)
    for entry, args in SEEDED_AT_THE_OPTIMUM:
        base = entry(*args)
        threaded = entry(*args, threads=2)
        assert counted(base) == counted(threaded)
        assert threaded.config["threads"] == 2


def test_chunk_size_invariance_t2(monkeypatch):
    # t = 2 is one written-down chunk whatever the chunk size; the t >= 3
    # setups seeded at their optimum keep their counters too
    for entry, args in [(exhaustive_max_sum, (4, 2))] + SEEDED_AT_THE_OPTIMUM:
        reports = []
        for c in (1, 4, 64):
            monkeypatch.setattr(search, "_CHUNK_SIZE", c)
            reports.append(counted(entry(*args)))
        assert reports[0] == reports[1] == reports[2]


# setups whose seed is the optimum, with more than one parent class
ISO_PRUNED = [(exhaustive_max_sum, (5, 3)), (exhaustive_max_product, (5,)),
              (exhaustive_max_product, (6,))]


@pytest.mark.parametrize("entry, args", ISO_PRUNED)
def test_iso_pruned_reports_do_not_depend_on_threads_or_chunks(monkeypatch, entry, args):
    # the workers build the first graphs from the parent classes of their
    # chunk, so every split of the parents must give the same report
    reports = []
    for size in (1, 4, 64):
        monkeypatch.setattr(search, "_CHUNK_SIZE", size)
        for threads in (1, 2):
            report = without_wall_time(entry(*args, threads=threads))
            assert report["config"].pop("threads") == threads
            assert report["config"].pop("chunk_size") == size
            reports.append(report)
    assert all(report == reports[0] for report in reports)


class InProcessPool:
    """ProcessPoolExecutor stand-in that records max_workers and maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_is_sized_by_the_work(monkeypatch):
    # asking for more threads than there are restarts or chunks starts one
    # process per item, not one per thread; _map imports the pool class when
    # it fans out, so the stand-in goes where that import reads it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "sizes", [])
    local = local_search_product(6, 1, threads=5000)
    assert local.config["threads"] == 5000
    assert counted(local) == counted(local_search_product(6, 1))
    # one chunk per parent class: the 4 classes on 4 vertices with at
    # least 4 edges
    monkeypatch.setattr(search, "_CHUNK_SIZE", 1)
    exhaustive = exhaustive_max_product(5, threads=5000)
    assert exhaustive.config["threads"] == 5000
    assert counted(exhaustive) == counted(exhaustive_max_product(5))
    assert InProcessPool.sizes == [8, 4]


def test_exhaustive_run_to_run_determinism():
    a = exhaustive_max_sum(4, 3)
    b = exhaustive_max_sum(4, 3)
    assert (a.best_value, a.witnesses, a.nodes, a.pruned) == (
        b.best_value,
        b.witnesses,
        b.nodes,
        b.pruned,
    )


def test_checkpoint_resume(tmp_path, monkeypatch):
    # four chunks, one per parent class on 3 vertices
    monkeypatch.setattr(search, "_CHUNK_SIZE", 1)
    path = tmp_path / "ckpt.json"
    first = exhaustive_max_product(4, checkpoint=str(path))
    assert path.exists()

    # drop half the chunks and resume; the merged report must be identical
    doc = json.loads(path.read_text())
    done = doc["done"]
    for key in list(done.keys())[::2]:
        del done[key]
    path.write_text(json.dumps(doc))
    resumed = exhaustive_max_product(4, checkpoint=str(path))
    assert resumed.best_value == first.best_value
    assert resumed.witnesses == first.witnesses
    assert resumed.nodes == first.nodes

    # a different setup must refuse the file
    with pytest.raises(ValueError, match="different search"):
        exhaustive_max_sum(4, 3, checkpoint=str(path))


@pytest.mark.parametrize("call", [lambda ck: exhaustive_max_product(4, checkpoint=ck),
                                  lambda ck: exhaustive_max_sum(4, 1, checkpoint=ck)],
                         ids=["product-n4", "sum-n4-t1"])
def test_finished_checkpoint_is_not_rewritten(tmp_path, monkeypatch, call):
    path = tmp_path / "ckpt.json"
    first = call(str(path))
    written = path.read_bytes()
    monkeypatch.setattr(search, "_save_checkpoint", lambda *args: pytest.fail("saved"))
    resumed = call(str(path))
    assert without_wall_time(resumed) == without_wall_time(first)
    assert path.read_bytes() == written


def test_resumed_t2_checkpoint_builds_no_search_table(tmp_path, monkeypatch):
    # the witnesses of a t <= 2 record are checked without the per-edge
    # triangle table of n = 64, which the search never needs there
    path = str(tmp_path / "ckpt.json")
    first = exhaustive_max_sum(64, 2, checkpoint=path)
    monkeypatch.setattr(search, "_through_pairs", lambda n: pytest.fail("search table built"))
    resumed = exhaustive_max_sum(64, 2, checkpoint=path)
    assert without_wall_time(resumed) == without_wall_time(first)


def test_checkpoint_binds_witness_cap(tmp_path):
    # at (4, 3) a cap-1 checkpoint keeps 2 of the 4 maximizers per chunk, so
    # resuming it under cap 64 would report 2 witnesses without an overflow
    path = str(tmp_path / "ckpt.json")
    fresh = exhaustive_max_sum(4, 3)
    assert len(fresh.witnesses) == 4 and not fresh.witness_overflow
    exhaustive_max_sum(4, 3, witness_cap=1, checkpoint=path)
    with pytest.raises(ValueError, match="different search"):
        exhaustive_max_sum(4, 3, checkpoint=path)
    # a resume under the cap that wrote the file repeats the fresh report
    other = str(tmp_path / "cap64.json")
    written = exhaustive_max_sum(4, 3, checkpoint=other)
    resumed = exhaustive_max_sum(4, 3, checkpoint=other)
    for report in (written, resumed):
        assert without_wall_time(report) == without_wall_time(fresh)


def without_wall_time(report):
    doc = report.to_json_dict()
    del doc["wall_time"]
    return doc


def _drop_nodes(record):
    del record["nodes"]


@pytest.mark.parametrize("damage, message", [
    (_drop_nodes, "keys"),
    (lambda r: r.update(extra=1), "keys"),
    (lambda r: r.update(best="999"), "non-negative integers"),
    (lambda r: r.update(nodes=True), "non-negative integers"),
    (lambda r: r.update(pruned=-1), "non-negative integers"),
    (lambda r: r.update(best=63, witnesses=[]), "below the seed value"),
    (lambda r: r.update(best=65, witnesses=[]), "without a witness"),
    (lambda r: r.update(witnesses="[[30, 30, 30]]"), "a list"),
    (lambda r: r.update(witnesses=[[30, 30, 30]] * 66), "at most witness_cap \\+ 1"),
    (lambda r: r.update(witnesses=[[30, 30]]), "not 3 graphs"),
    (lambda r: r.update(witnesses=[[30, 30, 64]]), "not 3 graphs"),
    (lambda r: r.update(witnesses=[[30, 30, True]]), "not 3 graphs"),
    # each witness below fails one check only: three copies of K_4 (a forged
    # counterexample to the product bound), K_{2,2} relabeled out of
    # canonical form, and the true maximizer under a raised best
    (lambda r: r.update(best=216, witnesses=[[63, 63, 63]]), "canonical rainbow-free"),
    (lambda r: r.update(witnesses=[[45, 45, 45]]), "canonical rainbow-free"),
    (lambda r: r.update(best=65), "of value 65"),
])
def test_checkpoint_records_are_checked(tmp_path, damage, message):
    path = tmp_path / "ckpt.json"
    exhaustive_max_product(4, checkpoint=str(path))
    doc = json.loads(path.read_text())
    assert doc["done"]["0"]["witnesses"] == [[30, 30, 30]]
    damage(doc["done"]["0"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        exhaustive_max_product(4, checkpoint=str(path))


def test_checkpoint_chunk_ids_are_checked(tmp_path):
    path = tmp_path / "ckpt.json"
    exhaustive_max_product(4, checkpoint=str(path))
    doc = json.loads(path.read_text())
    for key in ("1", "00", "-0"):
        doc["done"] = {key: doc["done"].pop(next(iter(doc["done"])))}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="must map chunk ids 0..0"):
            exhaustive_max_product(4, checkpoint=str(path))
    doc["done"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="must map chunk ids"):
        exhaustive_max_product(4, checkpoint=str(path))


def test_checkpoint_temp_file_is_its_own_sibling(tmp_path, monkeypatch):
    # run.tmp must not be its own temp file, which would rewrite it in
    # place, and a.json and a.ckpt must not share one
    moves = []
    replace = Path.replace

    def recording_replace(self, target):
        moves.append((self, Path(target)))
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", recording_replace)
    names = ("run.tmp", "a.json", "a.ckpt")
    for name in names:
        exhaustive_max_product(4, checkpoint=str(tmp_path / name))
    assert {target.name for _, target in moves} == set(names)
    for tmp, target in moves:
        assert tmp == target.with_name(target.name + ".tmp")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_checkpoint_resume_n5_iso(tmp_path, monkeypatch):
    # the intended use: resumable runs, here at n = 5; a chunk is one of
    # the 4 parent classes on 4 vertices with at least 4 edges, so four
    # chunks
    monkeypatch.setattr(search, "_CHUNK_SIZE", 1)
    path = tmp_path / "n5.json"
    plain = exhaustive_max_product(5)
    first = exhaustive_max_product(5, checkpoint=str(path))
    assert first.best_value == plain.best_value == 216
    assert first.witnesses == plain.witnesses

    doc = json.loads(path.read_text())
    done = doc["done"]
    assert len(done) > 2
    for key in list(done.keys())[1::2]:
        del done[key]
    path.write_text(json.dumps(doc))
    resumed = exhaustive_max_product(5, checkpoint=str(path))
    assert resumed.best_value == first.best_value
    assert resumed.witnesses == first.witnesses
    assert resumed.nodes == first.nodes


def test_checkpoint_resume_n6_iso(tmp_path, monkeypatch):
    # n = 6 from its 8 parent classes on 5 vertices with at least 7 edges,
    # three chunks
    monkeypatch.setattr(search, "_CHUNK_SIZE", 3)
    path = tmp_path / "n6.json"
    first = exhaustive_max_sum(6, 3, checkpoint=str(path))
    assert first.best_value == 30
    doc = json.loads(path.read_text())
    done = doc["done"]
    assert len(done) == 3
    for key in list(done.keys())[::2]:
        del done[key]
    path.write_text(json.dumps(doc))
    resumed = exhaustive_max_sum(6, 3, checkpoint=str(path))
    assert without_wall_time(resumed) == without_wall_time(first)


def test_local_search_consistent_with_conjecture_larger_n():
    # a failure here would mean a local search restart beat floor(n^2/4)^3, i.e. a
    # counterexample to the open product bound; record the witness if so
    for n in (12, 16, 20):
        report = local_search_product(n, 2026, restarts=3)
        bound = (n * n // 4) ** 3
        assert report.best_value >= report.references["seed_value"]
        assert report.best_value <= bound, (
            f"product bound exceeded at n={n}: {report.to_json_dict()}"
        )


def test_local_search_matches_exhaustive_n4():
    report = local_search_product(4, 11, restarts=3)
    assert report.best_value == 64
    assert not report.exhaustive


def test_local_search_seeded_bound_n10():
    report = local_search_product(10, 5)
    assert report.best_value >= 25**3
    assert report.references["seed_value"] == 25**3


def test_local_search_deterministic():
    a = local_search_product(6, 99, restarts=4)
    b = local_search_product(6, 99, restarts=4)
    assert a.best_value == b.best_value
    assert a.witnesses == b.witnesses
    assert a.nodes == b.nodes

    threaded = local_search_product(6, 99, restarts=4, threads=2)
    assert threaded.best_value == a.best_value
    assert threaded.witnesses == a.witnesses


@pytest.mark.parametrize("n, seed, raw", [(4, 0, 45), (5, 1, 627)])
def test_local_fill_tying_the_constructor_reports_canonical_witnesses(n, seed, raw):
    # restart 3 ties the bipartite triple with a relabeled copy of it, so the
    # report rests on each restart canonicalizing its own witness
    fill = tuple(_random_rbt_free_triple(n, random.Random((seed << 20) ^ 3)))
    expected = exhaustive_max_product(n).witnesses
    assert fill == (raw,) * 3 and fill not in expected
    assert search._local_restart(n, seed, 3)["witnesses"] == expected
    # restart 1 stays below the constructor, so it lists no witness
    assert search._local_restart(n, seed, 1)["witnesses"] == []
    for threads in (1, 2):
        assert local_search_product(n, seed, restarts=4, threads=threads).witnesses == expected


def test_local_search_counts_fill_moves():
    # nodes: moves examined, 3 * C(n,2) per random restart (restart 0 makes
    # none); pruned: the moves the forbidden mask refused
    n, seed, restarts = 7, 21, 4
    report = local_search_product(n, seed, restarts=restarts)
    moves = 3 * max_edge_count(n)
    taken = sum(
        sum(g.bit_count() for g in _random_rbt_free_triple(n, random.Random((seed << 20) ^ r)))
        for r in range(1, restarts)
    )
    assert report.nodes == moves * (restarts - 1)
    assert report.pruned == report.nodes - taken
    assert "iterations" not in report.config


@pytest.mark.parametrize("n, seed, pruned", [(48, 0, 18929), (48, 1, 18891),
                                             (64, 0, 34813), (64, 1, 34762)])
def test_local_search_pinned_at_the_benchmark_sizes(n, seed, pruned):
    # pruned is the refused moves summed over seven fills, so it pins their
    # total edge count; no fill beats the bipartite triple at these sizes
    report = local_search_product(n, seed, restarts=8)
    assert report.best_value == (n * n // 4) ** 3
    assert report.nodes == 7 * 3 * max_edge_count(n)
    assert report.pruned == pruned


def test_local_search_witnesses_are_free():
    report = local_search_product(7, 21, restarts=3)
    for witness in report.witness_systems():
        assert is_rbt_free(witness)
        assert system_value("product", witness) == report.best_value


def test_local_search_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        local_search_product(4, None)


def test_search_options_follow_the_entry_point():
    # an option of the other mode is not a parameter, so it cannot be ignored
    with pytest.raises(TypeError, match="restarts"):
        exhaustive_max_sum(4, 3, restarts=3)
    with pytest.raises(TypeError, match="seed"):
        exhaustive_max_product(3, seed=1)
    with pytest.raises(TypeError, match="iso_pruning"):
        local_search_product(4, 1, iso_pruning=True)
    # every exhaustive search takes one first graph per class: no switch
    with pytest.raises(TypeError, match="iso_pruning"):
        exhaustive_max_sum(4, 3, iso_pruning=True)
    with pytest.raises(TypeError, match="checkpoint"):
        local_search_product(4, 1, checkpoint="run.json")


def test_report_json_schema():
    report = exhaustive_max_product(3)
    doc = report.to_json_dict()
    assert doc["best_value"] == "8"
    assert isinstance(doc["witnesses"], list) and doc["witnesses"]
    assert all(isinstance(h, str) for w in doc["witnesses"] for h in w)
    assert doc["references"]["seed_value"] == str(theory_bound("product", 3, 3)) == "8"
    assert doc["exhaustive"] is True


def test_witness_cap_and_overflow():
    report = exhaustive_max_sum(3, 3, witness_cap=1)
    assert len(report.witnesses) == 1
    full = exhaustive_max_sum(3, 3)
    if len(full.witnesses) > 1:
        assert report.witness_overflow
