import random
from functools import lru_cache
from itertools import permutations, product

import pytest

from rbt_lab import Graph, bipartite_triple, max_edge_count
from rbt_lab.canonical import _twins, canonical_bits, canonical_system_bits
from rbt_lab.graph import edge_at, iter_bits


# -- permutation scan, the reference for the pruned labeling search ------------------


@lru_cache(maxsize=None)
def edge_index_maps(n):
    """For every vertex permutation, the induced colex edge-index permutation."""
    maps = []
    for perm in permutations(range(n)):
        table = []
        for i in range(max_edge_count(n)):
            u, v = edge_at(i)
            pu, pv = sorted((perm[u], perm[v]))
            table.append(pv * (pv - 1) // 2 + pu)
        maps.append(table)
    return maps


def reference_canonical(n, graphs):
    """Least tuple of colex images over all n! relabelings, by full scan."""
    positions = [list(iter_bits(g)) for g in graphs]
    best = tuple(graphs)
    for table in edge_index_maps(n):
        img = []
        for pos in positions:
            out = 0
            for i in pos:
                out |= 1 << table[i]
            img.append(out)
        img = tuple(img)
        if img < best:
            best = img
    return best


def bits_of(n, edges):
    return Graph.from_edges(n, edges).to_bits()


def relabel(n, graphs, perm):
    images = []
    for g in graphs:
        edges = Graph.from_bits(n, g).edges()
        images.append(Graph.from_edges(n, [(perm[e.u], perm[e.v]) for e in edges]).to_bits())
    return tuple(images)


CUBE = [(u, u ^ (1 << i)) for u in range(8) for i in range(3) if u < u ^ (1 << i)]
C8 = [(v, (v + 1) % 8) for v in range(8)]
STRUCTURED_8 = {
    "K44 triple": tuple(g.to_bits() for g in bipartite_triple(8).graphs),
    "K8": ((1 << 28) - 1,),
    "empty": (0,),
    "3-cube": (bits_of(8, CUBE),),
    "C8": (bits_of(8, C8),),
    "perfect matching": (bits_of(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),),
    "2K4": (bits_of(8, [(a, b) for part in (range(4), range(4, 8))
                        for a in part for b in part if a < b]),),
    "cube, C8, matching": (bits_of(8, CUBE), bits_of(8, C8),
                           bits_of(8, [(0, 7), (1, 6), (2, 5), (3, 4)])),
}


def test_every_graph_up_to_n5_matches_the_scan():
    for n in range(1, 6):
        for g in range(1 << max_edge_count(n)):
            assert canonical_bits(n, g) == reference_canonical(n, (g,))[0]


@pytest.mark.parametrize("n, count", [(5, 40), (6, 12), (7, 6)])
def test_seeded_graphs_and_triples_match_the_scan(n, count):
    rng = random.Random(n)
    m = max_edge_count(n)
    for _ in range(count):
        g = rng.getrandbits(m)
        assert canonical_bits(n, g) == reference_canonical(n, (g,))[0]
        # dense, sparse and mixed triples
        triple = (rng.getrandbits(m) | rng.getrandbits(m), rng.getrandbits(m) & rng.getrandbits(m),
                  rng.getrandbits(m))
        assert canonical_system_bits(n, triple) == reference_canonical(n, triple)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_system_of_up_to_four_graphs_matches_the_scan(n):
    # each graph's field of the packed bound is C(n, 2) = 0, 1 or 3 bits wide
    graphs = range(1 << max_edge_count(n))
    for t in range(1, 5):
        for system in product(graphs, repeat=t):
            assert canonical_system_bits(n, system) == reference_canonical(n, system)


def test_five_graph_systems_on_four_vertices_match_the_scan():
    # the t = 5 sum's witness, five copies of the 4-cycle 0x1e, every
    # relabeling of it, and seeded systems with repeats and empty graphs
    witness = (0x1E,) * 5
    systems = {witness} | {relabel(4, witness, perm) for perm in permutations(range(4))}
    rng = random.Random(45)
    for _ in range(300):
        systems.add(tuple(rng.choice([0, 0x3F, rng.getrandbits(6)]) for _ in range(5)))
    for graphs in systems:
        assert canonical_system_bits(4, graphs) == reference_canonical(4, graphs)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_bits_out_of_range_raise_without_building_a_graph(monkeypatch, n):
    monkeypatch.setattr(Graph, "from_bits", lambda *args: pytest.fail("built a Graph"))
    m = max_edge_count(n)
    for bad in (1 << m, (1 << (m + 1)) - 1, -1):
        with pytest.raises(ValueError, match="edge bits out of range"):
            canonical_bits(n, bad)
        for system in ((bad,), (0, bad), (bad, 0, 0)):
            with pytest.raises(ValueError, match="edge bits out of range"):
                canonical_system_bits(n, system)


@pytest.mark.parametrize("name", sorted(STRUCTURED_8))
def test_structured_systems_at_n8_match_the_scan(name):
    graphs = STRUCTURED_8[name]
    assert canonical_system_bits(8, graphs) == reference_canonical(8, graphs)


def test_canonical_form_is_invariant_under_relabeling_n8():
    rng = random.Random(8)
    systems = list(STRUCTURED_8.values())
    systems += [tuple(rng.getrandbits(28) for _ in range(3)) for _ in range(10)]
    for graphs in systems:
        form = canonical_system_bits(8, graphs)
        assert form <= graphs
        assert canonical_system_bits(8, form) == form
        for _ in range(5):
            perm = list(range(8))
            rng.shuffle(perm)
            assert canonical_system_bits(8, relabel(8, graphs, perm)) == form


def random_typed_edge_lists(rng, n, t):
    """Edge lists of t graphs, most with each pair's edge set by its vertices' types.

    With few types many vertices are twins, joined or not; a graph with
    random edges among them breaks some of those twins again.
    """
    types = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    edge_lists = []
    for _ in range(t):
        if rng.random() < 0.25:
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
        else:
            rule = {}
            edges = [(u, v) for v in range(n) for u in range(v)
                     if rule.setdefault(tuple(sorted((types[u], types[v]))), rng.random() < 0.5)]
        edge_lists.append(edges)
    return edge_lists


def test_twins_match_the_swap_oracle():
    rng = random.Random(27)
    seen = {"joined twins": 0, "unjoined twins": 0, "not twins": 0}
    for _ in range(400):
        n, t = rng.randint(1, 8), rng.randint(1, 3)
        edge_lists = random_typed_edge_lists(rng, n, t)
        twins = _twins(n, [Graph.from_edges(n, edges).rows for edges in edge_lists])
        assert len(twins) == n
        for v in range(n):
            assert twins[v] >> v == 0
            for u in range(v):
                swap = {u: v, v: u}
                fixed = all(
                    {tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in edges}
                    == set(edges)
                    for edges in edge_lists
                )
                assert bool(twins[v] >> u & 1) == fixed, (n, edge_lists, u, v)
                joined = any((u, v) in edges for edges in edge_lists)
                seen["not twins" if not fixed else "joined twins" if joined
                     else "unjoined twins"] += 1
    assert min(seen.values()) >= 100, seen
