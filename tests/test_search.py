import json
import random
from itertools import combinations

import pytest

from rbt_lab import (
    Graph,
    GraphSystem,
    balanced_bipartite_system,
    bipartite_triple,
    brute_force_max,
    exhaustive_max_product,
    exhaustive_max_sum,
    is_rbt_free,
    local_search_product,
    max_edge_count,
    max_triangle_free_edges,
    two_complete_one_empty,
)
from rbt_lab import search
from rbt_lab.search import _random_rbt_free_triple, allowed_last_graph_mask, rbt_free_bits


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


def test_exhaustive_reference_values():
    assert exhaustive_max_sum(4, 3).best_value == 12
    assert exhaustive_max_sum(4, 4).best_value == 16
    assert exhaustive_max_product(2).best_value == 1
    assert exhaustive_max_sum(2, 4).best_value == 4  # t*floor(4/4), every pair free


def test_iso_pruning_same_value():
    plain = exhaustive_max_sum(4, 3)
    iso = exhaustive_max_sum(4, 3, iso_pruning=True)
    assert plain.best_value == iso.best_value
    assert iso.nodes < plain.nodes


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
        assert rbt_free_bits(n, bits) == is_rbt_free(s)


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
    assert report.nodes == 617_690
    full = (1 << 10) - 1
    assert report.witnesses == [(0, full, full), (full, 0, full), (full, full, 0)]
    assert not report.witness_overflow


def test_allowed_last_mask_is_exact():
    rng = random.Random(72)
    for _ in range(200):
        n = rng.randint(3, 5)
        m = max_edge_count(n)
        while True:
            prefix = [rng.randrange(1 << m) for _ in range(rng.randint(1, 3))]
            if rbt_free_bits(n, prefix):
                break
        allowed = allowed_last_graph_mask(n, prefix)
        for e in range(m):
            extended = prefix + [1 << e]
            assert rbt_free_bits(n, extended) == bool(allowed >> e & 1)
        # the full allowed mask itself is admissible
        assert rbt_free_bits(n, prefix + [allowed])


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


def test_budget_enforced(monkeypatch):
    with pytest.raises(ValueError, match="budget"):
        exhaustive_max_sum(6, 3)
    monkeypatch.setenv("RBT_LAB_BUDGET", "20")
    with pytest.raises(ValueError, match="budget"):
        exhaustive_max_sum(4, 4)  # 24 bits > 20
    monkeypatch.setenv("RBT_LAB_BUDGET", "24")
    assert exhaustive_max_sum(4, 4).best_value == 16
    monkeypatch.setenv("RBT_LAB_BUDGET", "bogus")
    with pytest.raises(ValueError):
        exhaustive_max_sum(3, 3)


def test_thread_count_invariance(monkeypatch):
    monkeypatch.setattr(search, "_CHUNK_SIZE", 8)
    base = exhaustive_max_sum(4, 3)
    threaded = exhaustive_max_sum(4, 3, threads=2)
    assert base.best_value == threaded.best_value
    assert base.witnesses == threaded.witnesses
    assert base.witness_overflow == threaded.witness_overflow
    # at t = 2 the seed value is below the optimum, so a chunk pruning against
    # an incumbent carried over from earlier chunks would count differently
    monkeypatch.setattr(search, "_CHUNK_SIZE", 1)
    for n in (3, 4):
        base = exhaustive_max_sum(n, 2)
        threaded = exhaustive_max_sum(n, 2, threads=2)
        assert (base.best_value, base.witnesses, base.nodes, base.pruned) == (
            threaded.best_value,
            threaded.witnesses,
            threaded.nodes,
            threaded.pruned,
        )


def test_chunk_size_invariance_t2(monkeypatch):
    # the t = 2 seed is the optimum 2 * C(n, 2), so no chunk's incumbent rises
    reports = []
    for c in (1, 4, 64):
        monkeypatch.setattr(search, "_CHUNK_SIZE", c)
        reports.append(exhaustive_max_sum(4, 2))
    assert reports[0].best_value == 12
    for r in reports[1:]:
        assert (r.nodes, r.pruned, r.best_value, r.witnesses) == (
            reports[0].nodes,
            reports[0].pruned,
            reports[0].best_value,
            reports[0].witnesses,
        )


def test_exhaustive_run_to_run_determinism():
    a = exhaustive_max_sum(4, 3, iso_pruning=True)
    b = exhaustive_max_sum(4, 3, iso_pruning=True)
    assert (a.best_value, a.witnesses, a.nodes, a.pruned) == (
        b.best_value,
        b.witnesses,
        b.nodes,
        b.pruned,
    )


def test_checkpoint_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_CHUNK_SIZE", 8)
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
        doc = report.to_json_dict()
        del doc["wall_time"]
        expected = fresh.to_json_dict()
        del expected["wall_time"]
        assert doc == expected


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


def test_checkpoint_resume_n5_iso(tmp_path, monkeypatch):
    # the intended use: resumable runs at the n=5 budget edge
    monkeypatch.setattr(search, "_CHUNK_SIZE", 8)
    path = tmp_path / "n5.json"
    plain = exhaustive_max_sum(5, 3, iso_pruning=True)
    first = exhaustive_max_sum(5, 3, iso_pruning=True, checkpoint=str(path))
    assert first.best_value == plain.best_value == 20
    assert first.witnesses == plain.witnesses

    doc = json.loads(path.read_text())
    done = doc["done"]
    assert len(done) > 2
    for key in list(done.keys())[1::2]:
        del done[key]
    path.write_text(json.dumps(doc))
    resumed = exhaustive_max_sum(5, 3, iso_pruning=True, checkpoint=str(path))
    assert resumed.best_value == first.best_value
    assert resumed.witnesses == first.witnesses
    assert resumed.nodes == first.nodes


def test_local_search_consistent_with_conjecture_larger_n():
    # a failure here would mean a local search restart beat floor(n^2/4)^3, i.e. a
    # counterexample to the open product bound; record the witness if so
    for n in (12, 16, 20):
        report = local_search_product(n, 2026, restarts=3)
        bound = (n * n // 4) ** 3
        assert report.best_value >= report.references["constructor_value"]
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
    assert report.references["constructor_value"] == 25**3


def test_local_search_deterministic():
    a = local_search_product(6, 99, restarts=4)
    b = local_search_product(6, 99, restarts=4)
    assert a.best_value == b.best_value
    assert a.witnesses == b.witnesses
    assert a.nodes == b.nodes

    threaded = local_search_product(6, 99, restarts=4, threads=2)
    assert threaded.best_value == a.best_value
    assert threaded.witnesses == a.witnesses


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
    with pytest.raises(TypeError, match="checkpoint"):
        local_search_product(4, 1, checkpoint="run.json")


def test_report_json_schema():
    report = exhaustive_max_product(3)
    doc = report.to_json_dict()
    assert doc["best_value"] == "8"
    assert isinstance(doc["witnesses"], list) and doc["witnesses"]
    assert all(isinstance(h, str) for w in doc["witnesses"] for h in w)
    assert doc["references"]["conjecture_bound"] == "8"
    assert doc["exhaustive"] is True


def test_witness_cap_and_overflow():
    report = exhaustive_max_sum(3, 3, witness_cap=1)
    assert len(report.witnesses) == 1
    full = exhaustive_max_sum(3, 3)
    if len(full.witnesses) > 1:
        assert report.witness_overflow
