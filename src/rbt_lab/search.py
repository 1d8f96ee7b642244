"""Exhaustive and heuristic maximization over rainbow-triangle-free systems.

Graphs are C(n,2)-bit integers in colex order, so a system is a tuple of
ints and the whole search runs on machine words.  Exhaustive search
enumerates ordered tuples level by level with branch-and-bound.  Each
node carries its prefix's forbidden-edge mask: the edges that would close
a triangle whose other two edges lie in two distinct prefix graphs.  A
graph can be appended without creating a rainbow triangle iff it avoids
that mask, so only admissible children are ever generated, as submasks of
its complement.  The final slot is never enumerated: every subset of the
complement is admissible, so the maximizing last graph is the complement
itself.

Parallel runs split the first-graph range into fixed-size chunks, each
pruned against the same seed value, whose results merge deterministically;
reports therefore do not depend on the thread count, on the order in which
chunks run, or on which chunks a checkpoint resume replays.

Local search for the product objective takes the balanced bipartite
triple plus seeded random maximal fills, built on the same kernel, and
keeps the best; it does not climb from them.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import prod
from pathlib import Path
from typing import Any, Sequence

from .canonical import CANONICAL_MAX_N, canonical_bits, canonical_system_bits
from .certify import theory_bound
from .graph import Graph, max_edge_count
from .systems import GraphSystem

BUDGET_ENV_VAR = "RBT_LAB_BUDGET"
DEFAULT_BUDGET_BITS = 32

_OBJECTIVES = ("sum", "product")
# first graphs per exhaustive work unit, the unit of parallelism and of checkpointing
_CHUNK_SIZE = 64
# bumped whenever the stored chunk record changes, so older files are refused
_CHECKPOINT_FORMAT = 2


def _require_positive(**options: int) -> None:
    for name, value in options.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class SearchReport:
    """Search outcome: best objective value, maximizing systems, and counters.

    witnesses hold each graph as its colex bit integer; canonical forms are
    used when n is small enough to canonicalize (n <= 8).  In exhaustive
    mode nodes counts expanded partial tuples and pruned counts admissible
    (rainbow-free) children cut by the optimistic bound.  In local mode
    nodes counts the fill moves examined, 3 * C(n,2) per random restart,
    and pruned counts the moves refused by the forbidden-edge mask.
    config records the options that shaped the report under the "mode"
    of the entry point that produced it.
    """

    objective: str
    n: int
    t: int
    best_value: int
    witnesses: list[tuple[int, ...]]
    witness_overflow: bool
    nodes: int
    pruned: int
    wall_time: float
    exhaustive: bool
    references: dict[str, int] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)

    def witness_systems(self) -> list[GraphSystem]:
        return [
            GraphSystem(n=self.n, graphs=tuple(Graph.from_bits(self.n, b) for b in w))
            for w in self.witnesses
        ]

    def to_json_dict(self) -> dict[str, Any]:
        nbytes = (max_edge_count(self.n) + 7) // 8
        return {
            "objective": self.objective,
            "n": self.n,
            "t": self.t,
            "best_value": str(self.best_value),
            "witnesses": [
                [b.to_bytes(nbytes, "little").hex() for b in w] for w in self.witnesses
            ],
            "witness_overflow": self.witness_overflow,
            "nodes": str(self.nodes),
            "pruned": str(self.pruned),
            "wall_time": self.wall_time,
            "exhaustive": self.exhaustive,
            "references": {k: str(v) for k, v in self.references.items()},
            "config": self.config,
        }


# -- bit-level primitives --------------------------------------------------------


@lru_cache(maxsize=32)
def _through_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per edge e, the pairs of other edges that close a triangle with e."""
    through: list[list[tuple[int, int]]] = [[] for _ in range(max_edge_count(n))]
    for c in range(n):
        for b in range(c):
            for a in range(b):
                e_ab = b * (b - 1) // 2 + a
                e_ac = c * (c - 1) // 2 + a
                e_bc = c * (c - 1) // 2 + b
                through[e_ab].append((e_ac, e_bc))
                through[e_ac].append((e_ab, e_bc))
                through[e_bc].append((e_ab, e_ac))
    return tuple(tuple(x) for x in through)


def _cross(through: Sequence[tuple[tuple[int, int], ...]], union: int, g: int) -> int:
    """Edges e closing a triangle {e, f, h} with f in g and h in union.

    This is the rainbow kernel.  For a rainbow-free prefix with union U and
    forbidden mask F (the edges closing a triangle whose other two edges lie
    in two distinct prefix graphs), a new graph g keeps the system
    rainbow-free iff g & F == 0, and the extended system's mask is
    F | _cross(through, U, g).
    """
    out = 0
    while g:
        low = g & -g
        for a, b in through[low.bit_length() - 1]:
            if union >> b & 1:
                out |= 1 << a
            if union >> a & 1:
                out |= 1 << b
        g ^= low
    return out


def rbt_free_bits(n: int, graphs: Sequence[int]) -> bool:
    """Rainbow-freeness check on raw bit-integer graphs."""
    through = _through_pairs(n)
    union = forbidden = 0
    for g in graphs:
        if g & forbidden:
            return False
        forbidden |= _cross(through, union, g)
        union |= g
    return True


def allowed_last_graph_mask(n: int, prefix: Sequence[int]) -> int:
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


# -- extremal constructors ---------------------------------------------------------


def two_complete_one_empty(n: int) -> GraphSystem:
    """Triple attaining the sum bound n(n-1): two complete graphs and an empty one."""
    if n < 1:
        raise ValueError("n must be positive")
    return GraphSystem.of(Graph.complete(n), Graph.complete(n), Graph.empty(n))


def balanced_bipartite_system(n: int, t: int) -> GraphSystem:
    """t copies of the balanced complete bipartite graph; sum is t*floor(n^2/4)."""
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    g = Graph.complete_bipartite(n // 2, n - n // 2)
    return GraphSystem(n=n, graphs=(g,) * t)


def bipartite_triple(n: int) -> GraphSystem:
    """Three copies of the balanced bipartite graph; product is floor(n^2/4)^3."""
    return balanced_bipartite_system(n, 3)


# -- exhaustive search ---------------------------------------------------------------


def _check_budget(n: int, t: int) -> None:
    raw = os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_BUDGET_BITS))
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    bits = max_edge_count(n) * t
    if bits > budget:
        raise ValueError(
            f"search space is 2^{bits} tuples which exceeds the 2^{budget} budget; "
            f"raise {BUDGET_ENV_VAR} to override"
        )


def _first_level(n: int, iso_pruning: bool) -> list[int]:
    m = max_edge_count(n)
    if not iso_pruning:
        return list(range(1 << m))
    return sorted({canonical_bits(n, g) for g in range(1 << m)})


def _canonical_witness(n: int, graphs: tuple[int, ...]) -> tuple[int, ...]:
    if n <= CANONICAL_MAX_N:
        return canonical_system_bits(n, graphs)
    return graphs


def _search_chunk(
    objective: str,
    n: int,
    t: int,
    incumbent: int,
    tie_cap: int,
    first_graphs: Sequence[int],
) -> dict[str, Any]:
    """Enumerate all rainbow-free tuples whose first graph lies in `first_graphs`.

    Each node carries the union of its prefix and the prefix's forbidden
    mask (see `_cross`), so its admissible children are exactly the
    submasks of the complement of that mask; they are walked in ascending
    order.  Returns the chunk record: the chunk-local best value, the
    sorted tuples attaining it, and node/prune counters.  Only the current
    best is tracked, so the witness set resets whenever it rises; it keeps
    at most tie_cap tuples, and the caller passes one more than it reports,
    so a full set is how it sees an overflow.  Pruning is strict, so tuples
    tying the incumbent are always visited.
    """
    m = max_edge_count(n)
    full = (1 << m) - 1
    through = _through_pairs(n)
    is_sum = objective == "sum"
    best = incumbent
    witnesses: set[tuple[int, ...]] = set()
    nodes = 0
    pruned = 0

    def extend(prefix: list[int], part: int, union: int, forbidden: int) -> None:
        nonlocal best, witnesses, nodes, pruned
        nodes += 1
        k = len(prefix)
        avail = full & ~forbidden
        if k == t - 1:
            count = avail.bit_count()
            value = part + count if is_sum else part * count
            if value < best:
                return
            if value > best:
                best, witnesses = value, set()
            if len(witnesses) < tie_cap:
                witnesses.add(_canonical_witness(n, tuple(prefix) + (avail,)))
            return
        remaining = t - k
        rows = [_cross(through, union, 1 << e) for e in range(m)]
        # cross[g] = edges closing a triangle with one edge in g, one in union;
        # each submask extends one visited earlier by its lowest edge
        cross = {0: 0}
        g = 0
        while True:
            gc = g.bit_count()
            cand = part + gc if is_sum else part * gc
            optimistic = (
                cand + (remaining - 1) * m if is_sum else cand * m ** (remaining - 1)
            )
            if optimistic < best:
                pruned += 1
            else:
                prefix.append(g)
                extend(prefix, cand, union | g, forbidden | cross[g])
                prefix.pop()
            g = (g - avail) & avail
            if not g:
                break
            low = g & -g
            cross[g] = cross[g ^ low] | rows[low.bit_length() - 1]

    for g1 in first_graphs:
        cand = g1.bit_count()
        optimistic = cand + (t - 1) * m if is_sum else cand * m ** (t - 1)
        if optimistic < best:
            pruned += 1
            continue
        extend([g1], cand, g1, 0)

    return {
        "best": best,
        "witnesses": sorted(witnesses),
        "nodes": nodes,
        "pruned": pruned,
    }


def _seed_value(objective: str, n: int, t: int) -> int:
    if objective == "sum":
        if t < 3:
            # a rainbow triangle needs three graphs, so t copies of K_n are optimal
            return t * max_edge_count(n)
        if t == 3:
            return two_complete_one_empty(n).total_edges()
        return balanced_bipartite_system(n, t).total_edges()
    return prod(bipartite_triple(n).edge_counts())


def _map(threads: int, fn, *iterables):
    """map(fn, *iterables), in a pool of `threads` processes when threads > 1; in order."""
    if threads == 1:
        yield from map(fn, *iterables)
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, *iterables)


def _value(objective: str, graphs: Sequence[int]) -> int:
    counts = [g.bit_count() for g in graphs]
    return sum(counts) if objective == "sum" else prod(counts)


def _record_error(header: dict[str, Any], record: Any) -> str | None:
    """Why `record` cannot be a chunk record of the search `header` describes, or None."""
    if not isinstance(record, dict) or record.keys() != {"best", "witnesses", "nodes", "pruned"}:
        return "its keys are not best, witnesses, nodes and pruned"
    best, witnesses = record["best"], record["witnesses"]
    if not all(type(v) is int and v >= 0 for v in (best, record["nodes"], record["pruned"])):
        return "best, nodes and pruned must be non-negative integers"
    if best < header["seed_value"] or (best > header["seed_value"] and not witnesses):
        return f"best {best} is below the seed value, or above it without a witness"
    if not isinstance(witnesses, list) or len(witnesses) > header["witness_cap"] + 1:
        return "witnesses must be a list of at most witness_cap + 1 systems"
    n, t, size = header["n"], header["t"], 1 << max_edge_count(header["n"])
    for w in witnesses:
        if not (isinstance(w, list) and len(w) == t
                and all(type(g) is int and 0 <= g < size for g in w)):
            return f"witness {w!r} is not {t} graphs on {n} vertices"
        w = tuple(w)
        if (not rbt_free_bits(n, w) or _canonical_witness(n, w) != w
                or _value(header["objective"], w) != best):
            return f"witness {list(w)} is not a canonical rainbow-free system of value {best}"
    return None


def _load_checkpoint(path: str, header: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Chunk records stored at `path` by a run with the same header, keyed by chunk id.

    Every record is checked against the header before any is used, so a
    damaged or forged file is refused with ValueError, never merged.
    """
    if not Path(path).exists():
        return {}
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("header") != header:
        raise ValueError(f"checkpoint {path} was written by a different search setup")
    done, count = doc.get("done"), header["num_chunks"]
    if not isinstance(done, dict) or not done.keys() <= {str(i) for i in range(count)}:
        raise ValueError(f"checkpoint {path} must map chunk ids 0..{count - 1} to records")
    for key, record in done.items():
        if error := _record_error(header, record):
            raise ValueError(f"checkpoint {path}, chunk {key}: {error}")
    return done


def _save_checkpoint(path: str, header: dict[str, Any], done: dict[str, Any]) -> None:
    tmp = Path(path).with_suffix(".tmp")
    tmp.write_text(json.dumps({"header": header, "done": done}))
    tmp.replace(path)


def _run_exhaustive(objective: str, n: int, t: int, threads: int, iso_pruning: bool,
                    witness_cap: int, checkpoint: str | None) -> SearchReport:
    _require_positive(t=t, threads=threads, witness_cap=witness_cap)
    _check_budget(n, t)
    started = time.perf_counter()
    m = max_edge_count(n)
    if t == 1:
        # no rainbow constraint is possible; the complete graph, its own
        # canonical form, is the unique maximizer
        done = {"0": {"best": m, "witnesses": [((1 << m) - 1,)], "nodes": 1, "pruned": 0}}
        references = {}
    else:
        seed_value = _seed_value(objective, n, t)
        first = _first_level(n, iso_pruning)
        chunks = [first[i : i + _CHUNK_SIZE] for i in range(0, len(first), _CHUNK_SIZE)]
        header = {
            "format": _CHECKPOINT_FORMAT,
            "objective": objective,
            "n": n,
            "t": t,
            "iso_pruning": iso_pruning,
            "witness_cap": witness_cap,
            "chunk_size": _CHUNK_SIZE,
            "num_chunks": len(chunks),
            "seed_value": seed_value,
        }
        done = _load_checkpoint(checkpoint, header) if checkpoint else {}
        pending = [str(i) for i in range(len(chunks)) if str(i) not in done]
        # every chunk prunes against the seed value alone, so its record does
        # not depend on which chunks ran before it, in this process or another
        search = partial(_search_chunk, objective, n, t, seed_value, witness_cap + 1)
        records = _map(threads if len(pending) > 1 else 1, search,
                       [chunks[int(key)] for key in pending])
        for key, record in zip(pending, records, strict=True):
            done[key] = record
            if checkpoint:
                _save_checkpoint(checkpoint, header, done)
        references = {"seed_value": seed_value}
        if objective == "product":
            references["conjecture_bound"] = theory_bound("product", n, 3)

    best = max(r["best"] for r in done.values())
    tops = [r for r in done.values() if r["best"] == best]
    witnesses = sorted({tuple(w) for r in tops for w in r["witnesses"]})
    return SearchReport(
        objective=objective,
        n=n,
        t=t,
        best_value=best,
        witnesses=witnesses[:witness_cap],
        witness_overflow=len(witnesses) > witness_cap,
        nodes=sum(r["nodes"] for r in done.values()),
        pruned=sum(r["pruned"] for r in done.values()),
        wall_time=time.perf_counter() - started,
        exhaustive=True,
        references=references,
        config={
            "mode": "exhaustive",
            "iso_pruning": iso_pruning,
            "threads": threads,
            "chunk_size": _CHUNK_SIZE,
        },
    )


def exhaustive_max_sum(n: int, t: int, *, threads: int = 1, iso_pruning: bool = False,
                       witness_cap: int = 64, checkpoint: str | None = None) -> SearchReport:
    """Exact maximum of the total edge count over rainbow-free t-tuples.

    threads splits the fixed chunks over processes without changing the
    report; iso_pruning takes the first graph up to isomorphism; at most
    witness_cap maximizers are reported; checkpoint names a file of
    finished chunks that a rerun of the same setup resumes from.
    """
    return _run_exhaustive("sum", n, t, threads, iso_pruning, witness_cap, checkpoint)


def exhaustive_max_product(n: int, *, threads: int = 1, iso_pruning: bool = False,
                           witness_cap: int = 64, checkpoint: str | None = None) -> SearchReport:
    """Exact maximum of |G1||G2||G3| over rainbow-free triples.

    Takes the options of `exhaustive_max_sum`.  The report's references
    carry floor(n^2/4)^3; a best value above it would be a counterexample
    to the open product conjecture.
    """
    return _run_exhaustive("product", n, 3, threads, iso_pruning, witness_cap, checkpoint)


def brute_force_max(objective: str, n: int, t: int) -> int:
    """Reference maximum by unpruned enumeration of every ordered tuple.

    Deliberately structure-free: no branch-and-bound, no isomorphism
    reduction, no last-slot closure.  Only for cross-validating the real
    search at tiny sizes.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "product" and t != 3:
        raise ValueError("product objective is defined for t = 3")
    bits = max_edge_count(n) * t
    if bits > 18:
        raise ValueError("brute-force reference limited to 2^18 tuples")
    m = max_edge_count(n)
    best = 0
    space = range(1 << m)

    def rec(prefix: tuple[int, ...]) -> None:
        nonlocal best
        if len(prefix) == t:
            if rbt_free_bits(n, prefix):
                best = max(best, _value(objective, prefix))
            return
        for g in space:
            rec(prefix + (g,))

    rec(())
    return best


def max_triangle_free_edges(n: int) -> int:
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


# -- local search --------------------------------------------------------------------


def _random_rbt_free_triple(n: int, rng: random.Random) -> list[int]:
    """Random maximal fill: walk all (graph, edge) moves in shuffled order.

    forbidden[i] holds the edges that would close a triangle whose other two
    edges lie in the two other graphs, so a move is taken iff its edge is
    outside that mask.  Each move is visited once, so every refused edge
    stays refused and the result is maximal.
    """
    m = max_edge_count(n)
    through = _through_pairs(n)
    graphs = [0, 0, 0]
    forbidden = [0, 0, 0]
    moves = [(i, e) for i in range(3) for e in range(m)]
    rng.shuffle(moves)
    for i, e in moves:
        if forbidden[i] >> e & 1:
            continue
        graphs[i] |= 1 << e
        # a new rainbow triangle puts e in G_i and its other edges in G_j, G_k
        j, k = (i + 1) % 3, (i + 2) % 3
        forbidden[j] |= _cross(through, graphs[k], 1 << e)
        forbidden[k] |= _cross(through, graphs[j], 1 << e)
    return graphs


def _local_restart(n: int, seed: int, restart_index: int) -> dict[str, Any]:
    """Restart 0 is the bipartite triple, any other a fill seeded by (seed, restart_index)."""
    if restart_index == 0:
        graphs = [g.to_bits() for g in bipartite_triple(n).graphs]
        moves = refused = 0
    else:
        graphs = _random_rbt_free_triple(n, random.Random((seed << 20) ^ restart_index))
        moves = 3 * max_edge_count(n)
        # every move not taken was refused by the mask
        refused = moves - sum(g.bit_count() for g in graphs)
    a, b, c = (g.bit_count() for g in graphs)
    return {"best": a * b * c, "witness": tuple(graphs), "moves": moves, "refused": refused}


def local_search_product(n: int, seed: int, *, restarts: int = 8, threads: int = 1,
                         witness_cap: int = 64) -> SearchReport:
    """Best product over the bipartite triple and restarts - 1 random maximal fills.

    Every fill is rainbow-free and maximal, and the best of them wins;
    the reported value is a lower bound on the true maximum.  The report
    depends on (n, seed, restarts) and witness_cap only; threads spreads
    the restarts over processes.
    """
    if seed is None:
        raise ValueError("local search requires a seed")
    _require_positive(restarts=restarts, threads=threads, witness_cap=witness_cap)
    started = time.perf_counter()
    results = list(_map(threads if restarts > 1 else 1, partial(_local_restart, n, seed),
                        range(restarts)))

    best = max(r["best"] for r in results)
    # canonicalize only the distinct best-valued witnesses
    raw = {tuple(r["witness"]) for r in results if r["best"] == best}
    witnesses = sorted({_canonical_witness(n, w) for w in raw})
    overflow = len(witnesses) > witness_cap
    witnesses = witnesses[:witness_cap]
    return SearchReport(
        objective="product",
        n=n,
        t=3,
        best_value=best,
        witnesses=witnesses,
        witness_overflow=overflow,
        nodes=sum(r["moves"] for r in results),
        pruned=sum(r["refused"] for r in results),
        wall_time=time.perf_counter() - started,
        exhaustive=False,
        references={
            "conjecture_bound": theory_bound("product", n, 3),
            "constructor_value": prod(bipartite_triple(n).edge_counts()),
        },
        config={
            "mode": "local",
            "seed": seed,
            "restarts": restarts,
            "threads": threads,
        },
    )
