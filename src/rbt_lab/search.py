"""Exhaustive and heuristic maximization over rainbow-triangle-free systems.

Graphs are C(n,2)-bit integers in colex order, so a system is a tuple of
ints and the whole search runs on machine words.  Both objectives and
rainbow-freeness are unchanged when the graphs are permuted, so exhaustive
search enumerates only tuples with |G1| >= |G2| >= ... >= |Gt|, level by
level with branch-and-bound, and expands each maximizer found to all of
its orderings (lex-leader symmetry breaking; Crawford, Ginsberg, Luks and
Roy, 1996).  Each node carries its prefix's forbidden-edge mask: the edges
that would close a triangle whose other two edges lie in two distinct
prefix graphs.  A graph can be appended without creating a rainbow
triangle iff it avoids that mask, so only admissible children are ever
generated, as subsets of its complement.  The final slot is never
enumerated: every subset of the complement is admissible, so the
maximizing last graph is the complement itself.  The last two graphs are
then a pair of edge sets with no conflicting edges across, and every
maximizer is a closed pair of that symmetric relation: neither graph can
gain an edge.  A node whose children are the last free graph lists only
those pairs, by Close-by-One (`_close_pairs`), and cuts every branch that
cannot reach the best value found so far.

The first graphs are the isomorphism classes of graphs on n vertices,
one canonical form each, grown as a tree of one-vertex extensions
(canonical augmentation).  Only the classes with enough edges to reach
the seed value are built, with the classes on the way to them: each
level of the tree has a floor of edges below which no descendant gets
enough, so the cost follows those classes, not all of them.  Runs split
the first level into fixed-size chunks, runs of the parent classes on
n - 1 vertices whose children are the first graphs, each pruned against
the same seed value, whose results merge deterministically; reports
therefore do not depend on the thread count, on the order in which
chunks run, or on which chunks a checkpoint resume replays.

Local search for the product objective takes the balanced bipartite
triple plus seeded random maximal fills and keeps the best; it does not
climb from them.  The fills do not use `_cross`: they keep one flat list
of adjacency rows and one of forbidden rows, a row per (graph, vertex),
updated per added edge from a cached table of the moves.
"""

from __future__ import annotations

import json
import random
import time
from functools import lru_cache, partial
from math import prod
from pathlib import Path
from typing import Any, Callable, Collection, Sequence

from .canonical import CANONICAL_MAX_N, _rows, _twins, canonical_bits, canonical_system_bits
from .graph import Graph, Record, _check_vertex_count, bits_to_hex, iter_bits, max_edge_count
from .systems import GraphSystem, load_json

# `extend` and `walk` recurse once per graph and once per added edge, so t
# is held well inside the interpreter's recursion limit
_MAX_T = 32
# parent classes on n - 1 vertices per exhaustive work unit, the unit of
# parallelism and of checkpointing
_CHUNK_SIZE = 64
# bumped whenever the stored chunk record or the meaning of its counters
# changes, so older files are refused
_CHECKPOINT_FORMAT = 10


def _require_positive(**options: int) -> None:
    for name, value in options.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


class SearchReport(Record):
    """Search outcome: best objective value, maximizing systems, and counters.

    `_report` merges the records of all search units into it.  witnesses
    hold each graph as its colex bit integer, in canonical form up to
    n = CANONICAL_MAX_N = 8 and raw above it; when there are more than
    the cap, the least ones are kept.  In exhaustive mode only tuples with
    |G1| >= ... >= |Gt| whose G1 is a canonical form, one per isomorphism
    class, are walked, and every ordering of each maximizer found is a
    witness.  nodes counts the expanded partial tuples of that walk and
    pruned counts the admissible (rainbow-free) children and the whole
    subtrees of children cut by the optimistic bound, and the first graphs
    it cuts once a chunk's best has risen above the seed value; first
    graphs with too few edges to reach the seed value are never built, so
    never counted.  At the last two graphs nodes counts the closed pairs
    visited and pruned the Close-by-One branches cut by the bound or by
    the edge count of the graph before them.  references hold
    seed_value, the value of the extremal construction the search starts
    from, in both modes.  For t <= 2 the answer, t copies of K_n, is
    written down: one node, none pruned, no references.
    In local mode nodes counts the fill moves examined, 3 * C(n,2) per
    random restart, and pruned counts the moves refused by the
    forbidden-edge mask.
    config records the options that shaped the report under the "mode"
    of the entry point that produced it, which `exhaustive` reads.
    Unlike the other records its fields can be reassigned, so it has no hash.
    """

    __slots__ = ("objective", "n", "t", "best_value", "witnesses", "witness_overflow",
                 "nodes", "pruned", "wall_time", "references", "config")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, objective: str, n: int, t: int, best_value: int,
                 witnesses: list[tuple[int, ...]], witness_overflow: bool, nodes: int,
                 pruned: int, wall_time: float, references: dict[str, int] | None = None,
                 config: dict[str, Any] | None = None):
        self._fill(objective, n, t, best_value, witnesses, witness_overflow, nodes, pruned,
                   wall_time, {} if references is None else references,
                   {} if config is None else config)

    @property
    def exhaustive(self) -> bool:
        return self.config["mode"] == "exhaustive"

    def witness_systems(self) -> list[GraphSystem]:
        return [
            GraphSystem(n=self.n, graphs=tuple(Graph.from_bits(self.n, b) for b in w))
            for w in self.witnesses
        ]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "objective": self.objective,
            "n": self.n,
            "t": self.t,
            "best_value": str(self.best_value),
            "witnesses": [[bits_to_hex(self.n, b) for b in w] for w in self.witnesses],
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

    This is the search's admissibility mask, which `rbt_free_bits` also
    uses; `find_rainbow_triangle` is the rainbow test of a system.  For a
    rainbow-free prefix with union U and forbidden mask F (the edges closing
    a triangle whose other two edges lie in two distinct prefix graphs), a
    new graph g keeps the system rainbow-free iff g & F == 0, and the
    extended system's mask is F | _cross(through, U, g).
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
    """Rainbow-freeness of raw bit-integer graphs, by `_cross`: the checkpoint's witness check."""
    if len(graphs) < 3:
        # a rainbow triangle needs three graphs; n = 64's table is 125k tuples
        return True
    through = _through_pairs(n)
    union = forbidden = 0
    for g in graphs:
        if g & forbidden:
            return False
        forbidden |= _cross(through, union, g)
        union |= g
    return True


# -- extremal constructors ---------------------------------------------------------


def two_complete_one_empty(n: int) -> GraphSystem:
    """Triple attaining the sum bound n(n-1): two complete graphs and an empty one."""
    return GraphSystem.of(Graph.complete(n), Graph.complete(n), Graph.empty(n))


def balanced_bipartite_system(n: int, t: int) -> GraphSystem:
    """t copies of the balanced complete bipartite graph; sum is t*floor(n^2/4)."""
    _require_positive(t=t)
    g = Graph.complete_bipartite(n // 2, n - n // 2)
    return GraphSystem(n=n, graphs=(g,) * t)


def bipartite_triple(n: int) -> GraphSystem:
    """Three copies of the balanced bipartite graph; product is floor(n^2/4)^3."""
    return balanced_bipartite_system(n, 3)


# -- exhaustive search ---------------------------------------------------------------


def _optimistic(is_sum: bool, remaining: int, part: int) -> Callable[[int, int], int]:
    """score(count, later), the value of a sorted tuple with `remaining` graphs still open.

    part is the value of the graphs before them, 0 or 1 for none; the next graph
    has count edges and each after it later.  A closure: a `partial` costs more per call.
    """
    if is_sum:
        return lambda count, later: part + count + (remaining - 1) * later
    return lambda count, later: part * count * later ** (remaining - 1)


def _fewest_edges(objective: str, t: int, value: int) -> int:
    """The least e such that a t-tuple whose first graph has e edges can reach value.

    Every later graph of a sorted tuple has at most |G1| edges, so a first
    graph with fewer edges is cut by `_search_chunk`'s optimistic bound.
    """
    is_sum = objective == "sum"
    score = _optimistic(is_sum, t, 0 if is_sum else 1)
    e = 0
    while score(e, e) < value:
        e += 1
    return e


def _parent_floor(q: int, fewest: int) -> int:
    """The fewest edges of the parent of a class on q vertices with at least `fewest`.

    The parent of a class c loses the least degree of c, at most
    floor(2|c| / q), and x - floor(2x / q) never falls as x grows.
    """
    return fewest - 2 * fewest // q


def _children(q: int, h: int, fewest: int) -> list[int]:
    """The classes on q vertices with at least `fewest` edges whose parent is h.

    The parent of a class is the class of its canonical form c with the top
    vertex q - 1 deleted, c & low with low the first C(q-1, 2) colex bits,
    so every class on q vertices is the child of exactly one class on
    q - 1 (canonical augmentation; McKay, "Isomorph-free exhaustive
    generation", 1998).  A child is the form of h plus a vertex q - 1 with
    some neighbourhood s, whose edges take the top q - 1 colex positions.
    Three filters skip s before it is canonicalized:
    - the top vertex of a min-colex form has the least degree, so with d
      the least degree of h and M the set of its vertices of that degree,
      s is skipped when |s| > d + (M <= s);
    - s is skipped when |h| + |s| < fewest;
    - twins u < v of h (`_twins`, shared with the labeling search), with
      the same neighbours apart from each other, can be swapped without
      changing h, so s is skipped when it holds v but not u: the swap maps
      it to a smaller s of the same class; the least s of its orbit is kept.
    Canonicalizing h | s << C(q-1, 2) gives a form c, kept when its parent
    is h; a class reached twice from h is kept once.
    """
    p = q - 1
    top = max_edge_count(p)
    low = (1 << top) - 1
    rows = _rows(p, h)
    degrees = [row.bit_count() for row in rows]
    least = min(degrees, default=0)
    argmin = sum(1 << v for v, d in enumerate(degrees) if d == least)
    need = fewest - h.bit_count()
    # per vertex v with twins below it, v's bit and the bits of those twins
    twins = [(1 << v, below) for v, below in enumerate(_twins(p, [rows])) if below]
    seen: set[int] = set()
    kids = []
    for s in range(1 << p):
        size = s.bit_count()
        if size < need or size > least + (argmin & ~s == 0):
            continue
        if any(s & bit and below & ~s for bit, below in twins):
            continue
        c = canonical_bits(q, h | s << top)
        if c not in seen:
            seen.add(c)
            # h is its own form, so c & low == h needs no second canonicalization
            if c & low == h or canonical_bits(p, c & low) == h:
                kids.append(c)
    return kids


def _first_level(n: int, fewest: int = 0) -> list[int]:
    """The sorted canonical forms of the classes on n vertices with at least `fewest` edges.

    They are grown one vertex at a time from the graph on no vertices as
    the tree of `_children`, each level q cut at a floor f_q of edges:
    f_n = fewest and f_(q-1) = `_parent_floor`(q, f_q), so no class on
    the way to one with enough edges is cut.  At n = 7 the whole level is
    2,898 canonicalizations instead of 2^21.
    """
    floors = [fewest]
    for q in range(n, 1, -1):
        floors.append(_parent_floor(q, floors[-1]))
    classes = [0]
    for q in range(1, n + 1):
        classes = sorted(c for h in classes for c in _children(q, h, floors[n - q]))
    return classes


def _canonical_witness(n: int, graphs: tuple[int, ...]) -> tuple[int, ...]:
    if n <= CANONICAL_MAX_N:
        return canonical_system_bits(n, graphs)
    return graphs


def _orderings(items: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every distinct ordering of items, each once, however often a value repeats."""
    if len(items) < 2:
        return [items]
    # each value leads once, from its first position
    return [(x,) + rest for i, x in enumerate(items) if x not in items[:i]
            for rest in _orderings(items[:i] + items[i + 1:])]


def _close_pairs(avail: int, rows: dict[int, int], cap: int, score: Callable[[int, int], int],
                 bar: int) -> tuple[list[tuple[int, int]], int, int, int]:
    """The closed pairs (g, h) of the last two graphs whose value reaches bar.

    score(|g|, |h|) is the value of the tuple.  Edge x of g and edge y of h
    conflict iff x is in rows[y], a symmetric relation, and every tuple of
    the best value is a closed pair: each of g and h is every edge of avail
    that conflicts with nothing in the other, or one could gain an edge.
    Close-by-One (Kuznetsov 1993) visits each closed pair once; down its
    tree g only grows and h only shrinks, which bounds a branch before its
    closure.  A sorted tuple also needs cap >= |g| >= |h|, so a node whose
    g has more than cap edges is cut with its subtree, and a branch that
    cannot reach bar, raised to each value found, is cut.

    Returns the pairs at the final bar, each once, that bar (unchanged if
    none reach it), and the closed pairs visited and branches cut.
    """
    nodes = pruned = 0

    def derive(h: int) -> int:
        cross = 0
        while h:
            low = h & -h
            cross |= rows[low]
            h ^= low
        return avail & ~cross

    hits: list[tuple[int, int, int]] = []

    def visit(g: int, h: int, above: int) -> None:
        nonlocal nodes, pruned, bar
        nodes += 1
        gc, hc = g.bit_count(), h.bit_count()
        if hc <= gc and score(gc, hc) >= bar:
            bar = score(gc, hc)
            hits.append((g, h, bar))
        free = avail & ~g & -above
        if gc == cap:
            # every branch adds an edge to g
            pruned += free.bit_count()
            return
        while free:
            bit = free & -free
            free ^= bit
            # g gains at most this edge and every free one above it, h only loses
            reach = min(cap, gc + 1 + free.bit_count())
            if score(reach, min(hc, reach)) < bar:
                # so this branch and every later one, with fewer edges above, is cut
                pruned += 1 + free.bit_count()
                break
            nh = h & ~rows[bit]
            if score(reach, min(nh.bit_count(), reach)) < bar:
                pruned += 1
                continue
            ng = derive(nh)
            if (ng ^ g) & (bit - 1):
                continue
            if ng.bit_count() > cap:
                pruned += 1
            else:
                visit(ng, nh, bit << 1)

    g = derive(avail)
    if g.bit_count() > cap:
        pruned += 1
    else:
        visit(g, avail, 1)
    # hit values never fall, so only those at the final bar survive
    return [(g, h) for g, h, value in hits if value == bar], bar, nodes, pruned


def _search_chunk(objective: str, n: int, t: int, incumbent: int, tie_cap: int,
                  first_graphs: Sequence[int]) -> dict[str, Any]:
    """Search the rainbow-free t-tuples, t >= 3, whose first graph lies in `first_graphs`.

    Only tuples with |G1| >= |G2| >= ... >= |Gt| are walked: each graph
    has at most cap = |previous graph| edges, and every later graph at
    most min(room, cap), where room counts the edges it may still use.
    Each node carries the union of its prefix and the prefix's forbidden
    mask (see `_cross`), so its admissible children are exactly the
    subsets of the complement `avail` of that mask.  Above the last two
    graphs the children are walked depth first, adding edges of avail in
    ascending order up to cap; room only shrinks as a child grows, and no
    later graph has more edges than the child can reach, which bounds its
    whole subtree.  The last two graphs are listed as closed
    pairs by `_close_pairs`.  Every cut compares `_optimistic` with the
    best value.

    Returns the chunk record: the chunk-local best value, its witnesses
    and node/prune counters.  Each hit is recorded with all its orderings,
    canonicalized; relabeling commutes with permuting the graphs, so these
    are the witnesses a walk over every order would find.  Only the
    current best is tracked, so the witness set resets whenever it rises;
    it keeps the least tie_cap witnesses, and the caller passes one more
    than it reports, so a full set is how it sees an overflow.  Pruning is
    strict, so tuples tying the incumbent are always visited.
    """
    m = max_edge_count(n)
    full = (1 << m) - 1
    through = _through_pairs(n)
    is_sum = objective == "sum"
    best = incumbent
    witnesses: set[tuple[int, ...]] = set()
    nodes = 0
    pruned = 0

    def record(graphs: list[int], value: int) -> None:
        nonlocal best, witnesses
        if value > best:
            best, witnesses = value, set()
        first = _canonical_witness(n, tuple(graphs))
        if first in witnesses:
            return  # it came with every ordering of its tuple
        witnesses.update(_canonical_witness(n, p) for p in _orderings(first))
        if len(witnesses) > 2 * tie_cap:
            # a witness dropped here stays out: tie_cap smaller ones are kept
            witnesses = set(sorted(witnesses)[:tie_cap])

    def extend(prefix: list[int], part: int, union: int, forbidden: int) -> None:
        nonlocal nodes, pruned
        nodes += 1
        avail = full & ~forbidden
        remaining = t - len(prefix)
        cap = prefix[-1].bit_count()
        # edges outside avail are forbidden already, so rows can drop them
        rows = {1 << e: _cross(through, union, 1 << e) & avail for e in iter_bits(avail)}
        bound = _optimistic(is_sum, remaining, part)

        if remaining == 2:
            pairs, value, visited, cut = _close_pairs(avail, rows, cap, bound, best)
            nodes += visited
            pruned += cut
            for g, h in pairs:
                record(prefix + [g, h], value)
            return

        def walk(g: int, cross: int, above: int) -> None:
            # cross: edges closing a triangle with one edge in g, one in union
            nonlocal pruned
            gc = g.bit_count()
            room = (avail & ~cross).bit_count()
            if bound(gc, min(room, gc)) < best:
                pruned += 1
            else:
                prefix.append(g)
                extend(prefix, part + gc if is_sum else part * gc, union | g, forbidden | cross)
                prefix.pop()
            free = avail & -above
            if gc == cap or not free:
                return
            # the graphs in g's subtree add edges of free only, so have at most
            # top edges, as has every later graph; room only shrinks
            top = min(cap, gc + free.bit_count())
            if bound(top, min(room, top)) < best:
                pruned += 1
                return
            while free:
                bit = free & -free
                free ^= bit
                walk(g | bit, cross | rows[bit], bit << 1)

        walk(0, 0, 1)

    # every later graph has at most |g1| edges
    start = _optimistic(is_sum, t, 0 if is_sum else 1)
    for g1 in first_graphs:
        cand = g1.bit_count()
        if start(cand, cand) < best:
            pruned += 1
            continue
        extend([g1], cand, g1, 0)

    return {
        "best": best,
        "witnesses": sorted(witnesses)[:tie_cap],
        "nodes": nodes,
        "pruned": pruned,
    }


def _search_classes(objective: str, n: int, t: int, incumbent: int, tie_cap: int,
                    fewest: int, parents: Sequence[int]) -> dict[str, Any]:
    """`_search_chunk` over the classes on n vertices whose parents are `parents`.

    Only the classes with at least `fewest` edges are built and searched.
    """
    first = sorted(c for h in parents for c in _children(n, h, fewest))
    return _search_chunk(objective, n, t, incumbent, tie_cap, first)


def _seed_value(objective: str, n: int, t: int) -> int:
    if objective == "sum":
        if t < 3:
            # a rainbow triangle needs three graphs, so t copies of K_n are optimal
            return t * max_edge_count(n)
        if t == 3:
            return two_complete_one_empty(n).total_edges()
        return balanced_bipartite_system(n, t).total_edges()
    return prod(bipartite_triple(n).edge_counts())


def _map(threads: int, fn, items: Sequence):
    """map(fn, items) in order; in a pool of at most one process per item, for two or more."""
    if threads == 1 or len(items) < 2:
        yield from map(fn, items)
        return
    # imported here, so that a run that never fans out never loads the pool
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        yield from pool.map(fn, items)


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

    The file is decoded by `load_json`, which refuses a key given twice,
    and every record is checked against the header before any is used, so
    a damaged or forged file, or a path that cannot be read, is refused
    with ValueError, never merged.
    """
    try:
        doc = load_json(Path(path).read_text())
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot use checkpoint {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.keys() != {"header", "done"}:
        raise ValueError(f"checkpoint {path} must hold exactly a header and done chunks")
    if doc["header"] != header:
        raise ValueError(f"checkpoint {path} was written by a different search setup")
    done, count = doc["done"], header["num_chunks"]
    if not isinstance(done, dict) or not done.keys() <= {str(i) for i in range(count)}:
        raise ValueError(f"checkpoint {path} must map chunk ids 0..{count - 1} to records")
    for key, record in done.items():
        if error := _record_error(header, record):
            raise ValueError(f"checkpoint {path}, chunk {key}: {error}")
    return done


def _save_checkpoint(path: str, header: dict[str, Any], done: dict[str, Any]) -> None:
    # a sibling of its own, so the replace is atomic whatever the suffix
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(json.dumps({"header": header, "done": done}))
        tmp.replace(path)
    except OSError as exc:
        raise ValueError(f"cannot use checkpoint {path}: {exc}") from None


def _report(objective: str, n: int, t: int, records: Collection[dict[str, Any]],
            witness_cap: int, started: float, references: dict[str, int],
            config: dict[str, Any]) -> SearchReport:
    """The one merge of search records, each already holding canonical witnesses."""
    best = max(r["best"] for r in records)
    witnesses = sorted({tuple(w) for r in records if r["best"] == best for w in r["witnesses"]})
    return SearchReport(
        objective=objective,
        n=n,
        t=t,
        best_value=best,
        witnesses=witnesses[:witness_cap],
        witness_overflow=len(witnesses) > witness_cap,
        nodes=sum(r["nodes"] for r in records),
        pruned=sum(r["pruned"] for r in records),
        wall_time=time.perf_counter() - started,
        references=references,
        config=config,
    )


def _run_exhaustive(objective: str, n: int, t: int, threads: int, witness_cap: int,
                    checkpoint: str | None) -> SearchReport:
    _require_positive(t=t, threads=threads, witness_cap=witness_cap)
    _check_vertex_count(n)
    if t >= 3 and n > CANONICAL_MAX_N:
        # refused before any work: the first level is canonical forms on n vertices
        raise ValueError(f"a t >= 3 search lists graph classes first; "
                         f"canonicalization supported up to n={CANONICAL_MAX_N}")
    if t > _MAX_T:
        raise ValueError(f"a t >= 3 search recurses once per graph and edge; "
                         f"t must be <= {_MAX_T}, got {t}")
    started = time.perf_counter()
    seed_value = _seed_value(objective, n, t)
    if t < 3:
        # a rainbow triangle needs three graphs, so t copies of K_n, their
        # own canonical form, are the unique maximizer: one chunk of one node
        chunks = [[(1 << max_edge_count(n)) - 1] * t]
        references = {}

        def search(chunk: list[int]) -> dict[str, Any]:
            return {"best": seed_value, "witnesses": [chunk], "nodes": 1, "pruned": 0}
    else:
        # a chunk is a run of parent classes on n - 1 vertices, whose
        # children its worker builds and searches; a first graph with fewer
        # than fewest edges cannot reach the seed value, so none is built,
        # nor any class below the floor of its level
        fewest = _fewest_edges(objective, t, seed_value)
        parents = _first_level(n - 1, _parent_floor(n, fewest))
        chunks = [parents[i : i + _CHUNK_SIZE] for i in range(0, len(parents), _CHUNK_SIZE)]
        # every chunk prunes against the seed value alone, so its record does
        # not depend on which chunks ran before it, in this process or another
        search = partial(_search_classes, objective, n, t, seed_value, witness_cap + 1, fewest)
        references = {"seed_value": seed_value}
    header = {
        "format": _CHECKPOINT_FORMAT,
        "objective": objective,
        "n": n,
        "t": t,
        "witness_cap": witness_cap,
        "chunk_size": _CHUNK_SIZE,
        "num_chunks": len(chunks),
        "seed_value": seed_value,
    }
    done = _load_checkpoint(checkpoint, header) if checkpoint else {}
    pending = [str(i) for i in range(len(chunks)) if str(i) not in done]
    if checkpoint and pending:
        # saved before any chunk runs, so an unusable path fails first; a
        # finished checkpoint is left as it is
        _save_checkpoint(checkpoint, header, done)
    records = _map(threads, search, [chunks[int(key)] for key in pending])
    for key, record in zip(pending, records, strict=True):
        done[key] = record
        if checkpoint:
            _save_checkpoint(checkpoint, header, done)
    config = {"mode": "exhaustive", "threads": threads, "chunk_size": _CHUNK_SIZE}
    return _report(objective, n, t, done.values(), witness_cap, started, references, config)


def exhaustive_max_sum(n: int, t: int, *, threads: int = 1, witness_cap: int = 64,
                       checkpoint: str | None = None) -> SearchReport:
    """Exact maximum of the total edge count over rainbow-free t-tuples.

    threads splits the fixed chunks over processes without changing the
    report; at most witness_cap maximizers are reported; checkpoint names
    a file of finished chunks that a rerun of the same setup resumes from.
    """
    return _run_exhaustive("sum", n, t, threads, witness_cap, checkpoint)


def exhaustive_max_product(n: int, *, threads: int = 1, witness_cap: int = 64,
                           checkpoint: str | None = None) -> SearchReport:
    """Exact maximum of |G1||G2||G3| over rainbow-free triples.

    Takes the options of `exhaustive_max_sum`.  The report's seed value is
    that of the bipartite triple, floor(n^2/4)^3, which the maxima at
    n <= 8 equal; without containment that bound fails at every n >= 15
    (see `certify.conjecture_margin`), past the search's reach.
    """
    return _run_exhaustive("product", n, 3, threads, witness_cap, checkpoint)


# -- local search --------------------------------------------------------------------


def _shuffle(items: list, rng: random.Random) -> None:
    """Fisher-Yates shuffle in place, drawing exactly what `rng.shuffle(items)` draws.

    Each i from the top down swaps with r <= i, drawn by rejection on
    (i + 1).bit_length() bits, a count taken once per power-of-two band.
    """
    getrandbits = rng.getrandbits
    i = len(items) - 1
    while i > 0:
        k = (i + 1).bit_length()
        stop = (1 << (k - 1)) - 2
        for i in range(i, stop, -1):
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            items[i], items[r] = items[r], items[i]
        i = stop


@lru_cache(maxsize=1)
def _fill_moves(n: int) -> tuple[tuple[int, ...], ...]:
    """The fill's moves by graph, then colex edge, as `_random_rbt_free_triple` unpacks them."""
    bits = [1 << v for v in range(n)]
    moves = []
    for g in range(3):
        i, j, k = g * n, (g + 1) % 3 * n, (g + 2) % 3 * n
        moves += [(i + a, i + b, bits[b], bits[a], j + a, j + b, k + a, k + b)
                  for b in range(n) for a in range(b)]
    return tuple(moves)


def _random_rbt_free_triple(n: int, rng: random.Random) -> list[int]:
    """Random maximal fill: walk all (graph, edge) moves in shuffled order.

    adj and forb hold 3n rows, row i*n + v for vertex v of G_i: adj's is
    v's neighbour row in G_i, forb's the vertices w such that the edge vw
    would close a triangle whose other two edges lie in the two other
    graphs.  Each forbidden edge is recorded at one or both of its ends,
    so a move is refused iff either end records it.  Each move is visited
    once, so every refused edge stays refused and the result is maximal.
    The moves are `_fill_moves(n)` shuffled as `rng.shuffle` would; that
    order fixes the fill each seed gives.
    """
    adj, forb = [0] * (3 * n), [0] * (3 * n)
    moves = list(_fill_moves(n))
    _shuffle(moves, rng)
    for ia, ib, bit_b, bit_a, ja, jb, ka, kb in moves:
        if forb[ia] & bit_b or forb[ib] & bit_a:
            continue
        adj[ia] |= bit_b
        adj[ib] |= bit_a
        # a new rainbow triangle abc puts ab in G_i and ac, bc in G_j, G_k
        forb[jb] |= adj[ka]
        forb[ja] |= adj[kb]
        forb[kb] |= adj[ja]
        forb[ka] |= adj[jb]
    return [Graph._trusted(n, adj[i * n:i * n + n]).to_bits() for i in range(3)]


def _local_restart(n: int, seed: int, restart_index: int) -> dict[str, Any]:
    """Restart 0 is the bipartite triple, any other a fill seeded by (seed, restart_index).

    Returns the chunk record.  Its witness is canonicalized here only when
    its product reaches restart 0's, since a lower one is never the best.
    """
    if restart_index == 0:
        graphs = tuple(g.to_bits() for g in bipartite_triple(n).graphs)
        moves = refused = 0
    else:
        graphs = tuple(_random_rbt_free_triple(n, random.Random((seed << 20) ^ restart_index)))
        moves = 3 * max_edge_count(n)
        # every move not taken was refused by the mask
        refused = moves - sum(g.bit_count() for g in graphs)
    best = _value("product", graphs)
    witnesses = [_canonical_witness(n, graphs)] if best >= _seed_value("product", n, 3) else []
    return {"best": best, "witnesses": witnesses, "nodes": moves, "pruned": refused}


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
    _check_vertex_count(n)
    started = time.perf_counter()
    records = list(_map(threads, partial(_local_restart, n, seed), range(restarts)))
    references = {"seed_value": _seed_value("product", n, 3)}
    config = {"mode": "local", "seed": seed, "restarts": restarts, "threads": threads}
    return _report("product", n, 3, records, witness_cap, started, references, config)
