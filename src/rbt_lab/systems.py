"""Systems of graphs on a shared vertex set and rainbow-triangle machinery.

A rainbow triangle picks its three edges from three distinct graphs of the
system.  Detection never lists triangles: with the graphs in order of edge
count, a rainbow triangle has an edge uv in the first of its three graphs,
X, and its third vertex w is joined to u and to v in two distinct later
graphs.  For each edge uv of X those w are a few word operations on the
rows of u and v, counted bit-sliced over the later graphs, so the scan
walks the edges of the sparser graphs and the densest two are never walked.
"""

from __future__ import annotations

import json
from operator import and_, or_
from typing import Any, Iterable, Sequence

from .graph import MAX_VERTICES, Edge, Graph, PairError, Record, Triangle, iter_bits


class GraphSystem(Record):
    """Ordered tuple of graphs sharing one vertex set."""

    __slots__ = ("n", "graphs")

    def __init__(self, n: int, graphs: tuple[Graph, ...]):
        if not graphs:
            raise ValueError("a system needs at least one graph")
        for i, g in enumerate(graphs):
            if g.n != n:
                raise ValueError(f"graph {i} has n={g.n}, system has n={n}")
        self._fill(n, graphs)

    @classmethod
    def of(cls, *graphs: Graph) -> GraphSystem:
        if not graphs:
            raise ValueError("a system needs at least one graph")
        return cls(n=graphs[0].n, graphs=tuple(graphs))

    @property
    def t(self) -> int:
        return len(self.graphs)

    def union(self) -> Graph:
        return Graph._trusted(self.n, _multiplicity_levels([g.rows for g in self.graphs], 1)[0])

    def edge_membership(self, u: int, v: int) -> int:
        """Bitmask of graph indices containing edge (u, v)."""
        mask = 0
        for i, g in enumerate(self.graphs):
            if g.rows[u] >> v & 1:
                mask |= 1 << i
        return mask

    def edge_counts(self) -> tuple[int, ...]:
        return tuple(g.edge_count() for g in self.graphs)

    def total_edges(self) -> int:
        return sum(self.edge_counts())

    def to_json_dict(self, compact: bool = False) -> dict[str, Any]:
        if compact:
            return {"n": self.n, "hex": [g.to_hex() for g in self.graphs]}
        return {
            "n": self.n,
            # the order of Graph.edges(), ascending colex, without an Edge per edge
            "graphs": [
                [[u, v] for v, row in enumerate(g.rows) for u in iter_bits(row & ((1 << v) - 1))]
                for g in self.graphs
            ],
        }

    def to_json(self, compact: bool = False) -> str:
        return json.dumps(self.to_json_dict(compact))


class RainbowWitness(Record):
    """A triangle plus the strictly increasing graph indices its edges come from.

    edges[j] is the triangle edge assigned to graphs[graph_indices[j]], so the
    three edges are a permutation of the triangle's edge list.
    """

    __slots__ = ("triangle", "graph_indices", "edges")

    def __init__(self, triangle: Triangle, graph_indices: tuple[int, int, int],
                 edges: tuple[Edge, Edge, Edge]):
        self._fill(triangle, graph_indices, edges)

    def is_valid_for(self, system: GraphSystem) -> bool:
        i1, i2, i3 = self.graph_indices
        if not (0 <= i1 < i2 < i3 < system.t):
            return False
        if sorted(self.edges) != sorted(self.triangle.edges):
            return False
        return all(
            system.graphs[i].has_edge(e.u, e.v)
            for i, e in zip(self.graph_indices, self.edges)
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "triangle": list(self.triangle),
            "graphs": list(self.graph_indices),
            "edges": [[e.u, e.v] for e in self.edges],
        }


def _multiplicity_levels(graph_rows: Sequence[Sequence[int]], depth: int) -> list[list[int]]:
    """levels[k][v]: the vertices joined to v in more than k of the graphs, for k < depth.

    Bit-sliced counting: each graph lifts the neighbours it shares with
    level k - 1 into level k.
    """
    levels = [[0] * len(graph_rows[0]) for _ in range(depth)]
    for r in graph_rows:
        for k in range(depth - 1, 0, -1):
            levels[k] = [hi | (lo & x) for hi, lo, x in zip(levels[k], levels[k - 1], r)]
        levels[0] = [lo | x for lo, x in zip(levels[0], r)]
    return levels


def _pick_sdr(masks: Sequence[int]) -> tuple[int, ...]:
    """First distinct-index assignment (i1, i2, i3), i_k in masks[k], by graph index."""
    for i1 in iter_bits(masks[0]):
        for i2 in iter_bits(masks[1] & ~(1 << i1)):
            for i3 in iter_bits(masks[2] & ~(1 << i1) & ~(1 << i2)):
                return (i1, i2, i3)
    raise ValueError(f"membership masks {list(masks)} admit no distinct assignment")


def _witness(s: GraphSystem, tri: Triangle) -> RainbowWitness:
    tri_edges = tri.edges
    picked = _pick_sdr([s.edge_membership(e.u, e.v) for e in tri_edges])
    by_index = sorted(zip(picked, tri_edges))
    return RainbowWitness(
        triangle=tri,
        graph_indices=tuple(i for i, _ in by_index),
        edges=tuple(e for _, e in by_index),
    )


def find_rainbow_triangle(s: GraphSystem) -> RainbowWitness | None:
    """First rainbow triangle in (b, a, c) order, or None.

    Triangles a < b < c of the union are ordered by b, then a, then c, as
    `Graph.triangles` lists them; the witness assigns the first distinct
    graph indices, by index, to the edges ab, ac, bc (see `_pick_sdr`).
    Systems with fewer than three nonempty graphs, or a triangle-free
    union, cannot contain one.

    With the graphs sorted by edge count, ties by index, a rainbow triangle
    has an edge uv in X, the first of its three graphs in that order, and
    its third vertex w is joined to u and v in two distinct graphs of R,
    the graphs after X.  The stages take X from the third-densest graph
    down to the sparsest, so R gains one graph per stage, and scan X's
    edges uv, u < v, row u by row u.  Each edge gives its first triangle
    off the bits of its w; a row whose least possible (b, a) comes after
    the best triangle so far is passed over, and the scan of a stage stops
    at the first row u past that triangle's b.
    """
    n, t = s.n, s.t
    if t < 3 or sum(1 for g in s.graphs if any(g.rows)) < 3:
        return None
    # by edge count; the sort is stable, so ties keep index order
    rows = [g.rows for g in sorted(s.graphs, key=lambda g: sum(map(int.bit_count, g.rows)))]
    # per stage k = t - 3, ..., 0: m1[w], m2[w], the vertices joined to w in
    # at least 1, 2 of the graphs after rows[k]; with rows[0], m1 is the union
    m1, m2 = list(map(or_, rows[-2], rows[-1])), list(map(and_, rows[-2], rows[-1]))
    levels = [(m1, m2)]
    for x in rows[t - 3:0:-1]:
        m2 = list(map(or_, m2, map(and_, m1, x)))
        m1 = list(map(or_, m1, x))
        levels.append((m1, m2))
    if Graph._trusted(n, map(or_, m1, rows[0])).is_triangle_free():
        return None
    best = (n, n, n)  # (b, a, c) of the first rainbow triangle found so far
    for k, (m1, m2) in zip(range(t - 3, -1, -1), levels):
        x, later = rows[k], rows[k + 1:]
        for u in range(n):
            if u > best[0]:
                break
            up, m1u, m2u = x[u] >> (u + 1) << (u + 1), m1[u], m2[u]
            if not (up and m1u):
                continue
            # the least (b, a) of a triangle on an edge uv of this row: u and
            # the least w < u joined to u in R, else the least such w > u or
            # v, and u
            if low := m1u & ((1 << u) - 1):
                head = (u, (low & -low).bit_length() - 1)
            else:
                high = (m1u | up) >> u
                head = (u - 1 + (high & -high).bit_length(), u)
            if head > best[:2]:
                continue
            if head == best[:2]:
                up &= (1 << best[2]) - 1
            once_u = m1u & ~m2u
            while up:
                v = (up & -up).bit_length() - 1
                up ^= 1 << v
                # w with uw and vw in two distinct graphs of R; where both
                # lie in one graph each, that graph must differ
                w = (m2u & m1[v]) | (m1u & m2[v])
                if once := once_u & m1[v] & ~m2[v]:
                    same = 0
                    for r in later:
                        same |= r[u] & r[v]
                    w |= once & ~same
                if not w:
                    continue
                if below := w & ((1 << u) - 1):
                    tri = (u, (below & -below).bit_length() - 1, v)
                elif inside := w & ((1 << v) - 1):
                    tri = ((inside & -inside).bit_length() - 1, u, v)
                else:
                    tri = (v, u, (w & -w).bit_length() - 1)
                if tri < best:
                    best = tri
                    if tri[:2] == head:
                        up &= (1 << tri[2]) - 1
    if best[0] == n:
        return None
    b, a, c = best
    return _witness(s, Triangle(a, b, c))


def is_rbt_free(s: GraphSystem) -> bool:
    return find_rainbow_triangle(s) is None


def triangle_incidence(s: GraphSystem, z: Iterable[int]) -> int:
    """Sum over the three graphs of how many of Z's three edges each contains."""
    _require_t3(s)
    a, b, c = _three_set(s, z)
    return sum(
        s.edge_membership(u, v).bit_count() for u, v in ((a, b), (a, c), (b, c))
    )


def auxiliary_incidence_graph(s: GraphSystem, z: Iterable[int]) -> Graph:
    """Bipartite graph on 3 + 3 vertices: graph index i meets edge j iff G_i holds it.

    Left side 0..2 are graph indices; right side 3..5 are the edges of Z in
    the fixed order (a,b), (a,c), (b,c) for a < b < c.  A perfect matching in
    this graph is exactly a rainbow triangle on Z.
    """
    _require_t3(s)
    a, b, c = _three_set(s, z)
    pairs = ((a, b), (a, c), (b, c))
    rows = [0] * 6
    for j, (u, v) in enumerate(pairs):
        members = s.edge_membership(u, v)
        for i in iter_bits(members):
            rows[i] |= 1 << (3 + j)
            rows[3 + j] |= 1 << i
    return Graph(6, rows)


def _require_t3(s: GraphSystem) -> None:
    if s.t != 3:
        raise ValueError(f"operation requires exactly 3 graphs, system has {s.t}")


def _three_set(s: GraphSystem, z: Iterable[int]) -> tuple[int, int, int]:
    zs = sorted(set(z))
    if len(zs) != 3:
        raise ValueError(f"expected a 3-set of vertices, got {zs}")
    if zs[0] < 0 or zs[-1] >= s.n:
        raise ValueError(f"vertices {zs} out of range for n={s.n}")
    return zs[0], zs[1], zs[2]


def nest_reduce(s: GraphSystem) -> GraphSystem:
    """Rewrite the system into the nested chain G'_1 <= ... <= G'_t.

    The chain keeping every edge's multiplicity across the system is unique:
    G'_i holds the edges lying in at least t - i + 1 graphs.  It is what
    repeatedly replacing a non-comparable pair by (intersection, union)
    converges to, so the total edge count is unchanged and rainbow-freeness
    survives.
    """
    levels = _multiplicity_levels([g.rows for g in s.graphs], s.t)
    return GraphSystem(n=s.n, graphs=tuple(Graph._trusted(s.n, r) for r in reversed(levels)))


def is_nested(s: GraphSystem) -> bool:
    return all(
        s.graphs[i].is_subgraph_of(s.graphs[i + 1]) for i in range(s.t - 1)
    )


def edge_multiplicities(s: GraphSystem) -> dict[tuple[int, int], int]:
    """Map edge -> number of graphs containing it, over the union's edges."""
    out: dict[tuple[int, int], int] = {}
    for e in s.union().edges():
        out[(e.u, e.v)] = s.edge_membership(e.u, e.v).bit_count()
    return out


# -- serialization ------------------------------------------------------------


def system_from_json_dict(doc: Any) -> GraphSystem:
    """Parse either the edge-list form {"n", "graphs"} or compact {"n", "hex"}."""
    if not isinstance(doc, dict):
        raise ValueError("system document must be a JSON object")
    if "n" not in doc:
        raise ValueError('system document is missing "n"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError('"n" must be an integer')
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be in 1..{MAX_VERTICES}, got {n}")
    if "graphs" in doc and "hex" in doc:
        raise ValueError('system document has both "graphs" and "hex"')
    if "graphs" in doc:
        entries = doc["graphs"]
        if not isinstance(entries, list) or not entries:
            raise ValueError('"graphs" must be a non-empty list of edge lists')
        graphs = []
        for gi, edge_list in enumerate(entries):
            if not isinstance(edge_list, list):
                raise ValueError(f"graph {gi}: edge list expected")
            try:
                graphs.append(Graph.from_edges(n, edge_list))
            except PairError as exc:
                raise ValueError(f"graph {gi}, edge {exc.index}: expected [u, v]") from None
            except ValueError as exc:
                raise ValueError(f"graph {gi}: {exc}") from None
        return GraphSystem(n=n, graphs=tuple(graphs))
    if "hex" in doc:
        entries = doc["hex"]
        if not isinstance(entries, list) or not entries:
            raise ValueError('"hex" must be a non-empty list of strings')
        graphs = []
        for gi, text in enumerate(entries):
            if not isinstance(text, str):
                raise ValueError(f"hex entry {gi} is not a string")
            try:
                graphs.append(Graph.from_hex(n, text))
            except ValueError as exc:
                raise ValueError(f"graph {gi}: {exc}") from None
        return GraphSystem(n=n, graphs=tuple(graphs))
    raise ValueError('system document needs either "graphs" or "hex"')


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r} in a JSON object")
        doc[key] = value
    return doc


def load_json(text: str) -> Any:
    """Decode a JSON document; malformed or too deeply nested text, or a key
    given twice in one object, raises ValueError naming what is wrong."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def system_from_json(text: str) -> GraphSystem:
    return system_from_json_dict(load_json(text))
