"""Simple graphs on at most 64 labeled vertices, stored as bitmask adjacency rows.

Vertices are dense labels 0..n-1.  A vertex set is a plain int bitmask, so
set algebra is single-word AND/OR/popcount.  Edge serialization order is
colexicographic: index(u, v) = v(v-1)/2 + u for u < v, which is prefix-stable
as n grows.  Graphs are immutable values.

Every decoder reads only the lower triangle, the neighbours of each v below
v, and `Graph._from_lower` mirrors it: the lower rows are packed into one
bit matrix and transposed by log2(w) block swaps, w the least power of two
>= n, so a decode costs a few big-integer operations rather than one per
edge.
"""

from __future__ import annotations

from functools import cache
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 64


def _check_vertex_count(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


def max_edge_count(n: int) -> int:
    """Number of possible edges on n vertices, C(n, 2)."""
    return n * (n - 1) // 2


def bits_to_hex(n: int, bits: int) -> str:
    """Compact hex form of the colex edge bits of a graph on n vertices, little-endian."""
    return bits.to_bytes((max_edge_count(n) + 7) // 8, "little").hex()


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with one bit per vertex label."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def _transpose_masks(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each block swap transposing a w x w bit matrix, w a power of two."""
    steps = []
    j = w >> 1
    while j:
        cols = sum(1 << c for c in range(w) if c & j)
        steps.append((j * (w - 1), sum(cols << (r * w) for r in range(w) if not r & j)))
        j >>= 1
    return tuple(steps)


class Record:
    """Immutable record over its `__slots__`: compared, hashed and shown by field.

    A subclass lists its fields in `__slots__`, in the order its `__init__`
    takes them, and fills them with `_fill`; assigning or deleting a field
    afterwards raises AttributeError.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Edge(NamedTuple):
    u: int
    v: int

    @property
    def index(self) -> int:
        """Colex serialization index, v(v-1)/2 + u."""
        return self.v * (self.v - 1) // 2 + self.u


def edge(u: int, v: int) -> Edge:
    """Normalized edge with u < v; rejects loops and negative labels."""
    if u == v:
        raise ValueError(f"loop edge ({u}, {v}) not allowed")
    if u < 0 or v < 0:
        raise ValueError(f"negative vertex label in ({u}, {v})")
    return Edge(u, v) if u < v else Edge(v, u)


def edge_at(index: int) -> Edge:
    """Inverse of Edge.index."""
    if index < 0:
        raise ValueError("edge index must be nonnegative")
    v = (1 + isqrt(1 + 8 * index)) // 2
    while v * (v - 1) // 2 > index:
        v -= 1
    return Edge(index - v * (v - 1) // 2, v)


class PairError(ValueError):
    """Graph.from_edges met an entry that is not a list or tuple of two int labels at `index`."""

    def __init__(self, index: int, pair: object):
        super().__init__(f"edge {index} is not a pair of int labels: {pair!r}")
        self.index = index


class Triangle(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def edges(self) -> tuple[Edge, Edge, Edge]:
        return (Edge(self.a, self.b), Edge(self.a, self.c), Edge(self.b, self.c))


class Graph:
    """Immutable simple undirected graph; rows[v] is the neighbor bitmask of v."""

    __slots__ = ("n", "rows")

    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: Iterable[int] | None = None):
        _check_vertex_count(n)
        self.n = n
        self.rows = tuple(rows) if rows is not None else (0,) * n
        self._validate()

    @classmethod
    def _trusted(cls, n: int, rows: Iterable[int]) -> Graph:
        """Graph from rows that are symmetric, loop-free and in range by construction.

        Skips `_validate`; only for rows built from already valid graphs or
        from checked input.
        """
        g = object.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        return g

    @classmethod
    def _from_lower(cls, n: int, lower: Sequence[int]) -> Graph:
        """Graph whose row v holds lower[v], the neighbours of v below v, and their mirror.

        The lower rows are packed at stride w, the least power of two >= n,
        into one w x w bit matrix; its transpose holds the upper rows.
        """
        w = 1 << (n - 1).bit_length()
        packed = 0
        for v, row in enumerate(lower):
            packed |= row << (v * w)
        # block-swap transpose (Hacker's Delight, 2nd ed., 7-3): each mask
        # marks the cells (r, c) with bit j clear in r and set in c, which
        # trade places with (r + j, c - j), j(w - 1) bits up
        m = packed
        for shift, mask in _transpose_masks(w):
            d = (m ^ m >> shift) & mask
            m ^= d ^ d << shift
        m |= packed
        full = (1 << w) - 1
        return cls._trusted(n, [m >> (v * w) & full for v in range(n)])

    def _validate(self) -> None:
        n, rows = self.n, self.rows
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"vertex {v} adjacent to itself")
        for v, row in enumerate(rows):
            for u in iter_bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Graph from pairs (u, v); one pass checks each, and the first faulty one raises."""
        _check_vertex_count(n)
        lower = [0] * n
        for pair in edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
                u = v = None
            # `type(x) is int` rejects bools and floats
            if (type(u) is not int or type(v) is not int
                    or type(pair) is not list and not isinstance(pair, tuple)):
                # each pair before this one set one bit
                raise PairError(sum(row.bit_count() for row in lower), pair)
            if u > v:
                u, v = v, u
            if not 0 <= u < v < n:
                edge(*pair)  # raises the loop or negative-label error first
                raise ValueError(f"edge {tuple(pair)} has vertex >= n={n}")
            bit = 1 << u
            row = lower[v]
            if row & bit:
                raise ValueError(f"duplicate edge {tuple(pair)}")
            lower[v] = row | bit
        return cls._from_lower(n, lower)

    @classmethod
    def complete(cls, n: int) -> Graph:
        _check_vertex_count(n)
        full = (1 << n) - 1
        return cls._trusted(n, (full ^ (1 << v) for v in range(n)))

    @classmethod
    def complete_bipartite(cls, left: int, right: int) -> Graph:
        """K_{left,right} with part {0..left-1} against {left..left+right-1}."""
        n = left + right
        if left < 0 or right < 0:
            raise ValueError(f"part sizes must be nonnegative, got {left} and {right}")
        _check_vertex_count(n)
        left_mask = (1 << left) - 1
        right_mask = ((1 << n) - 1) ^ left_mask
        return cls._trusted(n, [right_mask] * left + [left_mask] * right)

    @classmethod
    def from_bits(cls, n: int, bits: int) -> Graph:
        """Graph from its colex edge-bit integer."""
        _check_vertex_count(n)
        m = max_edge_count(n)
        if bits < 0 or bits >> m:
            raise ValueError(f"edge bits out of range for n={n}")
        # row v's lower part is the colex slice of edges (0, v)..(v-1, v)
        return cls._from_lower(n, [bits >> (v * (v - 1) // 2) & ((1 << v) - 1) for v in range(n)])

    @classmethod
    def from_hex(cls, n: int, text: str) -> Graph:
        """Parse the compact hex form: colex edge bits packed little-endian."""
        _check_vertex_count(n)
        nbytes = (max_edge_count(n) + 7) // 8
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise ValueError(f"invalid hex graph {text!r}: {exc}") from None
        if len(text) != 2 * len(raw):  # bytes.fromhex skips whitespace
            raise ValueError(f"invalid hex graph {text!r}: whitespace is not allowed")
        if len(raw) != nbytes:
            raise ValueError(
                f"hex graph {text!r} has {len(raw)} bytes, expected {nbytes} for n={n}"
            )
        return cls.from_bits(n, int.from_bytes(raw, "little"))

    # -- queries -----------------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree_into(self, x: int, targets: int) -> int:
        """Number of neighbors of x inside the target mask; x in targets is ignored."""
        if not 0 <= x < self.n:
            raise ValueError(f"vertex {x} out of range for n={self.n}")
        return (self.rows[x] & targets).bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> list[Edge]:
        """All edges in ascending colex order."""
        flat = self._flat_edges()
        return list(map(Edge, flat[::2], flat[1::2]))

    def _flat_edges(self) -> list[int]:
        """u, v of each edge in turn, in ascending colex order: one walk of the set bits."""
        flat = []
        for v, row in enumerate(self.rows):
            below = row & ((1 << v) - 1)
            while below:
                low = below & -below
                flat += (low.bit_length() - 1, v)
                below ^= low
        return flat

    def _iter_triangles(self) -> Iterator[Triangle]:
        """Triangles a < b < c in (b, a, c) order, one b at a time."""
        rows = self.rows
        for b, row in enumerate(rows):
            up = row >> (b + 1) << (b + 1)
            if not up:
                continue
            for a in iter_bits(row & ((1 << b) - 1)):
                if common := rows[a] & up:
                    for c in iter_bits(common):
                        yield Triangle(a, b, c)

    def triangles(self) -> list[Triangle]:
        """All vertex triples inducing a triangle, each reported once."""
        return list(self._iter_triangles())

    def is_triangle_free(self) -> bool:
        return next(self._iter_triangles(), None) is None

    # -- algebra -----------------------------------------------------------

    def _require_same_n(self, other: Graph) -> None:
        if self.n != other.n:
            raise ValueError(f"vertex counts differ: {self.n} vs {other.n}")

    def __and__(self, other: Graph) -> Graph:
        self._require_same_n(other)
        return Graph._trusted(self.n, (a & b for a, b in zip(self.rows, other.rows)))

    def __or__(self, other: Graph) -> Graph:
        self._require_same_n(other)
        return Graph._trusted(self.n, (a | b for a, b in zip(self.rows, other.rows)))

    def is_subgraph_of(self, other: Graph) -> bool:
        self._require_same_n(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    # -- serialization -------------------------------------------------------

    def to_bits(self) -> int:
        """Colex edge bits as one integer."""
        # edges (0,v)..(v-1,v) occupy the contiguous colex index range
        # starting at v(v-1)/2, in the same order as row bits 0..v-1
        bits = 0
        for v in range(self.n):
            below = self.rows[v] & ((1 << v) - 1)
            bits |= below << (v * (v - 1) // 2)
        return bits

    def to_hex(self) -> str:
        return bits_to_hex(self.n, self.to_bits())

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={[tuple(e) for e in self.edges()]})"
