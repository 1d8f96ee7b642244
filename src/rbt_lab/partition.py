"""Constructive X | Y | Z decomposition of a triangle-free graph.

Given a maximum matching of size l, the vertex set splits into matched pairs
(x_i, y_i) and the leftover independent set Z such that every Z vertex sends
its edges into the X side only.  The split immediately yields the edge bound
|E| <= l(n - l).
"""

from __future__ import annotations

from typing import Any

from .graph import Edge, Graph, Record, iter_bits, mask_of
from .matching import MatchingResult, matching_number, maximum_matching
from .reports import CertReport, PreconditionError


class MantelPartition(Record):
    """Paired sides x_side[i] -- y_side[i] plus the independent remainder z_side."""

    __slots__ = ("x_side", "y_side", "z_side", "size")

    def __init__(self, x_side: tuple[int, ...], y_side: tuple[int, ...], z_side: int,
                 size: int):
        self._fill(x_side, y_side, z_side, size)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "x_side": list(self.x_side),
            "y_side": list(self.y_side),
            "z_side": sorted(iter_bits(self.z_side)),
            "size": self.size,
        }


def mantel_partition(g: Graph) -> MantelPartition:
    """Split a triangle-free graph along a maximum matching.

    For each matched pair, the endpoint with neighbors in Z goes to X (at most
    one endpoint can have them); with no Z contact the lower label goes to X.
    """
    if not g.is_triangle_free():
        raise PreconditionError("graph contains a triangle")
    m = maximum_matching(g)
    z_mask = g.vertex_mask & ~m.matched_set
    xs = []
    ys = []
    for e in m.edges:
        u_hits_z = g.rows[e.u] & z_mask
        v_hits_z = g.rows[e.v] & z_mask
        if u_hits_z and v_hits_z:
            # impossible for a maximum matching in a triangle-free graph;
            # reaching this means the matching or triangle check is broken
            raise RuntimeError(
                f"both endpoints of matched pair {tuple(e)} touch Z; "
                "matching is not maximum or graph has a triangle"
            )
        if v_hits_z:
            xs.append(e.v)
            ys.append(e.u)
        else:
            xs.append(e.u)
            ys.append(e.v)
    return MantelPartition(x_side=tuple(xs), y_side=tuple(ys), z_side=z_mask,
                           size=m.size)


def verify_partition(g: Graph, p: MantelPartition) -> bool:
    """Check every invariant of a claimed partition against the graph."""
    if len(p.x_side) != p.size or len(p.y_side) != p.size:
        return False
    if not all(0 <= v < g.n for side in (p.x_side, p.y_side) for v in side):
        return False
    x_mask = mask_of(p.x_side)
    pairs = tuple(Edge(min(x, y), max(x, y)) for x, y in zip(p.x_side, p.y_side))
    m = MatchingResult(pairs, p.size, x_mask | mask_of(p.y_side))
    if not m.is_valid_for(g):
        return False
    if m.matched_set & p.z_side or (m.matched_set | p.z_side) != g.vertex_mask:
        return False
    if any(g.rows[z] & ~x_mask for z in iter_bits(p.z_side)):
        return False
    return p.size == matching_number(g)


def _edge_bound(g: Graph, ell: int) -> CertReport:
    """The report |E| <= l(n - l) for a triangle-free g whose matching number is ell."""
    return CertReport("mantel-edge-bound", g.edge_count(), ell * (g.n - ell),
                      witness={"matching_size": ell, "n": g.n})


def mantel_edge_bound(g: Graph) -> CertReport:
    """Certify |E| <= l(n - l) for a triangle-free graph with matching number l."""
    if not g.is_triangle_free():
        raise PreconditionError("graph contains a triangle")
    return _edge_bound(g, matching_number(g))
