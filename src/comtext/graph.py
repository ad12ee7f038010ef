"""Undirected weighted graphs over string node ids.

Edge weights fuse the two attribute signals on the structural edge set:
``W(u, v) = alpha * s(u, v) + (1 - alpha) * sv(u, v)`` with ``alpha`` = 0.5
by default.  Zero-weight edges stay in the edge set (structure and weights
are separate concerns); they contribute nothing to strengths or scores.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .corpus import EdgeList, node_id, read_lines
from .errors import GraphError, ParameterError, ParseError
from .similarity import SymmetricMatrix


class WeightedGraph:
    """Immutable undirected weighted graph; adjacency sorted by neighbor id.

    ``precision`` snaps each weight to that many decimal places, the grid
    :meth:`write_csv` exports, so a reloaded export is bit-identical;
    ``None`` keeps weights exact.
    """

    __slots__ = ("nodes", "_adjacency", "_edges", "total_weight")

    def __init__(self, nodes: Sequence[str], weighted_edges: Iterable[tuple[str, str, float]],
                 *, precision: int | None = None):
        self.nodes = tuple(nodes)
        # Every endpoint is rebound to its object in ``self.nodes``, so the
        # graph holds each id string once however many edges name it.
        shared = {u: u for u in self.nodes}
        if len(shared) != len(self.nodes):
            raise GraphError("duplicate node ids")
        edges: list[tuple[str, str, float]] = []
        for u, v, w in weighted_edges:
            try:
                u, v = shared[u], shared[v]
            except KeyError:
                raise GraphError(f"edge ({u!r}, {v!r}) references an unknown node") from None
            if u is v:
                raise GraphError(f"self-loop at {u!r}")
            if not math.isfinite(w):
                raise GraphError(f"non-finite weight on edge ({u!r}, {v!r})")
            if w < 0.0:
                raise GraphError(f"negative weight on edge ({u!r}, {v!r})")
            if v < u:
                u, v = v, u
            edges.append((u, v, float(w if precision is None else f"{w:.{precision}f}")))
        edges.sort()
        for (u, v, _), (x, y, _) in zip(edges, edges[1:]):
            if u is x and v is y:
                raise GraphError(f"duplicate edge {(u, v)!r}")
        self._edges = tuple(edges)
        # Sorted edges fill each adjacency list in neighbor order: the
        # smaller ids first, then the larger ones.
        adjacency: dict[str, list[tuple[str, float]]] = {u: [] for u in self.nodes}
        for u, v, w in self._edges:
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        self._adjacency = {u: tuple(adjacency.pop(u)) for u in self.nodes}
        self.total_weight = math.fsum(w for _, _, w in self._edges)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def has_node(self, node: str) -> bool:
        return node in self._adjacency

    def neighbors(self, node: str) -> tuple[tuple[str, float], ...]:
        try:
            return self._adjacency[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def strength(self, node: str) -> float:
        """Weighted degree: sum of incident edge weights."""
        return math.fsum(w for _, w in self.neighbors(node))

    def edges(self) -> tuple[tuple[str, str, float], ...]:
        """Canonical edge tuples (min id first, sorted)."""
        return self._edges

    def write_csv(self, path, precision: int = 6) -> None:
        """``u,v,weight`` lines; isolated nodes appear as ``u,,`` so the
        node set round-trips through :func:`read_csv`."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{u},,\n" for u in sorted(self.nodes) if not self._adjacency[u])
            fh.writelines(f"{u},{v},{w:.{precision}f}\n" for u, v, w in self._edges)

    @classmethod
    def read_csv(cls, path, *, precision: int | None = None) -> "WeightedGraph":
        """Load a graph written by :meth:`write_csv`; nodes come out sorted."""
        nodes: dict[str, str] = {}  # each id maps to the one object all its edges share
        edges: list[tuple[str, str, float]] = []
        for where, line in read_lines(path):
            fields = line.split(",")
            if len(fields) != 3:
                raise ParseError(f"{where}: expected 'u,v,weight'")
            u = node_id(fields[0], where)
            u = nodes.setdefault(u, u)
            if not fields[1].strip() and not fields[2].strip():
                continue
            v = node_id(fields[1], where)
            v = nodes.setdefault(v, v)
            try:
                w = float(fields[2])
            except ValueError:
                raise ParseError(f"{where}: weight is not a number") from None
            if not math.isfinite(w):
                raise ParseError(f"{where}: weight is not finite")
            edges.append((u, v, w))
        return cls(tuple(sorted(nodes)), edges, precision=precision)


def build_weighted_graph(
    edges: EdgeList,
    s: SymmetricMatrix,
    sv: SymmetricMatrix,
    alpha: float = 0.5,
    *,
    precision: int | None = None,
) -> WeightedGraph:
    """Fuse content similarity ``s`` and sentiment bias ``sv`` into edge weights.

    Both matrices must share one node order; nodes without edges are kept as
    isolated vertices.  ``alpha`` is the content-similarity share of the
    weight (0.5 weights both signals equally; 1 ignores sentiment).
    ``precision`` snaps weights as in :class:`WeightedGraph`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha!r}")
    if s.nodes != sv.nodes:
        raise GraphError("similarity and bias matrices disagree on node order")
    weighted = []
    for u, v in edges.edges:
        try:
            weight = alpha * s.get(u, v) + (1.0 - alpha) * sv.get(u, v)
        except KeyError:
            raise GraphError(f"edge ({u!r}, {v!r}) references an unknown node") from None
        weighted.append((u, v, weight))
    return WeightedGraph(s.nodes, weighted, precision=precision)


def structural_graph(edges: EdgeList, nodes: Sequence[str]) -> WeightedGraph:
    """Unit-weight graph on the structural edge set."""
    return WeightedGraph(nodes, [(u, v, 1.0) for u, v in edges.edges])
