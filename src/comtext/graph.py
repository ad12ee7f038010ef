"""Undirected weighted graphs over string node ids.

Edge weights fuse two pairwise scores, each taken once per structural edge:
``W(u, v) = alpha * s(u, v) + (1 - alpha) * sv(u, v)`` with ``alpha`` = 0.5
by default.  Zero-weight edges stay in the edge set (structure and weights
are separate concerns); they contribute nothing to strengths or scores.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, pairwise
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import EdgeList, index_typecode, node_id, read_lines, write_lines
from .errors import GraphError, ParameterError, ParseError


def _fixed_point(weights: array, precision: int | None) -> tuple[array, float]:
    """``weights``, already snapped to ``precision`` decimal places, as
    ``array('I')`` counts ``m`` of the unit ``10**-precision``, and the scale
    ``10.0**precision`` that gives each weight back as ``m / scale``.

    The division is exact: ``m`` and ``10**precision`` (``precision`` <= 22)
    are exact doubles, and the correctly rounded quotient is the double
    nearest ``m / 10**precision``, which is the snapped weight.  No precision,
    one outside 0..22 or a weight of 2**32 units or more keeps ``weights``
    as they are, with scale 1.0.
    """
    if precision is None or not 0 <= precision <= 22:
        return weights, 1.0
    scale = 10.0 ** precision
    try:
        return array("I", (round(w * scale) for w in weights)), scale
    except OverflowError:  # a count above 2**32 - 1
        return weights, 1.0


def _finite_sum(values: Iterable[float], what: str) -> float:
    """``math.fsum`` of finite ``values``, which raises OverflowError rather
    than return inf; that becomes a GraphError naming ``what``."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise GraphError(f"{what} overflows a float") from None


class DuplicateEdgeError(GraphError):
    """An undirected edge given twice; ``pair`` holds its ids, smaller first."""

    def __init__(self, pair: tuple[str, str]):
        self.pair = pair
        super().__init__(f"duplicate edge {pair!r}")


class WeightedGraph:
    """Immutable undirected weighted graph stored as compressed sparse rows.

    ``nodes`` holds the node ids sorted, and a node's index is its position
    there, so comparing two indices compares the ids.  The neighbors of
    ``nodes[i]`` are ``targets[offsets[i]:offsets[i + 1]]``, sorted by index,
    with the matching edge weights in the same slice of ``weights``.  Each
    edge appears once in each endpoint's slice.  ``targets`` is an
    ``array('H')``, 2 bytes per index, when there are at most 65,536 nodes,
    and an ``array('i')`` above that.  ``strengths[i]`` is the
    node's weighted degree.  Every strength and twice the total weight must
    be finite, or the constructor raises GraphError.  Every id the graph
    hands out is the object in ``nodes``.

    ``precision`` snaps each weight to that many decimal places, the grid
    :meth:`write_csv` exports, so a reloaded export is bit-identical;
    ``None`` keeps weights exact.  A row entry's weight is
    ``weights[a] / scale``.  When ``precision`` is 0 to 22 and every
    snapped weight is below 2**32 units, ``weights`` is an ``array('I')`` of
    those units, 4 bytes per entry, and ``scale`` is ``10.0**precision``;
    the division gives back the snapped double exactly.  Otherwise
    ``weights`` is an ``array('d')`` and ``scale`` 1.0.  A weight of -0.0
    keeps the doubles, whose sign the units cannot hold.  :meth:`row`
    yields a node's neighbors with the division applied; no other module
    reads ``offsets``, ``targets``, ``weights`` or ``scale``.

    :meth:`unit_weights` gives the structural graph on the same edges as a
    view: it shares ``nodes``, ``offsets`` and ``targets`` with this graph
    and owns only its ``weights`` and ``strengths``.
    """

    __slots__ = ("nodes", "offsets", "targets", "weights", "scale", "strengths", "total_weight")

    def __init__(self, nodes: Sequence[str], weighted_edges: Iterable[tuple[str, str, float]],
                 *, precision: int | None = None):
        self.nodes = tuple(sorted(nodes))
        index = {u: i for i, u in enumerate(self.nodes)}
        n = len(self.nodes)
        if len(index) != n:
            raise GraphError("duplicate node ids")
        heads, tails, edge_weights = array("i"), array("i"), array("d")
        degree = [0] * n
        negative_zero = False
        for u, v, w in weighted_edges:
            try:
                i, j = index[u], index[v]
            except KeyError:
                raise GraphError(f"edge ({u!r}, {v!r}) references an unknown node") from None
            if i == j:
                raise GraphError(f"self-loop at {u!r}")
            if not math.isfinite(w):
                raise GraphError(f"non-finite weight on edge ({u!r}, {v!r})")
            if w < 0.0:
                raise GraphError(f"negative weight on edge ({u!r}, {v!r})")
            if not w and math.copysign(1.0, w) < 0.0:
                negative_zero = True
            heads.append(i)
            tails.append(j)
            degree[i] += 1
            degree[j] += 1
            edge_weights.append(w if precision is None else float(f"{w:.{precision}f}"))
        del index
        edge_weights, self.scale = _fixed_point(edge_weights, None if negative_zero else precision)
        self.offsets = offsets = array("q", accumulate(degree, initial=0))
        typecode = index_typecode(n)
        self.targets = targets = array(typecode, [0]) * offsets[-1]
        self.weights = weights = array(edge_weights.typecode, [0]) * offsets[-1]
        cursor = offsets[:-1]
        for i, j, w in zip(heads, tails, edge_weights):
            a, b = cursor[i], cursor[j]
            targets[a], weights[a], cursor[i] = j, w, a + 1
            targets[b], weights[b], cursor[j] = i, w, b + 1
        # Sort each row on its own by neighbor.  A repeated pair (i, j), i < j,
        # shows as equal neighbors side by side in rows i and j; scanning the
        # rows in index order meets it first in row i, so the pair reported
        # is the smallest repeated one.
        for i in range(n):
            start, end = offsets[i], offsets[i + 1]
            if end - start < 2:
                continue
            order = sorted(range(start, end), key=targets.__getitem__)
            row = array(typecode, map(targets.__getitem__, order))
            for a, b in pairwise(row):
                if a == b:
                    raise DuplicateEdgeError((self.nodes[i], self.nodes[a]))
            targets[start:end] = row
            weights[start:end] = array(weights.typecode, map(weights.__getitem__, order))
        as_weight = self.scale.__rtruediv__  # a stored value m -> its weight m / scale
        self.strengths = array("d", (_finite_sum(map(as_weight, weights[offsets[i]:offsets[i + 1]]),
                                                 f"strength of {self.nodes[i]!r}")
                                     for i in range(n)))
        self.total_weight = _finite_sum(map(as_weight, edge_weights), "total weight")
        if not math.isfinite(2.0 * self.total_weight):
            raise GraphError("twice the total weight overflows a float")

    def unit_weights(self) -> "WeightedGraph":
        """The structural graph on this graph's edges: every weight 1.

        The rows are shared, not copied; only the weights and strengths are
        new.  ``weights`` holds its ones as an ``array('I')``, 4 bytes per
        row entry, with ``scale`` 1.0, so a weight is still
        ``weights[a] / scale``.  A strength is the row's length as a float
        and the total weight half the number of row entries, which are
        exactly the ``math.fsum`` results of building the unit graph anew."""
        unit = object.__new__(WeightedGraph)
        unit.nodes, unit.offsets, unit.targets = self.nodes, self.offsets, self.targets
        unit.weights, unit.scale = array("I", [1]) * len(self.targets), 1.0
        unit.strengths = array("d", (float(end - start) for start, end in pairwise(self.offsets)))
        unit.total_weight = len(self.targets) / 2
        return unit

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index_of(self, node: str) -> int:
        i = bisect_left(self.nodes, node)
        if i == len(self.nodes) or self.nodes[i] != node:
            raise GraphError(f"unknown node {node!r}")
        return i

    def row(self, i: int) -> Iterator[tuple[int, float]]:
        """``(neighbor index, weight)`` pairs of the node with index ``i``,
        in increasing neighbor index, each weight a float: the stored value
        divided by ``scale``.  Every reader of a graph's edges outside this
        class goes through here."""
        start, end = self.offsets[i], self.offsets[i + 1]
        return zip(self.targets[start:end], map(self.scale.__rtruediv__, self.weights[start:end]))

    def neighbors(self, node: str) -> tuple[tuple[str, float], ...]:
        """``(neighbor, weight)`` pairs, sorted by neighbor id."""
        nodes = self.nodes
        return tuple((nodes[j], w) for j, w in self.row(self.index_of(node)))

    def strength(self, node: str) -> float:
        """Weighted degree: sum of incident edge weights."""
        return self.strengths[self.index_of(node)]

    def edge_indices(self) -> Iterator[tuple[int, int, float]]:
        """Canonical edges as ``(i, j, weight)`` index triples, ``i < j``, sorted."""
        for i in range(len(self.nodes)):
            for j, w in self.row(i):
                if j > i:
                    yield i, j, w

    def edges(self) -> tuple[tuple[str, str, float], ...]:
        """Canonical edge tuples (min id first, sorted)."""
        nodes = self.nodes
        return tuple((nodes[i], nodes[j], w) for i, j, w in self.edge_indices())

    def write_csv(self, path, precision: int = 6) -> None:
        """``u,v,weight`` lines; isolated nodes appear as ``u,,`` so the
        node set round-trips through :func:`read_csv`."""
        nodes, offsets = self.nodes, self.offsets
        isolated = (f"{u},," for i, u in enumerate(nodes) if offsets[i] == offsets[i + 1])
        write_lines(path, chain(isolated, (f"{nodes[i]},{nodes[j]},{w:.{precision}f}"
                                           for i, j, w in self.edge_indices())))

    @classmethod
    def read_csv(cls, path, *, precision: int | None = None) -> "WeightedGraph":
        """Load a graph written by :meth:`write_csv`.  An edge given twice is
        a ParseError naming the line that repeats it; a file with no line is
        one naming the file."""
        names: dict[str, int] = {}  # each id, numbered in order of first appearance
        heads, tails, weights = array("i"), array("i"), array("d")
        for where, line in read_lines(path):
            fields = line.split(",")
            if len(fields) != 3:
                raise ParseError(f"{where}: expected 'u,v,weight'")
            u = node_id(fields[0], where)
            i = names.setdefault(u, len(names))
            if not fields[1].strip() and not fields[2].strip():
                continue
            v = node_id(fields[1], where)
            if v == u:
                raise ParseError(f"{where}: self-loop at {u!r}")
            j = names.setdefault(v, len(names))
            try:
                w = float(fields[2])
            except ValueError:
                raise ParseError(f"{where}: weight is not a number") from None
            if not math.isfinite(w):
                raise ParseError(f"{where}: weight is not finite")
            if w < 0.0:
                raise ParseError(f"{where}: weight is negative")
            heads.append(i)
            tails.append(j)
            weights.append(w)
        if not names:
            raise ParseError(f"{path}: empty graph file")
        ids = list(names)
        edges = ((ids[u], ids[v], w) for u, v, w in zip(heads, tails, weights))
        # The generator alone now holds the parsed arrays, and frees them once
        # the constructor has drawn every edge, before it allocates the rows.
        del heads, tails, weights
        try:
            return cls(ids, edges, precision=precision)
        except DuplicateEdgeError as exc:
            # Looked for only now, so valid input pays for no set of edges seen.
            naming = (where for where, line in read_lines(path)
                      if sorted(f.strip() for f in line.split(",")[:2]) == list(exc.pair))
            next(naming)
            raise ParseError(f"{next(naming)}: {exc}") from None


def build_weighted_graph(edges: EdgeList, nodes: Sequence[str], s: Callable[[str, str], float],
                         sv: Callable[[str, str], float], alpha: float = 0.5, *,
                         precision: int | None = None) -> WeightedGraph:
    """Fuse content similarity ``s`` and sentiment bias ``sv`` into edge weights.

    ``s(u, v)`` and ``sv(u, v)`` score two node ids in [0, 1], once per edge,
    smaller id first; ``nodes`` without edges stay isolated.  ``alpha`` is the
    content-similarity share of the weight (1 ignores sentiment);
    ``precision`` snaps weights as in :class:`WeightedGraph`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha!r}")
    return WeightedGraph(nodes, ((u, v, alpha * s(u, v) + (1.0 - alpha) * sv(u, v))
                                 for u, v in edges), precision=precision)


def structural_graph(edges: Iterable[tuple[str, str]], nodes: Sequence[str]) -> WeightedGraph:
    """Unit-weight graph on a structural edge set: an :class:`EdgeList` or
    any other iterable of ``(u, v)`` pairs.  Its weights are whole units,
    stored as in :meth:`WeightedGraph.unit_weights`."""
    return WeightedGraph(nodes, ((u, v, 1.0) for u, v in edges), precision=0)
