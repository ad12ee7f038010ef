"""Undirected weighted graphs over string node ids.

Edge weights fuse two pairwise scores, each taken once per structural edge:
``W(u, v) = alpha * s(u, v) + (1 - alpha) * sv(u, v)`` with ``alpha`` = 0.5
by default.  Zero-weight edges stay in the edge set (structure and weights
are separate concerns); they contribute nothing to strengths or scores.

Every graph is built by one constructor over index columns,
:class:`WeightedGraph`: :meth:`WeightedGraph.read_csv` passes the columns it
parses, and :func:`build_weighted_graph` and :func:`structural_graph` those
of an :class:`~comtext.corpus.EdgeList`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, islice, pairwise, repeat
from typing import Callable, Iterable, Iterator, MutableSequence, Sequence

from .corpus import EdgeList, index_typecode, node_id, read_lines, write_lines
from .errors import GraphError, ParameterError, ParseError


def _finite_sum(values: Iterable[float], what: str) -> float:
    """``math.fsum`` of finite ``values``, which raises OverflowError rather
    than return inf; that becomes a GraphError naming ``what``."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise GraphError(f"{what} overflows a float") from None


class EdgeError(GraphError):
    """An edge the constructor rejects; ``position`` is its index in the
    constructor's columns."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(message)


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
    the division gives back the snapped double exactly: ``m`` and
    ``10**precision`` are exact doubles, and the correctly rounded quotient
    is the double nearest ``m / 10**precision``, which is the snapped weight.
    Otherwise ``weights`` is an ``array('d')`` and ``scale`` 1.0.  A weight
    of -0.0 keeps the doubles, whose sign the units cannot hold.
    :meth:`stored_row` yields a node's neighbors with their stored values,
    :meth:`stored_sum` sums them, and :meth:`edge_indices` yields each edge
    once; no other module reads ``offsets``, ``targets``, ``weights`` or
    ``scale``.

    :meth:`unit_weights` gives the structural graph on the same edges as a
    view: it shares ``nodes``, ``offsets`` and ``targets`` with this graph
    and owns only its ``weights`` and ``strengths``.
    """

    __slots__ = ("nodes", "offsets", "targets", "weights", "scale", "strengths", "total_weight")

    def __init__(self, ids: Sequence[str], heads: Sequence[int], tails: Sequence[int],
                 weights: MutableSequence[float], *, precision: int | None = None):
        """The graph on the node ids ``ids``, in any order, whose edge ``e``
        joins ``ids[heads[e]]`` and ``ids[tails[e]]`` with weight
        ``weights[e]``.

        Every graph is built here.  ``ids`` are sorted once, and each column
        index is mapped to its id's rank.  Each edge is checked once, in
        column order: a node index out of range, a self-loop, a weight that
        is not finite and a negative weight raise :class:`EdgeError` with
        the edge's position, and so does an edge given twice, at its second
        position, for the smallest pair of ids given twice.  Repeated ids
        raise GraphError.  The constructor owns the columns it is given:
        with a ``precision`` it snaps ``weights`` in place, and it encodes
        the units as it fills the rows, so it holds no second column.
        """
        n = len(ids)
        order = sorted(range(n), key=ids.__getitem__)
        self.nodes = nodes = tuple(map(ids.__getitem__, order))
        if any(a == b for a, b in pairwise(nodes)):
            raise GraphError("duplicate node ids")
        rank = array("i", sorted(range(n), key=order.__getitem__))  # column index -> its rank
        del order
        degree = [0] * n
        negative_zero = False
        for e, (h, t, w) in enumerate(zip(heads, tails, weights, strict=True)):
            if not (0 <= h < n and 0 <= t < n):
                raise EdgeError(e, "node index out of range")
            if h == t:
                raise EdgeError(e, f"self-loop at {ids[h]!r}")
            if not math.isfinite(w):
                raise EdgeError(e, "weight is not finite")
            if w < 0.0:
                raise EdgeError(e, "weight is negative")
            degree[rank[h]] += 1
            degree[rank[t]] += 1
            if precision is not None:
                weights[e] = w = float(f"{w:.{precision}f}")
            if not w and math.copysign(1.0, w) < 0.0:
                negative_zero = True
        # A product below 2**32 - 0.5 rounds to at most 2**32 - 1 units, and
        # the largest weight has the most units.
        fixed = (precision is not None and 0 <= precision <= 22 and not negative_zero
                 and max(weights, default=0.0) * 10.0 ** precision < 2**32 - 0.5)
        self.scale = scale = 10.0 ** precision if fixed else 1.0
        self.offsets = offsets = array("q", accumulate(degree, initial=0))
        del degree
        typecode = index_typecode(n)
        self.targets = targets = array(typecode, [0]) * offsets[-1]
        self.weights = stored = array("I" if fixed else "d", [0]) * offsets[-1]
        cursor = offsets[:-1]
        units = map(round, map(scale.__mul__, weights)) if fixed else weights
        for h, t, w in zip(heads, tails, units):
            i, j = rank[h], rank[t]
            a, b = cursor[i], cursor[j]
            targets[a], stored[a], cursor[i] = j, w, a + 1
            targets[b], stored[b], cursor[j] = i, w, b + 1
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
            for a, j in pairwise(row):
                if a == j:
                    given = (e for e, (h, t) in enumerate(zip(heads, tails))
                             if {rank[h], rank[t]} == {i, j})
                    raise EdgeError(next(islice(given, 1, None)),
                                    f"duplicate edge {(nodes[i], nodes[j])!r}")
            targets[start:end] = row
            stored[start:end] = array(stored.typecode, map(stored.__getitem__, order))
        as_weight = scale.__rtruediv__  # a stored value m -> its weight m / scale
        self.strengths = array("d", (_finite_sum(map(as_weight, stored[offsets[i]:offsets[i + 1]]),
                                                 f"strength of {nodes[i]!r}")
                                     for i in range(n)))
        # ``weights`` holds the snapped values, which the units give back exactly.
        self.total_weight = _finite_sum(weights, "total weight")
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

    def stored_row(self, i: int) -> Iterator[tuple[int, int | float]]:
        """``(neighbor index, stored value)`` pairs of the node with index
        ``i``, in increasing neighbor index.  A stored value is the weight
        times ``scale``: an ``int`` count of units on a fixed-point graph and
        on the unit view, a float on a graph of doubles.  Outside this class,
        a graph's edges are read through here, :meth:`stored_sum` and
        :meth:`edge_indices` only."""
        start, end = self.offsets[i], self.offsets[i + 1]
        return zip(self.targets[start:end], self.weights[start:end])

    def stored_sum(self, i: int) -> float:
        """``math.fsum`` of the stored values in the row of the node with
        index ``i``: its count of units on a fixed-point graph and on the unit
        view, its strength on a graph of doubles."""
        return math.fsum(self.weights[self.offsets[i]:self.offsets[i + 1]])

    def neighbors(self, node: str) -> tuple[tuple[str, float], ...]:
        """``(neighbor, weight)`` pairs, sorted by neighbor id."""
        nodes, scale = self.nodes, self.scale
        return tuple((nodes[j], m / scale) for j, m in self.stored_row(self.index_of(node)))

    def edge_indices(self) -> Iterator[tuple[int, int, float]]:
        """Canonical edges as ``(i, j, weight)`` index triples, ``i < j``,
        sorted: each row from just past its diagonal."""
        offsets, targets, weights = self.offsets, self.targets, self.weights
        as_weight = self.scale.__rtruediv__
        for i in range(len(self.nodes)):
            end = offsets[i + 1]
            start = bisect_right(targets, i, offsets[i], end)
            yield from zip(repeat(i), targets[start:end], map(as_weight, weights[start:end]))

    def write_csv(self, path, precision: int = 6) -> None:
        """``u,v,weight`` lines; isolated nodes appear as ``u,,`` so the
        node set round-trips through :func:`read_csv`."""
        nodes, offsets = self.nodes, self.offsets
        isolated = (f"{u},," for i, u in enumerate(nodes) if offsets[i] == offsets[i + 1])
        write_lines(path, chain(isolated, (f"{nodes[i]},{nodes[j]},{w:.{precision}f}"
                                           for i, j, w in self.edge_indices())))

    @classmethod
    def read_csv(cls, path, *, precision: int | None = None) -> "WeightedGraph":
        """Load a graph written by :meth:`write_csv`.

        Lines are parsed here, their fields counted, their ids checked and
        their weights read as numbers; the edges are checked by the
        constructor, and an edge it rejects is a ParseError naming the
        edge's line.  A file with no line is one naming the file."""
        names: dict[str, int] = {}  # each id, numbered in order of first appearance
        heads, tails, weights = array("i"), array("i"), array("d")
        for where, line in read_lines(path):
            fields = line.split(",")
            if len(fields) != 3:
                raise ParseError(f"{where}: expected 'u,v,weight'")
            i = names.setdefault(node_id(fields[0], where), len(names))
            if not fields[1].strip() and not fields[2].strip():
                continue  # an isolated node's line
            tails.append(names.setdefault(node_id(fields[1], where), len(names)))
            try:
                weights.append(float(fields[2]))
            except ValueError:
                raise ParseError(f"{where}: weight is not a number") from None
            heads.append(i)
        if not names:
            raise ParseError(f"{path}: empty graph file")
        ids = list(names)
        del names
        try:
            return cls(ids, heads, tails, weights, precision=precision)
        except EdgeError as exc:
            # Looked for only now, so valid input pays for no line numbers kept.
            edge_lines = (where for where, line in read_lines(path)
                          if any(field.strip() for field in line.split(",")[1:]))
            raise ParseError(f"{next(islice(edge_lines, exc.position, None))}: {exc}") from None


def _graph_ids(edges: EdgeList, nodes: Sequence[str]) -> tuple[str, ...]:
    """``edges.ids``, which the edge list's columns index, then each other id
    of ``nodes`` once.  An endpoint missing from ``nodes`` raises GraphError."""
    isolated = dict.fromkeys(nodes, True)  # not a set: 0.4 MB for 20,000 ids, against 2.1
    for u in edges.ids:
        if not isolated.pop(u, False):
            raise GraphError(f"edge endpoint {u!r} is an unknown node")
    return (*edges.ids, *isolated)


def build_weighted_graph(edges: EdgeList, nodes: Sequence[str], s: Callable[[str, str], float],
                         sv: Callable[[str, str], float], alpha: float = 0.5, *,
                         precision: int | None = None) -> WeightedGraph:
    """Fuse content similarity ``s`` and sentiment bias ``sv`` into edge weights.

    ``s(u, v)`` and ``sv(u, v)`` score two node ids in [0, 1], once per edge,
    smaller id first, in the edge list's order; ``nodes`` must name every
    endpoint, and those without edges stay isolated.  ``alpha`` is the
    content-similarity share of the weight (1 ignores sentiment);
    ``precision`` snaps weights as in :class:`WeightedGraph`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha!r}")
    graph_ids, ids = _graph_ids(edges, nodes), edges.ids  # endpoints checked before scoring
    weights = array("d", (alpha * s(ids[h], ids[t]) + (1.0 - alpha) * sv(ids[h], ids[t])
                          for h, t in zip(edges.heads, edges.tails)))
    return WeightedGraph(graph_ids, edges.heads, edges.tails, weights, precision=precision)


def structural_graph(edges: EdgeList, nodes: Sequence[str]) -> WeightedGraph:
    """Unit-weight graph on an edge list, ``nodes`` as in
    :func:`build_weighted_graph`.  Its weights are whole units, stored as in
    :meth:`WeightedGraph.unit_weights`."""
    return WeightedGraph(_graph_ids(edges, nodes), edges.heads, edges.tails,
                         array("d", [1.0]) * len(edges.heads), precision=0)
