"""Two-step seeded community detection.

Step 1 picks k centers greedily: the strongest node first, then repeatedly
the strongest node not adjacent to any chosen center (falling back to the
strongest remaining node when every candidate is adjacent).  Step 2 grows
the k seeded communities in balanced rotation: communities take turns in
index order, and on its turn a community attaches the unassigned node with
the largest connection score (total edge weight into the community's
current members; ties broken by smaller node id), refreshing its
neighbors' candidate scores.  A community with no positively connected
candidate left stops growing; expansion ends when every community has
stopped, and nodes with zero connection to every community end up as
singleton communities.  Assignment is one-shot: nodes are never moved
after they attach.

Each community keeps its candidates in a heap of int keys, one per score
it pushed: the score above the node-index bits, so one int orders by score
and then by smaller index.  On a graph whose weights are stored as units
(every fixed-point graph and the unit view), the score is the exact int sum
of its edges' units: candidates whose decimal weights sum to the same value
tie, and the smaller index wins.  Such a key is a two-digit int while it
stays below 2**60; 6-place weights on 10,000 nodes need about 40 bits.  On
a graph of doubles, the score is the float sum of the weights, and its key
holds the sum's IEEE-754 bits, which order non-negative doubles as the
doubles do.  Scores only rise, so a popped key is current exactly when its
node is still unassigned; the others are skipped, and a heap that outgrows
its live candidates is rebuilt from them.

The rotation keeps one strong seed from starving the others, which a
single global best-first queue does on hub-dominated graphs.  Every choice
is deterministic, and the procedure depends on weights only through
comparisons, so rescaling all weights leaves the partition unchanged
wherever the rescaled sums stay exact.

A :class:`Partition` lives in index space: it shares the graph's sorted
``nodes`` tuple and owns one array of community indices, 2 bytes per node,
so a sweep over many k keeps no id dict per k.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from itertools import islice, pairwise
from typing import Mapping

from ._record import Record
from .corpus import index_typecode, node_id, read_lines, write_lines
from .errors import ParameterError, ParseError
from .graph import WeightedGraph


class Partition(Record):
    """A community index for every node, over the nodes in sorted order.

    ``nodes`` is a tuple of distinct ids in sorted order, and
    ``community[i]`` is the community of ``nodes[i]``, an index in 0..m-1,
    each index used at least once.  ``community`` is an ``array`` of the
    typecode :func:`~comtext.corpus.index_typecode` gives for ``m``: 2 bytes
    per node up to 65,536 communities.  :func:`expand_communities` passes
    the graph's own ``nodes`` tuple, so a partition from :func:`detect`
    owns only its ``community`` array; :meth:`from_assignment` builds one
    from an id -> index mapping.
    """

    nodes: tuple[str, ...]
    community: array
    m: int
    k_requested: int

    def _check(self):
        if len(self.community) != len(self.nodes):
            raise ValueError("one community index per node is required")
        if any(a >= b for a, b in pairwise(self.nodes)):
            raise ValueError("nodes must be distinct and sorted")
        # The sizes first, so a huge m builds no range set.
        used = set(self.community)
        if len(used) != max(self.m, 0) or used != set(range(self.m)):
            raise ValueError("community indices must be contiguous and all non-empty")
        if not 1 <= self.k_requested <= self.m:
            raise ValueError("k_requested must be in 1..m")

    @classmethod
    def from_assignment(cls, assignment: Mapping[str, int], m: int,
                        k_requested: int) -> "Partition":
        """The partition that puts each id of ``assignment`` in its community."""
        nodes = tuple(sorted(assignment))
        try:
            community = array(index_typecode(m), map(assignment.__getitem__, nodes))
        except OverflowError:  # an index no array of m's typecode holds is out of 0..m-1
            raise ValueError("community indices must be contiguous and all non-empty") from None
        return cls(nodes, community, m, k_requested)

    @property
    def assignment(self) -> dict[str, int]:
        """A new id -> community index dict, built on each read: about 30
        bytes per node against the 2 of ``community``."""
        return dict(zip(self.nodes, self.community))

    def communities(self) -> list[list[str]]:
        """Member lists per community index, each sorted by node id."""
        groups: list[list[str]] = [[] for _ in range(self.m)]
        for node, community in zip(self.nodes, self.community):
            groups[community].append(node)
        return groups


def check_k(k: int, n: int) -> None:
    """Raise ParameterError unless ``k`` is a center count for ``n`` nodes."""
    if not isinstance(k, int) or k < 1 or k > n:
        raise ParameterError(f"k must be an integer in 1..{n}, got {k!r}")


def select_centers(g: WeightedGraph, k: int) -> list[str]:
    """Greedy strength-ranked, spread-out center selection (see module doc).

    A node ranks by the exact sum of its stored values: its strength on a
    graph of doubles, its count of units on a fixed-point graph and on the
    unit view.  Ties go to the smaller id, so on a fixed-point graph two
    nodes whose decimal strengths are equal tie however binary rounding
    would order them."""
    check_k(k, g.n)
    # Strongest first; the sort is stable, so ties stay in index (= id) order.
    ranked = sorted(range(g.n), key=g.stored_sum, reverse=True)
    # Every node no earlier center is adjacent to, strongest first; then
    # the strongest nodes not taken fill any shortfall.
    blocked = bytearray(g.n)
    centers: list[int] = []
    for i in ranked:
        if len(centers) == k:
            break
        if not blocked[i]:
            centers.append(i)
            for j, _ in g.stored_row(i):
                blocked[j] = 1
    taken = set(centers)
    centers += islice((i for i in ranked if i not in taken), k - len(centers))
    return [g.nodes[i] for i in centers]


def expand_communities(g: WeightedGraph, centers: list[str]) -> Partition:
    """Grow one community per center by rotating best-connection attachment."""
    if not centers:
        raise ParameterError("centers must be non-empty")
    if len(set(centers)) != len(centers):
        raise ParameterError("duplicate centers")
    seeds = [g.index_of(c) for c in centers]

    stored_row, nodes = g.stored_row, g.nodes
    # The community of each node index, -1 while unassigned: 4 bytes a node.
    assignment = array("i", [-1]) * g.n
    for community, seed in enumerate(seeds):
        assignment[seed] = community
    # A candidate's score and index are one int key: the score shifted left
    # by ``shift``, OR ``mask - index`` for the tie on the smaller index, all
    # negated for the min-heap.  An int stored value is a count of units, and
    # the score their exact sum; a float's score is the bits of the float
    # sum.  ``as_float`` and ``as_bits`` view one 8-byte buffer as a double
    # and as its bits.
    shift = g.n.bit_length()
    mask = (1 << shift) - 1
    as_float = memoryview(bytearray(8)).cast("d")
    as_bits = as_float.cast("B").cast("Q")
    heappush, heappop, heapify = heapq.heappush, heapq.heappop, heapq.heapify
    # Each community maps a candidate's id to the key it pushed last, and
    # its heap holds those same ints.  Scores only rise (a float relaxation
    # below half an ulp pushes an equal key), so the first key popped for a
    # node carries its current score: a popped key is valid exactly when its
    # node is unassigned.  Both are set to None once the community retires.
    keys: list[dict[str, int] | None] = [{} for _ in centers]
    heaps: list[list[int] | None] = [[] for _ in centers]
    # Heap size at each community's last compaction.  A heap that outgrows
    # it by more than max(64, size // 4) drops its stale keys: at most
    # 1.25 keys per live candidate plus 64 stay allocated.
    compacted = [0] * len(centers)

    def attach(node: int, community: int) -> None:
        """Relax the community's scores of ``node``'s unassigned neighbors."""
        key_of, heap = keys[community], heaps[community]
        for v, w in stored_row(node):
            if assignment[v] < 0 and w > 0:
                u = nodes[v]
                old = key_of.get(u)
                score = 0 if old is None else -old >> shift  # 0 is also +0.0's bits
                if w.__class__ is int:
                    score += w
                else:
                    as_bits[0] = score
                    as_float[0] += w
                    score = as_bits[0]
                key = -((score << shift) | (mask - v))
                key_of[u] = key
                heappush(heap, key)
        size = compacted[community]
        if len(heap) > size + max(64, size // 4):
            # The keys of unassigned candidates: the ones a pop would accept.
            # They never tie, since each holds a distinct index, so the pop
            # order is unchanged.
            key_of = {u: key for u, key in key_of.items()
                      if assignment[mask - (-key & mask)] < 0}
            heap = list(key_of.values())
            heapify(heap)
            keys[community], heaps[community], compacted[community] = key_of, heap, len(heap)

    for community, seed in enumerate(seeds):
        attach(seed, community)

    active = deque(range(len(centers)))
    while active:
        community = active.popleft()
        heap = heaps[community]
        node = None
        while heap:
            candidate = mask - (-heappop(heap) & mask)
            if assignment[candidate] < 0:
                node = candidate
                break
        if node is None:
            # Retired: no positively connected candidate left.
            keys[community] = heaps[community] = None
            continue
        assignment[node] = community
        attach(node, community)
        active.append(community)

    m = len(centers)
    for i, community in enumerate(assignment):
        if community < 0:
            assignment[i] = m
            m += 1
    # The graph's own nodes tuple, shared: the partition owns only its array.
    return Partition(g.nodes, array(index_typecode(m), assignment), m, len(centers))


def detect(g: WeightedGraph, k: int) -> Partition:
    """Full two-step detection: select k centers, then expand."""
    return expand_communities(g, select_centers(g, k))


def save_partition(p: Partition, path, modularity: float | None = None) -> None:
    """Write header lines, then one ``index:members`` line per community.

    ``modularity`` is written with full float precision so the file
    round-trips exactly; it may be omitted.
    """
    lines = [f"k_requested={p.k_requested}", f"m={p.m}"]
    if modularity is not None:
        lines.append(f"modularity={modularity!r}")
    lines += (f"{index}:" + ",".join(members) for index, members in enumerate(p.communities()))
    write_lines(path, lines)


def load_partition(path) -> tuple[Partition, float | None]:
    """Read a partition file written by :func:`save_partition`.

    A modularity header must be finite and within [-1/2, 1], the range of
    weighted modularity, and each community index may head one line only.
    """
    header: dict[str, float] = {}
    assignment: dict[str, int] = {}
    indices: set[int] = set()
    for where, line in read_lines(path):
        key, _, value = line.partition("=")
        if key in ("k_requested", "m", "modularity"):
            if key in header:
                raise ParseError(f"{where}: repeated {key} header line")
            try:
                number = float(value) if key == "modularity" else int(value)
            except ValueError:
                raise ParseError(f"{where}: {key} is not a number") from None
            if key == "modularity":
                if not math.isfinite(number):
                    raise ParseError(f"{where}: modularity is not finite")
                if not -0.5 <= number <= 1.0:
                    raise ParseError(f"{where}: modularity {number!r} is outside [-0.5, 1]")
            header[key] = number
            continue
        index, _, members = line.partition(":")
        if not index.isdecimal():
            raise ParseError(f"{where}: expected 'index:member,member,...'")
        community = int(index)
        if community in indices:
            raise ParseError(f"{where}: community index {community} is repeated")
        indices.add(community)
        for member in members.split(","):
            node = node_id(member, where)
            if node in assignment:
                raise ParseError(f"{where}: node {node!r} is listed in two communities")
            assignment[node] = community
    if "k_requested" not in header or "m" not in header:
        raise ParseError(f"{path}: missing the k_requested or m header line")
    try:
        partition = Partition.from_assignment(assignment, header["m"], header["k_requested"])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return partition, header.get("modularity")
