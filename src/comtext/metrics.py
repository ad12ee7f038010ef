"""Partition quality scores: weighted modularity and NMI.

Modularity is computed in the grouped form
``Q = sum_n [L_n / L - (D_n / 2L)^2]`` with L the total edge weight, L_n a
community's internal edge weight and D_n the sum of its members' strengths.
This is the weighted generalization of the count-based formula (counts are
the all-weights-one special case) and equals the pair-sum form over all
ordered node pairs, which the tests use as an independent oracle.  Q lies
in [-0.5, 1] for any partition.

Both scores read a partition in index space: its sorted ``nodes`` tuple
must equal the graph's (or the other partition's), and its ``community``
array is read by position, with no per-node dict lookup.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from ._record import Record
from .corpus import write_lines
from .detect import Partition
from .errors import GraphError, UndefinedModularityError
from .graph import WeightedGraph


class CommunityStats(Record):
    index: int
    size: int
    intra_weight: float
    degree_sum: float


class QualityReport(Record):
    modularity: float
    total_weight: float
    per_community: tuple[CommunityStats, ...]

    def to_dict(self) -> dict:
        return {
            "modularity": self.modularity,
            "total_weight": self.total_weight,
            "communities": [dict(zip(c._fields, c._values())) for c in self.per_community],
        }

    def write_json(self, path) -> None:
        write_lines(path, [json.dumps(self.to_dict(), indent=2, sort_keys=True)])


def check_total_weight(g: WeightedGraph) -> None:
    """Raise UndefinedModularityError unless ``g`` has a positive total weight."""
    if g.total_weight <= 0.0:
        raise UndefinedModularityError("modularity is undefined for zero total weight")


def quality_report(g: WeightedGraph, p: Partition) -> QualityReport:
    """Per-community intra weight / strength sums plus the modularity score."""
    # Both tuples are sorted and distinct, so equal tuples mean the same
    # node set; a partition from detect() holds the graph's own tuple.
    if p.nodes != g.nodes:
        nodes, listed = set(g.nodes), set(p.nodes)
        named = [f"{what} {min(diff)!r}" for what, diff in
                 (("missing", nodes - listed), ("extra", listed - nodes)) if diff]
        raise GraphError("partition does not cover exactly the graph's nodes: "
                         + ", ".join(named))
    check_total_weight(g)
    total = g.total_weight
    intra = [0.0] * p.m
    degree_sum = [0.0] * p.m
    size = [0] * p.m
    community_of = p.community  # node index -> community index, as g's nodes are ordered
    for community, strength in zip(community_of, g.strengths):
        size[community] += 1
        degree_sum[community] += strength
    for i, j, w in g.edge_indices():
        if community_of[i] == community_of[j]:
            intra[community_of[i]] += w
    q = math.fsum(
        intra[c] / total - (degree_sum[c] / (2.0 * total)) ** 2 for c in range(p.m)
    )
    stats = tuple(
        CommunityStats(c, size[c], intra[c], degree_sum[c]) for c in range(p.m)
    )
    return QualityReport(q, total, stats)


def nmi(p1: Partition, p2: Partition) -> float:
    """Normalized mutual information (arithmetic-mean normalization).

    1 for partitions identical up to label permutation (including the
    degenerate both-single-block case); 0 when one partition carries no
    information about the other.
    """
    if p1.nodes != p2.nodes:  # sorted and distinct: equal exactly when the sets are
        raise GraphError("partitions cover different node sets")
    n = len(p1.nodes)
    joint = Counter(zip(p1.community, p2.community))
    rows = Counter(p1.community)
    cols = Counter(p2.community)

    def entropy(counts: Counter) -> float:
        return -math.fsum((c / n) * math.log(c / n) for c in counts.values())

    h1, h2 = entropy(rows), entropy(cols)
    if h1 + h2 == 0.0:
        return 1.0
    info = math.fsum(
        (c / n) * (math.log(c / n) - math.log(rows[a] / n) - math.log(cols[b] / n))
        for (a, b), c in joint.items()
    )
    return min(1.0, max(0.0, 2.0 * info / (h1 + h2)))
