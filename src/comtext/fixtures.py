"""Bundled datasets and a seeded planted-partition corpus generator.

The karate club network ships inline: the canonical 34-node edge list (78
undirected edges) with the historical two-faction membership.  The club is
often cited with 156 edges, which is the doubled directed count of the same
78 unordered pairs.

The synthetic generator stands in for platform data that cannot be
redistributed.  One :class:`SyntheticSpec` is its whole recipe, and its
field defaults are ``comtext generate``'s.  It plants ``groups``
communities: users in one group share a private vocabulary and a common
sentiment polarity, both derived from the group index, intra-group edges
appear with probability ``p_in`` and inter-group edges with ``p_out``.  All
randomness comes from one ``random.Random(rng_seed)`` (the stdlib Mersenne
Twister, stable across Python releases), consumed in a fixed order: token
draws user by user in sorted order, then edge draws pair by pair in sorted
order.  Identical specs therefore produce byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from ._record import Record
from .corpus import write_lines
from .detect import Partition, save_partition
from .errors import ParameterError

_KARATE_EDGE_DATA = """
01-02 01-03 01-04 01-05 01-06 01-07 01-08 01-09 01-11 01-12 01-13 01-14
01-18 01-20 01-22 01-32 02-03 02-04 02-08 02-14 02-18 02-20 02-22 02-31
03-04 03-08 03-09 03-10 03-14 03-28 03-29 03-33 04-08 04-13 04-14 05-07
05-11 06-07 06-11 06-17 07-17 09-31 09-33 09-34 10-34 14-34 15-33 15-34
16-33 16-34 19-33 19-34 20-34 21-33 21-34 23-33 23-34 24-26 24-28 24-30
24-33 24-34 25-26 25-28 25-32 26-32 27-30 27-34 28-34 29-32 29-34 30-33
30-34 31-33 31-34 32-33 32-34 33-34
"""

KARATE_EDGES: tuple[tuple[str, str], ...] = tuple(
    tuple(pair.split("-")) for pair in _KARATE_EDGE_DATA.split()
)

# Faction that stayed with the instructor after the split; everyone else
# sided with the club administrator.
KARATE_INSTRUCTOR_FACTION = frozenset(
    "01 02 03 04 05 06 07 08 09 11 12 13 14 17 18 20 22".split()
)

KARATE_NODES: tuple[str, ...] = tuple(f"{i:02d}" for i in range(1, 35))


def karate_partition() -> Partition:
    """The historical two-faction membership (instructor side = community 0)."""
    assignment = {
        u: (0 if u in KARATE_INSTRUCTOR_FACTION else 1) for u in KARATE_NODES
    }
    return Partition.from_assignment(assignment, 2, 2)


def write_karate(out_dir) -> tuple[Path, Partition]:
    """Write the edge CSV and faction partition; returns (edge path, factions)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edge_path = out / "karate_edges.csv"
    write_lines(edge_path, (f"{u},{v}" for u, v in KARATE_EDGES))
    factions = karate_partition()
    save_partition(factions, out / "karate_factions.txt")
    return edge_path, factions


# Polarity palette for the group sentiments: alternating signs so that
# adjacent groups repel, magnitudes kept away from 0 so every group has a
# definite tendency.
_POLARITY_PALETTE = (0.8, -0.8, 0.4, -0.4, 0.6, -0.6, 0.2, -0.2)


class SyntheticSpec(Record):
    """Recipe for one planted fixture; identical specs generate identical bytes.

    Group ``g``'s private words are ``topic{g}term0`` to ``topic{g}term7``
    and its polarity is ``_POLARITY_PALETTE[g % 8]``.  Both follow from the
    group index, so they are read through :attr:`vocab_per_group` and
    :attr:`sentiment_per_group`, not set."""

    groups: int = 2
    nodes_per_group: int = 10
    p_in: float = 0.8
    p_out: float = 0.02
    rng_seed: int = 42
    tokens_per_user: int = 30

    def _check(self):
        if self.groups < 2 or self.nodes_per_group < 1:
            raise ParameterError("need at least 2 groups with at least 1 node each")
        if not all(0.0 <= p <= 1.0 for p in (self.p_in, self.p_out)):
            raise ParameterError("edge probabilities must be in [0, 1]")
        if self.tokens_per_user < 1:
            raise ParameterError("tokens_per_user must be positive")

    @property
    def vocab_per_group(self) -> tuple[tuple[str, ...], ...]:
        """Each group's private words, pairwise disjoint."""
        return tuple(tuple(f"topic{g}term{t}" for t in range(8)) for g in range(self.groups))

    @property
    def sentiment_per_group(self) -> tuple[float, ...]:
        """Each group's polarity, in [-1, 1]."""
        return tuple(_POLARITY_PALETTE[g % len(_POLARITY_PALETTE)] for g in range(self.groups))


class GeneratedFixture(Record):
    corpus_path: Path
    edges_path: Path
    lexicon_path: Path
    truth_path: Path
    truth: Partition


def _user_ids(spec: SyntheticSpec) -> list[tuple[str, int]]:
    return [
        (f"g{g:02d}u{i:03d}", g)
        for g in range(spec.groups)
        for i in range(spec.nodes_per_group)
    ]


def generate(spec: SyntheticSpec, out_dir) -> GeneratedFixture:
    """Write corpus/edge/lexicon files plus the ground-truth partition."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(spec.rng_seed)
    users = _user_ids(spec)
    # Each property builds its tuple anew, so it is read once, not per token.
    vocab, sentiment = spec.vocab_per_group, spec.sentiment_per_group

    corpus_path = out / "corpus.jsonl"
    write_lines(corpus_path, (
        json.dumps({"user_id": user, "text": " ".join(
            rng.choice(vocab[group]) for _ in range(spec.tokens_per_user))})
        for user, group in users
    ))

    lexicon_path = out / "lexicon.tsv"
    term_scores = {
        term: sentiment[g]
        for g in range(spec.groups)
        for term in vocab[g]
    }
    write_lines(lexicon_path, (f"{term}\t{term_scores[term]:.4f}" for term in sorted(term_scores)))

    edges_path = out / "edges.csv"
    write_lines(edges_path, (
        f"{user_a},{user_b}"
        for i, (user_a, group_a) in enumerate(users)
        for user_b, group_b in users[i + 1 :]
        if rng.random() < (spec.p_in if group_a == group_b else spec.p_out)
    ))

    truth = Partition.from_assignment(dict(users), spec.groups, spec.groups)
    truth_path = out / "ground_truth.txt"
    save_partition(truth, truth_path)
    return GeneratedFixture(corpus_path, edges_path, lexicon_path, truth_path, truth)

