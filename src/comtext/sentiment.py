"""Lexicon-based sentiment: polar vectors and their pairwise bias values.

Each user's text is scored into a polar vector, the tuple (rho, theta):
rho in [0, 1] is the emotional intensity, theta in [0, pi] encodes
polarity as an angle (fully positive -> 0, neutral -> pi/2, fully
negative -> pi).  Two users' vectors are added in Cartesian coordinates;
the normalized magnitude of the sum and the angular alignment of the pair
multiply into the sentiment bias value, a scalar in [0, 1] on the same
scale as content similarity.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ._record import Record
from .corpus import Corpus, read_lines, tokenize
from .errors import ParseError
from .similarity import SymmetricMatrix

NEUTRAL_ANGLE = math.pi / 2


class SentimentLexicon(Record):
    """Term -> score map with scores in [-1, 1]."""

    scores: dict[str, float]

    def _check(self):
        for term, score in self.scores.items():
            if not term:
                raise ValueError("lexicon terms must be non-empty")
            if not -1.0 <= score <= 1.0:
                raise ValueError(f"lexicon score out of [-1, 1] for {term!r}: {score!r}")


def load_lexicon(path, token_delim: str | None = None) -> SentimentLexicon:
    """Read a TSV lexicon (``term<TAB>score``, terms lowercased as tokens are);
    ``#`` lines are comments.  A term that :func:`~comtext.corpus.tokenize`
    under ``token_delim`` does not keep as one token could never match one,
    so it is a ParseError naming its line."""
    scores: dict[str, float] = {}
    for where, line in read_lines(path):
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"{where}: expected 'term<TAB>score'")
        term = fields[0].strip().lower()
        if term in scores:
            raise ParseError(f"{where}: duplicate term {term!r}")
        tokens = tokenize(term, token_delim)
        if tokens != [term]:
            raise ParseError(f"{where}: term {term!r} can never match a token: "
                             f"it tokenizes to {tokens!r}")
        try:
            score = float(fields[1])
        except ValueError:
            raise ParseError(f"{where}: score is not a number") from None
        if not -1.0 <= score <= 1.0:
            raise ParseError(f"{where}: score outside [-1, 1]")
        scores[term] = score
    return SentimentLexicon(scores)


NEUTRAL = (0.0, NEUTRAL_ANGLE)


def score_text(ranks: Sequence[int], scores: Sequence[float | None]) -> tuple[float, float]:
    """Polar vector ``(rho, theta)`` of a user's rank array; polarity = mean
    lexicon score over matched token occurrences, summed with ``math.fsum``.

    ``scores[r]`` is the lexicon score of the term of rank ``r``, or None
    when the lexicon does not score it.  No matches (or exact cancellation)
    yields the neutral vector.
    """
    matched = [x for x in map(scores.__getitem__, ranks) if x is not None]
    if not matched:
        return NEUTRAL
    polarity = min(1.0, max(-1.0, math.fsum(matched) / len(matched)))
    rho = abs(polarity)
    if rho == 0.0:
        return NEUTRAL
    return rho, (1.0 - polarity) * math.pi / 2


def _bias(e_i: tuple[float, float], e_j: tuple[float, float]) -> float:
    """Bias value of two polar vectors: rho_n * omega_n.

    The vectors are added in Cartesian coordinates.  rho_n is the magnitude
    of the sum over the sum of magnitudes (0 when both are neutral), so it
    lands in [0, 1] by the triangle inequality; omega_n =
    (1 + cos(theta_i - theta_j)) / 2 rewards angular alignment.
    """
    (rho_i, theta_i), (rho_j, theta_j) = e_i, e_j
    total = rho_i + rho_j
    if total > 0.0:
        x = rho_i * math.cos(theta_i) + rho_j * math.cos(theta_j)
        y = rho_i * math.sin(theta_i) + rho_j * math.sin(theta_j)
        rho_n = min(1.0, math.hypot(x, y) / total)
    else:
        rho_n = 0.0
    omega_n = min(1.0, max(0.0, (1.0 + math.cos(theta_i - theta_j)) / 2.0))
    return rho_n * omega_n


def bias_score(corpus: Corpus, lexicon: SentimentLexicon) -> Callable[[str, str], float]:
    """``sv(u, v)``: the bias value of two users' polar vectors, each scored
    once, through a table of the lexicon's score for each vocabulary rank."""
    scores = [lexicon.scores.get(t) for t in corpus.vocabulary]
    polar = {u: score_text(corpus.docs_by_user[u], scores) for u in corpus.users}
    return lambda u, v: _bias(polar[u], polar[v])


def bias_matrix(nodes: Sequence[str], sv: Callable[[str, str], float]) -> SymmetricMatrix:
    """Sentiment bias ``sv`` of every pair of ``nodes``, for export; zero
    diagonal.  The pairs are scored as :meth:`SymmetricMatrix.write_csv`
    writes them."""
    return SymmetricMatrix(nodes, sv)
