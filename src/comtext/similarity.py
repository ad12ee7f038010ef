"""Content similarity: tf-idf term vectors, their pairwise cosine, and the
:class:`SymmetricMatrix` that scores every pair of users for export (the
sentiment bias values use it too).

Each user's tf-idf vector is packed once, straight from the counts of the
user's rank array, into :class:`PackedVector` arrays over vocabulary
ranks, zeros omitted.  The log in the inverse document frequency is
natural; any fixed base rescales every idf uniformly and cancels in the
cosine, so the choice is unobservable in the similarity values.  Terms
present in every document get idf 0 and drop out of the vectors: they
carry no discriminative signal.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from itertools import combinations, starmap
from typing import Callable, Sequence

from .corpus import Corpus


class SymmetricMatrix:
    """Immutable pairwise values in [0, 1] over an ordered node list, zero diagonal.

    ``score(nodes[i], nodes[j])`` is called once for each pair ``i < j``, row
    by row, and must return a value in [0, 1] (``ValueError`` otherwise).
    Only the upper triangle is stored, 8 bytes per pair; :meth:`write_csv`
    writes the full square, symmetric by construction.
    """

    __slots__ = ("nodes", "_values")

    def __init__(self, nodes: Sequence[str], score: Callable[[str, str], float]):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node ids")
        self._values = array("d", starmap(score, combinations(self.nodes, 2)))
        bad = next((x for x in self._values if not 0.0 <= x <= 1.0), None)
        if bad is not None:
            raise ValueError(f"matrix value out of [0, 1]: {bad!r}")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def _base(self, i: int) -> int:
        """Entry ``(i, j)``, ``i < j``, is stored at ``_values[_base(i) + j]``."""
        return i * len(self.nodes) - i * (i + 3) // 2 - 1

    def write_csv(self, path, precision: int = 6) -> None:
        """Full square matrix with row/column labels, fixed decimal places,
        written one row at a time."""
        values, n = self._values, len(self.nodes)
        bases = [self._base(i) for i in range(n)]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("node," + ",".join(self.nodes) + "\n")
            for i, u in enumerate(self.nodes):
                row = [values[bases[h] + i] for h in range(i)]
                row.append(0.0)
                row.extend(values[bases[i] + i + 1:bases[i] + n])
                fh.write(u + "," + ",".join(f"{x:.{precision}f}" for x in row) + "\n")


class PackedVector:
    """A tf-idf vector packed for scoring, 12 bytes per term.

    ``terms`` holds the vocabulary ranks of its terms, in no set order,
    ``weights`` their weights at the same positions, and ``norm`` its
    Euclidean norm.  ``len()`` is the term count.
    """

    __slots__ = ("terms", "weights", "norm")

    def __init__(self, terms: list[int], weights: list[float]):
        self.terms = array("i", terms)
        self.weights = array("d", weights)  # from a list: no spare capacity
        self.norm = math.sqrt(math.fsum(w * w for w in weights))

    def __len__(self) -> int:
        return len(self.terms)


def user_vectors(corpus: Corpus, *, consume: bool = False) -> dict[str, PackedVector]:
    """One packed tf-idf vector per user, keyed in user order.

    A term's weight is its share of the user's tokens times its idf,
    ln(corpus size / document frequency), and terms whose weight is 0 are
    left out.  The corpus is left as it is unless ``consume`` is true: then
    each user's rank array is removed from ``corpus.docs_by_user`` as soon
    as its vector is packed, so the tokens and the vectors never all exist
    at once, and the corpus is left with no documents.
    """
    n_docs, freq, docs = corpus.n_documents, corpus.doc_frequency, corpus.docs_by_user
    vectors = {}
    for u in corpus.users:
        ranks = docs.pop(u) if consume else docs[u]
        counts = Counter(ranks)
        terms, weights = [], []
        for r, count in counts.items():
            weight = count / len(ranks) * math.log(n_docs / freq[r])
            if weight > 0.0:
                terms.append(r)
                weights.append(weight)
        vectors[u] = PackedVector(terms, weights)
    return vectors


def similarity_score(corpus: Corpus, *, consume: bool = False) -> Callable[[str, str], float]:
    """``s(u, v)``: the cosine of two users' tf-idf vectors in [0, 1], with
    each user's vector packed once; 0 when either vector is empty.
    ``consume`` is passed to :func:`user_vectors`: when true, the corpus's
    documents are removed as they are packed.

    The left user's vector is expanded into one rank -> weight dict, rebuilt
    only when the left user changes (once per left user, in edge or row
    order).  The dot product, like each norm, is a ``math.fsum``: exactly
    rounded, so it is the same float on every Python version.
    """
    vectors = user_vectors(corpus, consume=consume)
    left, row = None, {}

    def s(u: str, v: str) -> float:
        nonlocal left, row
        a, b = vectors[u], vectors[v]
        if a is not left:
            left, row = a, dict(zip(a.terms, a.weights))
        dot = math.fsum(w * row[t] for t, w in zip(b.terms, b.weights) if t in row)
        if dot == 0.0:
            return 0.0
        return min(1.0, max(0.0, dot / (a.norm * b.norm)))

    return s


def similarity_matrix(nodes: Sequence[str], s: Callable[[str, str], float]) -> SymmetricMatrix:
    """Content similarity ``s`` of every pair of ``nodes``, for export."""
    return SymmetricMatrix(nodes, s)
