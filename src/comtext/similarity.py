"""Content similarity: tf-idf term vectors, their pairwise cosine, and the
:class:`SymmetricMatrix` that scores every pair of users as it writes them
out (the sentiment bias values use it too).

Each user's tf-idf vector is packed once, straight from the counts of the
user's rank array, into :class:`PackedVector` arrays over vocabulary
ranks, zeros omitted.  The log in the inverse document frequency is
natural; any fixed base rescales every idf uniformly and cancels in the
cosine, so the choice is unobservable in the similarity values.  Terms
present in every document get idf 0 and drop out of the vectors: they
carry no discriminative signal.

The matrix CSV has fixed-width cells, so each cell has a known byte offset
and the writer places bytes by seeking.  One rule places every scored
cell: for a band of ``_BAND`` rows, each row from the band's top row down
gets one piece at the band's first column, the band's cells left of that
row's diagonal followed, for a row inside the band, by its diagonal and
the cells right of it.  Each pair is scored once, in row-major order.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import Counter
from typing import Callable, Iterator, Sequence

from .corpus import Corpus, index_typecode

# Rows that SymmetricMatrix.write_csv scores and holds at a time.
_BAND = 16


class SymmetricMatrix:
    """Pairwise values in [0, 1] over an ordered node list, zero diagonal,
    scored as they are written.

    Construction only checks that the nodes are distinct.  :meth:`write_csv`
    calls ``score(nodes[i], nodes[j])`` once for each pair ``i < j``, row by
    row, and each value must lie in [0, 1] (``ValueError`` otherwise, and no
    file is left).  No value outlives the band of ``_BAND`` rows it was
    scored in, so a write holds O(n * ``_BAND``) bytes.
    """

    __slots__ = ("nodes", "_score")

    def __init__(self, nodes: Sequence[str], score: Callable[[str, str], float]):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node ids")
        self._score = score

    @property
    def n(self) -> int:
        return len(self.nodes)

    def write_csv(self, path, precision: int = 6) -> None:
        """Full square matrix with row/column labels and ``precision``
        decimal places, at least 1, symmetric, each pair scored once as it
        is written.  A precision below 1 is a ValueError before the file is
        opened; on any later failure the partial file is removed."""
        if precision < 1:
            raise ValueError(f"matrix precision must be at least 1, got {precision!r}")
        fh = open(path, "wb")
        try:
            with fh:
                for offset, data in self._chunks(precision):
                    fh.seek(offset)
                    fh.write(data)
        except BaseException:
            os.remove(path)
            raise

    def _chunks(self, precision: int) -> Iterator[tuple[int, bytes]]:
        """``(byte offset, bytes)`` pieces that tile the CSV.

        A value in [0, 1] formats to exactly ``precision + 2`` characters,
        so with its separator every cell is ``width`` bytes and every cell's
        offset follows from the header, the row labels and n.  The header
        and each row's label go out in the pass that finds where each row's
        cells start.  Rows are then scored ``_BAND`` at a time, in row-major
        order, and one rule places a band: every row from the band's top row
        down gets one piece at the band's first column, holding the band's
        cells left of that row's diagonal and, for a row inside the band,
        its diagonal and the cells right of it, which end the line.  Each
        band row goes whole into the band's transpose, which covers every
        row from the top row down, one strided slice per byte of a cell.
        The cells left of any row's diagonal are then one slice of it: all
        of the band's for a row below the band, the first h for band row h.
        """
        nodes, score, n = self.nodes, self._score, len(self.nodes)
        spec = f"%.{precision}f,".encode()
        width = precision + 3
        header = ("node," + ",".join(nodes) + "\n").encode("utf-8")
        yield 0, header
        # firsts[i]: the byte offset of row i's first cell, just after its label.
        firsts, offset = array("q"), len(header)
        for u in nodes:
            label = u.encode("utf-8") + b","
            yield offset, label
            offset += len(label)
            firsts.append(offset)
            offset += n * width
        zero = spec % 0.0

        def cells(i: int) -> bytes:
            """Row i's cells right of its diagonal, each pair scored once;
            the row's values are freed as it returns."""
            u = nodes[i]
            # + 0.0 makes a -0.0 0.0, as wide as every other cell.
            values = tuple(score(u, v) + 0.0 for v in nodes[i + 1:])
            bad = next((x for x in values if not 0.0 <= x <= 1.0), None)
            if bad is not None:
                raise ValueError(f"matrix value out of [0, 1]: {bad!r}")
            return (spec * len(values)) % values

        for top in range(0, n, _BAND):
            rows = min(_BAND, n - top)
            # below: the band transposed, one piece of ``stride`` bytes per
            # row from ``top`` down, holding that row's cell from each band
            # row in order; band row h has filled pieces h + 1 onward.
            stride = rows * width
            below = bytearray((n - top) * stride)
            for h in range(rows):
                row = cells(top + h)
                at = h * stride
                left = below[at:at + h * width]
                yield firsts[top + h] + top * width, (left + zero + row)[:-1] + b"\n"
                # One strided slice per byte of a cell, not one slice per cell.
                # Each has one slot per cell of the row, so a start off by a
                # whole piece is a ValueError.
                for b in range(width):
                    below[at + stride + h * width + b::stride] = row[b::width]
                del row  # freed before the next row is built
            for m in range(top + rows, n):
                at = (m - top) * stride
                yield firsts[m] + top * width, below[at:at + stride]
            del below  # freed before the next band's is allocated


class PackedVector:
    """A tf-idf vector packed for scoring, 10 bytes per term while every
    rank is below 65,536.

    ``terms`` holds the vocabulary ranks of its terms, in no set order, in
    the narrowest array that holds its largest rank (``'H'`` or ``'i'``, see
    :func:`~comtext.corpus.index_typecode`); ``weights`` holds their weights
    at the same positions, and ``norm`` its Euclidean norm.  ``len()`` is
    the term count.
    """

    __slots__ = ("terms", "weights", "norm")

    def __init__(self, terms: list[int], weights: list[float]):
        self.terms = array(index_typecode(max(terms, default=-1) + 1), terms)
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
    # One merged document per user, empty ones included.
    n_docs, freq, docs = len(corpus.users), corpus.doc_frequency, corpus.docs_by_user
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
    """Content similarity ``s`` of every pair of ``nodes``, for export; the
    pairs are scored as :meth:`SymmetricMatrix.write_csv` writes them."""
    return SymmetricMatrix(nodes, s)
