"""Ingestion of user texts and interaction edges.

A corpus file is JSON-lines: one object per line with string fields
``user_id`` and ``text``.  Multiple lines for the same user are merged into a
single token sequence, because every network node carries exactly one text
vector downstream.  :func:`tokenize` splits each text by one Unicode rule,
or on a ``token_delim`` when an external segmenter has already split it.
An edge file is two-column CSV (``id_a,id_b``, no header).
All input files share :func:`read_lines` and the node-id rule :func:`node_id`.
"""

from __future__ import annotations

import json
import re
import unicodedata
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator

from ._record import Record
from .errors import ParseError


class Where:
    """The ``path: line N`` prefix of a ParseError, formatted only when an
    error message asks for its text."""

    __slots__ = ("path", "lineno")

    def __init__(self, path, lineno: int):
        self.path = path
        self.lineno = lineno

    def __str__(self) -> str:
        return f"{self.path}: line {self.lineno}"


# Lone surrogates, which UTF-8 cannot encode.  Valid UTF-8 never decodes to
# one, but ``surrogateescape`` decodes each undecodable byte to one, and a
# JSON escape such as ``\ud800`` yields one.
_SURROGATE = re.compile("[\ud800-\udfff]")


def read_lines(path) -> Iterator[tuple[Where, str]]:
    """Yield ``(where, line)`` for each non-blank line of ``path``, stripped.

    Lines end only at LF, CR or CRLF; ``where`` names the line as
    ``path: line N``.  A file is read as UTF-8, and a byte-order mark at its
    start is dropped.  A line that is not UTF-8 is a ParseError naming it.
    """
    # Valid UTF-8 never decodes to a lone surrogate, so escaping the bad bytes
    # keeps the file streaming and still finds the line that holds one.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                where = Where(path, lineno)
                if not line.isascii() and _SURROGATE.search(line):
                    raise ParseError(f"{where}: not valid UTF-8")
                yield where, line


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` to ``path`` as UTF-8, with one LF after each.

    ``lines`` may be any iterable, a generator included; each line is
    written as it is drawn.  Every text file comtext writes goes through
    here, no byte-order mark and no CR whatever the platform, except the
    two matrix CSVs: ``SymmetricMatrix`` places their cells by byte offset,
    the one binary write.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def node_id(raw: str, where: str | Where) -> str:
    """The node id ``raw`` names: stripped, non-empty, no reserved character
    and no lone surrogate."""
    node = raw.strip()
    if not node:
        raise ParseError(f"{where}: empty node id")
    if "," in node or "\n" in node or "\r" in node:  # the exports' separators
        raise ParseError(f"{where}: node id {node!r} contains a reserved character")
    if not node.isascii() and _SURROGATE.search(node):
        raise ParseError(f"{where}: node id {node!r} holds a lone surrogate")
    return node


def tokenize(text: str, token_delim: str | None = None) -> list[str]:
    """Lowercase ``text`` and split it into tokens; empty tokens are dropped.

    With no ``token_delim``, letters, combining marks and numbers form
    tokens and every other character (whitespace, punctuation, symbols,
    controls) separates them; this is idempotent on its own output joined
    by single spaces.  A ``token_delim`` means the text is already
    segmented (e.g. by an external Chinese segmenter): it is only split on
    that string.
    """
    if token_delim is not None:
        return [t.lower() for t in text.split(token_delim) if t]
    return "".join(ch if unicodedata.category(ch)[0] in "LMN" else " "
                   for ch in text.lower()).split()


def index_typecode(n: int) -> str:
    """The narrowest array typecode that holds every index below ``n``."""
    return "H" if n <= 65536 else "i"


class Document(Record):
    user_id: str
    text: str


class Corpus(Record):
    """Per-user merged token sequences over a vocabulary.

    ``users`` is sorted (the determinism anchor for every matrix built on
    top).  ``vocabulary`` holds each distinct term once, in order of first
    appearance in the corpus, and a term's position there is its rank.
    ``docs_by_user[u]`` is user ``u``'s merged text as an array of ranks in
    token order, so ``len()`` is its token count and ``vocabulary[r]`` turns
    a rank back into its term.  Every user's array has the typecode
    :func:`index_typecode` gives for the vocabulary size: ``'H'``, 2 bytes
    per token, up to 65,536 terms, and ``'i'``, 4 bytes, above.
    ``doc_frequency[r]``, an ``array('i')`` by rank, counts how many
    users' merged documents contain term ``r``, so it is always >= 1.
    """

    users: tuple[str, ...]
    docs_by_user: dict[str, array]
    vocabulary: tuple[str, ...]
    doc_frequency: array


def build_corpus(documents: Iterable[Document], token_delim: str | None = None) -> Corpus:
    """Merge documents per user (in input order) and build the vocabulary.

    Terms are numbered by first appearance as the documents stream in, and
    each user's tokens are held as one growing array of those numbers,
    which are the ranks.  The arrays start as ``array('H')``; the document
    whose terms take the vocabulary past 65,536 turns every array into an
    ``array('i')`` once, before its own ranks are added.
    """
    merged: dict[str, array] = {}
    numbers: dict[str, int] = {}  # term -> order of first appearance; keeps one object per term
    typecode = index_typecode(0)
    for index, doc in enumerate(documents, start=1):
        user = node_id(doc.user_id, f"document {index}")
        ranks = [numbers.setdefault(t, len(numbers)) for t in tokenize(doc.text, token_delim)]
        if index_typecode(len(numbers)) != typecode:
            typecode = index_typecode(len(numbers))
            for u in merged:
                merged[u] = array(typecode, merged[u])
        merged.setdefault(user, array(typecode)).extend(ranks)
    vocabulary = tuple(numbers)
    del numbers
    freq = array("i", bytes(4 * len(vocabulary)))
    for tokens in merged.values():
        for r in set(tokens):
            freq[r] += 1
    return Corpus(tuple(sorted(merged)), merged, vocabulary, freq)


def load_corpus(path, token_delim: str | None = None) -> Corpus:
    """Read a JSON-lines corpus file.

    Raises ParseError for malformed lines (naming the line number) and for
    an empty file.  Each line is tokenized, and its text dropped, before the
    next line is read.
    """
    corpus = build_corpus(_read_documents(path), token_delim)
    if not corpus.users:
        raise ParseError(f"{path}: empty corpus file")
    return corpus


def _read_documents(path) -> Iterator[Document]:
    """Yield the corpus file's documents one line at a time."""
    for where, line in read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where}: invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise ParseError(f"{where}: expected a JSON object")
        for key in ("user_id", "text"):
            if key not in record:
                raise ParseError(f"{where}: missing {key!r}")
            if not isinstance(record[key], str):
                raise ParseError(f"{where}: {key!r} must be a string")
        yield Document(node_id(record["user_id"], where), record["text"])


def ensure_users(corpus: Corpus, user_ids: Iterable[str]) -> Corpus:
    """Return a corpus extended with any missing ``user_ids`` as empty documents.

    Used when the edge list mentions users that never wrote text: they keep
    the graph structure but contribute an empty attribute vector.  Note that
    added users count as documents, which enters the inverse-document-
    frequency denominator's corpus size.  Empty documents change neither
    the vocabulary nor any document frequency, so the extended corpus
    shares those two objects with ``corpus``.  The empty rank arrays take
    the width of the corpus's own (see :class:`Corpus`).  Only the missing
    ids are collected in a set.
    """
    docs = corpus.docs_by_user
    missing = {u for u in user_ids if u not in docs}
    if not missing:
        return corpus
    users = tuple(sorted([*corpus.users, *missing]))
    typecode = index_typecode(len(corpus.vocabulary))
    docs = {u: docs[u] if u in docs else array(typecode) for u in users}
    return Corpus(users, docs, corpus.vocabulary, corpus.doc_frequency)


class EdgeList(Record):
    """Canonical undirected edge set in index space, with no self-loops.

    ``ids`` holds every endpoint once, sorted.  Edge ``e`` joins
    ``ids[heads[e]]`` and ``ids[tails[e]]``, with ``heads[e] < tails[e]``,
    so its smaller id first; each pair appears once, and the edges are
    sorted.  ``heads`` and ``tails`` are arrays of the typecode
    :func:`index_typecode` gives for ``len(ids)``: the columns the
    ``WeightedGraph`` constructor takes.
    """

    ids: tuple[str, ...]
    heads: array
    tails: array
    self_loops_dropped: int = 0

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every edge as an ``(id, id)`` pair, smaller id first, sorted;
        built on each read."""
        return tuple((self.ids[h], self.ids[t]) for h, t in zip(self.heads, self.tails))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "EdgeList":
        """The edge set of ``(id, id)`` pairs given in any order and either
        orientation: a repeated pair is kept once, and a self-loop dropped and
        counted.  Each pair is held as one packed int of its ids' numbers,
        never as a tuple."""
        names: dict[str, int] = {}  # each id, numbered in order of first appearance
        keys = set()  # each pair once: the smaller id's number << 32 | the other's
        dropped = 0
        for a, b in pairs:
            dropped += a == b  # a self-loop is counted, not kept
            if a != b:
                a, b = (a, b) if a < b else (b, a)
                keys.add(names.setdefault(a, len(names)) << 32 | names.setdefault(b, len(names)))
        ids = tuple(sorted(names))
        # An id's number -> its position in ids; names holds the ids in number order.
        rank = array("i", (bisect_left(ids, u) for u in names))
        del names
        keys = sorted(rank[k >> 32] << 32 | rank[k & 0xFFFFFFFF] for k in keys)
        typecode = index_typecode(len(ids))
        return cls(ids, array(typecode, (k >> 32 for k in keys)),
                   array(typecode, (k & 0xFFFFFFFF for k in keys)), dropped)


def load_edges(path) -> EdgeList:
    """Read a two-column CSV edge file.

    Self-loop lines are dropped and counted in ``self_loops_dropped``;
    anything that is not exactly two non-empty comma-separated fields is a
    ParseError naming the line, and a file with no edge left is one naming
    the file.  Each line's pair goes into the edge set as it is read, so no
    list of the file's pairs is ever held.
    """
    edges = EdgeList.from_pairs(_read_pairs(path))
    if not edges.heads:
        raise ParseError(f"{path}: no edge between two distinct ids")
    return edges


def _read_pairs(path) -> Iterator[tuple[str, str]]:
    """Yield the edge file's checked id pairs one line at a time."""
    for where, line in read_lines(path):
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"{where}: expected 'id_a,id_b'")
        yield node_id(fields[0], where), node_id(fields[1], where)
