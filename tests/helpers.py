"""Shared builders and independent oracles for the test suite.

The reference forms of the tokenizer and the text scores live here: the
character loop (``reference_tokenize``), dict tf-idf
(``inverse_document_frequency``, ``term_frequency``, ``tfidf_vector``),
dict cosine (``cosine_similarity``) and the validating dataclass
sentiment path (``SentimentVector``, ``compose``, ``CompositeSentiment``,
``bias_value``).  The package ships one form of each, checked against
these with ``==``.

The oracles deliberately take the long way round: the modularity oracle
sums over all ordered node pairs from an adjacency dict, the similarity
oracle builds dense vocabulary-length numpy vectors, and the detection
oracle is the string-keyed form of center selection and expansion, which
reads the graph only through ``neighbors``.  ``reference_quality_report``,
``reference_nmi`` and ``reference_partition_text`` read a partition as an
id -> community dict: the oracle for the index-space forms.  The
whole-pipeline oracle, :func:`reference_run`, chains the long forms: the
character-loop tokenizer, every pair scored from the dict forms of tf-idf,
cosine and sentiment, an adjacency-dict graph, the string-keyed detection
and the pair-sum modularity.  They share no code path with the
implementations they check beyond the ``Partition`` container.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import random
import tracemalloc
import unicodedata
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from comtext.corpus import Corpus, Document, EdgeList, build_corpus
from comtext.detect import Partition
from comtext.errors import GraphError, UndefinedModularityError
from comtext.fixtures import KARATE_EDGES, SyntheticSpec
from comtext.graph import WeightedGraph
from comtext.metrics import CommunityStats, QualityReport, quality_report
from comtext.pipeline import RunConfig
from comtext.sentiment import NEUTRAL_ANGLE

# Recorded fixture recipes used by the regression and acceptance suites.
# Seeds are part of the recorded contract: changing one invalidates the
# frozen expectations downstream.
RECOVERY_SPEC = SyntheticSpec(
    groups=2, nodes_per_group=10, p_in=0.8, p_out=0.02, rng_seed=42
)
TREND_SPEC = SyntheticSpec(
    groups=4, nodes_per_group=8, p_in=0.8, p_out=0.05, rng_seed=7
)
SCALE_SPEC = SyntheticSpec(
    groups=5, nodes_per_group=17, p_in=0.5, p_out=0.02, rng_seed=11,
    tokens_per_user=200,
)

# Sparse tf-idf vector: term -> positive weight.
TermVector = dict[str, float]


def traced(fn: Callable[..., Any], *args) -> tuple[Any, int, int]:
    """Call ``fn(*args)`` under tracemalloc; return its result, the bytes it
    left allocated and the peak it reached, both counted from the bytes
    traced just before the call.  The cyclic collector runs once before the
    call and is held off during it, so its phase, which earlier work sets,
    cannot move the peak."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        retained, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    return result, retained, peak


# Reads of the package's types that only the tests use.

def id_edges(g) -> tuple[tuple[str, str, float], ...]:
    """Canonical edge tuples of ``g``: smaller id first, sorted.  A
    ``WeightedGraph``'s are read through ``edge_indices``, the package's
    canonical edge reader; any other graph's, a ``ReferenceGraph``'s, through
    ``nodes`` and ``neighbors``."""
    if isinstance(g, WeightedGraph):
        nodes = g.nodes
        return tuple((nodes[i], nodes[j], w) for i, j, w in g.edge_indices())
    return tuple((u, v, w) for u in sorted(g.nodes) for v, w in g.neighbors(u) if u < v)


def node_strength(g: WeightedGraph, node: str) -> float:
    """Weighted degree of ``node``: the sum of its incident edge weights."""
    return g.strengths[g.index_of(node)]


def modularity(g: WeightedGraph, p: Partition) -> float:
    return quality_report(g, p).modularity


def karate_edge_list() -> EdgeList:
    return EdgeList.from_pairs(KARATE_EDGES)


def from_edges(nodes, weighted_edges, *, precision: int | None = None) -> WeightedGraph:
    """The graph on ``nodes`` whose edges are ``(u, v, weight)`` id triples,
    each pair once in either order, built by the constructor;
    ``precision`` as there.  An id that is not in ``nodes`` raises
    GraphError."""
    ids = tuple(nodes)
    index = {u: i for i, u in enumerate(ids)}
    heads, tails, weights = array("i"), array("i"), array("d")
    for u, v, w in weighted_edges:
        try:
            i, j = index[u], index[v]
        except KeyError:
            raise GraphError(f"edge ({u!r}, {v!r}) references an unknown node") from None
        heads.append(i)
        tails.append(j)
        weights.append(w)
    del index
    return WeightedGraph(ids, heads, tails, weights, precision=precision)


def user_terms(corpus: Corpus, user: str) -> tuple[str, ...]:
    """``user``'s tokens as terms: the corpus's ranks mapped through its vocabulary."""
    return tuple(corpus.vocabulary[r] for r in corpus.docs_by_user[user])


def inverse_document_frequency(corpus: Corpus) -> dict[str, float]:
    """ln(corpus size / document frequency) for every vocabulary term."""
    n_docs = len(corpus.users)
    return {t: math.log(n_docs / df) for t, df in zip(corpus.vocabulary, corpus.doc_frequency)}


def term_frequency(tokens: Sequence[str]) -> dict[str, float]:
    """Per-term share of the token sequence; values sum to 1.

    The empty sequence maps to the empty dict (treated as the zero vector
    by callers) rather than raising.
    """
    if not tokens:
        return {}
    total = len(tokens)
    counts = Counter(tokens)
    return {t: counts[t] / total for t in sorted(counts)}


def tfidf_vector(tokens: Sequence[str], idf: Mapping[str, float]) -> TermVector:
    """Sparse tf * idf vector; zero-product entries are omitted.

    ``idf`` must cover every term in ``tokens``.
    """
    vector: TermVector = {}
    for term, tf in term_frequency(tokens).items():
        weight = tf * idf[term]
        if weight > 0.0:
            vector[term] = weight
    return vector


def cosine_similarity(v1: TermVector, v2: TermVector) -> float:
    """Cosine of two sparse non-negative vectors, in [0, 1].

    Zero-norm inputs (empty vectors) are defined as similarity 0.
    """
    if not v1 or not v2:
        return 0.0
    if len(v2) < len(v1):
        v1, v2 = v2, v1
    dot = math.fsum(w * v2[t] for t, w in v1.items() if t in v2)
    if dot == 0.0:
        return 0.0
    norm1 = math.sqrt(math.fsum(w * w for w in v1.values()))
    norm2 = math.sqrt(math.fsum(w * w for w in v2.values()))
    return min(1.0, max(0.0, dot / (norm1 * norm2)))


@dataclass(frozen=True)
class SentimentVector:
    """Polar sentiment state: intensity ``rho`` and polarity angle ``theta``."""

    rho: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho out of [0, 1]: {self.rho!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta out of [0, pi]: {self.theta!r}")
        if self.rho == 0.0 and self.theta != NEUTRAL_ANGLE:
            raise ValueError("zero-intensity vectors must use the neutral angle pi/2")


NEUTRAL = SentimentVector(0.0, NEUTRAL_ANGLE)


@dataclass(frozen=True)
class CompositeSentiment:
    """Pairwise combination: normalized magnitude and alignment weight."""

    rho_n: float
    omega_n: float

    def __post_init__(self):
        if not 0.0 <= self.rho_n <= 1.0:
            raise ValueError(f"rho_n out of [0, 1]: {self.rho_n!r}")
        if not 0.0 <= self.omega_n <= 1.0:
            raise ValueError(f"omega_n out of [0, 1]: {self.omega_n!r}")


def compose(e_i: SentimentVector, e_j: SentimentVector) -> CompositeSentiment:
    """Add the two vectors in Cartesian coordinates.

    rho_n is the magnitude of the sum over the sum of magnitudes (0 when
    both inputs are neutral), so it lands in [0, 1] by the triangle
    inequality; omega_n = (1 + cos(theta_i - theta_j)) / 2 rewards angular
    alignment.
    """
    total = e_i.rho + e_j.rho
    if total > 0.0:
        x = e_i.rho * math.cos(e_i.theta) + e_j.rho * math.cos(e_j.theta)
        y = e_i.rho * math.sin(e_i.theta) + e_j.rho * math.sin(e_j.theta)
        rho_n = min(1.0, math.hypot(x, y) / total)
    else:
        rho_n = 0.0
    omega_n = min(1.0, max(0.0, (1.0 + math.cos(e_i.theta - e_j.theta)) / 2.0))
    return CompositeSentiment(rho_n, omega_n)


def bias_value(c: CompositeSentiment) -> float:
    """Sentiment bias value: the product of the two composite components."""
    return c.rho_n * c.omega_n


def random_weighted_graph(rng: random.Random, max_nodes: int = 12) -> WeightedGraph:
    """Random graph with at least one edge; weights are sixteenths so that
    scaling by small factors stays exact in binary floating point."""
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i:02d}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                edges.append((nodes[i], nodes[j], rng.randint(1, 16) / 16))
    if not edges:
        edges.append((nodes[0], nodes[1], 1.0))
    return from_edges(nodes, edges)


def block_graph(rng: random.Random, n: int = 2000, blocks: int = 16, degree: int = 20,
                weights=(0.0, 0.5, 1.0, 1.0)) -> WeightedGraph:
    """Planted-block graph with about ``n * degree / 2`` distinct edges, 5%
    of them drawn between blocks.  Node ids sort in a different order than
    they were made in; nodes and edges come in shuffled order, each edge in
    a random orientation, with weights drawn from ``weights``."""
    nodes = [f"{rng.choice('abAB')}{i}" for i in range(n)]
    size = n // blocks
    pairs = set()
    while len(pairs) < n * degree // 2:
        i = rng.randrange(n)
        j = rng.randrange(n) if rng.random() < 0.05 else (i - i % size + rng.randrange(size)) % n
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    edges = [(nodes[i], nodes[j], rng.choice(weights)) for i, j in sorted(pairs)]
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in edges]
    rng.shuffle(edges)
    rng.shuffle(nodes)
    return from_edges(nodes, edges)


def scaled(g: WeightedGraph, factor: float) -> WeightedGraph:
    return from_edges(g.nodes, [(u, v, w * factor) for u, v, w in id_edges(g)])


def random_partition(rng: random.Random, nodes) -> Partition:
    """Uniformly random labels, compacted to contiguous community indices."""
    nodes = sorted(nodes)
    raw = [rng.randrange(rng.randint(1, len(nodes))) for _ in nodes]
    remap: dict[int, int] = {}
    assignment = {}
    for node, label in zip(nodes, raw):
        if label not in remap:
            remap[label] = len(remap)
        assignment[node] = remap[label]
    return Partition.from_assignment(assignment, len(remap), 1)


def pairsum_modularity(g: WeightedGraph, p: Partition) -> float:
    """Ordered-pair form: (1/2L) * sum_ij [A_ij - s_i s_j / 2L] delta(c_i, c_j)."""
    adjacency: dict[tuple[str, str], float] = {}
    for u, v, w in id_edges(g):
        adjacency[(u, v)] = w
        adjacency[(v, u)] = w
    strength = {
        u: sum(adjacency.get((u, v), 0.0) for v in g.nodes) for u in g.nodes
    }
    total = sum(w for _, _, w in id_edges(g))
    assignment = p.assignment  # built on each read
    acc = 0.0
    for u in g.nodes:
        for v in g.nodes:
            if assignment[u] != assignment[v]:
                continue
            a = adjacency.get((u, v), 0.0) if u != v else 0.0
            acc += a - strength[u] * strength[v] / (2.0 * total)
    return acc / (2.0 * total)


def reference_quality_report(g: WeightedGraph, assignment: Mapping[str, int],
                             m: int) -> QualityReport:
    """``quality_report`` read from an id -> community dict, one lookup per
    node, with the same sums in the same order, so the floats are equal."""
    if len(assignment) != g.n or not all(u in assignment for u in g.nodes):
        nodes, listed = set(g.nodes), set(assignment)
        named = [f"{what} {min(diff)!r}" for what, diff in
                 (("missing", nodes - listed), ("extra", listed - nodes)) if diff]
        raise GraphError("partition does not cover exactly the graph's nodes: "
                         + ", ".join(named))
    if g.total_weight <= 0.0:
        raise UndefinedModularityError("modularity is undefined for zero total weight")
    total = g.total_weight
    intra, degree_sum, size = [0.0] * m, [0.0] * m, [0] * m
    for u, strength in zip(g.nodes, g.strengths):
        size[assignment[u]] += 1
        degree_sum[assignment[u]] += strength
    for u, v, w in id_edges(g):
        if assignment[u] == assignment[v]:
            intra[assignment[u]] += w
    q = math.fsum(intra[c] / total - (degree_sum[c] / (2.0 * total)) ** 2 for c in range(m))
    return QualityReport(q, total, tuple(
        CommunityStats(c, size[c], intra[c], degree_sum[c]) for c in range(m)))


def reference_nmi(a1: Mapping[str, int], a2: Mapping[str, int]) -> float:
    """``nmi`` from two id -> community dicts; every sum is a ``math.fsum``,
    which is exact whatever the order, so the floats are equal."""
    if set(a1) != set(a2):
        raise GraphError("partitions cover different node sets")
    n = len(a1)
    joint = Counter((a1[u], a2[u]) for u in a1)
    rows, cols = Counter(a1.values()), Counter(a2.values())

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


def reference_partition_text(assignment: Mapping[str, int], m: int, k_requested: int,
                             modularity: float | None = None) -> str:
    """The file ``save_partition`` writes, from an id -> community dict."""
    header = f"k_requested={k_requested}\nm={m}\n"
    if modularity is not None:
        header += f"modularity={modularity!r}\n"
    return header + "".join(
        f"{c}:" + ",".join(sorted(u for u, d in assignment.items() if d == c)) + "\n"
        for c in range(m))


def matrix_csv_cells(matrix, path: Path) -> dict[tuple[str, str], float]:
    """``{(row, column): value}`` as read back from ``matrix.write_csv(path)``."""
    matrix.write_csv(path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")[1:]
    cells = {}
    for row in rows:
        u, *values = row.split(",")
        cells.update(((u, v), float(x)) for v, x in zip(columns, values))
    return cells


def random_corpus(rng: random.Random, max_users: int = 10) -> Corpus:
    n = rng.randint(1, max_users)
    alphabet = [f"t{i}" for i in range(12)]
    docs = []
    for i in range(n):
        length = rng.randint(0, 20)
        text = " ".join(rng.choice(alphabet) for _ in range(length))
        docs.append(Document(f"u{i:02d}", text))
    return build_corpus(docs)


def wide_corpus() -> Corpus:
    """A corpus whose vocabulary passes 65,536 terms mid-stream: its second
    document brings the vocabulary to exactly 65,536 terms, and the third
    adds ``gamma``, rank 65,536, after ``u3`` has been read once."""
    return build_corpus([
        Document("u3", "alpha beta alpha"),
        Document("u1", " ".join(f"w{i}" for i in range(65534)) + " beta"),
        Document("u2", "gamma alpha w7"),
        Document("u3", "gamma delta w9"),
    ])


def dense_similarity_oracle(corpus: Corpus) -> np.ndarray:
    """Cosine matrix from dense full-vocabulary tf-idf arrays."""
    vocab = list(corpus.vocabulary)
    index = {t: i for i, t in enumerate(vocab)}
    doc_frequency = dict(zip(vocab, corpus.doc_frequency))
    idf = np.array(
        [np.log(len(corpus.users) / doc_frequency[t]) for t in vocab]
    )
    vectors = []
    for u in corpus.users:
        tokens = user_terms(corpus, u)
        counts = np.zeros(len(vocab))
        for t in tokens:
            counts[index[t]] += 1.0
        tf = counts / len(tokens) if tokens else counts
        vectors.append(tf * idf)
    n = len(vectors)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ni = np.linalg.norm(vectors[i])
            nj = np.linalg.norm(vectors[j])
            if ni == 0.0 or nj == 0.0:
                continue
            out[i, j] = float(np.dot(vectors[i], vectors[j]) / (ni * nj))
    return out


def reference_strength(g: WeightedGraph, u: str) -> float:
    """The strength of ``u`` summed from its ``neighbors``."""
    return math.fsum(w for _, w in g.neighbors(u))


def reference_select_centers(g: WeightedGraph, k: int, *, exact: bool = False) -> list[str]:
    """String-keyed center selection: strongest node not adjacent to a
    chosen center, else the strongest remaining; ties by smaller id.  With
    ``exact``, a strength is the exact sum of the decimals that the weights'
    shortest reprs spell, as for fixed-point graphs; without, the
    ``math.fsum`` of the weights."""
    if exact:
        strength = {u: sum(Fraction(repr(w)) for _, w in g.neighbors(u)) for u in g.nodes}
    else:
        strength = {u: reference_strength(g, u) for u in g.nodes}
    remaining = set(g.nodes)
    blocked: set[str] = set()
    centers: list[str] = []
    for _ in range(k):
        pool = [u for u in remaining if u not in blocked] or list(remaining)
        best = min(pool, key=lambda u: (-strength[u], u))
        centers.append(best)
        remaining.remove(best)
        blocked.update(v for v, _ in g.neighbors(best))
    return centers


def reference_expand_communities(g: WeightedGraph, centers: list[str], *,
                                 exact: bool = False) -> Partition:
    """String-keyed balanced-rotation expansion with (-score, node id) heaps.
    With ``exact``, a score is the exact sum of the decimals that the
    weights' shortest reprs spell, as for fixed-point graphs; without, the
    float sum of the weights."""
    assignment = {c: i for i, c in enumerate(centers)}
    scores: list[dict[str, float]] = [{} for _ in centers]
    heaps: list[list[tuple[float, str]]] = [[] for _ in centers]
    value = (lambda w: Fraction(repr(w))) if exact else float

    def relax(node: str, community: int, weight: float) -> None:
        score = scores[community].get(node, 0) + value(weight)
        scores[community][node] = score
        heapq.heappush(heaps[community], (-score, node))

    for center in centers:
        for v, w in g.neighbors(center):
            if v not in assignment and w > 0.0:
                relax(v, assignment[center], w)

    active = deque(range(len(centers)))
    while active:
        community = active.popleft()
        heap = heaps[community]
        node = None
        while heap:
            negscore, candidate = heapq.heappop(heap)
            if candidate in assignment:
                continue
            if scores[community].get(candidate) != -negscore:
                continue
            node = candidate
            break
        if node is None:
            continue
        assignment[node] = community
        for v, w in g.neighbors(node):
            if v not in assignment and w > 0.0:
                relax(v, community, w)
        active.append(community)

    m = len(centers)
    for node in sorted(u for u in g.nodes if u not in assignment):
        assignment[node] = m
        m += 1
    return Partition.from_assignment(assignment, m, len(centers))


class ReferenceGraph:
    """Adjacency-dict graph with only the reads the reference detection and
    modularity make: ``nodes`` and ``neighbors``."""

    def __init__(self, nodes: list[str], weighted_edges: list[tuple[str, str, float]]):
        self.nodes = list(nodes)
        self.adjacency: dict[str, dict[str, float]] = {u: {} for u in nodes}
        for u, v, w in weighted_edges:
            self.adjacency[u][v] = self.adjacency[v][u] = w

    def neighbors(self, u: str) -> tuple[tuple[str, float], ...]:
        return tuple(sorted(self.adjacency[u].items()))


def reference_polar(tokens, scores: dict[str, float]) -> SentimentVector:
    """The polar vector of ``tokens``: mean lexicon score of the matched
    occurrences, clamped to [-1, 1]; neutral when nothing matches or the
    scores cancel."""
    matched = [scores[t] for t in tokens if t in scores]
    polarity = min(1.0, max(-1.0, math.fsum(matched) / len(matched))) if matched else 0.0
    if polarity == 0.0:
        return NEUTRAL
    return SentimentVector(abs(polarity), (1.0 - polarity) * math.pi / 2)


def reference_tokenize(text: str, token_delim: str | None = None) -> list[str]:
    """The tokenizer the long way round: one character at a time, a token
    ending at each character that is not a letter, mark or number."""
    if token_delim is not None:
        return [t.lower() for t in text.split(token_delim) if t]
    tokens: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if unicodedata.category(ch)[0] in "LMN":
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def _lines(path) -> list[str]:
    return [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def reference_run(config: RunConfig, matrix_dir: Path | None = None) -> list[tuple[int, float]]:
    """Write the output tree that ``run(config)`` writes, the long way round;
    return its ``(k, modularity)`` rows.  The matrices go to ``matrix_dir``,
    by default the out dir.

    Texts are split by :func:`reference_tokenize` under the config's
    ``token_delim``.  Every pair of users is scored with the dict forms
    (tf-idf, cosine, the dataclass sentiment path), the graph is an
    adjacency dict, detection is the string-keyed reference and modularity
    the pair sum.  Inputs must be
    well formed and every ``k`` at most the node count.  Raises
    ``UndefinedModularityError`` where ``run`` fails at its metrics stage,
    before writing anything.
    """
    out = Path(config.out_dir)
    edges = sorted({(min(a, b), max(a, b)) for a, b in
                    (line.split(",") for line in _lines(config.edges)) if a != b})
    tokens: dict[str, list[str]] = {}
    for line in _lines(config.corpus) if config.corpus is not None else ():
        doc = json.loads(line)
        tokens.setdefault(doc["user_id"], []).extend(
            reference_tokenize(doc["text"], config.token_delim))
    scores = {}
    for line in _lines(config.lexicon) if config.lexicon is not None else ():
        if not line.startswith("#"):
            term, score = line.split("\t")
            scores[term.strip().lower()] = float(score)

    nodes = sorted({u for edge in edges for u in edge} | set(tokens))
    df = Counter(t for u in nodes for t in set(tokens.get(u, ())))
    idf = {t: math.log(len(nodes) / d) for t, d in df.items()}
    vectors = {u: tfidf_vector(tokens.get(u, ()), idf) for u in nodes}
    polar = {u: reference_polar(tokens.get(u, ()), scores) for u in nodes}

    def s(u: str, v: str) -> float:
        return cosine_similarity(vectors[u], vectors[v])

    def sv(u: str, v: str) -> float:
        return bias_value(compose(polar[u], polar[v]))

    def fixed(x: float) -> str:
        return f"{x:.{config.precision}f}"

    def write(name: str, text: str, where: Path = out) -> None:
        (where / name).write_text(text, encoding="utf-8", newline="\n")

    if config.mode == "weighted":
        a = config.alpha
        weighted = [(u, v, float(fixed(a * s(u, v) + (1.0 - a) * sv(u, v)))) for u, v in edges]
    else:
        weighted = [(u, v, 1.0) for u, v in edges]
    total = math.fsum(w for _, _, w in weighted)
    if total <= 0.0:
        raise UndefinedModularityError("zero total weight")

    out.mkdir(parents=True, exist_ok=True)
    if config.export_matrices and config.corpus is not None:
        scored = [("similarity", s)] + ([("bias", sv)] if config.lexicon is not None else [])
        for name, score in scored:
            lines = ["node," + ",".join(nodes) + "\n"]
            for u in nodes:
                cells = (0.0 if u == v else score(min(u, v), max(u, v)) for v in nodes)
                lines.append(u + "," + ",".join(map(fixed, cells)) + "\n")
            write(f"{name}_matrix.csv", "".join(lines), Path(matrix_dir or out))

    g = ReferenceGraph(nodes, weighted)
    linked = {u for edge in edges for u in edge}
    write("graph.csv", "".join([f"{u},,\n" for u in nodes if u not in linked]
                               + [f"{u},{v},{fixed(w)}\n" for u, v, w in weighted]))

    rows = []
    for k in config.k_values:
        p = reference_expand_communities(g, reference_select_centers(g, k))
        q = pairsum_modularity(g, p)
        members, assignment = p.communities(), p.assignment
        write(f"partition_k{k}.txt", reference_partition_text(assignment, p.m, k, q))
        report = {"modularity": q, "total_weight": total, "communities": [
            {"index": c, "size": len(group),
             "intra_weight": math.fsum(w for u, v, w in weighted
                                       if assignment[u] == assignment[v] == c),
             "degree_sum": math.fsum(reference_strength(g, u) for u in group)}
            for c, group in enumerate(members)]}
        write(f"quality_k{k}.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
        rows.append((k, q))
    write("summary.csv", "k,modularity\n" + "".join(f"{k},{q!r}\n" for k, q in rows))
    return rows


def reference_compare(config: RunConfig) -> None:
    """Write the output tree that ``compare(config)`` writes: a weighted
    :func:`reference_run` that puts the matrices at the root, a structural
    one with none, then their modularity side by side."""
    out = Path(config.out_dir)
    weighted = reference_run(config.replace(mode="weighted", out_dir=out / "weighted"), out)
    structural = reference_run(config.replace(mode="structural", out_dir=out / "structural",
                                              export_matrices=False))
    rows = "".join(f"{k},{qw!r},{qs!r}\n" for (k, qw), (_, qs) in zip(weighted, structural))
    (out / "compare.csv").write_text("k,modularity_weighted,modularity_structural\n" + rows,
                                     encoding="utf-8", newline="\n")
