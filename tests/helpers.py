"""Shared builders and independent oracles for the test suite.

The oracles deliberately take the long way round: the modularity oracle
sums over all ordered node pairs from an adjacency dict, the similarity
oracle builds dense vocabulary-length numpy vectors, and the detection
oracle is the string-keyed form of center selection and expansion, which
reads the graph only through ``strength`` and ``neighbors``, and the
export oracle weights every pair from the dict forms of tf-idf, cosine and
sentiment.  They share no code path with the implementations they check.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter, deque

import numpy as np

from comtext.corpus import Corpus, Document, build_corpus, tokenize
from comtext.detect import Partition
from comtext.graph import WeightedGraph
from comtext.sentiment import SentimentLexicon, bias_value, compose, score_text
from comtext.similarity import cosine_similarity, tfidf_vector


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
    return WeightedGraph(nodes, edges)


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
    return WeightedGraph(nodes, edges)


def scaled(g: WeightedGraph, factor: float) -> WeightedGraph:
    return WeightedGraph(g.nodes, [(u, v, w * factor) for u, v, w in g.edges()])


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
    return Partition(assignment, len(remap), 1)


def pairsum_modularity(g: WeightedGraph, p: Partition) -> float:
    """Ordered-pair form: (1/2L) * sum_ij [A_ij - s_i s_j / 2L] delta(c_i, c_j)."""
    adjacency: dict[tuple[str, str], float] = {}
    for u, v, w in g.edges():
        adjacency[(u, v)] = w
        adjacency[(v, u)] = w
    strength = {
        u: sum(adjacency.get((u, v), 0.0) for v in g.nodes) for u in g.nodes
    }
    total = sum(w for _, _, w in g.edges())
    acc = 0.0
    for u in g.nodes:
        for v in g.nodes:
            if p.assignment[u] != p.assignment[v]:
                continue
            a = adjacency.get((u, v), 0.0) if u != v else 0.0
            acc += a - strength[u] * strength[v] / (2.0 * total)
    return acc / (2.0 * total)


def random_corpus(rng: random.Random, max_users: int = 10) -> Corpus:
    n = rng.randint(1, max_users)
    alphabet = [f"t{i}" for i in range(12)]
    docs = []
    for i in range(n):
        length = rng.randint(0, 20)
        text = " ".join(rng.choice(alphabet) for _ in range(length))
        docs.append(Document(f"u{i:02d}", text))
    return build_corpus(docs)


def dense_similarity_oracle(corpus: Corpus) -> np.ndarray:
    """Cosine matrix from dense full-vocabulary tf-idf arrays."""
    vocab = list(corpus.vocabulary)
    index = {t: i for i, t in enumerate(vocab)}
    idf = np.array(
        [np.log(corpus.n_documents / corpus.doc_frequency[t]) for t in vocab]
    )
    vectors = []
    for u in corpus.users:
        tokens = corpus.docs_by_user[u]
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


def reference_select_centers(g: WeightedGraph, k: int) -> list[str]:
    """String-keyed center selection: strongest node not adjacent to a
    chosen center, else the strongest remaining; ties by smaller id."""
    strength = {u: g.strength(u) for u in g.nodes}
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


def reference_expand_communities(g: WeightedGraph, centers: list[str]) -> Partition:
    """String-keyed balanced-rotation expansion with (-score, node id) heaps."""
    assignment = {c: i for i, c in enumerate(centers)}
    scores: list[dict[str, float]] = [{} for _ in centers]
    heaps: list[list[tuple[float, str]]] = [[] for _ in centers]

    def relax(node: str, community: int, weight: float) -> None:
        score = scores[community].get(node, 0.0) + weight
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
    return Partition({u: assignment[u] for u in sorted(assignment)}, m, len(centers))


def reference_exports(docs: list[tuple[str, str]], edges: list[tuple[str, str]],
                      lexicon: dict[str, float], alpha: float,
                      precision: int) -> dict[str, str]:
    """The text of ``graph.csv``, ``similarity_matrix.csv`` and
    ``bias_matrix.csv`` that a weighted ``run`` writes for these inputs.

    ``docs`` are ``(user, text)`` corpus lines in file order.  Every pair is
    scored with the dict forms, smaller id on the left; graph weights are
    snapped to ``precision`` decimals before they are written.
    """
    canonical = sorted({(min(a, b), max(a, b)) for a, b in edges if a != b})
    tokens: dict[str, list[str]] = {}
    for user, text in docs:
        tokens.setdefault(user, []).extend(tokenize(text))
    linked = {u for edge in canonical for u in edge}
    nodes = sorted(linked | set(tokens))
    df = Counter(t for u in nodes for t in set(tokens.get(u, ())))
    idf = {t: math.log(len(nodes) / d) for t, d in df.items()}
    vectors = {u: tfidf_vector(tokens.get(u, ()), idf) for u in nodes}
    polar = {u: score_text(tokens.get(u, ()), SentimentLexicon(lexicon)) for u in nodes}

    def s(u: str, v: str) -> float:
        return cosine_similarity(vectors[u], vectors[v])

    def sv(u: str, v: str) -> float:
        return bias_value(compose(polar[u], polar[v]))

    def fixed(x: float) -> str:
        return f"{x:.{precision}f}"

    def matrix(score) -> str:
        rows = ["node," + ",".join(nodes) + "\n"]
        for u in nodes:
            cells = (0.0 if u == v else score(min(u, v), max(u, v)) for v in nodes)
            rows.append(u + "," + ",".join(map(fixed, cells)) + "\n")
        return "".join(rows)

    graph = [f"{u},,\n" for u in nodes if u not in linked]
    for u, v in canonical:
        weight = alpha * s(u, v) + (1.0 - alpha) * sv(u, v)
        graph.append(f"{u},{v},{fixed(float(fixed(weight)))}\n")
    return {"graph.csv": "".join(graph), "similarity_matrix.csv": matrix(s),
            "bias_matrix.csv": matrix(sv)}
