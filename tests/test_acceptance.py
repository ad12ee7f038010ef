"""Acceptance gate: one test per release criterion.

Each test prints a PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s``
to see them) and asserts its criterion at the stated tolerance.  Tolerances
and fixture seeds are pinned here; changing either invalidates the frozen
expectations.
"""

import math
import random
import time

import pytest

from comtext.detect import Partition, detect
from comtext.fixtures import KARATE_NODES, generate, karate_partition
from comtext.graph import WeightedGraph, structural_graph
from comtext.metrics import nmi
from comtext.pipeline import RunConfig, compare, run
from helpers import (
    RECOVERY_SPEC,
    SCALE_SPEC,
    TREND_SPEC,
    SentimentVector,
    bias_value,
    compose,
    cosine_similarity,
    id_edges,
    karate_edge_list,
    modularity,
    node_strength,
    pairsum_modularity,
    random_partition,
    random_weighted_graph,
    scaled,
    term_frequency,
)

# detect(k=2) on the bundled karate graph, frozen as the regression anchor.
KARATE_K2_COMMUNITIES = [
    "09 15 16 19 21 23 24 25 26 27 28 29 30 31 32 33 34".split(),
    "01 02 03 04 05 06 07 08 10 11 12 13 14 17 18 20 22".split(),
]
KARATE_K2_MODULARITY = 0.3717948717948718


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_1_private_dataset_substituted():
    # The upstream platform crawl cannot be redistributed, so its headline
    # modularity table is declared out of reach; the bundled karate data
    # and the recorded synthetic fixtures stand in (criteria 2-8).
    ok = (
        len(karate_edge_list().edges) == 78
        and RECOVERY_SPEC.rng_seed == 42
        and TREND_SPEC.rng_seed == 7
        and SCALE_SPEC.rng_seed == 11
    )
    _criterion(
        1,
        "private-source numbers substituted by recorded fixtures",
        ok,
        "karate bundled; synthetic seeds 42/7/11 recorded",
    )


def test_criterion_2_modularity_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(100):
        g = random_weighted_graph(rng, max_nodes=12)
        p = random_partition(rng, g.nodes)
        worst = max(worst, abs(modularity(g, p) - pairsum_modularity(g, p)))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "grouped form equals pair-sum oracle on 100 seeded graphs",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |diff| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_hand_checkable_modularity():
    nodes = ["a1", "a2", "a3", "b1", "b2", "b3"]
    edges = [
        ("a1", "a2", 1.0), ("a2", "a3", 1.0), ("a1", "a3", 1.0),
        ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b1", "b3", 1.0),
    ]
    g = WeightedGraph.from_edges(nodes, edges)
    split = Partition.from_assignment({n: (0 if n.startswith("a") else 1) for n in nodes}, 2, 2)
    ok = abs(modularity(g, split) - 0.5) <= 1e-12
    rng = random.Random(303)
    worst = 0.0
    for _ in range(50):
        h = random_weighted_graph(rng)
        whole = Partition.from_assignment({u: 0 for u in h.nodes}, 1, 1)
        worst = max(worst, abs(modularity(h, whole)))
    _criterion(
        3,
        "two disconnected triangles split to Q=0.5; one community to Q=0",
        ok and worst <= 1e-12,
        f"max |Q_whole| {worst:.2e}",
    )


def test_criterion_4_karate_regression():
    g = structural_graph(karate_edge_list(), KARATE_NODES)
    start = time.perf_counter()
    partition = detect(g, 2)
    single_run = time.perf_counter() - start
    serialized = {repr(detect(g, 2)) for _ in range(10)}
    q = modularity(g, partition)
    faction_q = pairsum_modularity(g, karate_partition())
    ok = (
        len(serialized) == 1
        and partition.communities() == KARATE_K2_COMMUNITIES
        and q == pytest.approx(KARATE_K2_MODULARITY, abs=1e-12)
        and q >= 0.25
        and single_run < 0.1
    )
    _criterion(
        4,
        "karate detect(k=2) deterministic with Q >= 0.25",
        ok,
        f"Q={q:.6f}, factions Q={faction_q:.4f}, {single_run * 1000:.1f}ms",
    )


def test_criterion_5_planted_recovery(tmp_path):
    fixture = generate(RECOVERY_SPEC, tmp_path / "fixture")
    start = time.perf_counter()
    result = run(
        RunConfig(
            edges=fixture.edges_path,
            out_dir=tmp_path / "run",
            corpus=fixture.corpus_path,
            lexicon=fixture.lexicon_path,
            k_values=(2,),
        )
    )
    elapsed = time.perf_counter() - start
    partition = result.partitions[2]
    score = nmi(partition, fixture.truth)
    exact = {frozenset(c) for c in partition.communities()} == {
        frozenset(c) for c in fixture.truth.communities()
    }
    _criterion(
        5,
        "full pipeline recovers the planted 2x10 fixture with NMI = 1.0",
        score == pytest.approx(1.0, abs=1e-12) and exact and elapsed < 1.0,
        f"NMI={score}, {elapsed * 1000:.0f}ms",
    )


def test_criterion_6_modularity_trend(tmp_path):
    fixture = generate(TREND_SPEC, tmp_path / "fixture")
    result = run(
        RunConfig(
            edges=fixture.edges_path,
            out_dir=tmp_path / "run",
            corpus=fixture.corpus_path,
            lexicon=fixture.lexicon_path,
            k_values=(2, 4),
        )
    )
    q = dict(result.summary_rows)
    _criterion(
        6,
        "four-group fixture: Q(k=4) strictly above Q(k=2)",
        q[4] > q[2],
        f"Q(2)={q[2]:.4f}, Q(4)={q[4]:.4f}",
    )


def test_criterion_7_weighted_vs_structural(tmp_path):
    fixture = generate(RECOVERY_SPEC, tmp_path / "fixture")
    result = compare(
        RunConfig(
            edges=fixture.edges_path,
            out_dir=tmp_path / "cmp",
            corpus=fixture.corpus_path,
            lexicon=fixture.lexicon_path,
            k_values=(2,),
        )
    )
    k, qw, qs = result.rows[0]
    _criterion(
        7,
        "attribute-aligned fixture: weighted Q >= structural Q at planted k",
        k == 2 and qw >= qs,
        f"weighted={qw:.4f}, structural={qs:.4f}",
    )


def test_criterion_8_property_suites():
    start = time.perf_counter()
    failures: list[str] = []

    rng = random.Random(801)
    for _ in range(1000):
        tokens = [f"t{rng.randint(0, 11)}" for _ in range(rng.randint(1, 30))]
        if abs(math.fsum(term_frequency(tokens).values()) - 1.0) > 1e-12:
            failures.append("tf-sum")
            break

    rng = random.Random(802)
    pool = [f"t{i}" for i in range(20)]
    for _ in range(1000):
        v1 = {t: rng.uniform(0.01, 2.0) for t in rng.sample(pool, rng.randint(1, 8))}
        v2 = {t: rng.uniform(0.01, 2.0) for t in rng.sample(pool, rng.randint(1, 8))}
        value = cosine_similarity(v1, v2)
        c = rng.uniform(0.1, 10.0)
        if not 0.0 <= value <= 1.0:
            failures.append("cosine-range")
            break
        if abs(cosine_similarity(v2, v1) - value) > 1e-12:
            failures.append("cosine-symmetry")
            break
        if abs(cosine_similarity({t: c * w for t, w in v1.items()}, v2) - value) > 1e-12:
            failures.append("cosine-scale")
            break

    rng = random.Random(803)
    for _ in range(1000):
        e1 = SentimentVector(rng.uniform(1e-6, 1.0), rng.uniform(0.0, math.pi))
        e2 = SentimentVector(rng.uniform(1e-6, 1.0), rng.uniform(0.0, math.pi))
        sv = bias_value(compose(e1, e2))
        if not 0.0 <= sv <= 1.0:
            failures.append("sv-range")
            break
        if abs(bias_value(compose(e2, e1)) - sv) > 1e-12:
            failures.append("sv-symmetry")
            break

    grid = [
        bias_value(
            compose(
                SentimentVector(0.7, 0.0),
                SentimentVector(0.7, math.pi if i == 99 else math.pi * i / 99),
            )
        )
        for i in range(100)
    ]
    if not all(a > b for a, b in zip(grid, grid[1:])):
        failures.append("sv-monotone")

    rng = random.Random(804)
    for _ in range(1000):
        g = random_weighted_graph(rng)
        p = random_partition(rng, g.nodes)
        q = modularity(g, p)
        if not -0.5 - 1e-12 <= q <= 1.0 + 1e-12:
            failures.append("q-range")
            break
        factor = rng.choice((0.5, 2.0, 3.0, 10.0))
        if abs(modularity(scaled(g, factor), p) - q) > 1e-9:
            failures.append("q-scale")
            break

    rng = random.Random(805)
    for _ in range(1000):
        g = random_weighted_graph(rng)
        k = rng.randint(1, max(1, g.n // 2))
        factor = rng.choice((0.5, 2.0, 3.0, 10.0))
        if detect(scaled(g, factor), k).assignment != detect(g, k).assignment:
            failures.append("detect-scale")
            break

    rng = random.Random(806)
    for _ in range(1000):
        g = random_weighted_graph(rng)
        handshake = math.fsum(node_strength(g, u) for u in g.nodes)
        if abs(handshake - 2.0 * g.total_weight) > 1e-9:
            failures.append("handshake")
            break

    elapsed = time.perf_counter() - start
    _criterion(
        8,
        "property suites (1000 seeded cases each) hold within budget",
        not failures and elapsed < 30.0,
        f"{elapsed:.1f}s" + (f", failed: {failures}" if failures else ""),
    )


def test_criterion_9_scale_check(tmp_path):
    fixture = generate(SCALE_SPEC, tmp_path / "fixture")
    start = time.perf_counter()
    result = run(
        RunConfig(
            edges=fixture.edges_path,
            out_dir=tmp_path / "run",
            corpus=fixture.corpus_path,
            lexicon=fixture.lexicon_path,
            k_values=(2, 3, 4),
        )
    )
    elapsed = time.perf_counter() - start
    n_edges = len(id_edges(result.graph))
    _criterion(
        9,
        "85-node pipeline with k sweep finishes under one second",
        result.graph.n == 85 and elapsed < 1.0,
        f"{result.graph.n} nodes, {n_edges} edges, {elapsed * 1000:.0f}ms",
    )
