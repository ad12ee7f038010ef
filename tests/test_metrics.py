import math
import random

import networkx as nx
import pytest
from networkx.algorithms.community import modularity as nx_modularity

from comtext.detect import Partition, detect, load_partition, save_partition
from comtext.errors import GraphError, UndefinedModularityError
from comtext.graph import structural_graph
from comtext.metrics import QualityReport, nmi, quality_report
from helpers import (from_edges, id_edges, karate_edge_list, modularity, node_strength,
                     pairsum_modularity, random_partition, random_weighted_graph, reference_nmi,
                     reference_partition_text, reference_quality_report, scaled)
from test_detect import tie_heavy_graph

from comtext.fixtures import KARATE_NODES, karate_partition


def whole_graph_partition(g):
    return Partition.from_assignment({u: 0 for u in g.nodes}, 1, 1)


def two_triangles_split():
    nodes = ["a1", "a2", "a3", "b1", "b2", "b3"]
    edges = [
        ("a1", "a2", 1.0), ("a2", "a3", 1.0), ("a1", "a3", 1.0),
        ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b1", "b3", 1.0),
    ]
    g = from_edges(nodes, edges)
    p = Partition.from_assignment({n: (0 if n.startswith("a") else 1) for n in nodes}, 2, 2)
    return g, p


class TestModularity:
    def test_single_community_is_zero(self):
        g, _ = two_triangles_split()
        assert modularity(g, whole_graph_partition(g)) == pytest.approx(0.0, abs=1e-12)

    def test_two_triangles_half(self):
        g, p = two_triangles_split()
        assert modularity(g, p) == pytest.approx(0.5, abs=1e-12)

    def test_karate_factions_match_pairsum_oracle(self):
        g = structural_graph(karate_edge_list(), KARATE_NODES)
        p = karate_partition()
        oracle = pairsum_modularity(g, p)
        assert modularity(g, p) == pytest.approx(oracle, abs=1e-12)
        # value frozen from an independent run of the ordered-pair form
        assert oracle == pytest.approx(0.3582347140039433, abs=1e-12)

    def test_grouped_form_equals_pairsum_oracle(self):
        rng = random.Random(97)
        for _ in range(100):
            g = random_weighted_graph(rng)
            p = random_partition(rng, g.nodes)
            assert modularity(g, p) == pytest.approx(
                pairsum_modularity(g, p), abs=1e-12
            )

    def test_range(self):
        rng = random.Random(103)
        for _ in range(300):
            g = random_weighted_graph(rng)
            p = random_partition(rng, g.nodes)
            assert -0.5 - 1e-12 <= modularity(g, p) <= 1.0 + 1e-12

    def test_relabeling_invariance(self):
        g, p = two_triangles_split()
        swapped = Partition.from_assignment({n: 1 - c for n, c in p.assignment.items()}, 2, 2)
        assert modularity(g, p) == modularity(g, swapped)

    def test_weight_scaling_invariance(self):
        rng = random.Random(107)
        for _ in range(100):
            g = random_weighted_graph(rng)
            p = random_partition(rng, g.nodes)
            q = modularity(g, p)
            for factor in (0.5, 2.0, 7.5):
                assert modularity(scaled(g, factor), p) == pytest.approx(q, abs=1e-9)

    def test_zero_weight_error(self):
        g = from_edges(["a", "b"], [("a", "b", 0.0)])
        with pytest.raises(UndefinedModularityError):
            modularity(g, whole_graph_partition(g))

    def test_node_mismatch_error(self):
        g, p = two_triangles_split()
        bad = Partition.from_assignment({"x": 0}, 1, 1)
        with pytest.raises(GraphError):
            modularity(g, bad)

    def test_node_mismatch_names_first_missing_and_extra(self):
        g, p = two_triangles_split()
        cases = [
            ({"a3": 0, "b1": 0, "zz": 0, "b3": 0, "x": 0},
             "missing 'a1', extra 'x'"),
            ({**p.assignment, "zz": 1, "c": 1}, "nodes: extra 'c'$"),
            ({u: c for u, c in p.assignment.items() if u not in ("b2", "a2")},
             "nodes: missing 'a2'$"),
        ]
        for assignment, message in cases:
            m = max(assignment.values()) + 1
            with pytest.raises(GraphError, match=message):
                quality_report(g, Partition.from_assignment(assignment, m, m))


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_weighted_edges_from(id_edges(g))
    return h


class TestNetworkxOracle:
    """Weighted modularity and strength against networkx (Newman 2004)."""

    def assert_modularity_matches(self, g, p):
        expected = nx_modularity(to_networkx(g), p.communities(), weight="weight")
        assert quality_report(g, p).modularity == pytest.approx(expected, abs=1e-12)

    def test_random_graphs_and_partitions(self):
        rng = random.Random(107)
        for _ in range(100):
            g = random_weighted_graph(rng, max_nodes=20)
            self.assert_modularity_matches(g, random_partition(rng, g.nodes))
            self.assert_modularity_matches(g, detect(g, rng.randint(1, g.n)))

    def test_karate(self):
        g = structural_graph(karate_edge_list(), KARATE_NODES)
        self.assert_modularity_matches(g, karate_partition())
        for k in (2, 3, 4):
            self.assert_modularity_matches(g, detect(g, k))

    def test_strength_is_weighted_degree(self):
        rng = random.Random(109)
        graphs = [random_weighted_graph(rng, max_nodes=20) for _ in range(100)]
        graphs.append(structural_graph(karate_edge_list(), KARATE_NODES))
        for g in graphs:
            h = to_networkx(g)
            for u in g.nodes:
                assert node_strength(g, u) == pytest.approx(h.degree(u, weight="weight"), abs=1e-12)


class TestQualityReport:
    def test_stats(self):
        g, p = two_triangles_split()
        report = quality_report(g, p)
        assert report.total_weight == 6.0
        assert sum(c.size for c in report.per_community) == g.n
        for community in report.per_community:
            assert community.intra_weight == 3.0
            assert community.degree_sum == 6.0
            assert community.intra_weight <= report.total_weight
            assert community.degree_sum <= 2.0 * report.total_weight

    def test_json_round_trip(self, tmp_path):
        import json

        g, p = two_triangles_split()
        report = quality_report(g, p)
        path = tmp_path / "report.json"
        report.write_json(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["modularity"] == report.modularity
        assert len(data["communities"]) == 2


class TestNmi:
    def _partition(self, groups):
        assignment = {}
        for index, members in enumerate(groups):
            for node in members:
                assignment[node] = index
        return Partition.from_assignment(assignment, len(groups), max(1, len(groups)))

    def test_identity(self):
        p = self._partition([["a", "b"], ["c", "d"]])
        assert nmi(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_label_permutation(self):
        p1 = self._partition([["a", "b"], ["c", "d"]])
        p2 = self._partition([["c", "d"], ["a", "b"]])
        assert nmi(p1, p2) == pytest.approx(1.0, abs=1e-12)

    def test_singletons_vs_single_block(self):
        p1 = self._partition([["a"], ["b"], ["c"]])
        p2 = self._partition([["a", "b", "c"]])
        assert nmi(p1, p2) == 0.0

    def test_both_single_block(self):
        p1 = self._partition([["a", "b"]])
        assert nmi(p1, p1) == 1.0

    def test_independent_partitions(self):
        p1 = self._partition([["a", "b"], ["c", "d"]])
        p2 = self._partition([["a", "c"], ["b", "d"]])
        assert nmi(p1, p2) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        # {a,b | c,d} vs {a,b | c | d}: I = ln 2, H1 = ln 2,
        # H2 = (3/2) ln 2, so NMI = 2 ln2 / (ln2 + 1.5 ln2) = 0.8.
        p1 = self._partition([["a", "b"], ["c", "d"]])
        p2 = self._partition([["a", "b"], ["c"], ["d"]])
        expected = 2 * math.log(2) / (math.log(2) + 1.5 * math.log(2))
        assert nmi(p1, p2) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(109)
        for _ in range(200):
            nodes = [f"n{i}" for i in range(rng.randint(2, 10))]
            p1 = random_partition(rng, nodes)
            p2 = random_partition(rng, nodes)
            assert nmi(p1, p2) == pytest.approx(nmi(p2, p1), abs=1e-12)
            assert 0.0 <= nmi(p1, p2) <= 1.0

    def test_node_set_mismatch(self):
        p1 = self._partition([["a", "b"]])
        p2 = self._partition([["a", "c"]])
        with pytest.raises(GraphError):
            nmi(p1, p2)


def outcome(fn, *args):
    """``fn(*args)``, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (GraphError, UndefinedModularityError) as exc:
        return type(exc), str(exc)


class TestIndexSpaceOracle:
    """``quality_report``, ``nmi``, ``save_partition`` and ``load_partition``
    on index-space partitions give what the dict forms in ``helpers`` give,
    errors included: random labels in shuffled order over ids whose sorted
    order differs from their creation order, isolated nodes, zero-weight
    edges, and node sets that miss or add ids."""

    def test_seeded_partitions(self, tmp_path):
        rng = random.Random(211)
        path = tmp_path / "partition.txt"
        for trial in range(300):
            g = tie_heavy_graph(rng)
            ids = list(g.nodes)
            rng.shuffle(ids)
            if trial % 4 in (1, 3):  # missing ids
                del ids[:rng.randint(1, max(1, len(ids) // 3))]
            if trial % 4 in (2, 3):  # extra ids, which may sort anywhere
                ids += [f"{rng.choice('abAB')}{g.n + j}" for j in range(rng.randint(1, 3))]
            m = rng.randint(1, len(ids))
            labels = list(range(m)) + [rng.randrange(m) for _ in range(len(ids) - m)]
            rng.shuffle(labels)
            assignment = dict(zip(ids, labels))
            p = Partition.from_assignment(assignment, m, rng.randint(1, m))
            found = detect(g, rng.randint(1, g.n))
            assert found.nodes is g.nodes

            report = outcome(quality_report, g, p)
            assert report == outcome(reference_quality_report, g, assignment, m)
            assert (outcome(quality_report, g, found)
                    == outcome(reference_quality_report, g, found.assignment, found.m))
            assert outcome(nmi, p, found) == outcome(reference_nmi, assignment, found.assignment)
            assert nmi(found, found) == reference_nmi(found.assignment, found.assignment)

            q = report.modularity if isinstance(report, QualityReport) else None
            save_partition(p, path, q)
            expected = reference_partition_text(assignment, m, p.k_requested, q)
            assert path.read_text(encoding="utf-8") == expected
            # Community lines, and the members on each, in shuffled order.
            header, lines = expected.splitlines()[:2 + (q is not None)], []
            for line in expected.splitlines()[len(header):]:
                index, _, members = line.partition(":")
                members = members.split(",")
                rng.shuffle(members)
                lines.append(f"{index}:" + ",".join(members))
            rng.shuffle(lines)
            path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
            assert load_partition(path) == (p, q)
