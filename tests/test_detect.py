import heapq
import importlib
import random
import re
from array import array
from types import SimpleNamespace

import pytest

from comtext.detect import (
    Partition,
    detect,
    expand_communities,
    load_partition,
    save_partition,
    select_centers,
)
from comtext.errors import GraphError, ParameterError, ParseError
from comtext.graph import WeightedGraph
from comtext.metrics import quality_report
from helpers import (
    block_graph,
    id_edges,
    karate_edge_list,
    node_strength,
    random_weighted_graph,
    reference_expand_communities,
    reference_select_centers,
    scaled,
    traced,
)

from comtext.fixtures import KARATE_NODES
from comtext.graph import structural_graph

# The module, which the package's ``detect`` function shadows as an attribute.
detect_module = importlib.import_module("comtext.detect")


def two_triangles():
    nodes = ["a1", "a2", "a3", "b1", "b2", "b3"]
    edges = [
        ("a1", "a2", 1.0), ("a2", "a3", 1.0), ("a1", "a3", 1.0),
        ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b1", "b3", 1.0),
    ]
    return WeightedGraph.from_edges(nodes, edges)


def two_cliques(size):
    nodes = [f"a{i}" for i in range(size)] + [f"b{i}" for i in range(size)]
    edges = []
    for prefix in "ab":
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((f"{prefix}{i}", f"{prefix}{j}", 1.0))
    return WeightedGraph.from_edges(nodes, edges)


class TestSelectCenters:
    def test_one_center_per_triangle(self):
        assert select_centers(two_triangles(), 2) == ["a1", "b1"]

    def test_k_one_picks_max_strength_smallest_id(self):
        g = WeightedGraph.from_edges(
            ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 0.5)]
        )
        # strengths: a=1.5, b=2.0, c=1.5
        assert select_centers(g, 1) == ["b"]
        tied = two_triangles()
        assert select_centers(tied, 1) == ["a1"]

    def test_k_equals_node_count_uses_fallback(self):
        assert select_centers(two_triangles(), 6) == [
            "a1", "b1", "a2", "a3", "b2", "b3"
        ]

    def test_k_out_of_range(self):
        g = two_triangles()
        with pytest.raises(ParameterError):
            select_centers(g, 0)
        with pytest.raises(ParameterError):
            select_centers(g, 7)

    def test_spread_preference(self):
        # path x--y--z: strongest is y; the second center avoids y's
        # neighbors, so it cannot be x or z... but both are adjacent,
        # so the fallback picks the strongest remaining (x by id).
        g = WeightedGraph.from_edges(["x", "y", "z"], [("x", "y", 1.0), ("y", "z", 1.0)])
        assert select_centers(g, 2) == ["y", "x"]


class TestExpandCommunities:
    def test_triangles_recovered(self):
        p = expand_communities(two_triangles(), ["a1", "b1"])
        assert p.communities() == [["a1", "a2", "a3"], ["b1", "b2", "b3"]]

    def test_path_single_center(self):
        g = WeightedGraph.from_edges(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)])
        p = expand_communities(g, ["a"])
        assert p.communities() == [["a", "b", "c"]]

    def test_isolated_node_becomes_singleton(self):
        g = WeightedGraph.from_edges(["a", "b", "iso"], [("a", "b", 1.0)])
        p = expand_communities(g, ["a"])
        assert p.m == 2
        assert p.communities() == [["a", "b"], ["iso"]]

    def test_zero_weight_edges_do_not_carry_membership(self):
        g = WeightedGraph.from_edges(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 0.0)])
        p = expand_communities(g, ["a"])
        assert p.communities() == [["a", "b"], ["c"]]

    def test_validation(self):
        g = two_triangles()
        with pytest.raises(ParameterError):
            expand_communities(g, [])
        with pytest.raises(ParameterError):
            expand_communities(g, ["a1", "a1"])
        with pytest.raises(GraphError):
            expand_communities(g, ["nope"])

    def test_centers_keep_their_index(self):
        rng = random.Random(79)
        for _ in range(50):
            g = random_weighted_graph(rng)
            k = rng.randint(1, g.n)
            centers = select_centers(g, k)
            p = expand_communities(g, centers)
            for i, c in enumerate(centers):
                assert p.assignment[c] == i

    def test_communities_connected_when_one_center_per_component(self):
        rng = random.Random(83)
        for _ in range(50):
            g = random_weighted_graph(rng)
            components = _components(g)
            centers = [
                min(comp, key=lambda u: (-node_strength(g, u), u)) for comp in components
            ]
            p = expand_communities(g, centers)
            for members in p.communities():
                assert _induces_connected(g, members)


def _components(g):
    seen = set()
    components = []
    for start in g.nodes:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(v for v, w in g.neighbors(u) if w > 0 and v not in comp)
        seen |= comp
        components.append(sorted(comp))
    return components


def _induces_connected(g, members):
    members = set(members)
    start = next(iter(members))
    reached = set()
    stack = [start]
    while stack:
        u = stack.pop()
        if u in reached:
            continue
        reached.add(u)
        stack.extend(
            v for v, w in g.neighbors(u) if w > 0 and v in members and v not in reached
        )
    return reached == members


class TestDetect:
    def test_two_triangles(self):
        g = two_triangles()
        p = detect(g, 2)
        assert p.communities() == [["a1", "a2", "a3"], ["b1", "b2", "b3"]]

    def test_clique_recovery_all_sizes(self):
        for size in range(2, 7):
            g = two_cliques(size)
            p = detect(g, 2)
            expected = [
                [f"a{i}" for i in range(size)],
                [f"b{i}" for i in range(size)],
            ]
            assert p.communities() == expected

    def test_saturation(self):
        g = two_triangles()
        p = detect(g, 6)
        assert p.m == 6
        assert all(len(c) == 1 for c in p.communities())

    def test_deterministic_on_karate(self):
        g = structural_graph(karate_edge_list(), KARATE_NODES)
        outputs = {repr(detect(g, 2)) for _ in range(10)}
        assert len(outputs) == 1

    def test_scale_invariance(self):
        rng = random.Random(89)
        for _ in range(40):
            g = random_weighted_graph(rng)
            k = rng.randint(1, max(1, g.n // 2))
            baseline = detect(g, k)
            for factor in (0.25, 0.5, 2.0, 3.0, 10.0):
                assert detect(scaled(g, factor), k).assignment == baseline.assignment

    def test_exact_unit_sums_tie_to_the_smaller_index(self):
        """On a fixed-point graph a score is the exact sum of its units: n3's
        0.2 + 0.1 ties n2's 0.3 for community 0, and n2, the smaller index,
        attaches first.  As doubles, 0.2 + 0.1 reads 0.30000000000000004
        and would take n3.  Weights ten times larger at one more place give
        the same partition."""
        nodes = [f"n{i}" for i in range(6)]
        edges = [("n0", "n1", 0.3), ("n0", "n3", 0.1), ("n1", "n2", 0.3), ("n1", "n3", 0.2),
                 ("n2", "n3", 0.3), ("n3", "n5", 0.1), ("n4", "n5", 0.2)]
        expected = [["n0", "n1", "n2"], ["n3", "n4", "n5"]]
        g = WeightedGraph.from_edges(nodes, edges, precision=1)
        assert detect(g, 2).communities() == expected
        tenfold = WeightedGraph.from_edges(nodes, [(u, v, 10 * w) for u, v, w in edges],
                                           precision=2)
        assert detect(tenfold, 2).communities() == expected

    def test_exact_unit_strengths_rank_ties_by_id(self):
        """A center ranks by its exact unit sum: b's 0.1 + 0.2 ties a's 0.3,
        and a, the smaller id, is the first center.  As doubles, b's
        strength reads 0.30000000000000004 and b is first."""
        nodes = ["a", "b", "x", "y", "z"]
        edges = [("a", "x", 0.3), ("b", "y", 0.1), ("b", "z", 0.2)]
        assert select_centers(WeightedGraph.from_edges(nodes, edges, precision=1), 1) == ["a"]
        assert select_centers(WeightedGraph.from_edges(nodes, edges), 1) == ["b"]

    def test_unit_keys_fit_two_digits(self, monkeypatch):
        """A unit sum shifted past the node index stays below 2**60, so each
        key is a two-digit int: 23 to 33 bits here.  Keys holding a
        double's bits take 73 to 74 bits, three digits, on this graph."""
        pushed = []
        recording = SimpleNamespace(heappush=lambda heap, key: pushed.append(key)
                                    or heapq.heappush(heap, key),
                                    heappop=heapq.heappop, heapify=heapq.heapify)
        monkeypatch.setattr(detect_module, "heapq", recording)
        rng = random.Random(137)
        g = block_graph(rng, weights=tuple(rng.random() for _ in range(64)))
        g = WeightedGraph.from_edges(g.nodes, id_edges(g), precision=6)
        detect(g, 64)
        assert pushed
        assert max((-key).bit_length() for key in pushed) <= 60

    def test_peak_bytes_per_edge_at_large_k(self):
        """Each candidate score is one int key shared by its dict and heap,
        and compacted heaps hold about one key per live candidate: about
        26 B/edge.  A (-score, index) tuple per score peaked at 43, a new
        float, negated float, int and tuple per push at 56, and keeping every
        stale entry until popped at 114."""
        g = block_graph(random.Random(109), weights=(0.25, 0.5, 1.0))
        edges = len(g.targets) // 2
        _, _, peak = traced(detect, g, 64)
        assert peak / edges < 32

    def test_kept_partition_bytes_per_node(self):
        """A partition shares the graph's node tuple and owns a 2-byte
        community index per node: about 2.1 B/node kept per k of a sweep.
        An id -> index dict per partition kept about 26.  The sweep with one
        k is subtracted because ``traced``'s ``gc.collect()`` empties the
        interpreter's free lists, which detection then refills."""
        g = block_graph(random.Random(113))

        def sweep(ks):
            return [detect(g, k) for k in ks]

        _, one, _ = traced(sweep, (128,))
        partitions, three, _ = traced(sweep, (128, 16, 2))
        assert (three - one) / 2 / g.n < 4
        assert all(p.nodes is g.nodes for p in partitions)


def tie_heavy_graph(rng, weights=(0.0, 0.5, 1.0, 1.0)):
    """Nodes given in shuffled order, ids whose sorted order differs from
    their creation order, weights drawn from ``weights`` (by default tied
    strengths and scores, zero-weight edges) and some isolated nodes."""
    n = rng.randint(2, 30)
    nodes = [f"{rng.choice('abAB')}{i}" for i in range(n)]
    rng.shuffle(nodes)
    isolated = set(rng.sample(nodes, rng.randint(0, n // 4)))
    connected = [u for u in nodes if u not in isolated]
    density = rng.choice((0.15, 0.4, 0.8))
    edges = []
    for i, u in enumerate(connected):
        for v in connected[i + 1:]:
            if rng.random() < density:
                w = rng.choice(weights)
                edges.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
    return WeightedGraph.from_edges(nodes, edges)


class TestReferenceOracle:
    """Index-keyed detection gives the same partitions as the string-keyed
    reference in ``helpers``, ties broken by smaller node id."""

    def assert_same(self, g, centers):
        expected = reference_expand_communities(g, centers)
        actual = expand_communities(g, centers)
        assert actual == expected
        assert actual.nodes is g.nodes

    def test_tie_heavy_graphs(self):
        rng = random.Random(97)
        for _ in range(300):
            g = tie_heavy_graph(rng)
            every_center = select_centers(g, g.n)
            for k in sorted({1, 2, 3, g.n // 2, g.n} & set(range(1, g.n + 1))):
                centers = select_centers(g, k)
                assert centers == reference_select_centers(g, k)
                # Selection is one greedy sequence that k only cuts short.
                assert centers == every_center[:k]
                self.assert_same(g, centers)
                assert detect(g, k) == reference_expand_communities(g, centers)

    def test_sub_ulp_relaxations(self):
        """A relaxation below half an ulp of the running score leaves it
        unchanged, so the candidate's new heap entry equals its stale one."""
        assert 1.0 + 1e-17 == 1.0
        rng = random.Random(113)
        for _ in range(200):
            g = tie_heavy_graph(rng, weights=(1.0, 1e-17))
            for k in sorted({1, 2, 3, g.n // 2, g.n} & set(range(1, g.n + 1))):
                centers = select_centers(g, k)
                assert centers == reference_select_centers(g, k)
                self.assert_same(g, centers)

    def test_extreme_magnitudes(self):
        """Subnormal, tiny, huge and ordinary weights: the int keys order
        scores as the floats do across every exponent, and a huge score
        absorbs the small relaxations that follow it."""
        rng = random.Random(127)
        for _ in range(200):
            g = tie_heavy_graph(rng, weights=(5e-324, 1e-300, 0.5, 1.0, 1e300))
            for k in sorted({1, 2, 3, g.n // 2, g.n} & set(range(1, g.n + 1))):
                centers = select_centers(g, k)
                assert centers == reference_select_centers(g, k)
                self.assert_same(g, centers)

    def test_arbitrary_centers(self):
        rng = random.Random(101)
        for _ in range(300):
            g = tie_heavy_graph(rng)
            self.assert_same(g, rng.sample(g.nodes, rng.randint(1, g.n)))

    def test_sixteenth_weights_and_karate(self):
        rng = random.Random(103)
        graphs = [random_weighted_graph(rng, max_nodes=20) for _ in range(100)]
        graphs.append(structural_graph(karate_edge_list(), KARATE_NODES))
        for g in graphs:
            for k in range(1, g.n + 1):
                centers = select_centers(g, k)
                assert centers == reference_select_centers(g, k)
                self.assert_same(g, centers)

    def test_fixed_point_graphs_sum_units_exactly(self):
        """On fixed-point graphs the centers and partitions are the
        reference's with every strength and score an exact decimal sum, ties
        broken by smaller node id."""
        rng = random.Random(139)
        tenths = tuple(i / 10 for i in range(11))
        for _ in range(300):
            g = tie_heavy_graph(rng, weights=tenths)
            g = WeightedGraph.from_edges(g.nodes, id_edges(g), precision=rng.choice((1, 3)))
            for k in sorted({1, 2, 3, g.n // 2, g.n} & set(range(1, g.n + 1))):
                centers = select_centers(g, k)
                assert centers == reference_select_centers(g, k, exact=True)
                expected = reference_expand_communities(g, centers, exact=True)
                assert expand_communities(g, centers) == expected

    def test_compacted_heaps_on_block_graphs(self, monkeypatch):
        """Graphs large enough that every k compacts its heaps."""
        heapify_calls = []
        counting = SimpleNamespace(heappush=heapq.heappush, heappop=heapq.heappop,
                                   heapify=lambda heap: heapify_calls.append(len(heap))
                                   or heapq.heapify(heap))
        monkeypatch.setattr(detect_module, "heapq", counting)
        rng = random.Random(107)
        for _ in range(3):
            g = block_graph(rng)
            for k in (1, 8, 64, 256):
                heapify_calls.clear()
                centers = select_centers(g, k)
                assert centers == reference_select_centers(g, k)
                self.assert_same(g, centers)
                assert heapify_calls


class RowsOnly(WeightedGraph):
    """A graph whose edges can be read only through :meth:`stored_row`,
    :meth:`stored_sum` and :meth:`edge_indices`: its ``offsets``,
    ``targets``, ``weights`` and ``scale`` are None, and all three read from
    a real graph."""

    __slots__ = ("source",)

    def __init__(self, source: WeightedGraph):
        self.source = source
        self.nodes, self.strengths = source.nodes, source.strengths
        self.total_weight = source.total_weight
        self.offsets = self.targets = self.weights = self.scale = None

    def stored_row(self, i):
        return self.source.stored_row(i)

    def stored_sum(self, i):
        return self.source.stored_sum(i)

    def edge_indices(self):
        return self.source.edge_indices()


class TestRowBoundary:
    def test_detection_and_scoring_read_rows_through_row(self):
        """Centers, partitions and quality reports on doubles, fixed-point
        units and the unit view are the real graph's."""
        rng = random.Random(131)
        graphs = [tie_heavy_graph(rng) for _ in range(60)] + [block_graph(rng)]
        graphs += [WeightedGraph.from_edges(g.nodes, id_edges(g), precision=3) for g in graphs[:20]]
        graphs += [g.unit_weights() for g in graphs[:10]]
        for g in graphs:
            rows_only = RowsOnly(g)
            for k in sorted({1, 2, 3, g.n // 2, g.n} & set(range(1, g.n + 1))):
                assert select_centers(rows_only, k) == select_centers(g, k)
                partition = detect(rows_only, k)
                assert partition == detect(g, k)
                if g.total_weight > 0.0:
                    assert quality_report(rows_only, partition) == quality_report(g, partition)


def partition_file(tmp_path, text):
    path = tmp_path / "partition.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestPartition:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            Partition.from_assignment({"a": 0, "b": 2}, 3, 1)
        with pytest.raises(ValueError):
            Partition.from_assignment({"a": 0}, 1, 2)

    def test_fields_are_checked(self):
        with pytest.raises(ValueError, match="distinct and sorted"):
            Partition(("b", "a"), array("H", [0, 0]), 1, 1)
        with pytest.raises(ValueError, match="distinct and sorted"):
            Partition(("a", "a"), array("H", [0, 0]), 1, 1)
        with pytest.raises(ValueError, match="one community index per node"):
            Partition(("a", "b"), array("H", [0]), 1, 1)
        p = Partition(("a", "b"), array("H", [1, 0]), 2, 2)
        assert p == Partition.from_assignment({"b": 0, "a": 1}, 2, 2)
        assert p.assignment == {"a": 1, "b": 0}

    def test_communities_sorted(self):
        p = Partition.from_assignment({"b": 1, "a": 0, "c": 0}, 2, 2)
        assert p.communities() == [["a", "c"], ["b"]]

    def test_format_parse_round_trip(self, tmp_path):
        p = Partition.from_assignment({"a": 0, "b": 1, "c": 0}, 2, 2)
        path = tmp_path / "partition.txt"
        save_partition(p, path, 0.123456789123)
        assert path.read_text(encoding="utf-8") == (
            "k_requested=2\nm=2\nmodularity=0.123456789123\n0:a,c\n1:b\n")
        parsed, q = load_partition(path)
        assert parsed == p
        assert q == 0.123456789123
        save_partition(p, path)
        parsed2, q2 = load_partition(path)
        assert parsed2 == p
        assert q2 is None

    def test_parse_requires_header(self, tmp_path):
        with pytest.raises(ValueError):
            load_partition(partition_file(tmp_path, "0:a,b\n"))

    @pytest.mark.parametrize("text", [
        "k_requested=1\nm=3\n0:a\n1:b\n",
        "k_requested=0\nm=1\n0:a,b\n",
        "k_requested=1\nm=1\n70000:a\n",
        "k_requested=1\nm=1000000000000\n0:a\n",
    ], ids=["m-above-indices", "k-requested-zero", "index-above-two-bytes", "huge-m"])
    def test_load_names_file_on_invalid_partition(self, tmp_path, text):
        path = tmp_path / "partition.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
            load_partition(path)

    def test_repeated_header_names_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 3: repeated m header"):
            load_partition(partition_file(tmp_path, "k_requested=1\nm=1\nm=2\n0:a\n1:b\n"))

    def test_parse_rejects_node_in_two_communities(self, tmp_path):
        with pytest.raises(ValueError, match="'b' is listed in two communities"):
            load_partition(partition_file(tmp_path, "k_requested=2\nm=2\n0:a,b\n1:b,c\n"))
