import math
import random
import re
from array import array
from functools import partial
from itertools import product

import pytest

from comtext.corpus import EdgeList, load_edges
from comtext.errors import GraphError, ParameterError, ParseError
from comtext.graph import EdgeError, WeightedGraph, build_weighted_graph, structural_graph
from helpers import (block_graph, from_edges, id_edges, karate_edge_list, node_strength,
                     random_weighted_graph, traced)

from comtext.fixtures import KARATE_NODES


def fresh(text):
    """An equal string that is a distinct object (literals may be shared)."""
    return "".join(list(text))


def assert_endpoints_shared(g):
    """Every endpoint the graph hands out is the one object in ``g.nodes``."""
    shared = {u: u for u in g.nodes}
    for u, v, _ in id_edges(g):
        assert u is shared[u] and v is shared[v]
    for u in g.nodes:
        assert all(v is shared[v] for v, _ in g.neighbors(u))


def sparse_random_edges():
    """2,000 node ids and 20,000 distinct edges between them with weights
    uniform in [0, 1)."""
    rng = random.Random(113)
    nodes = [f"n{i:04d}" for i in range(2000)]
    pairs = set()
    while len(pairs) < 20000:
        i, j = sorted(rng.sample(range(2000), 2))
        pairs.add((i, j))
    return nodes, [(nodes[i], nodes[j], rng.random()) for i, j in sorted(pairs)]


def score_from(entries):
    """Pairwise score with the listed ``(u, v, value)`` entries, else 0."""
    values = {frozenset((u, v)): value for u, v, value in entries}
    return lambda u, v: values.get(frozenset((u, v)), 0.0)


class TestBuildWeightedGraph:
    def test_equal_blend(self):
        edges = EdgeList.from_pairs([("a", "b")])
        s = score_from([("a", "b", 0.4)])
        sv = score_from([("a", "b", 0.6)])
        g = build_weighted_graph(edges, ["a", "b"], s, sv)
        assert id_edges(g) == (("a", "b", 0.5),)

    def test_saturated(self):
        edges = EdgeList.from_pairs([("a", "b")])
        s = score_from([("a", "b", 1.0)])
        assert id_edges(build_weighted_graph(edges, ["a", "b"], s, s)) == (("a", "b", 1.0),)

    def test_alpha_boundaries(self):
        edges = EdgeList.from_pairs([("a", "b")])
        s = score_from([("a", "b", 0.3)])
        sv = score_from([("a", "b", 0.9)])
        assert id_edges(build_weighted_graph(edges, ["a", "b"], s, sv, alpha=1.0))[0][2] == 0.3
        assert id_edges(build_weighted_graph(edges, ["a", "b"], s, sv, alpha=0.0))[0][2] == 0.9

    def test_alpha_half_with_equal_scores_reproduces_s(self):
        rng = random.Random(67)
        nodes = [f"n{i}" for i in range(5)]
        s = score_from([(u, v, rng.random()) for i, u in enumerate(nodes) for v in nodes[i + 1:]])
        edges = EdgeList.from_pairs([("n0", "n1"), ("n2", "n3"), ("n1", "n4")])
        g = build_weighted_graph(edges, nodes, s, s)
        for u, v, w in id_edges(g):
            assert w == pytest.approx(s(u, v), abs=1e-15)

    def test_scores_each_edge_once_smaller_id_first(self):
        calls = {"s": [], "sv": []}

        def recorder(name):
            return lambda u, v: calls[name].append((u, v)) or 0.5

        edges = EdgeList.from_pairs([("c", "a"), ("b", "a"), ("b", "c")])
        build_weighted_graph(edges, ["a", "b", "c", "d"], recorder("s"), recorder("sv"))
        assert calls == {"s": [("a", "b"), ("a", "c"), ("b", "c")],
                         "sv": [("a", "b"), ("a", "c"), ("b", "c")]}

    def test_alpha_out_of_range(self):
        edges = EdgeList.from_pairs([("a", "b")])
        s = score_from([])
        with pytest.raises(ParameterError):
            build_weighted_graph(edges, ["a", "b"], s, s, alpha=1.5)

    def test_unknown_endpoint(self):
        edges = EdgeList.from_pairs([("a", "z")])
        s = score_from([])
        with pytest.raises(GraphError, match="unknown"):
            build_weighted_graph(edges, ["a", "b"], s, s)

    def test_isolated_nodes_retained(self):
        edges = EdgeList.from_pairs([("a", "b")])
        s = score_from([("a", "b", 1.0)])
        g = build_weighted_graph(edges, ["a", "b", "c"], s, s)
        assert g.nodes == ("a", "b", "c")
        assert node_strength(g, "c") == 0.0

    def test_nodes_are_sorted(self):
        assert from_edges(["c", "a", "b"], []).nodes == ("a", "b", "c")

    def test_endpoints_share_the_node_objects(self):
        nodes = ["alice", "bob", "carol"]
        edges = EdgeList.from_pairs([(fresh("alice"), fresh("bob")), (fresh("carol"), fresh("bob"))])
        s = score_from([("alice", "bob", 0.5), ("bob", "carol", 0.25)])
        assert_endpoints_shared(build_weighted_graph(edges, nodes, s, s))

    def test_zero_weight_edges_retained(self):
        edges = EdgeList.from_pairs([("a", "b")])
        s = score_from([])
        g = build_weighted_graph(edges, ["a", "b"], s, s)
        assert id_edges(g) == (("a", "b", 0.0),)
        assert g.total_weight == 0.0


class TestStructuralGraph:
    def test_karate_counts(self):
        g = structural_graph(karate_edge_list(), KARATE_NODES)
        assert g.n == 34
        assert len(id_edges(g)) == 78
        assert g.total_weight == 78.0

    def test_empty_edge_list(self):
        g = structural_graph(EdgeList.from_pairs([]), ["a", "b", "c"])
        assert g.total_weight == 0.0
        assert all(node_strength(g, u) == 0.0 for u in g.nodes)

    def test_single_edge_strengths(self):
        g = structural_graph(EdgeList.from_pairs([("a", "b")]), ["a", "b"])
        assert node_strength(g, "a") == 1.0
        assert node_strength(g, "b") == 1.0

    def test_unknown_endpoint(self):
        with pytest.raises(GraphError, match="unknown"):
            structural_graph(EdgeList.from_pairs([("a", "z")]), ["a", "b"])


class TestUnitWeights:
    """``unit_weights()`` equals ``structural_graph`` on the same edges, bit
    for bit, while sharing the rows it was taken from."""

    @staticmethod
    def assert_unit_view(g):
        unit = g.unit_weights()
        rebuilt = structural_graph(EdgeList.from_pairs((u, v) for u, v, _ in id_edges(g)), g.nodes)
        for name in ("nodes", "offsets", "targets"):
            assert getattr(unit, name) is getattr(g, name), name
        assert (unit.weights.typecode, unit.scale) == ("I", 1.0)
        assert (rebuilt.weights.typecode, rebuilt.scale) == ("I", 1.0)
        assert unit.weights == rebuilt.weights
        assert unit.strengths == rebuilt.strengths
        assert unit.total_weight == rebuilt.total_weight
        assert list(unit.edge_indices()) == list(rebuilt.edge_indices())

    def test_seeded_graph_with_isolated_nodes(self):
        block = block_graph(random.Random(29), n=300, blocks=6, degree=6)
        g = from_edges([*block.nodes, "iso-a", "iso-b"], id_edges(block))
        assert sum(a == b for a, b in zip(g.offsets, g.offsets[1:])) >= 2
        assert set(g.weights) == {0.0, 0.5, 1.0}
        self.assert_unit_view(g)

    def test_four_byte_indices(self):
        nodes = [f"n{i:05d}" for i in range(65537)]
        g = from_edges(nodes, [(nodes[0], nodes[1], 0.25), (nodes[0], nodes[-1], 0.5),
                               (nodes[1], nodes[-1], 0.0), (nodes[32768], nodes[-1], 2.0)])
        assert g.targets.typecode == "i"
        self.assert_unit_view(g)


class TestWeightedGraph:
    def test_strength_cases(self):
        triangle = from_edges(
            ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)]
        )
        assert node_strength(triangle, "a") == 2.0
        g = from_edges(["a", "b", "c"], [("a", "b", 0.5), ("a", "c", 0.3)])
        assert node_strength(g, "a") == pytest.approx(0.8, abs=1e-12)
        assert node_strength(from_edges(["a"], []), "a") == 0.0

    def test_unknown_node_strength(self):
        g = from_edges(["a"], [])
        with pytest.raises(GraphError):
            node_strength(g, "z")

    def test_constructor_validation(self):
        with pytest.raises(GraphError, match="self-loop"):
            from_edges(["a"], [("a", "a", 1.0)])
        for weights in ((1.0, 1.0), (1.0, 0.5)):
            with pytest.raises(GraphError, match="duplicate edge"):
                from_edges(["a", "b"],
                           [("a", "b", weights[0]), ("b", "a", weights[1])])
        with pytest.raises(GraphError, match="negative"):
            from_edges(["a", "b"], [("a", "b", -0.1)])
        for weight in (math.nan, math.inf):
            with pytest.raises(GraphError, match="not finite"):
                from_edges(["a", "b"], [("a", "b", weight)])
        with pytest.raises(GraphError, match="unknown"):
            from_edges(["a"], [("a", "b", 1.0)])
        with pytest.raises(GraphError, match="duplicate node"):
            from_edges(["a", "a"], [])

    def test_edge_error_carries_the_position(self):
        """The constructor maps column indices to ranks, so ``ids`` may come
        in any order, and names a rejected edge by its position."""
        ids = ["c", "a", "b"]

        def build(heads, tails, weights):
            return WeightedGraph(ids, array("i", heads), array("i", tails), array("d", weights))

        g = build([0, 1], [1, 2], [0.5, 0.25])
        assert g.nodes == ("a", "b", "c")
        assert id_edges(g) == (("a", "b", 0.25), ("a", "c", 0.5))
        for heads, tails, weights, position, message in (
                ([1, 2, 2], [0, 0, 2], [1.0, 1.0, 1.0], 2, "self-loop at 'b'"),
                ([1, 2, 1], [0, 0, 2], [1.0, math.nan, 1.0], 1, "weight is not finite"),
                ([1, 2, 1], [0, 0, 2], [1.0, 1.0, -0.5], 2, "weight is negative"),
                ([1, 2, 0, 2], [0, 0, 1, 1], [1.0, 1.0, 1.0, 1.0], 2, "duplicate edge ('a', 'c')"),
                ([1, -1], [0, 0], [1.0, 1.0], 1, "node index out of range"),
                ([3], [0], [1.0], 0, "node index out of range")):
            with pytest.raises(EdgeError, match=re.escape(message)) as caught:
                build(heads, tails, weights)
            assert caught.value.position == position

    @pytest.mark.parametrize("weights, message", [
        ((1e308, 1e308), "strength of 'b' overflows"),
        ((1e308, 1e307), "twice the total weight overflows"),
    ], ids=["strength", "doubled-total"])
    def test_overflowing_weights_rejected(self, weights, message):
        """Finite weights whose sums overflow: fsum raises OverflowError on
        the first, and the second has a finite total but an infinite 2L."""
        edges = [("a", "b", weights[0]), ("b", "c", weights[1])]
        with pytest.raises(GraphError, match=message):
            from_edges(["a", "b", "c"], edges)

    def test_duplicate_error_names_the_smallest_pair(self):
        nodes = ["d", "B", "c", "a", "e"]  # ids sort as B < a < c < d < e
        pairs = [("d", "e"), ("c", "e"), ("a", "e"), ("a", "d"), ("B", "c")]  # largest first
        for count, smallest in ((5, ("B", "c")), (4, ("a", "d")), (2, ("c", "e"))):
            repeated = pairs[:count]
            edges = [(u, v, 1.0) for u, v in repeated] + [(v, u, 0.5) for u, v in repeated]
            with pytest.raises(GraphError, match=re.escape(f"duplicate edge {smallest!r}")):
                from_edges(nodes, edges)

    def test_edges_canonical_and_adjacency_sorted(self):
        rng = random.Random(79)
        ids = ["a", "a10", "a9", "ab", "B", "b", "z1", "\u00e9"]
        for _ in range(50):
            nodes = rng.sample(ids, 6)
            pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:] if rng.random() < 0.5]
            rng.shuffle(pairs)
            g = from_edges(nodes, [(u, v, 0.5) if rng.random() < 0.5 else (v, u, 0.5)
                                   for u, v in pairs])
            assert list(id_edges(g)) == sorted(id_edges(g))
            assert all(u < v for u, v, _ in id_edges(g))
            for u in g.nodes:
                neighbor_ids = [v for v, _ in g.neighbors(u)]
                assert neighbor_ids == sorted(neighbor_ids)

    def test_csr_arrays_match_the_public_api(self):
        """With and without fixed-point weights: a row entry's weight is
        ``weights[a] / scale``, and a row's stored sum is the ``fsum`` of its
        stored values, on the unit view too."""
        rng = random.Random(83)
        for _, precision in product(range(50), (None, 6)):
            g = random_weighted_graph(rng)
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            g = from_edges(nodes, id_edges(g), precision=precision)
            assert g.weights.typecode == ("d" if precision is None else "I")
            assert len(g.offsets) == g.n + 1 and g.offsets[-1] == 2 * len(id_edges(g))
            for i, u in enumerate(g.nodes):
                assert g.index_of(u) == i
                start, end = g.offsets[i], g.offsets[i + 1]
                row = [(j, w / g.scale) for j, w in zip(g.targets[start:end], g.weights[start:end])]
                assert [(g.nodes[j], w) for j, w in row] == list(g.neighbors(u))
                assert g.strengths[i] == node_strength(g, u) == math.fsum(
                    w for _, w in g.neighbors(u))
            assert [(g.nodes[i], g.nodes[j], w) for i, j, w in g.edge_indices()] == [
                (u, v, w) for u in g.nodes for v, w in g.neighbors(u) if u < v]
            assert g.total_weight == math.fsum(w for _, _, w in id_edges(g))
            for view in (g, g.unit_weights()):
                assert [view.stored_sum(i) for i in range(g.n)] == [
                    math.fsum(w for _, w in view.stored_row(i)) for i in range(g.n)]

    def test_retained_bytes_per_edge(self):
        """Compressed sparse rows cost two 2-byte neighbor indices and two
        weights per edge, about 22.5 B/edge with the per-node arrays; 4-byte
        indices read 26.5, and a tuple per edge and a pair per endpoint
        about 207."""
        nodes, edges = sparse_random_edges()
        g, retained, _ = traced(from_edges, nodes, edges)
        assert len(id_edges(g)) == len(edges)
        assert retained / len(edges) < 24

    def test_fixed_point_retained_bytes_per_edge(self):
        """Weights snapped to 6 places are held as 4-byte units: two 2-byte
        neighbor indices and two 4-byte weights per edge, about 14.5 B/edge
        with the per-node arrays, against 22.5 as doubles."""
        nodes, edges = sparse_random_edges()
        g, retained, _ = traced(partial(from_edges, precision=6), nodes, edges)
        assert (g.weights.typecode, g.scale) == ("I", 1e6)
        assert retained / len(edges) < 16

    @pytest.mark.parametrize("n, itemsize", [(65536, 2), (65537, 4)])
    def test_neighbor_index_width_follows_the_node_count(self, tmp_path, n, itemsize):
        """2-byte neighbor indices hold every index of a graph of up to
        65,536 nodes; one more node takes 4 bytes per index."""
        nodes = [f"n{i:05d}" for i in range(n)]
        last = nodes[-1]
        edges = [(nodes[0], nodes[1], 1.0), (nodes[0], last, 0.5), (nodes[1], last, 0.25),
                 (nodes[n // 2], last, 0.125)]
        g = from_edges(nodes, edges)
        assert g.targets.itemsize == itemsize
        assert g.index_of(last) == n - 1
        assert id_edges(g) == tuple(edges)
        assert g.neighbors(last) == ((nodes[0], 0.5), (nodes[1], 0.25), (nodes[n // 2], 0.125))
        path = tmp_path / "graph.csv"
        g.write_csv(path)
        loaded = WeightedGraph.read_csv(path)
        assert loaded.targets.itemsize == itemsize
        assert loaded.nodes == g.nodes
        assert id_edges(loaded) == tuple(edges)
        assert loaded.neighbors(last) == g.neighbors(last)

    def test_read_csv_peak_bytes_per_edge(self, tmp_path):
        """The parsed columns go to the constructor, which fills the rows
        from them in input order and sorts each row on its own: about 48
        B/edge.  A constructor that copies the columns reads 54, one that
        keeps the parsed ones alive beside its copy 73, and one sort over an
        integer key per edge 134."""
        path = tmp_path / "graph.csv"
        block_graph(random.Random(113), n=1000, weights=(0.25, 0.5, 1.0)).write_csv(path)
        g, _, peak = traced(WeightedGraph.read_csv, path)
        assert peak / (len(g.targets) // 2) < 65

    def test_read_csv_keeps_no_second_column(self, tmp_path):
        """Snapped to 6 places, the read holds the parsed columns, 16 B/edge,
        the rows, 12 B/edge, and no column beside them: about 38 B/edge.  A
        snapped copy of the weights beside them reads 49.5."""
        path = tmp_path / "graph.csv"
        block_graph(random.Random(113), n=1000, weights=(0.25, 0.5, 1.0)).write_csv(path)
        g, _, peak = traced(partial(WeightedGraph.read_csv, precision=6), path)
        assert (g.weights.typecode, g.scale) == ("I", 1e6)
        assert peak / (len(g.targets) // 2) < 46

    @staticmethod
    def assert_same_graph(g, h):
        """Bit for bit: every weight the public API returns, and the sums."""
        def bits(values):
            return array("d", values).tobytes()

        assert g.nodes == h.nodes
        assert bits(w for _, _, w in id_edges(g)) == bits(w for _, _, w in id_edges(h))
        assert id_edges(g) == id_edges(h)
        for u in g.nodes:
            assert g.neighbors(u) == h.neighbors(u)
            assert bits(w for _, w in g.neighbors(u)) == bits(w for _, w in h.neighbors(u))
        assert g.strengths.tobytes() == h.strengths.tobytes()
        assert bits([g.total_weight]) == bits([h.total_weight])

    def test_fixed_point_weights_are_exact(self):
        """Units of ``10**-p`` divided by ``10.0**p`` give back every snapped
        weight, for each ``p`` that stores units, up to 2**32 - 1 units:
        the graph equals one built from the snapped doubles."""
        rng = random.Random(131)
        nodes = [f"n{i:02d}" for i in range(40)]
        pairs = sorted({tuple(sorted(rng.sample(nodes, 2))) for _ in range(300)})
        for p in range(1, 23):
            top = (2**32 - 1) / 10**p
            weights = [rng.uniform(0.0, top) for _ in pairs]
            weights[:3] = [float(f"{2**32 - 1}e-{p}"), 0.0, 10.0**-p]
            edges = [(u, v, w) for (u, v), w in zip(pairs, weights)]
            fixed = from_edges(nodes, edges, precision=p)
            assert (fixed.weights.typecode, fixed.scale) == ("I", 10.0**p)
            assert max(fixed.weights) == 2**32 - 1
            snapped = from_edges(nodes,
                                 [(u, v, float(f"{w:.{p}f}")) for u, v, w in edges])
            assert snapped.weights.typecode == "d"
            self.assert_same_graph(fixed, snapped)

    @pytest.mark.parametrize("precision, weight", [
        (None, 0.5), (23, 0.5), (400, 0.5), (6, 4294.967296), (6, -0.0),
    ], ids=["none", "23", "400", "2**32-units", "negative-zero"])
    def test_weights_without_fixed_point_stay_doubles(self, precision, weight):
        """No precision, one whose ``10**p`` is no exact double, a weight of
        2**32 units or a -0.0, whose sign units cannot hold: doubles, scale
        1.0, the same weights as one built from the snapped values."""
        edges = [("a", "b", weight), ("b", "c", 0.25)]
        g = from_edges(["a", "b", "c"], edges, precision=precision)
        assert (g.weights.typecode, g.scale) == ("d", 1.0)
        if precision is not None:
            edges = [(u, v, float(f"{w:.{precision}f}")) for u, v, w in edges]
        self.assert_same_graph(g, from_edges(["a", "b", "c"], edges))
        assert math.copysign(1.0, g.neighbors("a")[0][1]) == math.copysign(1.0, weight)

    def test_handshake_identity(self):
        rng = random.Random(71)
        for _ in range(100):
            g = random_weighted_graph(rng)
            assert math.fsum(node_strength(g, u) for u in g.nodes) == pytest.approx(
                2.0 * g.total_weight, abs=1e-9
            )

    def test_edge_permutation_invariance(self, tmp_path):
        rng = random.Random(73)
        base = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")]
        out = []
        for i in range(5):
            lines = [f"{v},{u}" if rng.random() < 0.5 else f"{u},{v}" for u, v in base]
            rng.shuffle(lines)
            path = tmp_path / f"edges{i}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            g = structural_graph(load_edges(path), ["a", "b", "c", "d"])
            csv_path = tmp_path / f"graph{i}.csv"
            g.write_csv(csv_path)
            out.append(csv_path.read_bytes())
        assert len(set(out)) == 1

    def test_csv_round_trip_with_isolated_node(self, tmp_path):
        g = from_edges(
            ["a", "b", "c", "z"], [("a", "b", 0.125), ("b", "c", 1.0)]
        )
        path = tmp_path / "graph.csv"
        g.write_csv(path)
        loaded = WeightedGraph.read_csv(path)
        assert loaded.nodes == g.nodes
        assert id_edges(loaded) == id_edges(g)
        assert loaded.total_weight == g.total_weight

    def test_csv_endpoints_share_the_node_objects(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("alice,bob,0.5\nbob,carol,0.25\ncarol,alice,1.0\ndave,,\n",
                        encoding="utf-8")
        g = WeightedGraph.read_csv(path)
        assert len(id_edges(g)) == 3
        assert_endpoints_shared(g)

    def test_csv_parse_errors(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            WeightedGraph.read_csv(path)
        path.write_text("a,b,zzz\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            WeightedGraph.read_csv(path)
        for weight in ("nan", "inf", "-inf"):
            path.write_text(f"a,b,1.0\nb,c,{weight}\n", encoding="utf-8")
            with pytest.raises(ParseError, match="line 2: weight is not finite"):
                WeightedGraph.read_csv(path)
        path.write_text("a,b,1.0\nb,c,-0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: weight is negative"):
            WeightedGraph.read_csv(path)
        path.write_text("a,b,1.0\nc,c,0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: self-loop at 'c'"):
            WeightedGraph.read_csv(path)
        # An edge the constructor rejects is named by its own line, counted
        # past isolated-node, padded and blank lines.
        for line, message in (("c,c,0.5", "self-loop at 'c'"), ("b,c,nan", "weight is not finite"),
                              ("b,c,-0.5", "weight is negative"),
                              ("b,a,2.0", "duplicate edge ('a', 'b')")):
            path.write_text(f"x,,\n a , b ,1.0\n\ny,,\nc,d,1.0\n{line}\nd,e,1.0\n",
                            encoding="utf-8")
            with pytest.raises(ParseError, match=re.escape(f"{path}: line 6: {message}")):
                WeightedGraph.read_csv(path)
        # The line that gives an edge a second time, in either order; the
        # pair named is the smallest repeated one, not the first repeat.
        for text, line in (("a,b,1.0\nb,c,1.0\nb,a,0.5\n", 3),
                           ("x,,\nc,d,1.0\n a , b ,1.0\nd,c,2.0\nc,e,1.0\nb,a,1.0\n", 6)):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ParseError, match=re.escape(
                    f"{path}: line {line}: duplicate edge ('a', 'b')")):
                WeightedGraph.read_csv(path)
        for text in ("", "\n \r\n\t\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ParseError, match=re.escape(f"{path}: empty graph file")):
                WeightedGraph.read_csv(path)

    def test_precision_snaps_weights_to_export_grid(self, tmp_path):
        exact = from_edges(["a", "b", "c"], [("a", "b", 1 / 3), ("b", "c", 0.5)])
        assert id_edges(exact)[0][2] == 1 / 3
        snapped = from_edges(exact.nodes, id_edges(exact), precision=3)
        assert [w for _, _, w in id_edges(snapped)] == [0.333, 0.5]
        path = tmp_path / "graph.csv"
        exact.write_csv(path, precision=3)
        assert id_edges(WeightedGraph.read_csv(path)) == id_edges(snapped)
        assert [w for _, _, w in id_edges(WeightedGraph.read_csv(path, precision=1))] == [0.3, 0.5]
        s = score_from([("a", "b", 1 / 3)])
        g = build_weighted_graph(EdgeList.from_pairs([("a", "b")]), ["a", "b"], s, s, precision=2)
        assert id_edges(g) == (("a", "b", 0.33),)
