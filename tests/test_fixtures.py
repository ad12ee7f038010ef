import math

import pytest

from comtext.corpus import load_corpus, load_edges
from comtext.errors import ParameterError
from comtext.fixtures import (
    KARATE_EDGES,
    KARATE_NODES,
    SyntheticSpec,
    generate,
    karate_partition,
    write_karate,
)
from comtext.graph import structural_graph
from comtext.sentiment import load_lexicon
from helpers import karate_edge_list, node_strength, user_terms


class TestKarate:
    def test_counts(self):
        assert len(KARATE_NODES) == 34
        assert len(KARATE_EDGES) == 78
        assert karate_edge_list().edges == tuple(sorted(KARATE_EDGES))

    def test_handshake_sum_is_doubled_edge_count(self):
        g = structural_graph(karate_edge_list(), KARATE_NODES)
        assert math.fsum(node_strength(g, u) for u in g.nodes) == 156.0

    def test_two_factions(self):
        p = karate_partition()
        assert p.m == 2
        sizes = sorted(len(c) for c in p.communities())
        assert sizes == [17, 17]
        assert p.assignment["01"] == 0
        assert p.assignment["34"] == 1

    def test_write_karate(self, tmp_path):
        edge_path, factions = write_karate(tmp_path)
        assert load_edges(edge_path).edges == karate_edge_list().edges
        assert factions == karate_partition()
        assert (tmp_path / "karate_factions.txt").exists()


class TestSyntheticSpec:
    def test_validation(self):
        for field, value, message in (
                ("groups", 1, "need at least 2 groups with at least 1 node each"),
                ("nodes_per_group", 0, "need at least 2 groups with at least 1 node each"),
                ("p_in", 1.2, "edge probabilities must be in"),
                ("tokens_per_user", 0, "tokens_per_user must be positive")):
            with pytest.raises(ParameterError, match=message):
                SyntheticSpec(**{field: value})

    def test_fields_and_derived_groups(self):
        spec = SyntheticSpec()
        assert SyntheticSpec._fields == (
            "groups", "nodes_per_group", "p_in", "p_out", "rng_seed", "tokens_per_user")
        assert spec == SyntheticSpec(2, 10, 0.8, 0.02, 42, 30)
        spec = SyntheticSpec(groups=10)
        assert spec.vocab_per_group[3] == tuple(f"topic3term{t}" for t in range(8))
        assert spec.sentiment_per_group == (0.8, -0.8, 0.4, -0.4, 0.6, -0.6, 0.2, -0.2, 0.8, -0.8)
        flat = [t for vocab in spec.vocab_per_group for t in vocab]
        assert len(flat) == len(set(flat)) == 80
        for name in ("vocab_per_group", "sentiment_per_group"):
            with pytest.raises(AttributeError):
                setattr(spec, name, ())
            with pytest.raises(TypeError, match="unexpected"):
                SyntheticSpec(**{name: ()})


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        spec = SyntheticSpec(rng_seed=5, nodes_per_group=4)
        fx1 = generate(spec, tmp_path / "one")
        fx2 = generate(spec, tmp_path / "two")
        for a, b in [
            (fx1.corpus_path, fx2.corpus_path),
            (fx1.edges_path, fx2.edges_path),
            (fx1.lexicon_path, fx2.lexicon_path),
            (fx1.truth_path, fx2.truth_path),
        ]:
            assert a.read_bytes() == b.read_bytes()
        assert fx1.truth == fx2.truth

    def test_different_seed_differs(self, tmp_path):
        fx1 = generate(SyntheticSpec(rng_seed=5, nodes_per_group=4), tmp_path / "one")
        fx2 = generate(SyntheticSpec(rng_seed=6, nodes_per_group=4), tmp_path / "two")
        assert fx1.corpus_path.read_bytes() != fx2.corpus_path.read_bytes()

    def test_zero_inter_probability_keeps_groups_disjoint(self, tmp_path):
        spec = SyntheticSpec(p_out=0.0, nodes_per_group=6, rng_seed=9)
        fx = generate(spec, tmp_path)
        truth = fx.truth.assignment
        for u, v in load_edges(fx.edges_path).edges:
            assert truth[u] == truth[v]

    def test_outputs_loadable_and_consistent(self, tmp_path):
        spec = SyntheticSpec(nodes_per_group=5, rng_seed=3)
        fx = generate(spec, tmp_path)
        corpus = load_corpus(fx.corpus_path)
        assert corpus.users == tuple(sorted(fx.truth.assignment))
        lexicon = load_lexicon(fx.lexicon_path)
        flat = {t for vocab in spec.vocab_per_group for t in vocab}
        assert set(lexicon.scores) == flat
        truth = fx.truth.assignment
        for u in corpus.users:
            group = truth[u]
            vocab = set(spec.vocab_per_group[group])
            assert set(user_terms(corpus, u)) <= vocab
            assert len(corpus.docs_by_user[u]) == spec.tokens_per_user
