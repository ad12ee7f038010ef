import math
import random
from itertools import combinations, cycle

import pytest

from comtext.corpus import Document, build_corpus, ensure_users
from comtext.sentiment import SentimentLexicon, bias_score
from comtext.similarity import (
    _BAND,
    SymmetricMatrix,
    similarity_matrix,
    similarity_score,
    user_vectors,
)
from helpers import (
    bias_value,
    compose,
    cosine_similarity,
    dense_similarity_oracle,
    inverse_document_frequency,
    matrix_csv_cells,
    random_corpus,
    reference_polar,
    term_frequency,
    tfidf_vector,
    traced,
    user_terms,
    wide_corpus,
)


def corpus_matrix(corpus):
    """Content similarity of all pairs of users of ``corpus``."""
    return similarity_matrix(corpus.users, similarity_score(corpus))


def random_sparse_vector(rng, min_terms=1, max_terms=8):
    terms = rng.sample([f"t{i}" for i in range(20)], rng.randint(min_terms, max_terms))
    return {t: rng.uniform(0.01, 2.0) for t in terms}


class TestTermFrequency:
    def test_count_ratio(self):
        assert term_frequency(["a", "b", "a"]) == {"a": 2 / 3, "b": 1 / 3}

    def test_single_token(self):
        assert term_frequency(["a"]) == {"a": 1.0}

    def test_empty_is_empty_map(self):
        assert term_frequency([]) == {}

    def test_sums_to_one(self):
        rng = random.Random(23)
        for _ in range(500):
            tokens = [f"t{rng.randint(0, 9)}" for _ in range(rng.randint(1, 40))]
            assert math.fsum(term_frequency(tokens).values()) == pytest.approx(
                1.0, abs=1e-12
            )


class TestInverseDocumentFrequency:
    def test_term_in_every_document(self):
        corpus = build_corpus([Document("u1", "a b"), Document("u2", "a c")])
        assert inverse_document_frequency(corpus)["a"] == 0.0

    def test_term_in_one_of_two(self):
        corpus = build_corpus([Document("u1", "a b"), Document("u2", "a c")])
        idf = inverse_document_frequency(corpus)
        assert idf["b"] == pytest.approx(math.log(2), rel=1e-12)

    def test_term_in_one_of_four(self):
        docs = [Document(f"u{i}", "common") for i in range(3)]
        docs.append(Document("u3", "common rare"))
        idf = inverse_document_frequency(build_corpus(docs))
        assert idf["rare"] == pytest.approx(math.log(4), rel=1e-12)
        assert idf["common"] == 0.0


class TestTfidfVector:
    def test_zero_idf_terms_omitted(self):
        vec = tfidf_vector(["a", "b", "a"], {"a": 0.0, "b": math.log(2)})
        assert set(vec) == {"b"}
        assert vec["b"] == pytest.approx(math.log(2) / 3, rel=1e-12)

    def test_all_zero_idf(self):
        assert tfidf_vector(["a", "b"], {"a": 0.0, "b": 0.0}) == {}

    def test_empty_tokens(self):
        assert tfidf_vector([], {"a": 1.0}) == {}

    def test_entries_positive(self):
        rng = random.Random(31)
        for _ in range(200):
            tokens = [f"t{rng.randint(0, 5)}" for _ in range(rng.randint(1, 15))]
            idf = {f"t{i}": rng.choice([0.0, 0.3, 1.1]) for i in range(6)}
            assert all(w > 0 for w in tfidf_vector(tokens, idf).values())


class TestCosineSimilarity:
    def test_self_similarity(self):
        rng = random.Random(37)
        for _ in range(50):
            v = random_sparse_vector(rng)
            assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_half_overlap(self):
        value = cosine_similarity({"a": 1.0, "b": 1.0}, {"a": 1.0, "c": 1.0})
        assert value == pytest.approx(1 / (math.sqrt(2) * math.sqrt(2)), abs=1e-12)

    def test_zero_norm_rule(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0
        assert cosine_similarity({}, {}) == 0.0

    def test_symmetry_range_scale_invariance(self):
        rng = random.Random(41)
        for _ in range(500):
            v1 = random_sparse_vector(rng)
            v2 = random_sparse_vector(rng)
            value = cosine_similarity(v1, v2)
            assert 0.0 <= value <= 1.0
            assert cosine_similarity(v2, v1) == pytest.approx(value, abs=1e-12)
            c = rng.uniform(0.1, 10.0)
            scaled = {t: c * w for t, w in v1.items()}
            assert cosine_similarity(scaled, v2) == pytest.approx(value, abs=1e-12)


class TestSimilarityMatrix:
    def test_matches_dense_oracle(self):
        rng = random.Random(43)
        for _ in range(25):
            corpus = random_corpus(rng)
            s = similarity_score(corpus)
            oracle = dense_similarity_oracle(corpus)
            for (i, u), (j, v) in combinations(enumerate(corpus.users), 2):
                assert s(u, v) == pytest.approx(oracle[i, j], abs=1e-12)

    def test_identical_texts_with_distinguishing_third_user(self):
        corpus = build_corpus(
            [Document("u1", "a b"), Document("u2", "a b"), Document("u3", "c")]
        )
        assert similarity_score(corpus)("u1", "u2") == pytest.approx(1.0, abs=1e-12)

    def test_two_identical_documents_degenerate_to_zero(self):
        # With only two identical documents every term has idf 0, both
        # vectors are empty, and the entry is 0 by the zero-norm rule.
        corpus = build_corpus([Document("u1", "a b"), Document("u2", "a b")])
        assert similarity_score(corpus)("u1", "u2") == 0.0

    def test_single_user(self, tmp_path):
        matrix = corpus_matrix(build_corpus([Document("u1", "a")]))
        assert matrix.n == 1
        assert matrix_csv_cells(matrix, tmp_path / "m.csv") == {("u1", "u1"): 0.0}

    def test_empty_text_user_is_zero_row(self):
        corpus = build_corpus(
            [Document("u1", ""), Document("u2", "a b"), Document("u3", "a c")]
        )
        s = similarity_score(corpus)
        assert s("u1", "u2") == 0.0
        assert s("u1", "u3") == 0.0


def oracle_corpora():
    """Seeded corpora covering the cosine's edge cases."""
    rng = random.Random(131)
    alphabet = [f"t{i}" for i in range(200)]
    for _ in range(20):
        # Empty documents for users that only the edge list names.
        corpus = random_corpus(rng, max_users=12)
        yield ensure_users(corpus, [f"v{i}" for i in range(rng.randint(1, 3))])
    for _ in range(10):
        # Longer vectors over a skewed vocabulary.
        yield build_corpus([
            Document(f"u{i:02d}", " ".join(alphabet[int(rng.paretovariate(0.8)) % 200]
                                           for _ in range(rng.randint(1, 80))))
            for i in range(30)])
    # One-term users and disjoint vocabularies.
    yield build_corpus([Document("a", "x"), Document("b", "y"), Document("c", "x x"),
                        Document("d", "p q r"), Document("e", "s t"), Document("f", "y")])
    for _ in range(5):
        # Vectors of equal length: three distinct terms each.
        yield build_corpus([
            Document(f"u{i:02d}", " ".join(rng.sample(alphabet[:9], 3) * rng.randint(1, 3)))
            for i in range(12)])
        # A term in every document (idf 0) next to rarer ones.
        yield build_corpus([
            Document(f"u{i:02d}",
                     " ".join(["common", *rng.choices(alphabet[:30], k=rng.randint(0, 12))]))
            for i in range(15)])


class TestPackedVectors:
    def test_bit_identical_to_dict_cosine(self):
        positive = 0
        for corpus in oracle_corpora():
            idf = inverse_document_frequency(corpus)
            dicts = {u: tfidf_vector(user_terms(corpus, u), idf) for u in corpus.users}
            packed = user_vectors(corpus)
            assert list(packed) == list(corpus.users)
            for u in corpus.users:
                assert len(packed[u]) == len(dicts[u])
                terms = [corpus.vocabulary[r] for r in packed[u].terms]
                assert dict(zip(terms, packed[u].weights)) == dicts[u]
                # The norm cosine_similarity computes, bit for bit.
                assert packed[u].norm == math.sqrt(math.fsum(w * w for w in dicts[u].values()))
            s = similarity_score(corpus)
            for u, v in combinations(corpus.users, 2):
                expected = cosine_similarity(dicts[u], dicts[v])
                assert s(u, v) == expected, (u, v)
                positive += expected > 0.0
        assert positive > 1000

    def test_only_consume_empties_the_corpus(self):
        """A corpus the caller still holds keeps its documents; with
        ``consume`` each user's ranks are removed as the vector is packed,
        and the vectors are the same."""
        corpus = next(c for c in oracle_corpora() if len(c.users) >= 30)
        docs = {u: list(ranks) for u, ranks in corpus.docs_by_user.items()}
        vectors = user_vectors(corpus)
        similarity_score(corpus)
        assert {u: list(ranks) for u, ranks in corpus.docs_by_user.items()} == docs
        consumed = user_vectors(corpus, consume=True)
        assert corpus.docs_by_user == {}
        for u in corpus.users:
            a, b = vectors[u], consumed[u]
            assert (a.terms, a.weights, a.norm) == (b.terms, b.weights, b.norm)

    def test_scorer_correct_in_any_call_order(self):
        # The scorer caches the left operand's expansion by identity, so
        # alternating and repeated operands must not reuse a stale row.
        rng = random.Random(137)
        corpus = next(c for c in oracle_corpora() if len(c.users) >= 30)
        idf = inverse_document_frequency(corpus)
        dicts = {u: tfidf_vector(user_terms(corpus, u), idf) for u in corpus.users}
        s = similarity_score(corpus)
        pairs = [(u, v) for u in corpus.users for v in corpus.users]
        rng.shuffle(pairs)
        for u, v in pairs:
            assert s(u, v) == cosine_similarity(dicts[u], dicts[v])

    @pytest.mark.parametrize("terms, itemsize", [(65536, 2), (65537, 4)])
    def test_term_width_follows_the_largest_rank(self, terms, itemsize):
        """A vector's ranks take 2 bytes each while its largest is below
        65,536; a vector with a rank beyond takes 4."""
        corpus = build_corpus([Document("u1", "w0"),
                               Document("u2", " ".join(f"w{i}" for i in range(terms)))])
        vectors = user_vectors(corpus)
        assert max(vectors["u2"].terms) == terms - 1
        assert vectors["u2"].terms.itemsize == itemsize
        assert len(vectors["u1"]) == 0
        assert vectors["u1"].terms.itemsize == 2

    def test_scores_across_the_rank_width_switch(self):
        """Similarity and bias on a corpus whose ranks were widened
        mid-stream equal the reference forms' with ==."""
        corpus = wide_corpus()
        idf = inverse_document_frequency(corpus)
        dicts = {u: tfidf_vector(user_terms(corpus, u), idf) for u in corpus.users}
        vectors = user_vectors(corpus)
        assert [vectors[u].terms.typecode for u in corpus.users] == ["H", "i", "i"]
        lexicon = SentimentLexicon({"alpha": 0.5, "gamma": -0.8, "w7": 1.0, "w9": 0.25})
        polar = {u: reference_polar(user_terms(corpus, u), lexicon.scores) for u in corpus.users}
        s, sv = similarity_score(corpus), bias_score(corpus, lexicon)
        for u, v in combinations(corpus.users, 2):
            assert s(u, v) == cosine_similarity(dicts[u], dicts[v]) > 0.0, (u, v)
            assert sv(u, v) == bias_value(compose(polar[u], polar[v])) > 0.0, (u, v)

    def test_matrix_peak_bytes_per_vector_term(self):
        """Vectors packed into two arrays, 10 B/term plus a small object per
        user: about 12.5 B/term here (14.5 with 4-byte ranks); one dict per
        user peaks at about 54."""
        rng = random.Random(139)
        words = [f"w{i}" for i in range(4000)]
        corpus = build_corpus([Document(f"u{i:03d}", " ".join(rng.choices(words, k=300)))
                               for i in range(100)])
        terms = sum(map(len, user_vectors(corpus).values()))
        _, _, peak = traced(corpus_matrix, corpus)
        assert peak / terms < 30


def lookup_matrix(nodes, values):
    """Matrix over ``nodes`` whose ``score`` looks the pair's node indices
    ``(i, j)`` up in ``values`` (0 when absent)."""
    index = {u: i for i, u in enumerate(nodes)}
    return SymmetricMatrix(nodes, lambda u, v: values.get((index[u], index[v]), 0.0))


def reference_csv(nodes, values, precision):
    """The square CSV of :func:`lookup_matrix`, built cell by cell."""
    lines = ["node," + ",".join(nodes)]
    for i, u in enumerate(nodes):
        row = [values.get((min(i, j), max(i, j)), 0.0) if i != j else 0.0
               for j in range(len(nodes))]
        lines.append(u + "," + ",".join(f"{x:.{precision}f}" for x in row))
    return "\n".join(lines) + "\n"


class TestSymmetricMatrix:
    def test_get_symmetric(self, tmp_path):
        cells = matrix_csv_cells(lookup_matrix(["a", "b", "c"], {(0, 2): 0.25}), tmp_path / "m.csv")
        assert cells["a", "c"] == 0.25
        assert cells["c", "a"] == 0.25
        assert cells["a", "b"] == 0.0

    def test_diagonal_fixed(self, tmp_path):
        cells = matrix_csv_cells(lookup_matrix(["a", "b"], {(0, 1): 1.0}), tmp_path / "m.csv")
        assert cells["a", "a"] == 0.0
        assert cells["b", "b"] == 0.0

    def test_score_called_once_per_pair_row_major(self, tmp_path):
        """No pair is scored at construction; the write scores each pair
        once, in row-major order, across band boundaries too."""
        calls = []

        def score(u, v):
            calls.append((u, v))
            return 0.5

        for n in [*range(7), 2 * _BAND + 3]:
            calls.clear()
            nodes = [f"n{i}" for i in range(n)]
            matrix = SymmetricMatrix(nodes, score)
            assert calls == []
            matrix.write_csv(tmp_path / "m.csv")
            assert len(calls) == n * (n - 1) // 2
            assert calls == [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)]

    def test_range_enforced(self, tmp_path):
        # Values are checked, not clamped: 1 + 1e-12 is out of range too.
        # The bad value is the last pair scored, after the earlier bands'
        # rows went out, and the partial file is removed.
        path = tmp_path / "m.csv"
        for n in (3, 2 * _BAND + 3):
            for value in (1.5, -0.25, 1.0 + 1e-12, -1e-12, math.nan, math.inf):
                matrix = lookup_matrix([f"u{i}" for i in range(n)], {(n - 2, n - 1): value})
                with pytest.raises(ValueError, match="out of \\[0, 1\\]"):
                    matrix.write_csv(path)
                assert not path.exists()

    def test_failed_score_leaves_no_file(self, tmp_path):
        # The score fails in the second band, after the first band's writes.
        path = tmp_path / "m.csv"
        path.write_text("an earlier export\n", encoding="utf-8")

        def score(u, v):
            if u == f"u{_BAND + 4}":
                raise KeyError(u)
            return 0.5

        with pytest.raises(KeyError):
            SymmetricMatrix([f"u{i}" for i in range(40)], score).write_csv(path)
        assert not path.exists()

    def test_precision_below_one_rejected_before_open(self, tmp_path):
        """``%.0f`` formats a cell in one character, not ``precision + 2``,
        so a precision of 0 would leave gaps in the fixed-width layout."""
        path = tmp_path / "m.csv"
        for precision in (0, -1):
            with pytest.raises(ValueError, match="precision must be at least 1"):
                lookup_matrix(["a", "b", "c"], {(0, 1): 1.0}).write_csv(path, precision=precision)
            assert not path.exists()

    def test_negative_zero_written_as_zero(self, tmp_path):
        path = tmp_path / "m.csv"
        lookup_matrix(["a", "b", "c"], {(0, 1): -0.0, (1, 2): 0.5}).write_csv(path)
        assert path.read_text(encoding="utf-8") == (
            "node,a,b,c\na,0.000000,0.000000,0.000000\n"
            "b,0.000000,0.000000,0.500000\nc,0.000000,0.500000,0.000000\n")

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            lookup_matrix(["a", "a"], {})

    def test_write_csv(self, tmp_path):
        matrix = lookup_matrix(["a", "b"], {(0, 1): 0.123456789})
        path = tmp_path / "matrix.csv"
        matrix.write_csv(path, precision=2)
        assert path.read_text(encoding="utf-8") == "node,a,b\na,0.00,0.12\nb,0.12,0.00\n"

    @pytest.mark.parametrize("n", range(3 * _BAND + 2))
    def test_write_csv_matches_get(self, tmp_path, n):
        """Byte for byte against a cell-by-cell build, with ids whose UTF-8
        lengths differ (so do the row offsets), at every size up to three
        bands and two rows: every row offset in a band is checked in a full
        first band, a full middle band and a one-row last band."""
        rng = random.Random(n)
        values = {(i, j): rng.random() for i in range(n) for j in range(i + 1, n)}
        values.update({(0, n - 1): 1.0, (1, n - 1): 0.0} if n > 2 else {})
        nodes = [f"{prefix}{i}" for i, prefix in
                 zip(range(n), cycle(["u", "é", "日本", "e\u0301"]))]
        path = tmp_path / "matrix.csv"
        for precision in (1, 6, 17):
            lookup_matrix(nodes, values).write_csv(path, precision=precision)
            assert path.read_text(encoding="utf-8") == reference_csv(nodes, values, precision)

    def test_write_peak_bytes_per_node(self, tmp_path):
        """Scoring and writing hold a band of rows, not the triangle: about
        240 B per node here, where a stored triangle alone took 8 B per pair,
        2,400 B per node."""
        n = 600
        nodes = [f"u{i:03d}" for i in range(n)]

        def score(u, v):
            return (int(u[1:]) + int(v[1:])) / (2 * n)

        def export():
            SymmetricMatrix(nodes, score).write_csv(tmp_path / "m.csv")

        _, _, peak = traced(export)
        assert peak / n < 400
