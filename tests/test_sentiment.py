import math
import random

import pytest

from comtext.corpus import Document, build_corpus
from comtext.errors import ParseError
from comtext.sentiment import (
    NEUTRAL_ANGLE,
    SentimentLexicon,
    _bias,
    bias_matrix,
    bias_score,
    load_lexicon,
    score_text,
)
from helpers import (
    NEUTRAL,
    CompositeSentiment,
    SentimentVector,
    bias_value,
    compose,
    matrix_csv_cells,
)


def polar(tokens, lexicon):
    """``score_text`` on ``tokens`` given as terms: their ranks in the sorted
    set of terms, and the lexicon's score table over that set."""
    vocabulary = sorted(set(tokens))
    return score_text([vocabulary.index(t) for t in tokens],
                      [lexicon.scores.get(t) for t in vocabulary])


def corpus_bias(corpus, lexicon):
    """Sentiment bias of all pairs of users of ``corpus``."""
    return bias_matrix(corpus.users, bias_score(corpus, lexicon))


def random_sentiment(rng):
    if rng.random() < 0.1:
        return NEUTRAL
    return SentimentVector(rng.uniform(1e-6, 1.0), rng.uniform(0.0, math.pi))


class TestLexicon:
    def test_load(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "# comment\ngood\t0.9\n\nbad\t-0.7\n", encoding="utf-8"
        )
        lexicon = load_lexicon(path)
        assert lexicon.scores == {"good": 0.9, "bad": -0.7}

    def test_bad_score(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\tmany\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_lexicon(path)

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t1.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_lexicon(path)

    def test_duplicate_term(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t0.5\ngood\t0.4\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_lexicon(path)

    def test_terms_lowercased_to_match_tokens(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("Good\t0.8\n", encoding="utf-8")
        lexicon = load_lexicon(path)
        assert lexicon.scores == {"good": 0.8}
        corpus = build_corpus([Document("u1", "Good day"), Document("u2", "good night")])
        assert bias_score(corpus, lexicon)("u1", "u2") == pytest.approx(1.0)

    def test_terms_equal_after_lowercasing_are_duplicates(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t0.5\nGOOD\t0.4\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: duplicate term 'good'"):
            load_lexicon(path)

    @pytest.mark.parametrize("term, delim, tokens", [
        ("well-known", None, ["well", "known"]),
        ("Not good", None, ["not", "good"]),
        ("café!", None, ["café"]),
        ("good|bad", "|", ["good", "bad"]),
    ])
    def test_term_that_is_not_one_token(self, tmp_path, term, delim, tokens):
        """No token equals such a term, so it could never match."""
        path = tmp_path / "lex.tsv"
        path.write_text(f"# header\ngood\t0.5\n{term}\t0.4\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_lexicon(path, delim)
        assert str(excinfo.value) == (f"{path}: line 3: term {term.lower()!r} can never "
                                      f"match a token: it tokenizes to {tokens!r}")

    def test_delimiter_keeps_terms_the_unicode_rule_splits(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("well-known\t0.5\nnot good\t-0.4\n", encoding="utf-8")
        lexicon = load_lexicon(path, "|")
        assert lexicon.scores == {"well-known": 0.5, "not good": -0.4}
        corpus = build_corpus([Document("u1", "not good|meh"), Document("u2", "well-known")],
                              "|")
        scores = [lexicon.scores.get(t) for t in corpus.vocabulary]
        assert score_text(corpus.docs_by_user["u1"], scores) == (0.4, 1.4 * math.pi / 2)
        assert score_text(corpus.docs_by_user["u2"], scores) == (0.5, 0.5 * math.pi / 2)

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good 0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_lexicon(path)

    def test_score_validation(self):
        with pytest.raises(ValueError):
            SentimentLexicon({"x": 2.0})
        with pytest.raises(ValueError, match="lexicon terms must be non-empty"):
            SentimentLexicon({"": 0.5})


class TestScoreText:
    def test_no_matches_is_neutral(self):
        lexicon = SentimentLexicon({"good": 1.0})
        assert polar(["meh", "whatever"], lexicon) == (0.0, NEUTRAL_ANGLE)

    def test_fully_positive(self):
        lexicon = SentimentLexicon({"good": 1.0})
        rho, theta = polar(["good", "good"], lexicon)
        assert rho == 1.0
        assert theta == 0.0

    def test_cancellation_is_neutral(self):
        lexicon = SentimentLexicon({"good": 1.0, "bad": -1.0})
        assert polar(["good", "bad"], lexicon) == (0.0, NEUTRAL_ANGLE)

    def test_mean_over_matched_occurrences(self):
        lexicon = SentimentLexicon({"good": 1.0, "meh": 0.5})
        rho, theta = polar(["good", "meh", "noise"], lexicon)
        assert rho == pytest.approx(0.75, abs=1e-12)
        assert theta == pytest.approx((1 - 0.75) * math.pi / 2, abs=1e-12)

    def test_fully_negative(self):
        lexicon = SentimentLexicon({"bad": -1.0})
        rho, theta = polar(["bad"], lexicon)
        assert rho == 1.0
        assert theta == pytest.approx(math.pi, abs=1e-12)


class TestCompose:
    def test_aligned_unit_vectors(self):
        c = compose(SentimentVector(1.0, 0.0), SentimentVector(1.0, 0.0))
        assert c.rho_n == pytest.approx(1.0, abs=1e-12)
        assert c.omega_n == pytest.approx(1.0, abs=1e-12)

    def test_exact_opposites_cancel(self):
        c = compose(SentimentVector(1.0, 0.0), SentimentVector(1.0, math.pi))
        assert c.rho_n == pytest.approx(0.0, abs=1e-12)
        assert c.omega_n == pytest.approx(0.0, abs=1e-12)

    def test_neutral_contributes_nothing(self):
        c = compose(NEUTRAL, SentimentVector(1.0, 0.0))
        assert c.rho_n == pytest.approx(1.0, abs=1e-12)
        assert c.omega_n == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.25, 1.0])
    @pytest.mark.parametrize("theta, bias", [(0.0, 0.5), (math.pi / 2, 1.0), (math.pi, 0.5)])
    def test_neutral_paired_with_opinion(self, rho, theta, bias):
        # rho_n = 1 and omega_n = (1 + sin theta) / 2, so the bias lies in [0.5, 1]
        opinion = SentimentVector(rho, theta)
        for pair in ((NEUTRAL, opinion), (opinion, NEUTRAL)):
            c = compose(*pair)
            assert c.rho_n == pytest.approx(1.0)
            assert c.omega_n == pytest.approx((1.0 + math.sin(theta)) / 2.0)
            assert bias_value(c) == pytest.approx(bias)
        assert bias_value(compose(NEUTRAL, NEUTRAL)) == 0.0

    def test_both_neutral(self):
        c = compose(NEUTRAL, NEUTRAL)
        assert c.rho_n == 0.0
        assert c.omega_n == pytest.approx(1.0, abs=1e-12)

    def test_self_agreement_is_maximal(self):
        rng = random.Random(53)
        for _ in range(300):
            e = random_sentiment(rng)
            if e.rho == 0.0:
                continue
            c = compose(e, e)
            assert c.rho_n == pytest.approx(1.0, abs=1e-12)
            assert c.omega_n == pytest.approx(1.0, abs=1e-12)


class TestBiasValue:
    def test_product(self):
        assert bias_value(CompositeSentiment(1.0, 1.0)) == 1.0
        assert bias_value(CompositeSentiment(0.0, 0.7)) == 0.0
        assert bias_value(CompositeSentiment(0.8, 0.5)) == pytest.approx(0.4, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = random.Random(59)
        for _ in range(500):
            e1, e2 = random_sentiment(rng), random_sentiment(rng)
            sv = bias_value(compose(e1, e2))
            assert 0.0 <= sv <= 1.0
            assert bias_value(compose(e2, e1)) == pytest.approx(sv, abs=1e-12)

    def test_monotone_in_angle_gap(self):
        rho = 0.7
        values = []
        for i in range(100):
            theta = math.pi if i == 99 else math.pi * i / 99
            e1 = SentimentVector(rho, 0.0)
            e2 = SentimentVector(rho, theta)
            values.append(bias_value(compose(e1, e2)))
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(a > b for a, b in zip(values, values[1:]))


class TestShippedComposition:
    def test_bit_identical_to_dataclass_path(self):
        """The composition bias_score ships equals the reference forms' with
        ==, on seeded vectors with neutral, opposite and identical pairs."""
        rng = random.Random(67)
        vectors = [random_sentiment(rng) for _ in range(1000)]
        pairs = list(zip(vectors, vectors[1:]))
        pairs += [(a, a) for a in vectors[:100]]
        pairs += [(a, SentimentVector(a.rho, math.pi - a.theta)) for a in vectors[:100]]
        pairs += [(NEUTRAL, a) for a in vectors[:50]] + [(NEUTRAL, NEUTRAL)]
        pairs += [(SentimentVector(1.0, 0.0), SentimentVector(1.0, math.pi))]
        for a, b in pairs:
            assert _bias((a.rho, a.theta), (b.rho, b.theta)) == bias_value(compose(a, b)), (a, b)

    def test_score_text_meets_the_dataclass_checks(self):
        """The vectors score_text returns pass the checks SentimentVector makes."""
        rng = random.Random(71)
        lexicon = SentimentLexicon({f"w{i}": rng.choice([-1.0, -0.3, 0.0, 0.5, 1.0])
                                    for i in range(8)})
        for _ in range(500):
            tokens = [f"w{rng.randint(0, 11)}" for _ in range(rng.randint(0, 6))]
            SentimentVector(*polar(tokens, lexicon))


class TestBiasMatrix:
    def _corpus(self, texts):
        return build_corpus([Document(f"u{i}", t) for i, t in enumerate(texts)])

    def test_identical_strong_positive(self):
        lexicon = SentimentLexicon({"great": 1.0})
        corpus = self._corpus(["great stuff", "great times"])
        assert bias_score(corpus, lexicon)("u0", "u1") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_opposite_polarities_cancel(self):
        lexicon = SentimentLexicon({"great": 1.0, "awful": -1.0})
        corpus = self._corpus(["great", "awful"])
        assert bias_score(corpus, lexicon)("u0", "u1") == pytest.approx(
            0.0, abs=1e-12
        )

    def test_both_neutral(self):
        lexicon = SentimentLexicon({"great": 1.0})
        corpus = self._corpus(["bland words", "more words"])
        assert bias_score(corpus, lexicon)("u0", "u1") == 0.0

    def test_diagonal_and_range(self, tmp_path):
        rng = random.Random(61)
        lexicon = SentimentLexicon(
            {f"w{i}": rng.uniform(-1, 1) for i in range(10)}
        )
        texts = [
            " ".join(f"w{rng.randint(0, 12)}" for _ in range(rng.randint(0, 10)))
            for _ in range(6)
        ]
        cells = matrix_csv_cells(corpus_bias(self._corpus(texts), lexicon), tmp_path / "m.csv")
        assert len(cells) == 36
        for (u, v), value in cells.items():
            assert 0.0 <= value <= 1.0
            assert u != v or value == 0.0
