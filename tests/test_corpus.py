import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comtext.corpus import (
    Document,
    EdgeList,
    build_corpus,
    ensure_users,
    load_corpus,
    load_edges,
    read_lines,
    tokenize,
    write_lines,
)
from comtext.errors import ParseError
from comtext.fixtures import SyntheticSpec, generate
from helpers import endpoints, reference_tokenize, traced, user_terms, wide_corpus

# Characters at the edges of the rule: combining marks, CJK, digits and
# other numbers, astral letters, "İ" (whose lowercase gains a combining
# dot), final-sigma casing, and separators that are punctuation or spaces.
RULE_EDGES = "a\u0301\u20dd你好7\u0663²½Ⅻ\U0001d400\U00010400İΣ_\u00a0\u3000\u2028-! \t"


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("Hello, world!") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_collapse(self):
        assert tokenize("a  b\tc") == ["a", "b", "c"]

    def test_unicode_separators(self):
        assert tokenize("naïve—test") == ["naïve", "test"]
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_digits_kept(self):
        assert tokenize("top10 lists") == ["top10", "lists"]

    def test_pretokenized(self):
        assert tokenize("Foo|bar||baz", "|") == ["foo", "bar", "baz"]

    def test_pretokenized_keeps_punctuation(self):
        assert tokenize("a,b c", " ") == ["a,b", "c"]

    def test_empty_delim_rejected(self):
        with pytest.raises(ValueError):
            tokenize("a b", "")

    def test_idempotent_on_own_output(self):
        rng = random.Random(101)
        pieces = ["Hi!", "very-good", "x9", "...", "你好", "A_B", "  ", "ok"]
        for _ in range(300):
            text = " ".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once

    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(st.text(st.sampled_from(RULE_EDGES) | st.characters(exclude_categories=("Cs",))),
           st.sampled_from([None, "|", " ", "\u3000", "ab"]))
    @example(RULE_EDGES, None)
    @example("ΣΑΣ İstanbul x²+½", None)
    def test_matches_the_reference(self, text, token_delim):
        assert tokenize(text, token_delim) == reference_tokenize(text, token_delim)

    @pytest.mark.parametrize("plane", range(17))
    def test_matches_the_reference_at_every_code_point(self, plane):
        """Each code point of the plane between two letters, in one string."""
        text = "".join(f"x{chr(c)}y" for c in range(plane << 16, (plane + 1) << 16)
                       if not 0xD800 <= c < 0xE000)
        assert tokenize(text) == reference_tokenize(text)


class TestLoadCorpus:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_merges_documents_per_user(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"user_id": "u1", "text": "a b"}', '{"user_id": "u1", "text": "b c"}'],
        )
        corpus = load_corpus(path)
        assert user_terms(corpus, "u1") == ("a", "b", "b", "c")

    def test_users_sorted(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"user_id": "u2", "text": "x"}', '{"user_id": "u1", "text": "y"}'],
        )
        assert load_corpus(path).users == ("u1", "u2")

    def test_missing_text_names_line(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"user_id": "u1", "text": "a"}', '{"user_id": "u2"}'],
        )
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize("line, message", [
        ("[1]", "expected a JSON object"),
        ('{"text": "a"}', "missing 'user_id'"),
        ('{"user_id": 1, "text": "a"}', "'user_id' must be a string"),
        ('{"user_id": null, "text": "a"}', "'user_id' must be a string"),
        ('{"user_id": ["u2"], "text": "a"}', "'user_id' must be a string"),
        ('{"user_id": "u2"}', "missing 'text'"),
        ('{"user_id": "u2", "text": 1}', "'text' must be a string"),
        ('{"user_id": "u2", "text": null}', "'text' must be a string"),
    ])
    def test_line_that_is_no_document_names_line(self, tmp_path, line, message):
        path = self._write(tmp_path, ['{"user_id": "u1", "text": "a"}', line])
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            load_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = self._write(tmp_path, ['{"user_id": "u1", "text": "a"}', "{nope"])
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty corpus"):
            load_corpus(path)

    def test_blank_lines_only_is_empty(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n  \n\t\n\n", encoding="utf-8")
        with pytest.raises(ParseError, match="empty corpus file"):
            load_corpus(path)

    def test_user_lines_apart_merge_in_input_order(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"user_id": "u2", "text": "x"}', '{"user_id": "u1", "text": "c d"}',
             '{"user_id": "u2", "text": "y"}', '{"user_id": "u1", "text": "a"}',
             '{"user_id": "u1", "text": "b"}'],
        )
        corpus = load_corpus(path)
        assert corpus.users == ("u1", "u2")
        assert {u: user_terms(corpus, u) for u in corpus.docs_by_user} == {
            "u1": ("c", "d", "a", "b"), "u2": ("x", "y")}

    def test_bad_line_after_good_ones_names_its_line(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"user_id": "u1", "text": "a"}', "", '{"user_id": "u2", "text": "b"}',
             '{"user_id": "u3", "text": "c"', '{"user_id": "u4", "text": "d"}'],
        )
        with pytest.raises(ParseError, match=r"corpus\.jsonl: line 4: invalid JSON"):
            load_corpus(path)

    def _load_traced(self, tmp_path):
        """Load a 400-user, 120,000-token corpus under tracemalloc; return its
        token count and the bytes at the peak and at the end."""
        path = generate(SyntheticSpec(10, 40, rng_seed=3, tokens_per_user=300),
                        tmp_path).corpus_path
        corpus, retained, peak = traced(load_corpus, path)
        tokens = sum(map(len, corpus.docs_by_user.values()))
        assert tokens == 400 * 300
        return tokens, peak, retained

    def test_load_peak_bytes_per_token(self, tmp_path):
        """Lines are tokenized as they are read, straight into each user's
        rank array: about 3.4 B/token.  4-byte ranks peaked at about 5.5,
        and reading every document first and keeping the lists beside the
        token tuples at about 30."""
        tokens, peak, _ = self._load_traced(tmp_path)
        assert peak / tokens < 4.5

    def test_load_retained_bytes_per_token(self, tmp_path):
        """A token is one 2-byte rank, about 2.9 B/token kept; 4-byte ranks
        kept about 5.0, and one 8-byte reference to its term in a tuple
        about 8.7."""
        tokens, _, retained = self._load_traced(tmp_path)
        assert retained / tokens < 4

    def test_empty_user_id(self, tmp_path):
        path = self._write(tmp_path, ['{"user_id": "", "text": "a"}'])
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(path)

    def test_reserved_characters_in_user_id(self, tmp_path):
        path = self._write(tmp_path, ['{"user_id": "a,b", "text": "x"}'])
        with pytest.raises(ParseError, match="reserved"):
            load_corpus(path)
        path = self._write(tmp_path, ['{"user_id": "a\\nb", "text": "x"}'])
        with pytest.raises(ParseError, match="reserved"):
            load_corpus(path)

    def test_vocabulary_document_frequencies(self, tmp_path):
        """Terms are numbered by first appearance in the file, which in the
        second case is not their sorted order."""
        for texts, vocabulary in ((("a b", "b c"), ("a", "b", "c")),
                                  (("b a", "c b"), ("b", "a", "c"))):
            path = self._write(tmp_path, [json.dumps({"user_id": f"u{i}", "text": text})
                                          for i, text in enumerate(texts, start=1)])
            corpus = load_corpus(path)
            assert corpus.vocabulary == vocabulary
            assert dict(zip(corpus.vocabulary, corpus.doc_frequency)) == {"a": 1, "b": 2, "c": 1}
            assert all(df >= 1 for df in corpus.doc_frequency)

    def test_one_object_per_term(self):
        corpus = build_corpus([Document("u1", "shared words"), Document("u2", "more shared")])
        first, second = user_terms(corpus, "u1")[0], user_terms(corpus, "u2")[1]
        assert first == second == "shared"
        assert first is second

    def test_users_strictly_increasing(self):
        rng = random.Random(7)
        for _ in range(50):
            ids = [f"u{rng.randint(0, 20):02d}" for _ in range(rng.randint(1, 15))]
            corpus = build_corpus([Document(i, "w") for i in ids])
            assert all(a < b for a, b in zip(corpus.users, corpus.users[1:]))

    def test_ensure_users_adds_empty_documents(self):
        corpus = build_corpus([Document("u2", "a b")])
        extended = ensure_users(corpus, ["u1", "u2", "u3"])
        assert extended.users == ("u1", "u2", "u3")
        assert user_terms(extended, "u1") == ()
        assert list(extended.docs_by_user) == list(extended.users)
        assert extended.docs_by_user["u2"] is corpus.docs_by_user["u2"]
        # empty documents change no term statistic, so both are shared
        assert extended.vocabulary is corpus.vocabulary
        assert extended.doc_frequency is corpus.doc_frequency
        # no-op when nothing is missing
        assert ensure_users(corpus, ["u2"]) is corpus


class TestRankWidth:
    @pytest.mark.parametrize("terms, itemsize", [(65536, 2), (65537, 4)])
    def test_rank_width_follows_the_vocabulary_size(self, terms, itemsize):
        """2-byte ranks hold every rank of a vocabulary of up to 65,536
        terms; one more term takes 4 bytes per token, in every user's array,
        the empty ones ``ensure_users`` adds included."""
        words = tuple(f"w{i}" for i in range(terms))
        corpus = build_corpus([Document("u1", "w0 w1"), Document("u2", " ".join(words))])
        assert len(corpus.vocabulary) == terms
        assert [a.itemsize for a in corpus.docs_by_user.values()] == [itemsize, itemsize]
        assert user_terms(corpus, "u1") == ("w0", "w1")
        assert user_terms(corpus, "u2") == words
        added = ensure_users(corpus, ["u0"]).docs_by_user["u0"]
        assert (len(added), added.itemsize) == (0, itemsize)

    def test_switch_mid_stream_keeps_earlier_ranks(self):
        """The document that takes the vocabulary past 65,536 terms widens
        the arrays of the users read before it, ranks unchanged."""
        corpus = wide_corpus()
        assert len(corpus.vocabulary) == 65538
        assert {a.typecode for a in corpus.docs_by_user.values()} == {"i"}
        assert user_terms(corpus, "u3") == ("alpha", "beta", "alpha", "gamma", "delta", "w9")
        assert user_terms(corpus, "u2") == ("gamma", "alpha", "w7")
        assert list(corpus.docs_by_user["u3"]) == [0, 1, 0, 65536, 65537, 11]
        assert len(user_terms(corpus, "u1")) == 65535
        assert list(corpus.doc_frequency[:2]) == [2, 2]
        assert list(corpus.doc_frequency[65536:]) == [2, 1]


class TestLoadEdges:
    def _write(self, tmp_path, lines):
        path = tmp_path / "edges.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_canonicalization(self, tmp_path):
        path = self._write(tmp_path, ["a,b", "b,a"])
        assert load_edges(path).edges == (("a", "b"),)

    def test_self_loop_dropped_and_counted(self, tmp_path):
        path = self._write(tmp_path, ["a,a", "a,b"])
        result = load_edges(path)
        assert result.edges == (("a", "b"),)
        assert result.self_loops_dropped == 1

    def test_two_edges(self, tmp_path):
        path = self._write(tmp_path, ["a,b", "a,c"])
        assert load_edges(path).edges == (("a", "b"), ("a", "c"))

    def test_bad_field_count(self, tmp_path):
        path = self._write(tmp_path, ["a,b", "a;b"])
        with pytest.raises(ParseError, match="line 2"):
            load_edges(path)
        path = self._write(tmp_path, ["a,b,c"])
        with pytest.raises(ParseError, match="line 1"):
            load_edges(path)

    def test_empty_endpoint(self, tmp_path):
        path = self._write(tmp_path, ["a,"])
        with pytest.raises(ParseError, match="line 1"):
            load_edges(path)

    def test_order_and_swap_invariance(self, tmp_path):
        rng = random.Random(13)
        base = [("a", "b"), ("b", "c"), ("a", "d"), ("c", "d")]
        reference = load_edges(self._write(tmp_path, [f"{u},{v}" for u, v in base]))
        for _ in range(20):
            lines = [
                f"{v},{u}" if rng.random() < 0.5 else f"{u},{v}" for u, v in base
            ]
            rng.shuffle(lines)
            assert load_edges(self._write(tmp_path, lines)).edges == reference.edges

    def test_endpoints(self):
        edges = EdgeList.from_pairs([("b", "a"), ("c", "b")])
        assert endpoints(edges) == ("a", "b", "c")

    def test_load_peak_bytes_per_edge(self, tmp_path):
        """Each line's pair goes into the edge set as it is read: about
        196 B/edge at the peak here.  Holding a list of every line's fresh
        id strings beside the set peaked at about 362."""
        rng = random.Random(113)
        pairs = set()
        while len(pairs) < 20000:
            pairs.add(tuple(sorted(rng.sample(range(2000), 2))))
        lines = [f"u{i:04d},u{j:04d}" if rng.random() < 0.5 else f"u{j:04d},u{i:04d}"
                 for i, j in pairs]
        rng.shuffle(lines)
        edges, _, peak = traced(load_edges, self._write(tmp_path, lines))
        assert len(edges.edges) == len(pairs)
        assert peak / len(pairs) < 250

    def test_one_object_per_endpoint_id(self, tmp_path):
        path = self._write(tmp_path, ["alice,bob", "bob,carol", "carol,alice", "dave,bob"])
        edges = load_edges(path)
        endpoints = [u for edge in edges.edges for u in edge]
        assert len(endpoints) == 8
        assert len({id(u) for u in endpoints}) == len(set(endpoints)) == 4


class TestWriteLines:
    def test_lf_only_utf8_without_bom_from_a_generator(self, tmp_path):
        """Non-ASCII lines, an empty one and a U+2028 (no line break for
        the readers) are drawn from a generator and each ended by one LF."""
        lines = ["é,日本", "e\u0301,z", "", "a\u2028b", "\U0001d400"]
        drawn = []

        def generate():
            for line in lines:
                drawn.append(line)
                yield line

        path = tmp_path / "out.txt"
        write_lines(path, generate())
        data = path.read_bytes()
        assert drawn == lines
        assert data == "".join(f"{line}\n" for line in lines).encode("utf-8")
        assert not data.startswith(b"\xef\xbb\xbf") and b"\r" not in data
        assert [line for _, line in read_lines(path)] == [x for x in lines if x]
