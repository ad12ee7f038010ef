"""Oracle for the exported edge weights and attribute matrices.

A weighted ``run`` must write ``graph.csv`` (and, with export on, both
matrix CSVs) byte for byte as :func:`helpers.reference_exports` builds
them from the dict forms ``tfidf_vector``, ``cosine_similarity``,
``score_text``, ``compose`` and ``bias_value``.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from comtext.pipeline import RunConfig, StageError, run
from helpers import reference_exports

# Derandomized, so every run of the suite checks the same examples.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

IDS = ["a", "b", "c", "d", "e", "f"]
# "meh" scores 0 when it is in the lexicon; "!" alone tokenizes to nothing.
WORDS = ["good", "bad", "meh", "cat", "dog", "fish", "!"]
LEXICON_TERMS = ["good", "bad", "meh", "dog"]
SCORES = [-1.0, -0.5, 0.0, 0.25, 1.0]
MATRICES = ("similarity_matrix.csv", "bias_matrix.csv")

texts = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
corpora = st.lists(st.tuples(st.sampled_from(IDS), texts), min_size=1, max_size=8)
edge_lists = st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)), max_size=10)
lexicons = st.dictionaries(st.sampled_from(LEXICON_TERMS), st.sampled_from(SCORES))


def run_exports(docs, edges, lexicon, alpha, precision, export) -> dict[str, bytes]:
    """Run on these inputs; the bytes of each graph or matrix CSV it wrote.

    Inputs whose fused weights are all zero fail at the metrics stage after
    the exports are written.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus.jsonl").write_text(
            "".join(json.dumps({"user_id": u, "text": t}) + "\n" for u, t in docs),
            encoding="utf-8")
        (root / "edges.csv").write_text("".join(f"{a},{b}\n" for a, b in edges),
                                        encoding="utf-8")
        (root / "lexicon.tsv").write_text(
            "".join(f"{term}\t{score!r}\n" for term, score in lexicon.items()),
            encoding="utf-8")
        config = RunConfig(edges=root / "edges.csv", corpus=root / "corpus.jsonl",
                           lexicon=root / "lexicon.tsv", out_dir=root / "out",
                           k_values=(1,), alpha=alpha, precision=precision,
                           export_matrices=export)
        try:
            run(config)
        except StageError as exc:
            assert exc.stage == "metrics", exc
        return {name: (root / "out" / name).read_bytes()
                for name in ("graph.csv", *MATRICES) if (root / "out" / name).exists()}


@PROPERTY
@given(corpora, edge_lists, lexicons, st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([6, 17]), st.booleans())
# Empty and unmatched texts, a zero lexicon score, an endpoint ("z") with no
# text and a writer ("e") with no edge.
@example([("a", ""), ("b", "meh cat"), ("c", "good dog"), ("e", "bad")],
         [("a", "b"), ("b", "c"), ("c", "z")], {"good": 1.0, "meh": 0.0}, 0.5, 6, True)
@example([("a", "!"), ("b", "cat"), ("c", "bad bad good")],
         [("a", "c"), ("b", "c"), ("z", "b")], {"good": 0.25, "bad": -1.0}, 0.0, 6, True)
@example([("a", "dog"), ("b", "fish dog"), ("d", "good")],
         [("a", "b"), ("d", "z")], {"dog": -0.5}, 1.0, 17, True)
# Identical texts: every term is in every document, so every similarity is 0.
@example([("a", "good cat"), ("b", "good cat"), ("c", "good cat")],
         [("a", "b"), ("b", "c")], {"good": 1.0}, 0.5, 6, True)
@example([("a", "cat dog"), ("b", "cat dog"), ("c", "cat dog")],
         [("a", "b"), ("b", "c")], {}, 1.0, 6, True)
def test_run_exports_match_the_dict_reference(docs, edges, lexicon, alpha, precision, export):
    written = run_exports(docs, edges, lexicon, alpha, precision, export)
    expected = reference_exports(docs, edges, lexicon, alpha, precision)
    names = ("graph.csv", *MATRICES) if export else ("graph.csv",)
    assert written == {name: expected[name].encode("utf-8") for name in names}
