"""Whole-tree oracle for ``run`` and ``compare``.

On small random inputs, ``run`` (weighted and structural) and ``compare``
must write the tree that :func:`helpers.reference_run` and
:func:`helpers.reference_compare` build the long way round.  File names,
``graph.csv``, both matrix CSVs and partition member lines must match byte
for byte.  Modularity, which the pair-sum oracle sums in a different order,
must match within 1e-12 in ``summary.csv``, ``compare.csv``, the partition
header and ``quality_k*.json``.  Texts are tokenized by the Unicode rule or
split on a ``|`` delimiter, against the reference's character loop.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from comtext.errors import UndefinedModularityError
from comtext.pipeline import RunConfig, StageError, compare, run
from helpers import reference_compare, reference_run

# Derandomized, so every run of the suite checks the same examples.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
TOLERANCE = 1e-12

IDS = ["a", "b", "c", "d", "e", "f"]
# "meh" scores 0 when it is in the lexicon; "!" alone tokenizes to nothing.
WORDS = ["good", "bad", "meh", "cat", "dog", "fish", "!"]
LEXICON_TERMS = ["good", "bad", "meh", "dog"]
SCORES = [-1.0, -0.5, 0.0, 0.25, 1.0]
# What each command is given: weighted runs and compare need every text input.
COMMANDS = ["weighted", "compare", "structural", "structural-corpus", "structural-edges"]

# Words joined by a space or by the delimiter, so that each tokenizer sees both.
texts = st.tuples(st.lists(st.sampled_from(WORDS), max_size=8), st.sampled_from(" |")).map(
    lambda words_sep: words_sep[1].join(words_sep[0]))
corpora = st.lists(st.tuples(st.sampled_from(IDS), texts), min_size=1, max_size=8)
# At least one edge that is not a self-loop.
edge_lists = st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)), max_size=10).filter(
    lambda edges: any(a != b for a, b in edges))
lexicons = st.dictionaries(st.sampled_from(LEXICON_TERMS), st.sampled_from(SCORES), min_size=1)
k_lists = st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)


def write_inputs(root: Path, docs, edges, lexicon) -> None:
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps({"user_id": u, "text": t}) + "\n" for u, t in docs),
        encoding="utf-8")
    (root / "edges.csv").write_text("".join(f"{a},{b}\n" for a, b in edges), encoding="utf-8")
    (root / "lexicon.tsv").write_text(
        "".join(f"{term}\t{score!r}\n" for term, score in lexicon.items()), encoding="utf-8")


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def modularity_cut(name: str, data: bytes) -> tuple[list[str], list[float]]:
    """The file's lines with each modularity value cut out, and those values."""
    lines = data.decode("utf-8").splitlines()
    values = []
    for i, line in enumerate(lines):
        if name.endswith(".csv") and i > 0:
            lines[i], *qs = line.split(",")
            values.extend(map(float, qs))
        elif line.startswith("modularity="):
            lines[i] = "modularity="
            values.append(float(line[len("modularity="):]))
    return lines, values


def assert_close(got, want, where: str) -> None:
    """Equal JSON values, floats within the tolerance."""
    if isinstance(got, float) or isinstance(want, float):
        assert abs(got - want) <= TOLERANCE, (where, got, want)
    elif isinstance(got, dict):
        assert sorted(got) == sorted(want), where
        for key in got:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(got, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


def assert_same_tree(got: dict[str, bytes], want: dict[str, bytes]) -> None:
    assert sorted(got) == sorted(want)
    for name in got:
        base = name.rsplit("/", 1)[-1]
        if base.startswith("quality_k"):
            assert_close(json.loads(got[name]), json.loads(want[name]), name)
        elif base.startswith("partition_k") or base in ("summary.csv", "compare.csv"):
            (lines, values), (ref_lines, ref_values) = (modularity_cut(name, got[name]),
                                                         modularity_cut(name, want[name]))
            assert lines == ref_lines, name
            assert len(values) == len(ref_values), name
            assert all(abs(a - b) <= TOLERANCE for a, b in zip(values, ref_values)), name
        else:
            assert got[name] == want[name], name


def written(entry, config, failure) -> tuple[bool, dict[str, bytes]]:
    """Whether ``entry(config)`` failed at the metrics stage, and its tree."""
    try:
        entry(config)
    except failure as exc:
        assert getattr(exc, "stage", "metrics") == "metrics", exc
        assert not config.out_dir.exists()
        return True, {}
    return False, tree(config.out_dir)


def run_both(command, docs, edges, lexicon, alpha, precision, export, k_values, token_delim):
    """The shipped and the reference outcome for these inputs.

    Inputs whose weights are all zero fail at the metrics stage, before
    anything is written, in both pipelines.
    """
    text = command in ("weighted", "compare", "structural")
    with_corpus = command != "structural-edges"
    nodes = {u for a, b in edges if a != b for u in (a, b)}
    nodes |= {u for u, _ in docs} if with_corpus else set()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root, docs, edges, lexicon)

        def config(out: str) -> RunConfig:
            return RunConfig(
                edges=root / "edges.csv", corpus=root / "corpus.jsonl" if with_corpus else None,
                lexicon=root / "lexicon.tsv" if text else None, out_dir=root / out,
                k_values=tuple(k for k in k_values if k <= len(nodes)) or (1,),
                mode="structural" if command.startswith("structural") else "weighted",
                alpha=alpha, precision=precision, export_matrices=export,
                token_delim=token_delim if with_corpus else None)

        if command == "compare":
            return (written(compare, config("out"), StageError),
                    written(reference_compare, config("ref"), UndefinedModularityError))
        return (written(run, config("out"), StageError),
                written(reference_run, config("ref"), UndefinedModularityError))


@PROPERTY
@given(st.sampled_from(COMMANDS), corpora, edge_lists, lexicons,
       st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([6, 17]), st.booleans(), k_lists,
       st.sampled_from([None, "|"]))
# Empty and unmatched texts, a zero lexicon score, an endpoint ("z") with no
# text and a writer ("e") with no edge.
@example("weighted", [("a", ""), ("b", "meh cat"), ("c", "good dog"), ("e", "bad")],
         [("a", "b"), ("b", "c"), ("c", "z")], {"good": 1.0, "meh": 0.0}, 0.5, 6, True, [2],
         None)
@example("compare", [("a", "!"), ("b", "cat"), ("c", "bad bad good")],
         [("a", "c"), ("b", "c"), ("z", "b")], {"good": 0.25, "bad": -1.0}, 0.0, 6, True, [1, 3],
         None)
@example("weighted", [("a", "dog"), ("b", "fish dog"), ("d", "good")],
         [("a", "b"), ("d", "z")], {"dog": -0.5}, 1.0, 17, True, [1], None)
# Identical texts: every term is in every document, so every similarity is 0.
@example("weighted", [("a", "good cat"), ("b", "good cat"), ("c", "good cat")],
         [("a", "b"), ("b", "c")], {"good": 1.0}, 0.5, 6, True, [1], None)
@example("weighted", [("a", "cat dog"), ("b", "cat dog"), ("c", "cat dog")],
         [("a", "b"), ("b", "c")], {}, 1.0, 6, True, [1], None)
# Two triangles joined by one edge: ties in strength, and k > 1 rotates.
@example("structural-edges", [("a", "")],
         [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("d", "f")],
         {}, 0.5, 6, False, [1, 2, 3], None)
# A k sweep out of order: detection runs the largest k first, and every
# output keeps the order given.
@example("compare", [("a", "good cat"), ("b", "cat dog"), ("c", "bad dog"), ("d", "good fish")],
         [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")], {"good": 1.0, "bad": -0.5},
         0.5, 6, True, (3, 1, 2), None)
# Users sharing three or more weighted terms, where the order of the dot
# product's sum shows at 17 decimals.
@example("compare", [("a", "good bad cat dog fish fish"), ("b", "good good bad cat dog fish"),
                     ("c", "bad cat dog dog meh"), ("d", "good cat meh"), ("e", "fish")],
         [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")],
         {"good": 1.0, "bad": -0.5, "dog": 0.25}, 0.5, 17, True, [1, 2], None)
# Pre-segmented text: "good dog" is one token and "|" splits, so "Cat" and
# "cat!" differ while "good" matches the lexicon.
@example("compare", [("a", "good dog|Cat|fish"), ("b", "good|cat!||fish"), ("c", "Good dog|cat"),
                     ("d", "good")],
         [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")], {"good": 1.0, "good dog": -0.5},
         0.5, 17, True, [1, 2], "|")
# Mixed scripts under the Unicode rule: combining marks, CJK, Greek final
# sigma, "İ" (lowercased with a combining dot), digits such as "²" and "½",
# an astral letter, and separators U+00A0, U+3000 and U+2028.
@example("weighted", [("a", "Cafe\u0301 你好\u3000ΣΟΦΟΣ x²"), ("b", "café_你好 σοφος\u00a0½"),
                      ("c", "İstanbul\u2028\U0001d400 x²"), ("d", "i\u0307stanbul ΣΟΦΟΣ!")],
         [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")],
         {"cafe\u0301": 1.0, "i\u0307stanbul": -0.5, "你好": 0.25}, 0.5, 17, True, [1, 2], None)
def test_run_exports_match_the_dict_reference(command, docs, edges, lexicon, alpha, precision,
                                              export, k_values, token_delim):
    (failed, got), (ref_failed, want) = run_both(command, docs, edges, lexicon, alpha,
                                                 precision, export, k_values, token_delim)
    assert failed == ref_failed
    assert_same_tree(got, want)
