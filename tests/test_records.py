"""The record types' contract: construction, equality, hashing, immutability
and the checks each record runs on its fields."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from comtext.corpus import Document, EdgeList, build_corpus
from comtext.detect import Partition
from comtext.errors import ParameterError
from comtext.fixtures import GeneratedFixture, SyntheticSpec
from comtext.graph import WeightedGraph
from comtext.metrics import CommunityStats, QualityReport
from comtext.pipeline import CompareResult, RunConfig, RunResult
from comtext.sentiment import SentimentLexicon

# WeightedGraph compares by identity, so the results share one graph.
GRAPH = WeightedGraph.from_edges(("a", "b"), [("a", "b", 1.0)])
STATS = (CommunityStats(0, 1, 0.0, 1.0), CommunityStats(1, 1, 0.0, 1.0))


def _result() -> RunResult:
    return RunResult(GRAPH, {2: Partition.from_assignment({"a": 0, "b": 1}, 2, 2)},
                     {2: QualityReport(-0.5, 1.0, STATS)}, [(2, -0.5)], Path("out"))


# Record type -> (a builder of equal, distinct instances; one of its fields).
RECORDS = {
    "Document": (lambda: Document("u1", "some text"), "text"),
    "Corpus": (lambda: build_corpus([Document("u1", "a b"), Document("u2", "b")]), "users"),
    "EdgeList": (lambda: EdgeList.from_pairs([("b", "a"), ("a", "a")]), "edges"),
    "Partition": (lambda: Partition.from_assignment({"a": 0, "b": 1}, 2, 2), "m"),
    "SentimentLexicon": (lambda: SentimentLexicon({"good": 1.0}), "scores"),
    "CommunityStats": (lambda: CommunityStats(0, 2, 1.0, 2.0), "size"),
    "QualityReport": (lambda: QualityReport(-0.5, 1.0, STATS), "modularity"),
    "SyntheticSpec": (lambda: SyntheticSpec(groups=3, rng_seed=5), "groups"),
    "GeneratedFixture": (lambda: GeneratedFixture(Path("c"), Path("e"), Path("l"), Path("t"),
                                                  Partition.from_assignment({"a": 0}, 1, 1)), "truth_path"),
    "RunConfig": (lambda: RunConfig(edges=Path("edges.csv"), k_values=(2, 3)), "alpha"),
    "RunResult": (_result, "out_dir"),
    "CompareResult": (lambda: CompareResult(_result(), _result(), [(2, -0.5, -0.5)]), "rows"),
}
HASHABLE = ("Document", "EdgeList", "CommunityStats", "QualityReport", "SyntheticSpec",
            "RunConfig")


@pytest.mark.parametrize("name", RECORDS)
def test_equal_by_field_values(name):
    make, _ = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert not first != second


def test_unequal_when_a_field_differs_or_the_type_does():
    assert Document("u1", "x") != Document("u1", "y")
    assert RunConfig(edges=Path("e")) != RunConfig(edges=Path("e"), alpha=0.25)
    assert Document("u1", "x") != ("u1", "x")
    assert CommunityStats(0, 2, 1.0, 2.0) != QualityReport(0, 2, 1.0)


@pytest.mark.parametrize("name", RECORDS)
def test_frozen_record_refuses_assignment(name):
    make, field = RECORDS[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_frozen_records_hash_by_field_values(name):
    make, _ = RECORDS[name]
    if name in HASHABLE:
        assert hash(make()) == hash(make())
    else:  # a dict field, or a record holding one
        with pytest.raises(TypeError):
            hash(make())


def test_repr_names_each_field():
    assert repr(Document("u1", "hi")) == "Document(user_id='u1', text='hi')"
    assert repr(CommunityStats(0, 2, 1.0, 2.0)) == (
        "CommunityStats(index=0, size=2, intra_weight=1.0, degree_sum=2.0)")


def test_positional_and_keyword_construction_with_defaults():
    positional = RunConfig(Path("e"), Path("out"), None, None, (2,), 0.5, "weighted", 6,
                           None, None, True)
    assert RunConfig(edges=Path("e")) == positional
    assert RunConfig(Path("e"), k_values=(2,)) == positional
    assert EdgeList((("a", "b"),)).self_loops_dropped == 0


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # a required field missing
    (("u1",), {}),
    (("u1", "x", "extra"), {}),
    (("u1", "x"), {"user": "u2"}),
    (("u1",), {"user_id": "u2", "text": "x"}),
])
def test_bad_construction_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Document(*args, **kwargs)


def test_construction_runs_the_check():
    with pytest.raises(ParameterError, match="alpha"):
        RunConfig(edges=Path("e"), alpha=2.0)
    with pytest.raises(ValueError, match="contiguous"):
        Partition.from_assignment({"a": 1}, 1, 1)
    with pytest.raises(ValueError, match="out of"):
        SentimentLexicon({"good": 2.0})


class TestReplace:
    def test_changes_the_named_fields_only(self):
        config = RunConfig(edges=Path("e"), k_values=(2, 3))
        changed = config.replace(mode="structural", out_dir=Path("s"))
        assert changed == RunConfig(edges=Path("e"), k_values=(2, 3), mode="structural",
                                    out_dir=Path("s"))
        assert config.mode == "weighted"

    def test_run_config_check_runs_again(self):
        config = RunConfig(edges=Path("e"))
        with pytest.raises(ParameterError, match=r"alpha must be in \[0, 1\]"):
            config.replace(alpha=2.0)

    def test_synthetic_spec_check_runs_again(self):
        spec = SyntheticSpec()
        with pytest.raises(ParameterError, match="at least 2 groups"):
            spec.replace(groups=1)


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_round_trip(name):
    make, _ = RECORDS[name]
    record = make()
    assert copy.copy(record) == record
    if name not in ("RunResult", "CompareResult"):  # a graph compares by identity
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """``dataclasses`` loads ``inspect``, ``ast`` and ``dis`` and compiles each
    record's methods with ``exec``, which every CLI process would pay for.
    The core is pure stdlib: every other module the import loads is the
    standard library's."""
    probe = ("import sys; before = set(sys.modules); import comtext.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    loaded = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True).stdout.split()
    assert "comtext.cli" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    assert [name for name in loaded if name.partition(".")[0] not in
            {"comtext", *sys.stdlib_module_names}] == []
