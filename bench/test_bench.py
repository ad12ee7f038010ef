"""Tests of the benchmark itself: generators, spans and tiny smoke runs.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

import inputs
import run
from comtext.corpus import load_corpus, tokenize
from comtext.detect import load_partition
from comtext.graph import WeightedGraph

TINY = {
    "rich-text-compare": replace(
        run.WORKLOADS["rich-text-compare"],
        generate=partial(inputs.rich_text, groups=3, users_per_group=8, tokens_per_user=40,
                         vocabulary=300, topic_words=40),
        k="2,3", groups=3),
    "graph-reload-ksweep": replace(
        run.WORKLOADS["graph-reload-ksweep"],
        generate=partial(inputs.block_graph, nodes=120, blocks=4, mean_degree=6, isolated=3),
        k="2,4,8", groups=4),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generators_are_deterministic(tmp_path, name):
    generate = TINY[name].generate
    for target, seed in (("a", 5), ("b", 5), ("c", 6)):
        generate(tmp_path / target, seed)
    assert run.tree_digest(tmp_path / "a") == run.tree_digest(tmp_path / "b")
    assert run.tree_digest(tmp_path / "a")[0] != run.tree_digest(tmp_path / "c")[0]


def test_rich_text_tokens_survive_the_tokenizer(tmp_path):
    inputs.rich_text(tmp_path, 3, groups=3, users_per_group=8, tokens_per_user=40,
                     vocabulary=300, topic_words=40)
    corpus = load_corpus(tmp_path / "corpus.jsonl")
    assert len(corpus.users) == 24
    assert all(len(doc) == 40 for doc in corpus.docs_by_user.values())
    scripts = "".join(corpus.vocabulary)
    for low, high in ((0x3B1, 0x3C9), (0x430, 0x44F), (0x4E00, 0x9FFF), (0x300, 0x36F)):
        assert any(low <= ord(ch) <= high for ch in scripts)
    terms = [line.split("\t")[0] for line in
             (tmp_path / "lexicon.tsv").read_text(encoding="utf-8").splitlines()]
    assert terms and all(tokenize(term) == [term] for term in terms)
    truth, _ = load_partition(tmp_path / "ground_truth.txt")
    assert set(truth.assignment) == set(corpus.users)


def test_block_graph_loads_with_isolated_nodes(tmp_path):
    inputs.block_graph(tmp_path, 2, nodes=120, blocks=4, mean_degree=6, isolated=3)
    graph = WeightedGraph.read_csv(tmp_path / "graph.csv")
    assert graph.n == 120
    assert sum(not graph.neighbors(u) for u in graph.nodes) == 3
    truth, _ = load_partition(tmp_path / "ground_truth.txt")
    assert set(truth.assignment) == set(graph.nodes) and truth.m == 4


def test_self_times_subtract_covered_child_time():
    spans = [
        {"name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "b", "parent": 0, "start": 5.0, "end": 6.0},
        {"name": "c", "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert run.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_spans_nest(tmp_path, name):
    workload = TINY[name]
    workload.generate(tmp_path / "in", 1)
    args = [a.format(inputs=tmp_path / "in") for a in workload.args]
    spans_path = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(run.BENCH / "traced_cli.py"), str(spans_path), "r1",
                    *args, "--k", workload.k, "--out", str(tmp_path / "out")],
                   check=True, capture_output=True, env=run.child_env())
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = trace["spans"]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    assert all(span["run"] == "r1" for span in spans)
    for span, own in zip(spans, run.self_times(spans)):
        assert own >= 0.0
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    for i, parent in enumerate(spans):
        kids = [s["end"] - s["start"] for s in spans if s["parent"] == i]
        assert sum(kids) <= parent["end"] - parent["start"]


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run(tmp_path, name, trace):
    result, detail = run.run_workload(TINY[name], seed=1, seconds=0, trace=trace,
                                      work_root=tmp_path)
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] == (2 if trace else 1)
    definition = run.load_definition()
    wanted = definition["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert [len(c["output_sha256"]) for c in detail["instances"]] == [64]
    assert not list(tmp_path.iterdir())


def test_runs_cycle_through_instances(tmp_path):
    result, detail = run.run_workload(TINY["graph-reload-ksweep"], seed=2, seconds=1.0,
                                      trace=False, work_root=tmp_path)
    assert result["correct"] and result["attempted"] > run.INSTANCES
    assert [c["seed"] for c in detail["instances"]] == [6, 7, 8]
    assert len({c["output_sha256"] for c in detail["instances"]}) == run.INSTANCES


def test_inputs_that_change_between_generations_fail_the_run(tmp_path):
    calls = []

    def drifting(out_dir, seed):
        TINY["graph-reload-ksweep"].generate(out_dir, seed + len(calls))
        calls.append(seed)

    workload = replace(TINY["graph-reload-ksweep"], generate=drifting)
    result, detail = run.run_workload(workload, seed=1, seconds=0, trace=False,
                                      work_root=tmp_path)
    assert not result["correct"]
    assert detail["problems"] == ["seed 3 generated different inputs"]


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rich-text-compare",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
