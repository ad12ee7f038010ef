import gc
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from helpers import RECOVERY_SPEC, id_edges, node_strength, traced
from test_golden import tree_digest

from comtext import cli, pipeline
from comtext.corpus import load_corpus, load_edges, write_lines
from comtext.detect import detect
from comtext.errors import ParameterError
from comtext.fixtures import SyntheticSpec, generate, write_karate
from comtext.graph import WeightedGraph
from comtext.pipeline import RunConfig, StageError, compare, run, score
from comtext.similarity import PackedVector, SymmetricMatrix


@pytest.fixture
def inputs(tmp_path):
    """Four users, two planted pairs: {u1,u2} positive, {u3,u4} negative."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "\n".join(
            [
                '{"user_id": "u1", "text": "alpha beta great great"}',
                '{"user_id": "u2", "text": "alpha beta great"}',
                '{"user_id": "u3", "text": "gamma delta awful awful"}',
                '{"user_id": "u4", "text": "gamma delta awful"}',
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    edges = tmp_path / "edges.csv"
    edges.write_text("u1,u2\nu3,u4\nu2,u3\n", encoding="utf-8")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("great\t1.0\nawful\t-1.0\n", encoding="utf-8")
    return {"corpus": corpus, "edges": edges, "lexicon": lexicon, "tmp": tmp_path}


def config_for(inputs, out_name="out", **overrides) -> RunConfig:
    values = dict(
        edges=inputs["edges"],
        out_dir=inputs["tmp"] / out_name,
        corpus=inputs["corpus"],
        lexicon=inputs["lexicon"],
        k_values=(2,),
    )
    values.update(overrides)
    return RunConfig(**values)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRun:
    def test_artifacts_and_partition(self, inputs):
        result = run(config_for(inputs))
        out = result.out_dir
        for name in (
            "similarity_matrix.csv",
            "bias_matrix.csv",
            "graph.csv",
            "partition_k2.txt",
            "quality_k2.json",
            "summary.csv",
        ):
            assert (out / name).exists(), name
        assert result.partitions[2].communities() == [["u1", "u2"], ["u3", "u4"]]
        assert result.summary_rows[0][0] == 2

    def test_summary_matches_rescored_exports(self, inputs):
        result = run(config_for(inputs))
        report = score(result.out_dir / "graph.csv", result.out_dir / "partition_k2.txt")
        assert abs(report.modularity - result.summary_rows[0][1]) <= 1e-9
        rows = (result.out_dir / "summary.csv").read_text().strip().splitlines()[1:]
        for (k, q), row in zip(result.summary_rows, rows):
            assert row == f"{k},{q!r}"
            assert float(row.split(",")[1]) == q

    def test_deterministic_output_tree(self, inputs):
        first = run(config_for(inputs, "one"))
        second = run(config_for(inputs, "two"))
        assert tree_bytes(first.out_dir) == tree_bytes(second.out_dir)

    def test_structural_mode_unit_weights(self, inputs):
        result = run(config_for(inputs, mode="structural"))
        assert all(w == 1.0 for _, _, w in id_edges(result.graph))
        # attribute matrices still exported for inspection
        assert (result.out_dir / "similarity_matrix.csv").exists()
        assert (result.out_dir / "bias_matrix.csv").exists()

    def test_structural_mode_without_corpus(self, inputs):
        config = config_for(inputs, mode="structural", corpus=None, lexicon=None)
        result = run(config)
        assert result.graph.n == 4
        assert not (result.out_dir / "similarity_matrix.csv").exists()

    def test_edge_only_users_get_empty_documents(self, inputs):
        extra = inputs["tmp"] / "edges_extra.csv"
        extra.write_text("u1,u2\nu3,u4\nu2,u3\nu4,u9\n", encoding="utf-8")
        result = run(config_for(inputs, edges=extra))
        assert "u9" in result.graph.nodes
        assert node_strength(result.graph, "u9") >= 0.0

    def test_structural_reload_shares_the_read_rows(self, inputs, monkeypatch):
        first = run(config_for(inputs, "one"))
        read = []
        read_csv = WeightedGraph.read_csv.__func__

        def keep(cls, *args, **kwargs):
            read.append(read_csv(cls, *args, **kwargs))
            return read[-1]

        monkeypatch.setattr(WeightedGraph, "read_csv", classmethod(keep))
        result = run(config_for(inputs, "reload", graph_path=first.out_dir / "graph.csv",
                                edges=None, corpus=None, lexicon=None, mode="structural"))
        [loaded] = read
        for name in ("nodes", "offsets", "targets"):
            assert getattr(result.graph, name) is getattr(loaded, name), name
        assert set(result.graph.weights) == {1.0}

    def test_graph_reload_skips_text_stages(self, inputs):
        first = run(config_for(inputs, "one"))
        config = config_for(inputs, "reload", graph_path=first.out_dir / "graph.csv",
                            edges=None, corpus=None, lexicon=None)
        second = run(config)
        assert id_edges(second.graph) == id_edges(first.graph)
        assert second.partitions[2].assignment == first.partitions[2].assignment
        assert not (second.out_dir / "similarity_matrix.csv").exists()

    @pytest.mark.parametrize("command", [run, compare], ids=["run", "compare"])
    def test_graph_reload_sweep_shares_the_node_tuple(self, inputs, command):
        """Every kept partition holds its graph's own nodes tuple, not a copy
        and not an id dict."""
        first = run(config_for(inputs, "one"))
        result = command(config_for(inputs, "reload", graph_path=first.out_dir / "graph.csv",
                                    edges=None, corpus=None, lexicon=None, k_values=(3, 1, 2)))
        sides = [result] if command is run else [result.weighted, result.structural]
        for side in sides:
            assert list(side.partitions) == [3, 1, 2]
            assert all(p.nodes is side.graph.nodes for p in side.partitions.values())

    def test_no_matrices_flag(self, inputs):
        result = run(config_for(inputs, export_matrices=False))
        assert not (result.out_dir / "similarity_matrix.csv").exists()
        assert (result.out_dir / "graph.csv").exists()

    def test_quality_json_matches_summary(self, inputs):
        result = run(config_for(inputs))
        data = json.loads((result.out_dir / "quality_k2.json").read_text())
        assert data["modularity"] == result.summary_rows[0][1]


class TestStageErrors:
    def test_weighted_requires_corpus(self, inputs):
        config = config_for(inputs, corpus=None)
        with pytest.raises(StageError) as excinfo:
            run(config)
        assert excinfo.value.stage == "corpus"

    def test_weighted_requires_lexicon(self, inputs):
        config = config_for(inputs, lexicon=None)
        with pytest.raises(StageError) as excinfo:
            run(config)
        assert excinfo.value.stage == "sentiment"
        assert "sentiment" in str(excinfo.value)

    def test_bad_edges_file(self, inputs):
        bad = inputs["tmp"] / "bad.csv"
        bad.write_text("a;b\n", encoding="utf-8")
        with pytest.raises(StageError) as excinfo:
            run(config_for(inputs, edges=bad))
        assert excinfo.value.stage == "edges"

    def test_malformed_corpus(self, inputs):
        bad = inputs["tmp"] / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        with pytest.raises(StageError) as excinfo:
            run(config_for(inputs, corpus=bad))
        assert excinfo.value.stage == "corpus"

    def test_k_too_large(self, inputs):
        with pytest.raises(StageError) as excinfo:
            run(config_for(inputs, k_values=(99,)))
        assert excinfo.value.stage == "detect"

    def test_config_validation(self, inputs):
        with pytest.raises(ParameterError):
            config_for(inputs, mode="sideways")
        with pytest.raises(ParameterError):
            config_for(inputs, k_values=())
        with pytest.raises(ParameterError):
            config_for(inputs, k_values=(True,))
        with pytest.raises(ParameterError, match="k value 2 is repeated"):
            config_for(inputs, k_values=(2, 3, 2))
        with pytest.raises(ParameterError):
            config_for(inputs, alpha=2.0)
        for precision in (0, True, 2.5, "6"):
            with pytest.raises(ParameterError, match="precision must be at least 1"):
                config_for(inputs, precision=precision)
        with pytest.raises(ParameterError):
            RunConfig()
        with pytest.raises(ParameterError, match="non-empty"):
            config_for(inputs, token_delim="")
        with pytest.raises(ParameterError, match="needs a corpus file"):
            config_for(inputs, corpus=None, token_delim="|")


class TestCompare:
    def test_rows_and_files(self, inputs):
        result = compare(config_for(inputs, "cmp", k_values=(2,)))
        assert len(result.rows) == 1
        k, qw, qs = result.rows[0]
        assert k == 2
        out = inputs["tmp"] / "cmp"
        assert (out / "compare.csv").exists()
        assert (out / "weighted" / "summary.csv").exists()
        assert (out / "structural" / "summary.csv").exists()

    @pytest.mark.parametrize("extra", [[], ["--no-matrices"], ["--graph"]],
                             ids=["matrices", "no-matrices", "graph"])
    def test_matrices_written_once_at_the_root(self, inputs, extra):
        """The matrix files sit beside compare.csv, and neither mode
        directory holds one; a tree without matrices has none anywhere."""
        if extra == ["--graph"]:
            run(config_for(inputs, "one"))
            args = ["--graph", str(inputs["tmp"] / "one" / "graph.csv")]
        else:
            args = ["--edges", str(inputs["edges"]), "--corpus", str(inputs["corpus"]),
                    "--lexicon", str(inputs["lexicon"]), *extra]
        out = inputs["tmp"] / "cmp"
        assert cli.main(["compare", *args, "--k", "2", "--out", str(out)]) == 0
        matrices = ["bias_matrix.csv", "similarity_matrix.csv"] if not extra else []
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*matrix*")) == matrices
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["compare.csv", "structural", "weighted", *matrices])

    def test_karate_weighted_rejected_without_corpus(self, tmp_path):
        edge_path, _ = write_karate(tmp_path)
        config = RunConfig(edges=edge_path, out_dir=tmp_path / "out")
        with pytest.raises(StageError) as excinfo:
            run(config)
        assert excinfo.value.stage == "corpus"
        structural = RunConfig(
            edges=edge_path, out_dir=tmp_path / "out", mode="structural"
        )
        assert run(structural).graph.n == 34

    def test_structural_reload_uses_unit_weights(self, tmp_path):
        fixture = generate(RECOVERY_SPEC, tmp_path / "inputs")
        first = run(RunConfig(edges=fixture.edges_path, corpus=fixture.corpus_path,
                              lexicon=fixture.lexicon_path, out_dir=tmp_path / "run"))
        graph_csv = tmp_path / "run" / "graph.csv"
        result = compare(RunConfig(graph_path=graph_csv, out_dir=tmp_path / "cmp",
                                   k_values=(2, 4)))
        lines = (tmp_path / "cmp" / "structural" / "graph.csv").read_text().splitlines()
        edge_lines = [line for line in lines if not line.endswith(",,")]
        assert edge_lines and all(line.endswith(",1.000000") for line in edge_lines)
        rows = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[1] != row.split(",")[2] for row in rows)
        structural = result.structural.graph
        assert structural.nodes == first.graph.nodes
        assert [e[:2] for e in id_edges(structural)] == [e[:2] for e in id_edges(first.graph)]
        assert id_edges(result.weighted.graph) == id_edges(first.graph)
        for name in ("nodes", "offsets", "targets"):
            assert getattr(structural, name) is getattr(result.weighted.graph, name), name

    def test_structural_side_shares_the_weighted_rows(self, inputs):
        """The structural side is a unit view of the weighted graph: the same
        node, offset and target arrays, its own weights of 1."""
        result = compare(config_for(inputs, "cmp"))
        weighted, structural = result.weighted.graph, result.structural.graph
        for name in ("nodes", "offsets", "targets"):
            assert getattr(structural, name) is getattr(weighted, name), name
        assert set(structural.weights) == {1.0}

    def test_deterministic(self, inputs):
        first = compare(config_for(inputs, "cmp1"))
        second = compare(config_for(inputs, "cmp2"))
        assert tree_bytes(inputs["tmp"] / "cmp1") == tree_bytes(inputs["tmp"] / "cmp2")
        assert first.rows == second.rows


class TestTermNumbering:
    @pytest.mark.parametrize("command", [run, compare], ids=["run", "compare"])
    def test_corpus_line_order_never_reaches_an_output(self, tmp_path, command):
        """Terms are numbered by first appearance, so reversing a corpus that
        holds one line per user renumbers them; at 17 places any sum whose
        rounding hung on that numbering would show in the trees."""
        fx = generate(SyntheticSpec(3, 8, rng_seed=7), tmp_path / "inputs")
        lines = fx.corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
        reversed_path = tmp_path / "reversed.jsonl"
        reversed_path.write_text("".join(reversed(lines)), encoding="utf-8")
        assert load_corpus(reversed_path).vocabulary != load_corpus(fx.corpus_path).vocabulary
        trees = []
        for name, corpus in (("given", fx.corpus_path), ("reversed", reversed_path)):
            command(RunConfig(edges=fx.edges_path, corpus=corpus, lexicon=fx.lexicon_path,
                              out_dir=tmp_path / name, k_values=(2, 3), precision=17))
            trees.append(tree_bytes(tmp_path / name))
        assert trees[0] == trees[1]


class TestCallCounts:
    """Each input is loaded and scored once, and one graph is built from it."""

    @pytest.fixture
    def calls(self, monkeypatch) -> Counter:
        counts: Counter = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("load_corpus", "similarity_matrix", "bias_matrix"):
            monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
        monkeypatch.setattr(WeightedGraph, "__init__", counted("graph", WeightedGraph.__init__))
        return counts

    def test_compare_computes_features_once(self, inputs, calls):
        compare(config_for(inputs, "cmp"))
        assert calls == {"load_corpus": 1, "similarity_matrix": 1, "bias_matrix": 1, "graph": 1}

    def test_graph_reload_builds_one_graph(self, inputs, calls):
        first = run(config_for(inputs, "one"))
        calls.clear()
        run(config_for(inputs, "reload", graph_path=first.out_dir / "graph.csv",
                       edges=None, corpus=None, lexicon=None))
        assert calls == {"graph": 1}

    @pytest.fixture
    def scored(self, monkeypatch) -> Counter:
        """Similarity and bias values scored, counted through the score functions."""
        counts: Counter = Counter()

        def counting(name, make_score):
            def make(*args, **kwargs):
                score = make_score(*args, **kwargs)

                def counted(u, v):
                    counts[name] += 1
                    return score(u, v)
                return counted
            return make

        for name in ("similarity", "bias"):
            attr = f"{name}_score"
            monkeypatch.setattr(pipeline, attr, counting(name, getattr(pipeline, attr)))
        return counts

    def test_run_without_export_scores_each_edge_once(self, inputs, calls, scored):
        run(config_for(inputs, export_matrices=False))
        edges = len(load_edges(inputs["edges"]).edges)
        assert edges < 6  # fewer than the four users' pairs, so all-pairs scoring would show
        assert scored == {"similarity": edges, "bias": edges}
        assert calls == {"load_corpus": 1, "graph": 1}

    def test_structural_run_scores_no_pair(self, inputs, calls, scored):
        run(config_for(inputs, mode="structural", export_matrices=False))
        assert scored == {}
        assert calls == {"load_corpus": 1, "graph": 1}

    def test_compare_graph_reload_reads_once(self, inputs, calls, monkeypatch):
        first = run(config_for(inputs, "one"))
        read_csv = WeightedGraph.read_csv.__func__

        def counted_read_csv(cls, *args, **kwargs):
            calls["read_csv"] += 1
            return read_csv(cls, *args, **kwargs)

        monkeypatch.setattr(WeightedGraph, "read_csv", classmethod(counted_read_csv))
        calls.clear()
        compare(config_for(inputs, "cmp", graph_path=first.out_dir / "graph.csv",
                           edges=None, corpus=None, lexicon=None))
        assert calls == {"read_csv": 1, "graph": 1}

    def test_compare_formats_each_matrix_once(self, inputs, monkeypatch):
        """Each matrix file is written once, at the root of the tree."""
        written = []
        write_csv = SymmetricMatrix.write_csv

        def counted(matrix, path, *args, **kwargs):
            written.append(Path(path).relative_to(inputs["tmp"] / "cmp").as_posix())
            return write_csv(matrix, path, *args, **kwargs)

        monkeypatch.setattr(SymmetricMatrix, "write_csv", counted)
        compare(config_for(inputs, "cmp"))
        assert written == ["similarity_matrix.csv", "bias_matrix.csv"]
        for mode in ("weighted", "structural"):
            assert not list((inputs["tmp"] / "cmp" / mode).glob("*matrix*")), mode


class TestFrontHalfMemory:
    def test_peak_bytes_per_token(self, tmp_path):
        """The front half scores the polar vectors first, then packs each
        user's tf-idf vector and frees that user's 2-byte ranks as it goes:
        about 16.3 B/token here (matrices off).  4-byte ranks and vector
        terms peaked at about 19.9, and every token held as an 8-byte term
        reference, beside an idf dict and all the vectors, at about 34."""
        # Planted as ``generate`` plants, but with 400 private terms per group.
        groups, users, tokens = 6, 20, 300
        rng = random.Random(5)
        ids = [(f"g{g:02d}u{i:03d}", g) for g in range(groups) for i in range(users)]
        vocab = [[f"g{g}w{t}" for t in range(400)] for g in range(groups)]
        polarity = SyntheticSpec(groups).sentiment_per_group
        write_lines(tmp_path / "corpus.jsonl", (json.dumps({"user_id": u, "text": " ".join(
            rng.choice(vocab[g]) for _ in range(tokens))}) for u, g in ids))
        write_lines(tmp_path / "lexicon.tsv", sorted(
            f"{term}\t{polarity[g]:.4f}" for g in range(groups) for term in vocab[g]))
        write_lines(tmp_path / "edges.csv", (
            f"{u},{v}" for i, (u, g) in enumerate(ids) for v, h in ids[i + 1:]
            if rng.random() < (0.8 if g == h else 0.02)))
        config = RunConfig(edges=tmp_path / "edges.csv", corpus=tmp_path / "corpus.jsonl",
                           lexicon=tmp_path / "lexicon.tsv", out_dir=tmp_path / "out",
                           export_matrices=False)
        _, _, peak = traced(pipeline._front_half, config)
        assert peak / (groups * users * tokens) < 18

    def test_no_vector_alive_during_detect(self, inputs, monkeypatch):
        """The matrices are written and the vectors freed before detection."""
        alive = []

        def spy(*args, **kwargs):
            gc.collect()
            alive.append(sum(isinstance(o, PackedVector) for o in gc.get_objects()))
            return detect(*args, **kwargs)

        monkeypatch.setattr(pipeline, "detect", spy)
        compare(config_for(inputs, "cmp", k_values=(2, 3)))
        assert (inputs["tmp"] / "cmp" / "similarity_matrix.csv").exists()
        assert alive == [0, 0, 0, 0]


class TestSweepOrder:
    @pytest.mark.parametrize("command", [run, compare], ids=["run", "compare"])
    def test_largest_k_detected_first_outputs_in_given_order(self, inputs, monkeypatch, command):
        order = (2, 4, 1, 3)
        called = []

        def spy(graph, k):
            called.append(k)
            return detect(graph, k)

        monkeypatch.setattr(pipeline, "detect", spy)
        out = inputs["tmp"] / "sweep"
        result = command(config_for(inputs, "sweep", k_values=order))
        sides = [result] if command is run else [result.weighted, result.structural]
        assert called == [4, 3, 2, 1] * len(sides)
        for side in sides:
            assert [k for k, _ in side.summary_rows] == list(order)
            assert list(side.partitions) == list(side.reports) == list(order)
            for k, q in side.summary_rows:
                assert side.partitions[k] == detect(side.graph, k)
                assert side.reports[k].modularity == q
            lines = (side.out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
            assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in order]
        if command is compare:
            assert [k for k, _, _ in result.rows] == list(order)
            lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
            assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in order]


class TestCli:
    def _base_args(self, inputs, out_name):
        return [
            "--edges", str(inputs["edges"]),
            "--corpus", str(inputs["corpus"]),
            "--lexicon", str(inputs["lexicon"]),
            "--out", str(inputs["tmp"] / out_name),
        ]

    def test_run_command(self, inputs, capsys):
        code = cli.main(["run", *self._base_args(inputs, "cli_out"), "--k", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "modularity" in captured.out
        assert (inputs["tmp"] / "cli_out" / "partition_k2.txt").exists()

    def test_run_k_sweep(self, inputs):
        code = cli.main(["run", *self._base_args(inputs, "sweep"), "--k", "2,3"])
        assert code == 0
        assert (inputs["tmp"] / "sweep" / "partition_k3.txt").exists()

    def test_compare_command(self, inputs, capsys):
        code = cli.main(["compare", *self._base_args(inputs, "cli_cmp"), "--k", "2"])
        assert code == 0
        assert "modularity_weighted" in capsys.readouterr().out

    def test_stage_error_exit_code_and_message(self, inputs, capsys):
        args = [
            "run",
            "--edges", str(inputs["edges"]),
            "--corpus", str(inputs["corpus"]),
            "--out", str(inputs["tmp"] / "fail"),
        ]
        code = cli.main(args)
        assert code == 1
        assert "stage sentiment" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        *(pytest.param(["generate", flag, value], message, id=f"generate {flag} {value}")
          for flag, value, message in (
              ("--groups", "1", "need at least 2 groups with at least 1 node each"),
              ("--p-in", "1.5", "edge probabilities must be in [0, 1]"),
              ("--tokens-per-user", "0", "tokens_per_user must be positive"))),
        *(pytest.param([command, "--edges", "edges.csv", "--k", "2", *given],
                       f"stage {stage}: weighted mode requires a {missing} file (--{missing})",
                       id=f"{command} without --{missing}")
          for command in ("run", "compare")
          for given, missing, stage in ((["--lexicon", "lexicon.tsv"], "corpus", "corpus"),
                                        (["--corpus", "corpus.jsonl"], "lexicon", "sentiment"))),
    ])
    def test_rejected_input_writes_nothing(self, inputs, capsys, monkeypatch, argv, message):
        """A fixture spec that fails its checks and a weighted run missing a
        text input exit 1 with the check's message before any write."""
        monkeypatch.chdir(inputs["tmp"])
        assert cli.main([*argv, "--out", "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("out").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_graph_weight_rejected(self, tmp_path, capsys, weight):
        graph = tmp_path / "graph.csv"
        graph.write_text(f"a,b,1.0\nb,c,{weight}\n", encoding="utf-8")
        code = cli.main(["run", "--graph", str(graph), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "stage graph" in err and "line 2" in err

    @pytest.mark.parametrize("line, message", [("b,c,-0.5", "line 2: weight is negative"),
                                               ("c,c,0.5", "line 2: self-loop at 'c'"),
                                               ("b,c,1.0\nb,a,0.5",
                                                "line 3: duplicate edge ('a', 'b')")])
    def test_invalid_graph_edge_names_its_line(self, tmp_path, capsys, line, message):
        graph = tmp_path / "graph.csv"
        graph.write_text(f"a,b,1.0\n{line}\n", encoding="utf-8")
        code = cli.main(["run", "--graph", str(graph), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: stage graph: {graph}: {message}\n"

    @pytest.mark.parametrize("case", ["karate", "compare", "one-node-graph", "compare-graph"])
    def test_k_above_node_count_writes_nothing(self, tmp_path, capsys, case):
        """The k values are checked against the node count of the mode's
        graph before the first write, with the message detection gives."""
        if case == "karate":
            edges, _ = write_karate(tmp_path)
            args, n, k = ["run", "--mode", "structural", "--edges", str(edges)], 34, "2,50"
        elif case == "compare":
            fx = generate(SyntheticSpec(rng_seed=1), tmp_path)
            args = ["compare", "--edges", str(fx.edges_path), "--corpus", str(fx.corpus_path),
                    "--lexicon", str(fx.lexicon_path)]
            n, k = 20, "2,99"
        elif case == "one-node-graph":
            graph = tmp_path / "one.csv"
            graph.write_text("a,,\n", encoding="utf-8")
            args, n, k = ["run", "--graph", str(graph)], 1, "1,2"
        else:
            graph = tmp_path / "graph.csv"
            graph.write_text("a,b,0.5\nb,c,0.25\n", encoding="utf-8")
            args, n, k = ["compare", "--graph", str(graph)], 3, "2,4"
        out = tmp_path / "out"
        assert cli.main([*args, "--k", k, "--out", str(out)]) == 1
        got = k.split(",")[-1]
        assert capsys.readouterr().err == (
            f"error: stage detect: k must be an integer in 1..{n}, got {got}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "score"])
    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank"])
    def test_empty_graph_file_rejected(self, tmp_path, capsys, command, text):
        graph = tmp_path / "empty.csv"
        graph.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        if command == "run":
            args = ["run", "--graph", str(graph), "--k", "1", "--out", str(out)]
        else:
            partition = tmp_path / "partition.txt"
            partition.write_text("k_requested=1\nm=1\n0:a\n", encoding="utf-8")
            args = ["score", "--graph", str(graph), "--partition", str(partition)]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == f"error: stage graph: {graph}: empty graph file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["empty.csv"] + (["partition.txt"] if command == "score" else []))

    @pytest.mark.parametrize("term, delim", [("well-known", None), ("good|bad", "|")])
    def test_unmatchable_lexicon_term_names_its_line(self, inputs, capsys, term, delim):
        lexicon = inputs["tmp"] / "lexicon.tsv"
        lexicon.write_text(f"great\t1.0\n{term}\t0.5\n", encoding="utf-8")
        out = inputs["tmp"] / "out"
        extra = ["--token-delim", delim] if delim else []
        code = cli.main(["run", *self._base_args(inputs, "out"), "--k", "2", *extra])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: stage sentiment: {lexicon}: line 2: term {term!r} can never match a token")
        assert not out.exists()

    def test_failed_compare_leaves_no_output(self, inputs, capsys):
        out = inputs["tmp"] / "cmp_bad"
        code = cli.main(["compare", "--edges", str(inputs["edges"]),
                         "--corpus", str(inputs["corpus"]),
                         "--lexicon", str(inputs["tmp"] / "missing.tsv"), "--out", str(out)])
        assert code == 1
        assert "error: stage sentiment: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("second", ["1e308", "1e307"])
    def test_overflowing_graph_weights_rejected(self, tmp_path, capsys, second):
        graph = tmp_path / "graph.csv"
        graph.write_text(f"a,b,1e308\nb,c,{second}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main(["run", "--graph", str(graph), "--k", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage graph: ") and "overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--edges", "--corpus", "--lexicon"])
    def test_graph_reload_rejects_text_inputs(self, tmp_path, capsys, flag):
        graph = tmp_path / "graph.csv"
        graph.write_text("a,b,1.0\nb,c,1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main(["run", "--graph", str(graph), flag, str(tmp_path / "missing"),
                         "--k", "2", "--out", str(out)])
        assert code == 1
        assert "a graph reload takes no edges, corpus or lexicon file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["missing", "good\tmany\n"])
    def test_lexicon_checked_without_corpus(self, inputs, capsys, text):
        lexicon = inputs["tmp"] / "missing.tsv"
        if text != "missing":
            lexicon.write_text(text, encoding="utf-8")
        code = cli.main(["run", "--mode", "structural", "--edges", str(inputs["edges"]),
                         "--lexicon", str(lexicon), "--k", "2",
                         "--out", str(inputs["tmp"] / "out")])
        assert code == 1
        assert "error: stage sentiment: " in capsys.readouterr().err

    def test_token_delim_splits_segmented_text(self, tmp_path):
        # With "|" as delimiter "new york" is one term, so u1 and u2 share
        # none; the Unicode rule splits it, and they share "new" and "york".
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"user_id": u, "text": t}) + "\n"
            for u, t in [("u1", "new york|pizza"), ("u2", "new|york"), ("u3", "bagel")]),
            encoding="utf-8")
        edges = tmp_path / "edges.csv"
        edges.write_text("u1,u2\nu2,u3\n", encoding="utf-8")
        cells = {}
        for name, extra in (("rule", []), ("delim", ["--token-delim", "|"])):
            code = cli.main(["run", "--mode", "structural", "--corpus", str(corpus),
                             "--edges", str(edges), "--k", "1", "--out", str(tmp_path / name),
                             *extra])
            assert code == 0
            rows = (tmp_path / name / "similarity_matrix.csv").read_text().splitlines()
            cells[name] = rows[1].split(",")[2]  # s(u1, u2)
        assert float(cells["rule"]) > 0.0
        assert cells["delim"] == "0.000000"

    def test_token_delim_keeps_a_lexicon_term_whole(self, tmp_path):
        """Under a delimiter ``well-known`` is one token, so the lexicon
        term is read and matched."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"user_id": u, "text": t}) + "\n"
            for u, t in [("u1", "well-known|cat"), ("u2", "well-known|dog"), ("u3", "fish")]),
            encoding="utf-8")
        edges = tmp_path / "edges.csv"
        edges.write_text("u1,u2\nu2,u3\n", encoding="utf-8")
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("well-known\t0.5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--corpus", str(corpus), "--edges", str(edges),
                         "--lexicon", str(lexicon), "--token-delim", "|", "--k", "1",
                         "--out", str(out)]) == 0
        rows = (out / "bias_matrix.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == "1.000000"  # sv(u1, u2): both score 0.5

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_empty_token_delim_rejected(self, inputs, capsys, command):
        out = inputs["tmp"] / "out"
        if command == "run":  # structural, without a corpus
            args = ["--mode", "structural", "--edges", str(inputs["edges"]), "--out", str(out)]
        else:
            args = self._base_args(inputs, "out")
        code = cli.main([command, *args, "--k", "2", "--token-delim", ""])
        assert code == 1
        assert "the token delimiter must be a non-empty string" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["edges", "graph"])
    def test_token_delim_needs_a_corpus(self, inputs, capsys, source):
        if source == "graph":
            graph = inputs["tmp"] / "graph.csv"
            graph.write_text("a,b,1.0\n", encoding="utf-8")
            args = ["--graph", str(graph)]
        else:
            args = ["--mode", "structural", "--edges", str(inputs["edges"])]
        out = inputs["tmp"] / "out"
        code = cli.main(["run", *args, "--k", "1", "--token-delim", "|", "--out", str(out)])
        assert code == 1
        assert "a token delimiter splits corpus text: it needs a corpus file" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["weighted", "structural"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_compare_rejects_a_mode(self, inputs, capsys, mode, source):
        out = inputs["tmp"] / "cmp"
        if source == "flag":
            extra = ["--mode", mode]
        else:
            config_path = inputs["tmp"] / "config.json"
            config_path.write_text(json.dumps({"mode": mode}), encoding="utf-8")
            extra = ["--config", str(config_path)]
        code = cli.main(["compare", *self._base_args(inputs, "cmp"), "--k", "2", *extra])
        assert code == 1
        assert "compare runs both modes" in capsys.readouterr().err
        assert not out.exists()
        # run still takes the mode.
        code = cli.main(["run", *self._base_args(inputs, "run"), "--k", "2", *extra])
        assert code == 0

    @staticmethod
    def _zero_weight_inputs(root: Path) -> list[str]:
        """Identical texts give every term idf 0, so every similarity is 0;
        no lexicon match leaves every user neutral, so every bias is 0."""
        (root / "corpus.jsonl").write_text(
            "".join(f'{{"user_id": "{u}", "text": "same words"}}\n' for u in "abc"),
            encoding="utf-8")
        (root / "edges.csv").write_text("a,b\nb,c\n", encoding="utf-8")
        (root / "lexicon.tsv").write_text("great\t1.0\n", encoding="utf-8")
        return ["--corpus", str(root / "corpus.jsonl"), "--edges", str(root / "edges.csv"),
                "--lexicon", str(root / "lexicon.tsv")]

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("source", ["edges", "graph"])
    def test_zero_total_weight_fails_before_any_write(self, tmp_path, capsys, source, command):
        """The mode's graph is checked before the first write, matrices
        included, so a run whose fused weights are all 0 writes nothing."""
        if source == "edges":
            args = self._zero_weight_inputs(tmp_path)
        else:
            graph = tmp_path / "graph.csv"
            graph.write_text("a,b,0.000000\nb,c,0.000000\n", encoding="utf-8")
            args = ["--graph", str(graph)]
        out = tmp_path / "out"
        assert cli.main([command, *args, "--k", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: stage metrics: modularity is undefined for zero total weight\n")
        assert not out.exists()

    def test_structural_run_on_zero_weights_succeeds(self, tmp_path):
        """The check reads the mode's graph: unit weights on the same edges
        have a positive total, so a structural run still detects."""
        graph = tmp_path / "graph.csv"
        graph.write_text("a,b,0.000000\nb,c,0.000000\n", encoding="utf-8")
        for name, args in (("edges", self._zero_weight_inputs(tmp_path)),
                           ("reload", ["--graph", str(graph)])):
            out = tmp_path / name
            assert cli.main(["run", "--mode", "structural", *args, "--k", "2",
                             "--out", str(out)]) == 0
            assert (out / "graph.csv").read_text() == "a,b,1.000000\nb,c,1.000000\n"

    def test_score_rejects_node_in_two_communities(self, tmp_path, capsys):
        graph = tmp_path / "graph.csv"
        graph.write_text("a,b,1.0\nb,c,1.0\n", encoding="utf-8")
        partition = tmp_path / "partition.txt"
        partition.write_text("k_requested=2\nm=2\n0:a,b\n1:b,c\n", encoding="utf-8")
        code = cli.main(["score", "--graph", str(graph), "--partition", str(partition)])
        assert code == 1
        err = capsys.readouterr().err
        assert "stage detect" in err and "'b'" in err

    def test_score_names_uncovered_nodes(self, tmp_path, capsys):
        graph = tmp_path / "graph.csv"
        graph.write_text("a,b,1.0\nb,c,1.0\n", encoding="utf-8")
        partition = tmp_path / "partition.txt"
        partition.write_text("k_requested=1\nm=1\n0:a,b,zzz\n", encoding="utf-8")
        code = cli.main(["score", "--graph", str(graph), "--partition", str(partition)])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            f"error: stage metrics: {partition}: partition does not cover exactly the "
            "graph's nodes: missing 'c', extra 'zzz'")

    def test_repeated_k_rejected(self, inputs, capsys):
        code = cli.main(["run", *self._base_args(inputs, "flag"), "--k", "3,2,3"])
        assert code == 1
        assert "k value 3 is repeated" in capsys.readouterr().err
        config_path = inputs["tmp"] / "config.json"
        config_path.write_text(json.dumps({"k": [2, 2]}), encoding="utf-8")
        code = cli.main(["run", *self._base_args(inputs, "file"), "--config", str(config_path)])
        assert code == 1
        assert "k value 2 is repeated" in capsys.readouterr().err
        assert not (inputs["tmp"] / "flag").exists() and not (inputs["tmp"] / "file").exists()

    @pytest.mark.parametrize("k", ["4,,12", "2,", ",2", " "])
    def test_empty_k_field_rejected(self, inputs, capsys, k):
        code = cli.main(["run", *self._base_args(inputs, "flag"), "--k", k])
        assert code == 1
        assert f"empty k value in {k!r}" in capsys.readouterr().err
        assert not (inputs["tmp"] / "flag").exists()

    def test_missing_edges_rejected(self, inputs, capsys):
        code = cli.main(["run", "--out", str(inputs["tmp"] / "x")])
        assert code == 1
        assert "required" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, inputs, capsys):
        config_path = inputs["tmp"] / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "edges": str(inputs["edges"]),
                    "corpus": str(inputs["corpus"]),
                    "lexicon": str(inputs["lexicon"]),
                    "out": str(inputs["tmp"] / "from_config"),
                    "k": "2",
                }
            ),
            encoding="utf-8",
        )
        code = cli.main(["run", "--config", str(config_path), "--k", "3"])
        assert code == 0
        out = inputs["tmp"] / "from_config"
        assert (out / "partition_k3.txt").exists()  # flag wins
        assert not (out / "partition_k2.txt").exists()

    def test_config_file_with_byte_order_mark(self, inputs, capsys):
        config_path = inputs["tmp"] / "config.json"
        config_path.write_text("\ufeff" + json.dumps({"k": [2]}), encoding="utf-8")
        code = cli.main(["run", *self._base_args(inputs, "bom"), "--config", str(config_path)])
        assert code == 0
        assert (inputs["tmp"] / "bom" / "partition_k2.txt").exists()

    def test_config_file_unknown_key(self, inputs, capsys):
        config_path = inputs["tmp"] / "config.json"
        # "pretokenized" is no key: a token_delim alone marks the text as segmented.
        for text in ('{"bogus": 1}', '{"pretokenized": true}'):
            config_path.write_text(text, encoding="utf-8")
            code = cli.main(["run", "--config", str(config_path)])
            assert code == 1
            assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", '[{"k": 2}]', '"k"', "null"])
    def test_config_file_not_an_object(self, inputs, capsys, text):
        config_path = inputs["tmp"] / "config.json"
        config_path.write_text(text, encoding="utf-8")
        code = cli.main(["run", *self._base_args(inputs, "listed"), "--config", str(config_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: config file {config_path}: expected a JSON object\n")
        assert not (inputs["tmp"] / "listed").exists()

    @pytest.mark.parametrize("values", [
        {"no_matrices": "false"},
        {"token_delim": 1},
        {"k": True},
        {"k": [2, True]},
        {"k": 2.0},
        {"k": "2,x"},
        {"k": "4,,12"},
        {"precision": 2.9},
        {"precision": True},
        {"alpha": True},
        {"alpha": [0.5]},
        {"mode": None},
        {"graph": 0},
    ], ids=json.dumps)
    def test_config_file_wrong_type_names_key(self, inputs, capsys, values):
        config_path = inputs["tmp"] / "config.json"
        config_path.write_text(json.dumps(values), encoding="utf-8")
        code = cli.main(["run", *self._base_args(inputs, "typed"), "--config", str(config_path)])
        assert code == 1
        key, = values
        assert f"config file {config_path}: key {key!r}" in capsys.readouterr().err
        assert not (inputs["tmp"] / "typed").exists()

    @pytest.mark.parametrize("key, message", [
        ("alpha", "expected a number, got True"),
        ("precision", "expected an integer, got True"),
    ])
    def test_config_file_boolean_is_not_a_number(self, inputs, capsys, key, message):
        config_path = inputs["tmp"] / "config.json"
        config_path.write_text(json.dumps({key: True}), encoding="utf-8")
        code = cli.main(["run", *self._base_args(inputs, "typed"), "--config", str(config_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: config file {config_path}: key {key!r}: {message}\n")

    def test_config_file_strings_read_as_flag_text(self, inputs):
        config_path = inputs["tmp"] / "config.json"
        config_path.write_text(json.dumps({"k": "2,3", "precision": "3", "alpha": "0.25",
                                           "no_matrices": True}), encoding="utf-8")
        code = cli.main(["run", *self._base_args(inputs, "typed"), "--config", str(config_path)])
        assert code == 0
        out = inputs["tmp"] / "typed"
        assert sorted(p.name for p in out.glob("partition_k*.txt")) == [
            "partition_k2.txt", "partition_k3.txt"]
        assert not (out / "similarity_matrix.csv").exists()
        weights = [line.rsplit(",", 1)[1] for line in (out / "graph.csv").read_text().split()]
        assert all(len(w.split(".")[1]) == 3 for w in weights)

    def test_generate_and_score_round_trip(self, tmp_path, capsys):
        fix_dir = tmp_path / "fixture"
        code = cli.main(
            ["generate", "--out", str(fix_dir), "--seed", "3", "--nodes-per-group", "5"]
        )
        assert code == 0
        run_dir = tmp_path / "run"
        code = cli.main(
            [
                "run",
                "--edges", str(fix_dir / "edges.csv"),
                "--corpus", str(fix_dir / "corpus.jsonl"),
                "--lexicon", str(fix_dir / "lexicon.tsv"),
                "--out", str(run_dir),
                "--k", "2",
            ]
        )
        assert code == 0
        code = cli.main(
            [
                "score",
                "--graph", str(run_dir / "graph.csv"),
                "--partition", str(run_dir / "partition_k2.txt"),
                "--out", str(tmp_path / "rescored.json"),
            ]
        )
        assert code == 0
        assert (tmp_path / "rescored.json").exists()
        assert "modularity" in capsys.readouterr().out

    def test_generate_karate(self, tmp_path):
        code = cli.main(["generate", "--out", str(tmp_path), "--karate"])
        assert code == 0
        assert (tmp_path / "karate_edges.csv").exists()
        assert (tmp_path / "karate_factions.txt").exists()


_TEXT_FLAGS = {"edges": "edges.csv", "corpus": "corpus.jsonl", "lexicon": "lexicon.tsv",
               "out": "out"}


def _flags(values: dict) -> list[str]:
    return [arg for key, value in values.items() for arg in (f"--{key}", value)]


def _path_cases():
    """(config-file object or None, argv, name the error gives) for every
    path a command takes, given as ""."""
    for command in ("run", "compare"):
        for key in _TEXT_FLAGS:
            others = {k: v for k, v in _TEXT_FLAGS.items() if k != key}
            yield pytest.param(None, [command, "--k", "2", *_flags({**_TEXT_FLAGS, key: ""})],
                               f"--{key}", id=f"{command} --{key}")
            yield pytest.param({key: ""}, [command, "--k", "2", *_flags(others)],
                               f"key {key!r}", id=f"{command} key {key}")
        yield pytest.param(None, [command, "--graph", "", "--k", "2", "--out", "out"],
                           "--graph", id=f"{command} --graph")
        yield pytest.param({"graph": ""}, [command, "--k", "2", "--out", "out"],
                           "key 'graph'", id=f"{command} key graph")
        yield pytest.param(None, [command, "--k", "2", *_flags(_TEXT_FLAGS), "--config", ""],
                           "--config", id=f"{command} --config")
    yield pytest.param(None, ["generate", "--out", ""], "--out", id="generate --out")
    score = {"graph": "graph.csv", "partition": "partition.txt", "out": "report.json"}
    for key in score:
        yield pytest.param(None, ["score", *_flags({**score, key: ""})], f"--{key}",
                           id=f"score --{key}")


class TestPathRule:
    @pytest.mark.parametrize("config, argv, name", _path_cases())
    def test_empty_path_rejected_before_any_read_or_write(self, inputs, capsys, monkeypatch,
                                                          config, argv, name):
        monkeypatch.chdir(inputs["tmp"])
        # Valid files to score, so that only the empty path can fail.
        Path("graph.csv").write_text("u1,u2,1.0\nu3,u4,1.0\nu2,u3,1.0\n", encoding="utf-8")
        Path("partition.txt").write_text("k_requested=2\nm=2\n0:u1,u2\n1:u3,u4\n",
                                         encoding="utf-8")
        if config is not None:
            Path("config.json").write_text(json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", "config.json"]
        listing = sorted(Path(".").rglob("*"))
        assert cli.main(argv) == 1
        where = name if config is None else f"config file config.json: {name}"
        assert capsys.readouterr().err == f"error: {where}: empty path\n"
        assert sorted(Path(".").rglob("*")) == listing


_FLOAT_X = "could not convert string to float: 'x'"
_INT_X = "invalid literal for int() with base 10: 'x'"


def _value_cases():
    """(argv, flag, value, converter message) for a value each converter rejects."""
    for command in ("run", "compare"):
        yield pytest.param([command, "--k", "2", *_flags(_TEXT_FLAGS)], "alpha", "x", _FLOAT_X,
                           id=f"{command} --alpha")
        yield pytest.param([command, "--k", "2", *_flags(_TEXT_FLAGS)], "precision", "1.5",
                           "invalid literal for int() with base 10: '1.5'",
                           id=f"{command} --precision")
    for flag in ("groups", "p-in", "seed"):
        yield pytest.param(["generate", "--out", "fixture"], flag, "x",
                           _FLOAT_X if flag == "p-in" else _INT_X, id=f"generate --{flag}")
    yield pytest.param(["generate", "--karate", "--out", "fixture"], "groups", "x", _INT_X,
                       id="generate --karate --groups")


class TestValueFlags:
    """A flag's value is checked by its converter alone, the one its
    config-file key uses: a bad value exits 1 naming the flag."""

    @pytest.mark.parametrize("argv, key, value, message", _value_cases())
    def test_bad_value_names_its_flag(self, inputs, capsys, monkeypatch, argv, key, value,
                                      message):
        monkeypatch.chdir(inputs["tmp"])
        listing = sorted(Path(".").rglob("*"))
        assert cli.main([*argv, f"--{key}", value]) == 1
        assert capsys.readouterr().err == f"error: --{key}: {message}\n"
        assert sorted(Path(".").rglob("*")) == listing
        if argv[0] != "generate":
            Path("config.json").write_text(json.dumps({key: value}), encoding="utf-8")
            assert cli.main([*argv, "--config", "config.json"]) == 1
            assert capsys.readouterr().err == (
                f"error: config file config.json: key {key!r}: {message}\n")

    def test_unknown_mode_gets_run_configs_message(self, inputs, capsys):
        out = inputs["tmp"] / "out"
        assert cli.main(["run", "--edges", str(inputs["edges"]), "--mode", "bogus",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: mode must be one of ('weighted', 'structural'), got 'bogus'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, table, fixed", [
        ("run", cli._RUN_FIELDS, ["--config", "c.json"]),
        ("compare", cli._RUN_FIELDS, ["--config", "c.json"]),
        ("generate", cli._SPEC_FIELDS, ["--out", "fixture", "--karate"]),
    ], ids=["run", "compare", "generate"])
    def test_one_flag_per_table_key(self, command, table, fixed):
        """Each table key is one flag whose text argparse leaves unconverted,
        beside the command's fixed flags."""
        argv = [command, *fixed]
        for key in table:
            argv += ["--no-matrices"] if key == "no_matrices" else [
                "--" + key.replace("_", "-"), key]
        args = cli.build_parser().parse_args(argv)
        fixed_keys = {arg[2:] for arg in fixed if arg.startswith("--")}
        assert set(vars(args)) == {"command", "handler", *fixed_keys, *table}
        assert {key: getattr(args, key) for key in table} == {
            key: True if key == "no_matrices" else key for key in table}


def test_plain_value_error_in_a_stage_names_it(inputs, capsys, monkeypatch):
    def failing_detect(graph, k):
        raise ValueError("no centers")

    monkeypatch.setattr(pipeline, "detect", failing_detect)
    with pytest.raises(StageError) as info:
        run(config_for(inputs))
    assert info.value.stage == "detect"
    assert str(info.value) == "stage detect: no centers"
    monkeypatch.chdir(inputs["tmp"])
    assert cli.main(["run", *_flags(_TEXT_FLAGS)]) == 1
    assert capsys.readouterr().err == "error: stage detect: no centers\n"


# sha256 of the tree `comtext generate` writes, pinned while the flags still
# held their own defaults.
_GENERATE_DIGESTS = {
    "defaults": ([], "85f62eef9718c488b59bac292c2b7f62ce0ae5d2778138c8f413113f44e49765"),
    "seed": (["--seed", "7"],
             "8ee7c4ccac1eb7939bffd8b95cc16a77f5155ff4e645670266a6e274124fb268"),
    "groups": (["--groups", "3"],
               "351fbfbd9df7fe51a4991cba3e7966a0329f2384b8f41a6ab05f4a92997ec0a7"),
    "nodes-per-group": (["--nodes-per-group", "4"],
                        "920f6a70ccbf2b3ae692882a45d355d1e36795ae93d440e3de39b863395dc042"),
    "p-in": (["--p-in", "0.6"],
             "2e9c33c00883e80d092d95fa7eb5334134bea782f5159348063fb492f712551f"),
    "p-out": (["--p-out", "0.1"],
              "1b4b44c2c39a03d678f449606321d0b50a5b5c2eaf4d6f6d29a3f817593bbb48"),
    "tokens-per-user": (["--tokens-per-user", "5"],
                        "3e06902c57985769ba94a168627dd26236e418de6e542718d9100e8cba4611fa"),
    "karate": (["--karate"], "0f540acb2c8cab83cbce1b76d549a7df334a8d10e7386052feb8950bc2388db6"),
}


@pytest.mark.parametrize("case", list(_GENERATE_DIGESTS))
def test_generate_bytes_unchanged(tmp_path, case):
    argv, digest = _GENERATE_DIGESTS[case]
    assert cli.main(["generate", "--out", str(tmp_path / "g"), *argv]) == 0
    assert tree_digest(tmp_path / "g") == digest
