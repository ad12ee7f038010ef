"""One line policy and one node-id rule for every input file.

Every reader drops a UTF-8 byte-order mark at the start of a file, splits
lines only at LF, CR and CRLF and names a line that is not UTF-8 in its
error.  Every node id it reads is stripped, non-empty and free of ``,``,
LF and CR, so an id that one file accepts names the same node in every
other file and survives the CSV and partition exports.
"""

import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from comtext import cli
from comtext.corpus import Document, build_corpus, load_corpus, load_edges, node_id, read_lines
from comtext.detect import Partition, load_partition, save_partition
from comtext.errors import ParseError
from comtext.graph import WeightedGraph
from comtext.pipeline import RunConfig, run
from comtext.sentiment import load_lexicon
from helpers import id_edges

# Line boundaries of str.splitlines() that are not line ends in any input file.
UNICODE_BREAKS = ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1d", "\x1e"]

# Derandomized, so every run of the suite checks the same examples.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# Any Unicode text (no surrogates), with separators and line breaks well represented.
raw_ids = st.text(st.one_of(st.characters(codec="utf-8"),
                            st.sampled_from([" ", "\t", ":", "=", ",", "\n", "\r",
                                             *UNICODE_BREAKS])), max_size=12)
valid_ids = raw_ids.map(str.strip).filter(
    lambda s: s and not any(ch in s for ch in ",\n\r"))


def write_inputs(tmp_path, users, edge_lines):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"user_id": u, "text": "good talk"}) + "\n"
                              for u in users), encoding="utf-8")
    edges = tmp_path / "edges.csv"
    edges.write_text("".join(line + "\n" for line in edge_lines), encoding="utf-8")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("good\t0.5\n", encoding="utf-8")
    return corpus, edges, lexicon


class TestNodeIdRule:
    def test_strips(self):
        assert node_id("  a b:c=d \t", "x") == "a b:c=d"

    @pytest.mark.parametrize("raw", ["", "   ", "\t"])
    def test_rejects_empty(self, raw):
        with pytest.raises(ParseError, match="^f: line 3: empty node id$"):
            node_id(raw, "f: line 3")

    @pytest.mark.parametrize("raw", ["a,b", "a\nb", "a\rb"])
    def test_rejects_reserved(self, raw):
        with pytest.raises(ParseError, match="^f: line 3: .*reserved"):
            node_id(raw, "f: line 3")

    def test_build_corpus_applies_rule(self):
        assert build_corpus([Document(" a", "x"), Document("a", "y")]).users == ("a",)
        with pytest.raises(ParseError, match="document 2: empty node id"):
            build_corpus([Document("a", "x"), Document(" ", "y")])


class TestReadLines:
    def test_splits_only_at_lf_and_cr(self, tmp_path):
        text = "a\u2028b\x85c\r\n\n  d  \re\v\n"
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = [(f"{path}: line 1", "a\u2028b\x85c"), (f"{path}: line 3", "d"),
                    (f"{path}: line 4", "e")]
        assert [(str(where), line) for where, line in read_lines(path)] == expected


BOM = "\ufeff"


class TestByteOrderMark:
    """A UTF-8 BOM, which spreadsheet programs write, is not part of the
    first line: the first id names the same node as everywhere else."""

    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(BOM + text, encoding="utf-8")
        return path

    def test_edges(self, tmp_path):
        path = self.write(tmp_path, "edges.csv", "a,b\nb,c\nc,a\n")
        assert load_edges(path).edges == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_graph_csv(self, tmp_path):
        path = self.write(tmp_path, "graph.csv", "a,b,0.5\nb,c,1.0\n")
        g = WeightedGraph.read_csv(path)
        assert g.nodes == ("a", "b", "c")
        assert id_edges(g) == (("a", "b", 0.5), ("b", "c", 1.0))

    def test_lexicon(self, tmp_path):
        path = self.write(tmp_path, "lexicon.tsv", "good\t0.5\n")
        assert load_lexicon(path).scores == {"good": 0.5}

    def test_partition(self, tmp_path):
        path = self.write(tmp_path, "partition.txt", "k_requested=1\nm=1\n0:a,b\n")
        assert load_partition(path) == (Partition.from_assignment({"a": 0, "b": 0}, 1, 1), None)

    def test_corpus(self, tmp_path):
        text = "".join(json.dumps({"user_id": u, "text": "good talk"}) + "\n" for u in "ab")
        corpus = load_corpus(self.write(tmp_path, "corpus.jsonl", text))
        assert corpus.users == ("a", "b")

    def test_structural_run_writes_no_bom(self, tmp_path):
        edges = self.write(tmp_path, "edges.csv", "a,b\nb,c\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--mode", "structural", "--edges", str(edges),
                         "--k", "1", "--out", str(out)]) == 0
        graph = (out / "graph.csv").read_text(encoding="utf-8")
        assert graph == "a,b,1.000000\nb,c,1.000000\n"


# Reader and a valid i-th line, every line distinct and non-ASCII.
READERS = {
    "edges": (load_edges, lambda i: f"ä{i},b{i}"),
    "corpus": (load_corpus, lambda i: json.dumps({"user_id": f"u{i}", "text": "café"},
                                                 ensure_ascii=False)),
    "lexicon": (load_lexicon, lambda i: f"wörd{i}\t0.5"),
    "graph": (WeightedGraph.read_csv, lambda i: f"ä{i},b{i},1.0"),
    "partition": (load_partition,
                  lambda i: ("k_requested=1", "m=1")[i] if i < 2 else f"{i}:ä{i}"),
}


class TestNotUtf8:
    """A byte that is not UTF-8 is a ParseError naming the file and the line
    that holds it; the file is still read as a stream, one line at a time."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("far", [False, True], ids=["line3", "past8KB"])
    @pytest.mark.parametrize("kind", READERS)
    def test_names_the_line(self, tmp_path, kind, far, newline):
        read, line = READERS[kind]
        good = [line(0), line(1)]
        while far and sum(len(text.encode()) + len(newline) for text in good) <= 8192:
            good.append(line(len(good)))
        bad = line(len(good)).encode()
        path = tmp_path / kind
        path.write_bytes(b"".join(text.encode() + newline.encode() for text in good)
                         + bad[:2] + b"\xff" + bad[2:] + newline.encode() + b"tail")
        lineno = len(good) + 1
        assert far == (lineno > 3)
        with pytest.raises(ParseError) as raised:
            read(path)
        assert str(raised.value) == f"{path}: line {lineno}: not valid UTF-8"

    @pytest.mark.parametrize("flag", ["--edges", "--graph"])
    def test_run_names_the_stage_and_line(self, tmp_path, capsys, flag):
        path = tmp_path / "in.csv"
        path.write_bytes(b"a,b,1.0\nb,c,1.0\nc,d\xff,1.0\n" if flag == "--graph"
                         else b"a,b\nb,c\nc,d\xff\n")
        args = ["--mode", "structural", flag, str(path), "--k", "1", "--out", str(tmp_path / "o")]
        assert cli.main(["run", *args]) == 1
        stage = flag[2:]
        assert capsys.readouterr().err == (
            f"error: stage {stage}: {path}: line 3: not valid UTF-8\n")

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(b'{"edges": "caf\xe9.csv"}')  # Latin-1, not UTF-8
        assert cli.main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config}: ")
        assert "codec can't decode" in err


class TestLoneSurrogate:
    """UTF-8 cannot encode a lone surrogate, which a JSON escape such as
    ``\\ud800`` yields, so a node id holding one is a ParseError naming its
    line, before anything is written."""

    @pytest.mark.parametrize("surrogate", ["\ud800", "\udbff", "\udc80", "\udfff"], ids=repr)
    def test_node_id_rejects(self, surrogate):
        with pytest.raises(ParseError, match="^f: line 3: node id .* holds a lone surrogate$"):
            node_id(f"a{surrogate}", "f: line 3")

    def test_surrogate_pair_is_one_character(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"user_id": "a\\ud83d\\ude00", "text": "good x"}\n', encoding="ascii")
        assert load_corpus(corpus).users == ("a\U0001f600",)

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_cli_names_the_line_and_writes_nothing(self, tmp_path, capsys, command):
        corpus, edges, lexicon = write_inputs(tmp_path, ["a\ud800", "b"], ["b,c"])
        assert corpus.read_bytes().isascii()  # json.dumps escapes the surrogate
        out = tmp_path / "out"
        assert cli.main([command, "--corpus", str(corpus), "--edges", str(edges),
                         "--lexicon", str(lexicon), "--k", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: stage corpus: {corpus}: line 1: node id 'a\\ud800' holds a lone surrogate\n")
        assert not out.exists()


class TestReaders:
    def test_graph_csv_rejects_empty_target_id(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("a,b,1.0\na,,0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: empty node id"):
            WeightedGraph.read_csv(path)

    def test_graph_csv_isolated_node_and_stripped_ids(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text(" z ,, \n a , b ,0.5\n", encoding="utf-8")
        g = WeightedGraph.read_csv(path)
        assert g.nodes == ("a", "b", "z")
        assert id_edges(g) == (("a", "b", 0.5),)

    def test_corpus_and_edge_ids_name_one_node(self, tmp_path):
        corpus, edges, lexicon = write_inputs(tmp_path, [" a", "b"], [" a , b"])
        assert load_corpus(corpus).users == ("a", "b")
        assert load_edges(edges).edges == (("a", "b"),)
        result = run(RunConfig(edges=edges, corpus=corpus, lexicon=lexicon,
                               out_dir=tmp_path / "out", k_values=(1,)))
        assert result.graph.nodes == ("a", "b")
        assert id_edges(result.graph)[0][2] > 0.0  # the text reached the edge's node
        reloaded = WeightedGraph.read_csv(tmp_path / "out" / "graph.csv")
        assert reloaded.nodes == result.graph.nodes


class TestPartitionReader:
    @pytest.mark.parametrize("brk", UNICODE_BREAKS, ids=repr)
    def test_round_trip_with_unicode_line_breaks(self, tmp_path, brk):
        p = Partition.from_assignment({f"a{brk}b": 0, "c": 1, f"d{brk}e": 1}, 2, 2)
        save_partition(p, tmp_path / "partition.txt", 0.5)
        assert load_partition(tmp_path / "partition.txt") == (p, 0.5)

    @pytest.mark.parametrize("text, message", [
        ("k_requested=1\nm=1\nx:a\n", "<partition>: line 3: expected 'index:member"),
        ("k_requested=1\nm=1\n0:a,,b\n", "<partition>: line 3: empty node id"),
        ("k_requested=one\nm=1\n0:a\n", "<partition>: line 1: k_requested is not a number"),
        ("k_requested=1\n\nm=1\nmodularity=high\n0:a\n",
         "<partition>: line 4: modularity is not a number"),
        ("k_requested=1\n0:a\n", "<partition>: missing the k_requested or m header"),
        ("k_requested=1\nm=1\nmodularity=nan\n0:a\n",
         "<partition>: line 3: modularity is not finite"),
        ("k_requested=1\nm=1\nmodularity=-inf\n0:a\n",
         "<partition>: line 3: modularity is not finite"),
        ("k_requested=1\nm=1\nmodularity=7\n0:a\n",
         r"<partition>: line 3: modularity 7.0 is outside \[-0.5, 1\]"),
        ("k_requested=1\nm=1\nmodularity=-0.5000001\n0:a\n",
         r"<partition>: line 3: modularity -0.5000001 is outside \[-0.5, 1\]"),
        ("k_requested=1\nm=1\n0:a\n0:b\n", "<partition>: line 4: community index 0 is repeated"),
        ("k_requested=1\nm=1\n0:a\n00:b\n", "<partition>: line 4: community index 0 is repeated"),
    ])
    def test_errors_name_the_line(self, tmp_path, monkeypatch, text, message):
        # A file named ``<partition>``, read by its relative path, is named so in errors.
        monkeypatch.chdir(tmp_path)
        Path("<partition>").write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_partition("<partition>")

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "partition.txt"
        path.write_text("k_requested=2\nm=2\n0:a\n\n1:b,a\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{path}: line 5: node 'a' is listed"):
            load_partition(path)

    def test_members_are_stripped(self, tmp_path):
        path = tmp_path / "partition.txt"
        path.write_text("k_requested=1\nm=1\n0:a, b\n", encoding="utf-8")
        p, _ = load_partition(path)
        assert p.assignment == {"a": 0, "b": 0}

    def test_run_then_score_with_unicode_line_break_in_id(self, tmp_path, capsys):
        corpus, edges, lexicon = write_inputs(
            tmp_path, ["x\u2028y", "z"], ["x\u2028y,z", "z,w"])
        out = tmp_path / "out"
        assert cli.main(["run", "--corpus", str(corpus), "--edges", str(edges),
                         "--lexicon", str(lexicon), "--k", "1", "--out", str(out)]) == 0
        assert cli.main(["score", "--graph", str(out / "graph.csv"),
                         "--partition", str(out / "partition_k1.txt")]) == 0
        partition, _ = load_partition(out / "partition_k1.txt")
        assert set(partition.assignment) == {"w", "x\u2028y", "z"}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ids")


class TestIdProperties:
    @PROPERTY
    @given(raw_ids)
    def test_node_id_is_idempotent(self, raw):
        try:
            node = node_id(raw, "x")
        except ParseError:
            assume(False)
        assert node_id(node, "x") == node

    @PROPERTY
    @given(st.lists(valid_ids, min_size=2, max_size=6, unique=True))
    def test_graph_csv_round_trip(self, scratch, ids):
        edges = [(u, v, 0.5) for u, v in zip(ids[:-2], ids[1:-1])]  # ids[-1] isolated
        g = WeightedGraph.from_edges(ids, edges)
        path = scratch / "graph.csv"
        g.write_csv(path)
        loaded = WeightedGraph.read_csv(path)
        assert loaded.nodes == tuple(sorted(ids))
        assert id_edges(loaded) == id_edges(g)

    @PROPERTY
    @given(st.lists(valid_ids, min_size=2, max_size=6, unique=True))
    def test_partition_round_trip(self, scratch, ids):
        p = Partition.from_assignment({u: i % 2 for i, u in enumerate(ids)}, 2, 2)
        path = scratch / "partition.txt"
        save_partition(p, path, -0.125)
        assert load_partition(path) == (p, -0.125)
        save_partition(p, path)
        assert load_partition(path) == (p, None)
