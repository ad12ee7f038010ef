"""End-to-end runs in two halves: a fused graph, then communities on it.

The front half reads and checks the inputs and returns the mode's graph.
It reads the edges and the corpus, scores each user's polar vector and
drops the lexicon, then packs each user's tf-idf vector and frees that
user's tokens.  With the vectors in hand it fuses similarity and sentiment
bias into the weights of the structural edges only; structural mode gives
each edge weight 1 instead.  That graph is checked before anything is
written: a k above its node count fails at the detect stage, and a zero
total weight at the metrics stage, with the messages detection and scoring
give.  Only then does it write each export matrix, scoring each pair of
users as its cells are written, a band of rows at a time.
The vectors and the edge list are freed when it returns, before any
detection.  A graph reload replaces all of this with one read of the graph
CSV; structural mode takes its unit view
(:meth:`~comtext.graph.WeightedGraph.unit_weights`), and the same check
follows.  The back half writes the graph, then detects and scores
communities for each k, largest k first, since detection's working set
grows with k; ``summary.csv``, ``compare.csv`` and the result keep the k
values in the order given.

``run`` chains the two halves for one mode.  ``compare`` runs the front
half once under the weighted mode's input checks, so the matrices, which
no mode changes, are written once at the root of its tree beside
``compare.csv``.  It gives the back half the weighted graph and then its
unit view, which shares the weighted graph's node, offset and target
arrays, in ``weighted/`` and ``structural/``, and tabulates modularity side
by side.  Identical inputs give byte-identical output trees.

Edge weights are snapped to the export precision as the graph is built,
so reloading the exported graph CSV reproduces the reported numbers
exactly.  Corpus text is split by the Unicode rule of
:func:`~comtext.corpus.tokenize`, or on ``RunConfig.token_delim`` when it is
already segmented.  ``RunConfig`` rejects inconsistent parameters, such as
an empty delimiter or one without a corpus, with a ``ParameterError``
before anything is written.  Every comtext error is a ``ValueError``, and
any ``ValueError`` or ``OSError`` raised inside a stage surfaces as a
``StageError`` naming the stage: edges, corpus, sentiment, graph, detect or
metrics.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from ._record import Record
from .corpus import ensure_users, load_corpus, load_edges, write_lines
from .detect import Partition, check_k, detect, load_partition, save_partition
from .errors import GraphError, ParameterError
from .graph import WeightedGraph, build_weighted_graph, structural_graph
from .metrics import QualityReport, check_total_weight, quality_report
from .sentiment import bias_matrix, bias_score, load_lexicon
from .similarity import similarity_matrix, similarity_score

_MODES = ("weighted", "structural")


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it for diagnostics."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {message}")


class RunConfig(Record):
    edges: Path | None = None
    out_dir: Path = Path("out")
    corpus: Path | None = None
    lexicon: Path | None = None
    k_values: tuple[int, ...] = (2,)
    alpha: float = 0.5
    mode: str = "weighted"
    precision: int = 6
    token_delim: str | None = None
    graph_path: Path | None = None
    export_matrices: bool = True

    def _check(self):
        if self.edges is None and self.graph_path is None:
            raise ParameterError("an edges file (or a graph reload path) is required")
        if self.graph_path is not None and (self.edges or self.corpus or self.lexicon):
            raise ParameterError("a graph reload takes no edges, corpus or lexicon file")
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.k_values or any(type(k) is not int or k < 1 for k in self.k_values):
            raise ParameterError("k values must be positive integers")
        for i, k in enumerate(self.k_values):
            if k in self.k_values[:i]:
                raise ParameterError(f"k value {k} is repeated")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError("alpha must be in [0, 1]")
        if type(self.precision) is not int or self.precision < 1:
            raise ParameterError(f"precision must be at least 1, an int: got {self.precision!r}")
        if self.token_delim == "":
            raise ParameterError("the token delimiter must be a non-empty string")
        if self.token_delim is not None and self.corpus is None:
            raise ParameterError("a token delimiter splits corpus text: it needs a corpus file")


class RunResult(Record):
    graph: WeightedGraph
    partitions: dict[int, Partition]
    reports: dict[int, QualityReport]
    summary_rows: list[tuple[int, float]]
    out_dir: Path


class CompareResult(Record):
    weighted: RunResult
    structural: RunResult
    rows: list[tuple[int, float, float]]


@contextmanager
def _stage(name: str):
    """Re-raise a ValueError, which every comtext error is, or an OSError as
    a :class:`StageError` naming ``name``."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise StageError(name, str(exc)) from exc


def _check(config: RunConfig, graph: WeightedGraph) -> None:
    """Fail on what detection or scoring would reject, a k above the node
    count or a zero total weight, with their messages but before anything
    is written."""
    with _stage("detect"):
        for k in config.k_values:
            check_k(k, graph.n)
    with _stage("metrics"):
        check_total_weight(graph)


def _front_half(config: RunConfig) -> WeightedGraph:
    """Read and check every input file given, also where the mode needs none
    of its contents; build and check the mode's graph; only then write each
    export matrix into ``config.out_dir``; and return the graph.  The
    per-user vectors are dropped on return."""
    if config.graph_path is not None:
        with _stage("graph"):
            graph = WeightedGraph.read_csv(config.graph_path, precision=config.precision)
        if config.mode == "structural":
            graph = graph.unit_weights()
        _check(config, graph)
        return graph
    with _stage("edges"):
        edge_list = load_edges(config.edges)

    corp = None
    if config.corpus is not None:
        with _stage("corpus"):
            corp = load_corpus(config.corpus, config.token_delim)
    elif config.mode == "weighted":
        raise StageError("corpus", "weighted mode requires a corpus file (--corpus)")

    # One set of every id, freed once sorted into the node list.
    ids = {u for edge in edge_list for u in edge}
    if corp is not None:
        ids.update(corp.users)
    nodes = sorted(ids)
    del ids
    # Pairs of users are scored from their text, for the weighted graph or the export.
    scored = corp is not None and (config.mode == "weighted" or config.export_matrices)
    if scored:
        corp = ensure_users(corp, nodes)
    s = sv = None
    if config.lexicon is not None:
        with _stage("sentiment"):
            lexicon = load_lexicon(config.lexicon, config.token_delim)
        sv = bias_score(corp, lexicon) if scored else None
        del lexicon  # the polar vectors keep what they need
    elif config.mode == "weighted":
        raise StageError("sentiment", "weighted mode requires a lexicon file (--lexicon)")
    if scored:
        # Each user's ranks are freed once packed: tokens and vectors never all coexist.
        s = similarity_score(corp, consume=True)
    del corp
    if config.mode == "weighted":
        graph = build_weighted_graph(edge_list, nodes, s, sv, config.alpha,
                                     precision=config.precision)
    else:
        graph = structural_graph(edge_list, nodes)
    del edge_list
    _check(config, graph)

    # Each matrix scores its pairs as it writes them; no matrix is ever held.
    if config.export_matrices and scored:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        similarity_matrix(nodes, s).write_csv(out / "similarity_matrix.csv", config.precision)
        if sv is not None:
            bias_matrix(nodes, sv).write_csv(out / "bias_matrix.csv", config.precision)
    return graph


def _back_half(config: RunConfig, graph: WeightedGraph) -> RunResult:
    """Write ``graph.csv``, then detect communities and score them for each k."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph.write_csv(out / "graph.csv", config.precision)

    partitions: dict[int, Partition] = dict.fromkeys(config.k_values)
    reports: dict[int, QualityReport] = dict.fromkeys(config.k_values)
    # Largest k first: detection's working set grows with k, so the rest reuse its memory.
    for k in sorted(config.k_values, reverse=True):
        with _stage("detect"):
            partition = detect(graph, k)
        with _stage("metrics"):
            report = quality_report(graph, partition)
        save_partition(partition, out / f"partition_k{k}.txt", report.modularity)
        report.write_json(out / f"quality_k{k}.json")
        partitions[k] = partition
        reports[k] = report
    summary_rows = [(k, reports[k].modularity) for k in config.k_values]

    write_lines(out / "summary.csv", ["k,modularity", *(f"{k},{q!r}" for k, q in summary_rows)])
    return RunResult(graph, partitions, reports, summary_rows, out)


def run(config: RunConfig) -> RunResult:
    """Execute one full pipeline pass and write all artifacts."""
    return _back_half(config, _front_half(config))


def compare(config: RunConfig) -> CompareResult:
    """Run weighted and structural modes side by side on one front half,
    under the weighted mode's input checks.  The matrices are written once,
    at the root of the tree; the structural side is the weighted graph's
    unit view, on the same rows."""
    out = Path(config.out_dir)
    weighted_config = config.replace(mode="weighted")
    graph = _front_half(weighted_config)
    weighted = _back_half(weighted_config.replace(out_dir=out / "weighted"), graph)
    structural = _back_half(config.replace(mode="structural", out_dir=out / "structural"),
                            graph.unit_weights())
    rows = [
        (k, qw, qs)
        for (k, qw), (_, qs) in zip(weighted.summary_rows, structural.summary_rows)
    ]
    write_lines(out / "compare.csv", ["k,modularity_weighted,modularity_structural",
                                      *(f"{k},{qw!r},{qs!r}" for k, qw, qs in rows)])
    return CompareResult(weighted, structural, rows)


def score(graph_path, partition_path) -> QualityReport:
    """Recompute the quality report for exported graph + partition files."""
    with _stage("graph"):
        graph = WeightedGraph.read_csv(graph_path)
    with _stage("detect"):
        partition, _ = load_partition(partition_path)
    with _stage("metrics"):
        try:
            return quality_report(graph, partition)
        except GraphError as exc:  # the partition does not cover the graph
            raise GraphError(f"{partition_path}: {exc}") from exc
