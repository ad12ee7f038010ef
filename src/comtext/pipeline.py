"""End-to-end runs: ingest, per-user features, weighted graph, detection.

``run`` drives one mode (weighted or structural) and writes every artifact
into the output directory; ``compare`` builds the front half (or reloads the
graph) once and hands it to both modes, then tabulates modularity side by
side.  The front half reads the edges and the corpus, scores each user's
polar vector and drops the lexicon, then packs each user's tf-idf vector
and frees that user's tokens.  Only the structural edges are scored, and
every pair of users only for the matrix export: each matrix is built just
before it is written and dropped after, and ``compare``'s structural side
copies the weighted side's matrix files.  Identical inputs give
byte-identical output trees.

Edge weights are snapped to the export precision as the graph is built,
so reloading the exported graph CSV reproduces the reported numbers
exactly.  Corpus text is split by the Unicode rule of
:func:`~comtext.corpus.tokenize`, or on ``RunConfig.token_delim`` when it is
already segmented.  ``RunConfig`` rejects inconsistent parameters, such as
an empty delimiter or one without a corpus, with a ``ParameterError``
before anything is written.  A failing stage raises ``StageError`` naming
it: edges, corpus, sentiment, graph, detect or metrics.
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from .corpus import EdgeList, ensure_users, load_corpus, load_edges
from .detect import Partition, detect, load_partition, save_partition
from .errors import GraphError, ParameterError, ParseError, UndefinedModularityError
from .graph import WeightedGraph, build_weighted_graph, structural_graph
from .metrics import QualityReport, quality_report
from .sentiment import bias_matrix, bias_score, load_lexicon
from .similarity import SymmetricMatrix, similarity_matrix, similarity_score

_MODES = ("weighted", "structural")


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it for diagnostics."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {message}")


@dataclass(frozen=True)
class RunConfig:
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

    def __post_init__(self):
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
        if self.precision < 1:
            raise ParameterError("precision must be at least 1")
        if self.token_delim == "":
            raise ParameterError("the token delimiter must be a non-empty string")
        if self.token_delim is not None and self.corpus is None:
            raise ParameterError("a token delimiter splits corpus text: it needs a corpus file")


@dataclass
class RunResult:
    graph: WeightedGraph
    partitions: dict[int, Partition]
    reports: dict[int, QualityReport]
    summary_rows: list[tuple[int, float]] = field(default_factory=list)
    out_dir: Path | None = None


@dataclass
class CompareResult:
    weighted: RunResult
    structural: RunResult
    rows: list[tuple[int, float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class _Features:
    """Front half shared by every mode: text edges, nodes, weighted graph,
    and a builder for each export matrix."""

    edges: EdgeList | None = None
    nodes: list[str] = field(default_factory=list)
    graph: WeightedGraph | None = None
    matrices: list[tuple[str, Callable[[], SymmetricMatrix]]] = field(default_factory=list)


@contextmanager
def _stage(name: str, *errors: type[Exception]):
    """Re-raise any of ``errors`` as a :class:`StageError` naming ``name``."""
    try:
        yield
    except errors as exc:
        raise StageError(name, str(exc)) from exc


def _features(config: RunConfig) -> _Features:
    """Load and weight the text inputs, or reload the graph, once.  Every
    input file given is read and checked, also where the mode needs none of
    its contents."""
    if config.graph_path is not None:
        with _stage("graph", ParseError, GraphError, OSError):
            return _Features(graph=WeightedGraph.read_csv(config.graph_path,
                                                          precision=config.precision))
    with _stage("edges", ParseError, OSError):
        edge_list = load_edges(config.edges)

    corp = None
    if config.corpus is not None:
        with _stage("corpus", ValueError, OSError):
            corp = load_corpus(config.corpus, config.token_delim)
    elif config.mode == "weighted":
        raise StageError("corpus", "weighted mode requires a corpus file (--corpus)")

    nodes = sorted(set(edge_list.endpoints()) | set(corp.users if corp else ()))
    # Pairs of users are scored from their text, for the weighted graph or the export.
    scored = corp is not None and (config.mode == "weighted" or config.export_matrices)
    if scored:
        corp = ensure_users(corp, nodes)
    s = sv = None
    if config.lexicon is not None:
        with _stage("sentiment", ValueError, OSError):
            lexicon = load_lexicon(config.lexicon)
        sv = bias_score(corp, lexicon) if scored else None
        del lexicon  # the polar vectors keep what they need
    elif config.mode == "weighted":
        raise StageError("sentiment", "weighted mode requires a lexicon file (--lexicon)")
    if scored:
        # Each user's ranks are freed once packed: tokens and vectors never all coexist.
        s = similarity_score(corp, consume=True)
    del corp
    graph = None
    if config.mode == "weighted":
        graph = build_weighted_graph(edge_list, nodes, s, sv, config.alpha,
                                     precision=config.precision)
    matrices = []
    if config.export_matrices and scored:
        matrices.append(("similarity", lambda: similarity_matrix(nodes, s)))
        if sv is not None:
            matrices.append(("bias", lambda: bias_matrix(nodes, sv)))
    return _Features(edge_list, nodes, graph, matrices)


def _graph(config: RunConfig, features: _Features) -> WeightedGraph:
    """The mode's graph: the weighted one, or unit weights on its edges."""
    graph = features.graph
    if config.mode == "weighted":
        return graph
    if features.edges is not None:
        return structural_graph(features.edges, features.nodes)
    ids = graph.ids
    return structural_graph(((ids[i], ids[j]) for i, j, _ in graph.edge_indices()), graph.nodes)


def _run_mode(config: RunConfig, features: _Features,
              matrices_from: Path | None = None) -> RunResult:
    """Back half of a run: graph, exports, detection and scores for each k.

    Each export matrix is built just before it is written and dropped right
    after, so at most one triangle is alive; with ``matrices_from``, the
    matrix files written there are copied instead.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = _graph(config, features)

    for name, build in features.matrices:
        path = out / f"{name}_matrix.csv"
        if matrices_from is None:
            build().write_csv(path, config.precision)
        else:
            shutil.copyfile(matrices_from / path.name, path)
    graph.write_csv(out / "graph.csv", config.precision)

    partitions: dict[int, Partition] = {}
    reports: dict[int, QualityReport] = {}
    summary_rows: list[tuple[int, float]] = []
    for k in config.k_values:
        with _stage("detect", ParameterError, GraphError):
            partition = detect(graph, k)
        with _stage("metrics", GraphError, UndefinedModularityError):
            report = quality_report(graph, partition)
        save_partition(partition, out / f"partition_k{k}.txt", report.modularity)
        report.write_json(out / f"quality_k{k}.json")
        partitions[k] = partition
        reports[k] = report
        summary_rows.append((k, report.modularity))

    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,modularity\n")
        for k, q in summary_rows:
            fh.write(f"{k},{q!r}\n")
    return RunResult(graph, partitions, reports, summary_rows, out)


def run(config: RunConfig) -> RunResult:
    """Execute one full pipeline pass and write all artifacts."""
    return _run_mode(config, _features(config))


def compare(config: RunConfig) -> CompareResult:
    """Run weighted and structural modes side by side on features computed
    once, under the weighted mode's input checks."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    weighted_config = replace(config, mode="weighted", out_dir=out / "weighted")
    features = _features(weighted_config)
    weighted = _run_mode(weighted_config, features)
    structural = _run_mode(replace(config, mode="structural", out_dir=out / "structural"),
                           features, matrices_from=weighted_config.out_dir)
    rows = [
        (k, qw, qs)
        for (k, qw), (_, qs) in zip(weighted.summary_rows, structural.summary_rows)
    ]
    with open(out / "compare.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,modularity_weighted,modularity_structural\n")
        for k, qw, qs in rows:
            fh.write(f"{k},{qw!r},{qs!r}\n")
    return CompareResult(weighted, structural, rows)


def score(graph_path, partition_path) -> QualityReport:
    """Recompute the quality report for exported graph + partition files."""
    with _stage("graph", ParseError, GraphError, OSError):
        graph = WeightedGraph.read_csv(graph_path)
    with _stage("detect", ValueError, OSError):
        partition, _ = load_partition(partition_path)
    with _stage("metrics", GraphError, UndefinedModularityError):
        try:
            return quality_report(graph, partition)
        except GraphError as exc:  # the partition does not cover the graph
            raise GraphError(f"{partition_path}: {exc}") from exc
