"""Run the comtext CLI with a span recorded around each layer's entry points.

Usage: python traced_cli.py SPANS_JSON RUN_ID COMTEXT_ARGS...

The wrappers replace module and class attributes in this process only;
nothing under ``src/`` changes.  Each span records its name, start, end,
parent span index and the run id.  Counts are attached as span attributes,
computed after the span has closed inside a ``trace.count`` span of their
own, so their cost is in no layer's self time; it shows in the overhead.
Spans stay in memory and are written to SPANS_JSON as one JSON document
when the CLI returns; the exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


class Tracer:
    """In-memory span recorder for one CLI invocation (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span around each call; ``note(result, *args)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                counting = self._open("trace.count")
                span["attrs"] = note(result, *args, **kwargs)
                self._close(counting)
            return result

        return traced

    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()


def _pairs(matrix, *_args, **_kwargs) -> dict:
    return {"pairs": matrix.n * (matrix.n - 1) // 2}


def _corpus_counts(corpus, path, *_args, **_kwargs) -> dict:
    with open(path, encoding="utf-8") as fh:
        chars = len(fh.read())
    return {
        "chars": chars,
        "tokens": sum(len(doc) for doc in corpus.docs_by_user.values()),
        "vocabulary": len(corpus.vocabulary),
    }


def _vector_terms(vectors, *_args, **_kwargs) -> dict:
    return {"users": len(vectors), "terms": sum(len(v) for v in vectors.values())}


def _matrix_bytes(_result, _matrix, path, *_args, **_kwargs) -> dict:
    return {"bytes": os.path.getsize(path)}


def _centers(centers, _graph, k, *_args, **_kwargs) -> dict:
    return {"k": k, "centers": list(centers)}


def _singletons(partition, _graph, centers, *_args, **_kwargs) -> dict:
    return {"k": len(centers), "singletons": partition.m - partition.k_requested}


def install(tracer: Tracer):
    """Wrap every traced entry point; returns the wrapped ``cli.main``."""
    mod = {name: importlib.import_module(f"comtext.{name}")
           for name in ("cli", "pipeline", "detect", "similarity", "graph")}
    pipeline = mod["pipeline"]
    # Names pipeline.py imported into its own namespace.
    for attr, span, note in (
        ("load_edges", "corpus.load_edges", lambda e, *a, **k: {"edges": len(e.edges)}),
        ("load_corpus", "corpus.load_corpus", _corpus_counts),
        ("ensure_users", "corpus.ensure_users", None),
        ("similarity_matrix", "similarity.matrix", _pairs),
        ("load_lexicon", "sentiment.load_lexicon", None),
        ("bias_matrix", "sentiment.bias_matrix", _pairs),
        ("build_weighted_graph", "graph.build_weighted_graph",
         lambda g, edges, *a, **k: {"edges": len(edges.edges)}),
        ("structural_graph", "graph.structural_graph", None),
        ("detect", "detect.detect", None),
        ("quality_report", "metrics.quality_report", None),
        ("save_partition", "detect.save_partition", None),
        ("run", "pipeline.run", None),
        ("compare", "pipeline.compare", None),
    ):
        setattr(pipeline, attr, tracer.wrap(span, getattr(pipeline, attr), note))
    # Called through module globals inside similarity_matrix and detect().
    similarity, detect = mod["similarity"], mod["detect"]
    similarity.user_vectors = tracer.wrap("similarity.vectors", similarity.user_vectors,
                                          _vector_terms)
    detect.select_centers = tracer.wrap("detect.select_centers", detect.select_centers,
                                        _centers)
    detect.expand_communities = tracer.wrap("detect.expand", detect.expand_communities,
                                            _singletons)
    matrix_cls, graph_cls = similarity.SymmetricMatrix, mod["graph"].WeightedGraph
    matrix_cls.write_csv = tracer.wrap("similarity.write_csv", matrix_cls.write_csv,
                                       _matrix_bytes)
    graph_cls.write_csv = tracer.wrap("graph.write_csv", graph_cls.write_csv)
    graph_cls.__init__ = tracer.wrap("graph.build", graph_cls.__init__)
    graph_cls.read_csv = classmethod(
        tracer.wrap("graph.read_csv", graph_cls.read_csv.__func__))
    return tracer.wrap("cli.main", mod["cli"].main)


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    importlib.import_module("comtext.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer(run_id)
    code = install(tracer)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run": run_id, "import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
