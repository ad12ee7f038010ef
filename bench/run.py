"""Benchmark of the comtext CLI on seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload rich-text-compare --seed 1 --seconds 45 --trace 0

One run:

1. Starts ``launcher.py``, which spawns every CLI child (see its docstring
   for why).
2. Generates three input instances from seeds derived from ``--seed``.
3. Runs the CLI as a child process, one invocation at a time (a closed
   loop with one client and no threads), cycling through the instances and
   starting invocations until ``--seconds`` have passed.  With
   ``--trace 1`` each step is a pair on one instance: an untraced
   invocation, then one through ``traced_cli.py``.  After each step the
   step's instance is generated again and must be byte-identical.
   ``setup_s`` is the fastest of all the run's generations: on a shared
   host the speed of a process swings by up to 2x for seconds to minutes,
   and the fastest of many short samples spread over the run is the
   estimate that swings least.
4. Checks the outputs outside the timed region: every invocation exits 0
   and writes the same output tree (sha256) as the first invocation on its
   instance, traced ones included, so traced and untraced modularity agree;
   each exported graph.csv + partition_k*.txt pair re-scores with
   ``comtext.pipeline.score`` to exactly the modularity the run reported;
   each partition covers its graph's nodes.

The second-to-last stdout line is a JSON detail record (per-instance
output sha256 and quality, quartiles and sample counts); the last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json: memory
as a median over invocations, ``modularity`` and ``nmi`` as means over
instances; wall times go only to the detail record, being too noisy on a
shared host to bound.  With ``--trace 1`` they are the per-layer ones, medians
over traced invocations; per-layer ``*_s`` metrics are self times, a span's
duration minus the time its child spans cover.  The exit code is 0 when the
run is correct, 1 when it is not and 2 when the comtext sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
INSTANCES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Path, int], None]  # writes the inputs and ground_truth.txt
    args: tuple[str, ...]  # comtext CLI arguments; "{inputs}" is the inputs directory
    k: str  # the --k sweep; it includes the planted group count
    groups: int  # planted groups: nmi and center coverage are taken at k = groups


_TEXT_INPUTS = ("--corpus", "{inputs}/corpus.jsonl", "--edges", "{inputs}/edges.csv",
                "--lexicon", "{inputs}/lexicon.tsv")

# Sizes keep one invocation near 5 s on a 2-core x86 VM, so a 45 s run
# holds about eight.  Many small planted groups, rather than a few large
# ones, keep nmi and modularity from swinging with which groups the chosen
# centers happen to hit.
WORKLOADS = {w.name: w for w in (
    Workload("rich-text-compare",
             partial(inputs.rich_text, groups=12, users_per_group=20, tokens_per_user=600),
             ("compare", *_TEXT_INPUTS), k="4,12,24", groups=12),
    Workload("graph-reload-ksweep",
             partial(inputs.block_graph, nodes=10000, blocks=16, mean_degree=20, isolated=20),
             ("run", "--graph", "{inputs}/graph.csv"), k="2,16,128", groups=16),
)}

# Per-layer self-time metrics and the span names they sum.
SELF_TIMES = {
    "cli.self_s": ("cli.main",),
    "pipeline.self_s": ("pipeline.run", "pipeline.compare", "detect.detect"),
    "corpus.load_corpus_s": ("corpus.load_corpus",),
    "corpus.load_edges_s": ("corpus.load_edges",),
    "corpus.ensure_users_s": ("corpus.ensure_users",),
    "similarity.vectors_s": ("similarity.vectors",),
    "similarity.matrix_s": ("similarity.matrix",),
    "similarity.write_csv_s": ("similarity.write_csv",),
    "sentiment.load_lexicon_s": ("sentiment.load_lexicon",),
    "sentiment.bias_matrix_s": ("sentiment.bias_matrix",),
    "graph.read_csv_s": ("graph.read_csv",),
    "graph.write_csv_s": ("graph.write_csv",),
    "graph.build_s": ("graph.build", "graph.build_weighted_graph", "graph.structural_graph"),
    "detect.select_centers_s": ("detect.select_centers",),
    "detect.expand_s": ("detect.expand",),
    "detect.save_partition_s": ("detect.save_partition",),
    "metrics.quality_report_s": ("metrics.quality_report",),
}


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the total byte count."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
        total += len(data)
    return digest.hexdigest(), total


def child_env() -> dict:
    """The CLI children import comtext from this tree's ``src``; a fixed hash
    seed keeps set and dict layouts, and so their timings, alike across runs."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class Launcher:
    """Client of ``launcher.py``: runs one child at a time to exit."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """(wall seconds, the child's peak RSS in MB, exit code)."""
        request = {"argv": argv, "env": child_env(), "cwd": str(ROOT), "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited early")
        reply = json.loads(reply)
        return reply["wall_s"], reply["maxrss_kb"] / 1024, reply["exit"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[dict]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span["start"]
        for kid in sorted(kids, key=lambda s: s["start"]):
            low, high = max(kid["start"], reach), min(kid["end"], span["end"])
            if high > low:
                covered += high - low
                reach = high
        result.append(span["end"] - span["start"] - covered)
    return result


def layer_metrics(trace: dict, truth: dict[str, int], groups: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (without trace.overhead_s)."""
    spans = trace["spans"]
    own = self_times(spans)
    metrics = {name: sum((t for span, t in zip(spans, own) if span["name"] in names), 0.0)
               for name, names in SELF_TIMES.items()}

    def attrs(name: str) -> list[dict]:
        return [span.get("attrs") or {} for span in spans if span["name"] == name]

    def total(name: str, key: str) -> int:
        return sum(a[key] for a in attrs(name))

    useful = total("graph.build_weighted_graph", "edges")
    for layer, span in (("similarity", "similarity.matrix"),
                        ("sentiment", "sentiment.bias_matrix")):
        pairs = total(span, "pairs")
        metrics[f"{layer}.pairs_scored"] = pairs
        metrics[f"{layer}.useful_ratio"] = useful / pairs if pairs else 0.0
    users = total("similarity.vectors", "users")
    terms = total("similarity.vectors", "terms")
    metrics["similarity.mean_vector_terms"] = terms / users if users else 0.0
    metrics["similarity.matrix_bytes"] = total("similarity.write_csv", "bytes")
    loads = attrs("corpus.load_corpus")
    metrics["corpus.load_corpus_calls"] = len(loads)
    for key in ("chars", "tokens", "vocabulary"):
        metrics[f"corpus.{key}"] = loads[0][key] if loads else 0
    metrics["pipeline.graph_builds"] = len(attrs("graph.build"))
    # Compare runs the weighted mode first, so the first call at k = groups
    # is the paper's method.
    centers = next(a["centers"] for a in attrs("detect.select_centers") if a["k"] == groups)
    metrics["detect.centers_groups_covered"] = len({truth[c] for c in centers}) / groups
    metrics["detect.singletons"] = next(
        a["singletons"] for a in attrs("detect.expand") if a["k"] == groups)
    metrics["cli.import_s"] = trace["import_s"]
    return metrics


def check_tree(out: Path, inputs_dir: Path, groups: int) -> tuple[list[str], float, float]:
    """Correctness checks on one output tree: (problems, mean modularity, nmi at k = groups)."""
    from comtext.detect import load_partition
    from comtext.graph import WeightedGraph
    from comtext.metrics import nmi
    from comtext.pipeline import score

    compared = (out / "compare.csv").is_file()
    table = (out / ("compare.csv" if compared else "summary.csv")).read_text(encoding="utf-8")
    rows = [line.split(",") for line in table.splitlines()[1:]]
    mode_dirs = [out / "weighted", out / "structural"] if compared else [out]
    problems = []
    for column, mode_dir in enumerate(mode_dirs, start=1):
        graph_path = mode_dir / "graph.csv"
        nodes = set(WeightedGraph.read_csv(graph_path).nodes)
        for row in rows:
            partition_path = mode_dir / f"partition_k{row[0]}.txt"
            partition, header_q = load_partition(partition_path)
            if set(partition.assignment) != nodes:
                problems.append(f"{partition_path}: does not cover the graph's nodes")
            rescored = score(graph_path, partition_path).modularity
            if not rescored == header_q == float(row[column]):
                problems.append(f"{partition_path}: re-scored {rescored!r}, "
                                f"reported {header_q!r} and {row[column]}")
    truth, _ = load_partition(inputs_dir / "ground_truth.txt")
    found, _ = load_partition(mode_dirs[0] / f"partition_k{groups}.txt")
    mean_q = statistics.fmean(float(q) for row in rows for q in row[1:])
    return problems, mean_q, nmi(found, truth)


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path = WORK) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail record)."""
    definition = load_definition()
    work = work_root / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        seeds = [seed * INSTANCES + i for i in range(INSTANCES)]
        setup_times = []

        def generate(i: int, target: Path) -> str:
            start = time.perf_counter()
            workload.generate(target, seeds[i])
            setup_times.append(time.perf_counter() - start)
            return tree_digest(target)[0]

        input_digests = [generate(i, work / f"inputs{i}") for i in range(INSTANCES)]
        problems = []
        args = [[a.format(inputs=work / f"inputs{i}") for a in workload.args] + ["--k", workload.k]
                for i in range(INSTANCES)]

        walls, rss, traces = [], [], []
        runs: list[tuple[int, int, str | None]] = []  # (instance, exit code, output sha256)
        first: dict[int, tuple[Path, str | None, int]] = {}  # instance -> (tree, sha256, bytes)
        start = time.perf_counter()
        step = 0
        while step == 0 or time.perf_counter() - start < seconds:
            i = step % INSTANCES
            out = work / f"out{step}"
            wall, peak, code = launcher.run(
                [sys.executable, "-m", "comtext.cli", *args[i], "--out", str(out)],
                work / "cli.log")
            walls.append(wall)
            rss.append(peak)
            sha, size = tree_digest(out) if code == 0 else (None, 0)
            runs.append((i, code, sha))
            if trace:
                traced_out, spans_path = work / f"traced{step}", work / f"spans{step}.json"
                traced_wall, _, code = launcher.run(
                    [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path),
                     f"{workload.name}-s{seed}-{step}", *args[i], "--out", str(traced_out)],
                    work / "traced.log")
                runs.append((i, code, tree_digest(traced_out)[0] if code == 0 else None))
                if code == 0:
                    doc = json.loads(spans_path.read_text(encoding="utf-8"))
                    traces.append((i, doc, wall, traced_wall))
                shutil.rmtree(traced_out, ignore_errors=True)
            if i in first:
                shutil.rmtree(out, ignore_errors=True)
            else:
                first[i] = (out, sha, size)
            if generate(i, work / "again") != input_digests[i]:
                problems.append(f"seed {seeds[i]} generated different inputs")
            shutil.rmtree(work / "again")
            step += 1

        checked = []  # one record per instance whose outputs passed every check
        bad = set()
        for i, (out, sha, size) in sorted(first.items()):
            if sha is None:
                continue  # its first invocation failed; counted below
            try:
                tree_problems, modularity, nmi_value = check_tree(
                    out, work / f"inputs{i}", workload.groups)
            except Exception as exc:  # a broken tree is a failed run, not a crash
                tree_problems = [f"checks raised {exc!r}"]
            if tree_problems:
                bad.add(i)
                problems += tree_problems
            else:
                checked.append({"seed": seeds[i], "output_sha256": sha, "output_bytes": size,
                                "modularity": modularity, "nmi": nmi_value})
        failed = sum(code != 0 or sha != first[i][1] or i in bad for i, code, sha in runs)

        if trace:
            from comtext.detect import load_partition

            truths = [load_partition(work / f"inputs{i}" / "ground_truth.txt")[0].assignment
                      for i in range(INSTANCES)]
            samples = [{**layer_metrics(doc, truths[i], workload.groups), "cli.wall_s": wall,
                        "trace.overhead_s": traced_wall - wall}
                       for i, doc, wall, traced_wall in traces]
            wanted = definition["per_layer"]
            values = {m["name"]: [s[m["name"]] for s in samples] or [0.0] for m in wanted}
        else:
            def mean(key: str) -> list[float]:
                return [statistics.fmean(c[key] for c in checked) if checked else 0.0]

            wanted = definition["end_to_end"]
            values = {"wall_s": walls, "peak_rss_mb": rss, "setup_s": [min(setup_times)],
                      "output_bytes": [c["output_bytes"] for c in checked] or [0],
                      "modularity": mean("modularity"), "nmi": mean("nmi")}
        metrics = {m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
                   for m in wanted}
        result = {"correct": not problems and failed == 0, "attempted": len(runs),
                  "failed": failed, "metrics": metrics}
        detail = {
            "workload": workload.name, "seed": seed, "trace": int(trace),
            "instances": checked, "problems": problems,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "samples": {name: spread(v) for name, v in {"wall_s": walls, **values}.items()},
            "walls": [(n % INSTANCES, wall) for n, wall in enumerate(walls)],
        }
        return result, detail
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "comtext" / "cli.py").is_file():
        print(f"error: comtext sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Exit through the cleanup in run_workload, which stops the launcher.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
