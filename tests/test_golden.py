"""Golden digests of whole CLI output trees.

Each case runs ``comtext.cli.main`` on a recorded fixture and compares a
sha256 over every output file's relative path and bytes with a pinned
value.  A refactor must leave every digest unchanged; a change that moves
one on purpose says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest
from helpers import RECOVERY_SPEC, TREND_SPEC

from comtext import cli
from comtext.fixtures import generate, write_karate

# (case id, argv); text cases also get the fixture's input flags, and
# "{graph}" is the graph.csv that the spec's "run" case exported.
_TEXT_CASES = (
    ("run", ["run", "--k", "2,3,5"]),
    ("compare", ["compare", "--k", "2,4"]),
    ("structural", ["run", "--mode", "structural", "--k", "3"]),
    ("precision", ["run", "--precision", "3", "--alpha", "0.3"]),
)
# Seventeen decimal places show every bit of each fused weight, so this digest
# holds only where every sum rounds alike on every supported Python.
_FULL_PRECISION = ("full-precision", ["run", "--precision", "17"])
# Detection runs the largest k first; the tree keeps the order given.
_K_ORDER = ("k-order", ["run", "--k", "5,2,3"])
_RELOAD_CASES = (
    ("reload", ["run", "--graph", "{graph}", "--precision", "2"]),
    ("compare-reload", ["compare", "--graph", "{graph}"]),
    ("structural-reload", ["run", "--graph", "{graph}", "--mode", "structural", "--k", "2,3"]),
)

GOLDEN = {
    "recovery/run":
        "7c5558454d8104b9bb19b31f1c13fa29f88d62939ffbecd99b7251f149525d99",
    "recovery/compare":
        "0695a967f2442d83cc7227087a6e0aa1ad5d3d82f9535a3eb240a1227031968b",
    "recovery/structural":
        "0a41632901e4a4e706abb35313849cb20016e47c074b3aff5998ff2321891a9b",
    "recovery/k-order":
        "f38c44d5350312d50a5d63b0bf5c261bdc4458245a3264a9368670ead604ea6d",
    "recovery/precision":
        "dc9852b63a0ea8a3a4ef53d34195a1d47ba382fdefab0d7994146f6a37ce5966",
    "recovery/reload":
        "7900cd6758ee5bcd47f25e4710abb06de7d8560f1a08b6a360d20daec89118dd",
    "recovery/compare-reload":
        "1477a6ba5ae7eb1bb2bcbb51368032bfad3483e4da7e3e6af3a1b1f73d2cda95",
    "recovery/structural-reload":
        "269b39c5d69ce907628f6380a7c8e3048f15ab310ccb6bb71bec12878dfb6354",
    "trend/run":
        "0d154fa3d794e691541a08845ca811bd45b1524c5605740e0aaf49b01f0438c0",
    "trend/compare":
        "a9c25a71ba012e857af8f2c2825d9fbc50cf0b587445817798c4db03b16e0800",
    "trend/structural":
        "58c31a73214ac2241a6cf16db08a9e58ac4ee35ee5e96b5a520337ad06adb428",
    "trend/full-precision":
        "0877cbc09d4fe2b1a64001f12a6bb29e8a13591398952cbb9094fbb88e7f200a",
    "trend/precision":
        "4ff4a65deb353d317c0f088b6962e3b26b1d9bc89f750bea382877c6a25fe71b",
    "trend/reload":
        "5fb32854f5ae70d5921ed81e961e9c17defef6a2620e5b372aae69188f3eab6e",
    "trend/compare-reload":
        "1c1b064b74f77534e8fa9e243d327dea4573a57e2cd9f08c4ca72b2839ed80cd",
    "trend/structural-reload":
        "698163325d84fcd2dfa024107d98f01da0bad75fbd8723e7a308dc194a7cf3e2",
    "karate/structural":
        "d75771a7408c51d402f3a177ad0c97ae1e81bafb81ec83dfbecec74f8799f786",
}


# The compare trees as they were when each mode directory held its own copy
# of both matrix files and the root held none.
SPLIT_MATRIX_GOLDEN = {
    "recovery/compare":
        "44b7c7be1a9d08e8cee654427bb4606f57e2d4d3188e5bde44d1f891ea43978c",
    "trend/compare":
        "2750a5a93139eb3260099d5a5b4128403b201259117ec322cea9311e6c47eddd",
}


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def _cli(argv: list[str], out: Path) -> str:
    assert cli.main([*argv, "--out", str(out)]) == 0
    return tree_digest(out)


@pytest.fixture(scope="module")
def golden_root(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def digests(golden_root) -> dict[str, str]:
    root = golden_root
    found = {}
    for name, spec, text_cases in (("recovery", RECOVERY_SPEC, (*_TEXT_CASES, _K_ORDER)),
                                   ("trend", TREND_SPEC, (*_TEXT_CASES, _FULL_PRECISION))):
        fixture = generate(spec, root / name / "inputs")
        inputs = ["--edges", str(fixture.edges_path), "--corpus", str(fixture.corpus_path),
                  "--lexicon", str(fixture.lexicon_path)]
        for case, argv in text_cases:
            found[f"{name}/{case}"] = _cli([*argv, *inputs], root / name / case)
        graph = str(root / name / "run" / "graph.csv")
        for case, argv in _RELOAD_CASES:
            argv = [graph if a == "{graph}" else a for a in argv]
            found[f"{name}/{case}"] = _cli(argv, root / name / case)
    edge_path, _ = write_karate(root / "karate" / "inputs")
    found["karate/structural"] = _cli(
        ["run", "--edges", str(edge_path), "--mode", "structural", "--k", "2"],
        root / "karate" / "structural")
    return found


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_tree_digest(digests, case):
    assert digests[case] == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SPLIT_MATRIX_GOLDEN))
def test_compare_tree_differs_only_in_where_the_matrices_sit(digests, golden_root, tmp_path,
                                                             case):
    """Moving the root matrices into both mode directories rebuilds the
    earlier layout byte for byte."""
    tree = shutil.copytree(golden_root / case, tmp_path / "split")
    for name in ("similarity_matrix.csv", "bias_matrix.csv"):
        for mode in ("weighted", "structural"):
            shutil.copyfile(tree / name, tree / mode / name)
        (tree / name).unlink()
    assert tree_digest(tree) == SPLIT_MATRIX_GOLDEN[case]
