"""Command-line interface.

Subcommands: ``run`` (one pipeline pass), ``compare`` (weighted vs
structural side by side), ``generate`` (bundled/synthetic fixtures) and
``score`` (re-score exported graph + partition files).  Every ``run`` /
``compare`` flag can also be supplied through a JSON config file
(``--config``); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures, pipeline
from .errors import ParameterError, ParseError
from .pipeline import RunConfig, StageError

def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON file mirroring these flags")
    parser.add_argument("--edges", help="edge CSV file (id_a,id_b per line)")
    parser.add_argument("--corpus", help="JSON-lines corpus file")
    parser.add_argument("--lexicon", help="TSV sentiment lexicon")
    parser.add_argument("--graph", help="reload a previously exported graph CSV")
    parser.add_argument("--k", help="comma-separated center counts, e.g. 2,3,4")
    parser.add_argument("--alpha", type=float, help="content-similarity weight share")
    parser.add_argument("--mode", choices=("weighted", "structural"),
                        help="run only; compare runs both")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--precision", type=int, help="decimal places in exports")
    parser.add_argument("--token-delim", dest="token_delim",
                        help="corpus text is already segmented: split it on this string")
    parser.add_argument("--no-matrices", dest="no_matrices", action="store_true",
                        default=None, help="skip matrix CSV exports")


def _parse_k(value) -> tuple[int, ...]:
    if isinstance(value, str):
        parts = value.split(",")
        if not all(part.strip() for part in parts):
            raise ParameterError(f"empty k value in {value!r}")
        try:
            return tuple(map(int, parts))
        except ValueError:
            raise ParameterError(f"cannot parse k values from {value!r}") from None
    values = value if isinstance(value, list) else [value]
    if not all(type(k) is int for k in values):
        raise ParameterError(f"k values must be integers, got {value!r}")
    return tuple(values)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"expected a string, got {value!r}")
    return value


def _input_path(value) -> Path | None:
    return Path(value) if _text(value) else None


def _int(value) -> int:
    return value if type(value) is int else int(_text(value))


def _float(value) -> float:
    return float(value if type(value) in (int, float) else _text(value))


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise ParameterError(f"expected true or false, got {value!r}")
    return value


# Flag (and config-file key) -> (RunConfig field, converter).  A converter
# takes the flag's value or the file's JSON value: a JSON string is read as
# the flag's text would be, switches take only JSON booleans, and a boolean
# is never a number.  Defaults live in RunConfig only: a key set neither by
# flag nor by file is left out.
_RUN_FIELDS = {
    "edges": ("edges", _input_path),
    "corpus": ("corpus", _input_path),
    "lexicon": ("lexicon", _input_path),
    "graph": ("graph_path", _input_path),
    "k": ("k_values", _parse_k),
    "alpha": ("alpha", _float),
    "mode": ("mode", _text),
    "out": ("out_dir", lambda value: Path(_text(value))),
    "precision": ("precision", _int),
    "token_delim": ("token_delim", _text),
    "no_matrices": ("export_matrices", lambda value: not _switch(value)),
}


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Flag value, else config-file value, else the ``RunConfig`` default.
    ``compare`` runs both modes, so it takes a mode from neither."""
    file_values: dict = {}
    if args.config is not None:
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ParseError(f"config file {args.config}: expected a JSON object")
        unknown = set(file_values) - set(_RUN_FIELDS)
        if unknown:
            raise ParseError(f"config file {args.config}: unknown keys {sorted(unknown)}")
    if args.command == "compare" and (args.mode is not None or "mode" in file_values):
        raise ParameterError("compare runs both modes: it takes no --mode or 'mode' key")
    fields = {}
    for key, (name, convert) in _RUN_FIELDS.items():
        value = getattr(args, key)
        if value is not None:
            fields[name] = convert(value)
        elif key in file_values:
            try:
                fields[name] = convert(file_values[key])
            except ValueError as exc:
                raise ParseError(f"config file {args.config}: key {key!r}: {exc}") from None
    return RunConfig(**fields)


def _cmd_run(args: argparse.Namespace) -> int:
    result = pipeline.run(_run_config(args))
    print("k  modularity")
    for k, q in result.summary_rows:
        print(f"{k}  {q:.6f}")
    print(f"artifacts written to {result.out_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    result = pipeline.compare(_run_config(args))
    print("k  modularity_weighted  modularity_structural")
    for k, qw, qs in result.rows:
        print(f"{k}  {qw:.6f}  {qs:.6f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if args.karate:
        edge_path, _ = fixtures.write_karate(out)
        print(f"wrote {edge_path} and {out / 'karate_factions.txt'}")
        return 0
    spec = fixtures.default_spec(
        groups=args.groups,
        nodes_per_group=args.nodes_per_group,
        p_in=args.p_in,
        p_out=args.p_out,
        rng_seed=args.seed,
        tokens_per_user=args.tokens_per_user,
    )
    fixture = fixtures.generate(spec, out)
    print(f"wrote {fixture.corpus_path}, {fixture.edges_path}, {fixture.lexicon_path}")
    print(f"ground truth: {fixture.truth_path}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    report = pipeline.score(Path(args.graph), Path(args.partition))
    print(f"modularity {report.modularity:.6f}")
    if args.out:
        report.write_json(Path(args.out))
        print(f"report written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comtext",
        description="Text-attributed social graph community detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one pipeline pass (weighted or structural)")
    _add_pipeline_flags(run_p)
    run_p.set_defaults(handler=_cmd_run)

    cmp_p = sub.add_parser("compare", help="weighted vs structural on the same inputs")
    _add_pipeline_flags(cmp_p)
    cmp_p.set_defaults(handler=_cmd_compare)

    gen_p = sub.add_parser("generate", help="write bundled or synthetic fixtures")
    gen_p.add_argument("--out", required=True, help="output directory")
    gen_p.add_argument("--karate", action="store_true",
                       help="write the bundled karate club data instead")
    gen_p.add_argument("--seed", type=int, default=42)
    gen_p.add_argument("--groups", type=int, default=2)
    gen_p.add_argument("--nodes-per-group", dest="nodes_per_group", type=int, default=10)
    gen_p.add_argument("--p-in", dest="p_in", type=float, default=0.8)
    gen_p.add_argument("--p-out", dest="p_out", type=float, default=0.02)
    gen_p.add_argument("--tokens-per-user", dest="tokens_per_user", type=int, default=30)
    gen_p.set_defaults(handler=_cmd_generate)

    score_p = sub.add_parser("score", help="re-score exported graph + partition files")
    score_p.add_argument("--graph", required=True)
    score_p.add_argument("--partition", required=True)
    score_p.add_argument("--out", help="optional JSON report path")
    score_p.set_defaults(handler=_cmd_score)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
