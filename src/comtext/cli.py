"""Command-line interface.

Subcommands: ``run`` (one pipeline pass), ``compare`` (weighted vs
structural side by side), ``generate`` (bundled/synthetic fixtures) and
``score`` (re-score exported graph + partition files).  Every ``run`` /
``compare`` flag can also be supplied through a JSON config file
(``--config``); explicit flags override file values.  argparse checks only
the shape of a command line and takes every value as text; each value is
checked by one converter, the one its config key uses, so a bad value exits
1 naming its flag or key.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures, pipeline
from .errors import ParameterError, ParseError
from .pipeline import RunConfig, StageError

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


def _path(value) -> Path:
    if not _text(value):
        raise ParameterError("empty path")
    return Path(value)


def _given(where: str, value, convert=_path):
    """``convert(value)``; a ValueError's message gains ``where``, the flag
    or config-file key that gave the value."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ParameterError(f"{where}: {exc}") from None


def _int(value) -> int:
    if type(value) is int or isinstance(value, str):  # a bool is not an int here
        return int(value)
    raise ParameterError(f"expected an integer, got {value!r}")


def _float(value) -> float:
    if type(value) in (int, float) or isinstance(value, str):
        return float(value)
    raise ParameterError(f"expected a number, got {value!r}")


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise ParameterError(f"expected true or false, got {value!r}")
    return value


# Flag (and config-file key) -> (RunConfig field, converter, help).  This
# table is the one declaration of run's and compare's value flags, and its
# converters their one check: argparse takes every value as text.  A
# converter takes the flag's text or the file's JSON value: a JSON string is
# read as the flag's text would be, switches take only JSON booleans, and a
# boolean is never a number.  Every path, given by flag or by file, goes
# through _path, so none may be empty.  Defaults live in RunConfig only: a
# key set neither by flag nor by file is left out.
_RUN_FIELDS = {
    "edges": ("edges", _path, "edge CSV file (id_a,id_b per line)"),
    "corpus": ("corpus", _path, "JSON-lines corpus file"),
    "lexicon": ("lexicon", _path, "TSV sentiment lexicon"),
    "graph": ("graph_path", _path, "reload a previously exported graph CSV"),
    "k": ("k_values", _parse_k, "comma-separated center counts, e.g. 2,3,4"),
    "alpha": ("alpha", _float, "content-similarity weight share"),
    "mode": ("mode", _text, "weighted or structural; run only, compare runs both"),
    "out": ("out_dir", _path, "output directory"),
    "precision": ("precision", _int, "decimal places in exports"),
    "token_delim": ("token_delim", _text,
                    "corpus text is already segmented: split it on this string"),
    "no_matrices": ("export_matrices", lambda value: not _switch(value),
                    "skip matrix CSV exports"),
}

# generate's fixture flags, a table of the same kind: flag -> (SyntheticSpec
# field, converter, help).  SyntheticSpec holds their defaults, so only the
# flags given are passed on.
_SPEC_FIELDS = {
    "seed": ("rng_seed", _int, "random seed"),
    "groups": ("groups", _int, "number of planted groups"),
    "nodes_per_group": ("nodes_per_group", _int, "users in each group"),
    "p_in": ("p_in", _float, "edge probability within a group"),
    "p_out": ("p_out", _float, "edge probability between groups"),
    "tokens_per_user": ("tokens_per_user", _int, "tokens in each user's text"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_flags(parser: argparse.ArgumentParser, table: dict) -> None:
    """One flag per key of ``table``; only ``--no-matrices`` is a switch."""
    for key, (_, _, text) in table.items():
        parser.add_argument(_flag(key), action="store_true" if key == "no_matrices" else "store",
                            default=None, help=text)


def _converted(args: argparse.Namespace, table: dict) -> dict:
    """Each flag of ``table`` given in ``args``, converted, by field name."""
    return {name: _given(_flag(key), getattr(args, key), convert)
            for key, (name, convert, _) in table.items() if getattr(args, key) is not None}


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Flag value, else config-file value, else the ``RunConfig`` default.
    Every flag is converted before the config file is read.  ``compare``
    runs both modes, so it takes a mode from neither."""
    fields = _converted(args, _RUN_FIELDS)
    config = None if args.config is None else _given("--config", args.config)
    file_values: dict = {}
    if config is not None:
        try:
            file_values = json.loads(config.read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"config file {config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ParseError(f"config file {config}: expected a JSON object")
        unknown = set(file_values) - set(_RUN_FIELDS)
        if unknown:
            raise ParseError(f"config file {config}: unknown keys {sorted(unknown)}")
    if args.command == "compare" and (args.mode is not None or "mode" in file_values):
        raise ParameterError("compare runs both modes: it takes no --mode or 'mode' key")
    for key, (name, convert, _) in _RUN_FIELDS.items():
        if name not in fields and key in file_values:
            fields[name] = _given(f"config file {config}: key {key!r}", file_values[key], convert)
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
    out = _given("--out", args.out)
    spec_values = _converted(args, _SPEC_FIELDS)  # checked under --karate too
    if args.karate:
        edge_path, _ = fixtures.write_karate(out)
        print(f"wrote {edge_path} and {out / 'karate_factions.txt'}")
        return 0
    fixture = fixtures.generate(fixtures.SyntheticSpec(**spec_values), out)
    print(f"wrote {fixture.corpus_path}, {fixture.edges_path}, {fixture.lexicon_path}")
    print(f"ground truth: {fixture.truth_path}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    graph, partition = _given("--graph", args.graph), _given("--partition", args.partition)
    out = None if args.out is None else _given("--out", args.out)
    report = pipeline.score(graph, partition)
    print(f"modularity {report.modularity:.6f}")
    if out is not None:
        report.write_json(out)
        print(f"report written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comtext",
        description="Text-attributed social graph community detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, handler, text in (
            ("run", _cmd_run, "one pipeline pass (weighted or structural)"),
            ("compare", _cmd_compare, "weighted vs structural on the same inputs")):
        pipeline_p = sub.add_parser(command, help=text)
        pipeline_p.add_argument("--config", help="JSON file mirroring these flags")
        _add_flags(pipeline_p, _RUN_FIELDS)
        pipeline_p.set_defaults(handler=handler)

    gen_p = sub.add_parser("generate", help="write bundled or synthetic fixtures")
    gen_p.add_argument("--out", required=True, help="output directory")
    gen_p.add_argument("--karate", action="store_true",
                       help="write the bundled karate club data instead")
    _add_flags(gen_p, _SPEC_FIELDS)
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
