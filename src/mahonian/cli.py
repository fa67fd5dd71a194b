"""
Command-line interface.

Subcommands: stats, map, pattern, rsk, table, verify.  Data goes to
standard output, diagnostics to standard error.  Exit codes: 0 success (or
all checks verified), 1 a counterexample (a map that raised on an instance
counts as one) or a broken internal invariant, 2 usage or parse error.
Every subcommand is a thin wrapper over the library.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Sequence

from . import involution, patterns, tableaux, verify, words
from .errors import DEFAULT_CAP, EmptyInputError, InternalInvariantError, refuse_over_cap

DEFAULT_SCHEMA = ("adj", "des", "ides", "F", "imaj", "maj", "stat")

# `stats` prints every statistic, the three index sets last.
STATS_SCHEMA = DEFAULT_SCHEMA + ("D-set", "Id-set", "Sh-set")

_SCHEMA_ALIASES = {heading: key for key, heading in words.HEADINGS.items()}


def _parse_schema(text: str | None) -> list[str]:
    if text is None:
        return list(DEFAULT_SCHEMA)
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise EmptyInputError("--schema names no statistic")
    resolved = [_SCHEMA_ALIASES.get(tok, tok) for tok in tokens]
    for i, tok in enumerate(resolved):
        words.statistic(tok)  # raises UnknownNameError on a bad token
        if tok in resolved[:i]:
            raise ValueError(f"--schema names {words.HEADINGS[tok]} twice")
    return resolved


def _rows(ws, schema: Sequence[str]) -> tuple[list[str], list[tuple]]:
    """Headings, and one (word, statistic values) row per word."""
    headings = [words.HEADINGS[token] for token in schema]
    return headings, [(w, words.profile(w, schema)) for w in ws]


def _json_row(w, headings: Sequence[str], values: Sequence[object]) -> dict:
    return {"word": words.format_word(w), **dict(zip(headings, values))}


def cmd_stats(args: argparse.Namespace) -> int:
    w = words.parse_word(args.word)
    headings, [(_, values)] = _rows([w], STATS_SCHEMA)
    if args.format == "json":
        # default=sorted writes each index set as its ascending list.
        print(json.dumps(_json_row(w, headings, values), default=sorted))
    else:
        print(" ".join(f"{h}={words.format_statistic(x)}" for h, x in zip(headings, values)))
    return 0


# `map`'s maps in usage order; p, j and rc refuse a word that is not a permutation.
_MAPS = {
    "phi": involution.phi_on_class,
    "p": involution.burstein_p,
    "j": tableaux.foata_j,
    "code": words.code,
    "rc": words.reverse_complement,
}


def cmd_map(args: argparse.Namespace) -> int:
    w = words.parse_word(args.word)
    print(words.format_word(_MAPS[args.name](w)))
    return 0


def _check_cap_flag(cap: int) -> None:
    if cap < 1:
        raise ValueError("--cap must be positive")


def cmd_pattern(args: argparse.Namespace) -> int:
    _check_cap_flag(args.cap)
    pat = patterns.parse_pattern(args.pattern)
    w = words.parse_word(args.word)
    refuse_over_cap(
        f"a {len(pat.letters)}-letter pattern in {len(w)} letters has",
        math.comb(len(w), len(pat.letters)),
        "index tuples",
        args.cap,
    )
    print(patterns.count_occurrences(pat, w))
    return 0


def cmd_rsk(args: argparse.Namespace) -> int:
    w = words.parse_word(args.word)
    insert_tab, record_tab = tableaux.rsk(w)
    print("P:")
    print(insert_tab)
    print("Q:")
    print(record_tab)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    _check_cap_flag(args.cap)
    letters = words.parse_word(args.multiset)
    schema = _parse_schema(args.schema)
    refuse_over_cap("rearrangement class has", verify.multinomial(letters), "elements", args.cap)
    headings, rows = _rows(verify.rearrangement_class(letters), schema)
    if args.format == "json":
        print(json.dumps([_json_row(v, headings, values) for v, values in rows], default=sorted))
    else:
        print("\t".join(["word", *headings]))
        for v, values in rows:
            print("\t".join([words.format_word(v), *map(words.format_statistic, values)]))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    bounds = verify.CheckBounds(
        n=args.n,
        alphabet=args.alphabet,
        word=words.parse_word(args.word) if args.word is not None else None,
        cap=args.cap,
        jobs=args.jobs,
    )
    if args.check == "all":
        reports = verify.run_all(bounds)
    else:
        reports = [verify.check(args.check, bounds)]
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(r) for r in reports]))
    else:
        for r in reports:
            for line in r.lines():
                print(line)
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahonian",
        description="Word statistics, vincular pattern counting, RSK, and the"
        " MAJ/STAT involutions, with exhaustive bounded verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print the seven statistics and index sets of a word")
    p_stats.add_argument("word", help='word text, e.g. "2112" or "10,2,10,3"')
    p_stats.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_stats.set_defaults(func=cmd_stats)

    p_map = sub.add_parser("map", help="apply a named map to a word or permutation")
    p_map.add_argument("name", choices=tuple(_MAPS))
    p_map.add_argument("word")
    p_map.set_defaults(func=cmd_map)

    p_pattern = sub.add_parser("pattern", help="count occurrences of a vincular pattern")
    p_pattern.add_argument("pattern", help='dash-separated blocks, e.g. "31-4-2"')
    p_pattern.add_argument("word")
    p_pattern.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_pattern.set_defaults(func=cmd_pattern)

    p_rsk = sub.add_parser("rsk", help="print the insertion and recording tableaux")
    p_rsk.add_argument("word", help="a permutation of 1..n")
    p_rsk.set_defaults(func=cmd_rsk)

    p_table = sub.add_parser("table", help="tabulate statistics over a rearrangement class")
    p_table.add_argument("multiset", help="any word of the class, e.g. \"1122\"")
    columns = ",".join(words.HEADINGS[name] for name in DEFAULT_SCHEMA)
    p_table.add_argument(
        "--schema",
        help=f"comma-separated statistic columns (default {columns})",
    )
    p_table.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_table.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a named exhaustive check, or all of them")
    p_verify.add_argument("check", choices=verify.CHECK_IDS + ("all",))
    p_verify.add_argument("--n", type=int, default=verify.CheckBounds.n)
    p_verify.add_argument("--alphabet", type=int, default=verify.CheckBounds.alphabet)
    p_verify.add_argument("--word", default=None, help="restrict class checks to one class")
    p_verify.add_argument("--cap", type=int, default=verify.CheckBounds.cap)
    p_verify.add_argument("--jobs", type=int, default=verify.CheckBounds.jobs)
    p_verify.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:  # a fault of the library, not of the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
