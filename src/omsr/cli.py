"""Command-line entry point: construct, verify, search, explore, suite.

Exit codes form a stable contract: 0 success, 2 a construction family's
stated exception applies (no digraph exists or the case is open), 3 search
budget exhausted, 1 anything else. argparse's own exit status is remapped so
usage errors never collide with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .constructions import (
    FAMILIES,
    ExceptionVerdict,
    applicable_family,
    family_matrix,
)
from .groups import (
    FiniteGroup,
    GeneratorSpec,
    _unique_keys,
    group_from_json,
    load_group_file,
    standard_two_generated,
)
from .mcayley import ConnectionMatrix, build, dot_labels
from .search import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    SearchSpace,
    exhaustive_search,
    search_trivial_aut_digraph,
)
from .suite import CRITERIA, run_all
from .verify import verify_connection

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXCEPTION = 2
EXIT_BUDGET = 3

GROUP_HELP = "cyclic:N | product:a,b[,c...] | catalog:NAME | perm:file.json"


def parse_group_spec(text: str) -> tuple[FiniteGroup, GeneratorSpec]:
    """cyclic:N, product:a,b[,c...], catalog:NAME (groups.standard_two_generated),
    or perm:file.json."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"group spec {text!r} is not kind:args")
    if kind == "cyclic":
        return group_from_json({"kind": "cyclic", "n": int(rest)})
    if kind == "product":
        factors = [int(part) for part in rest.split(",")]
        return group_from_json({"kind": "product", "factors": factors})
    if kind == "catalog":
        return standard_two_generated(rest)
    if kind == "perm":
        return load_group_file(rest)
    raise ValueError(f"unknown group spec kind {kind!r} (want cyclic, product, catalog, perm)")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved here
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _print_exception(verdict: ExceptionVerdict) -> int:
    print(
        f"no construction: {verdict.clause} "
        f"(group {verdict.group_name}, m={verdict.m}, status {verdict.status})",
        file=sys.stderr,
    )
    print(verdict.detail, file=sys.stderr)
    return EXIT_EXCEPTION


def cmd_construct(args: argparse.Namespace) -> int:
    group, spec = parse_group_spec(args.group)
    family = args.family or applicable_family(group, spec, args.m)
    if isinstance(family, ExceptionVerdict):
        return _print_exception(family)
    conn = family_matrix(family, group, spec, args.m)
    if args.dot:
        # only the DOT file needs the digraph; the report counts from the matrix
        graph = build(group, conn)
        Path(args.dot).write_text(
            graph.to_dot(labels=dot_labels(group, graph.nv), name=family.replace("-", "_")),
            encoding="utf-8",
        )
    report = {
        "schema": 1,
        "group": {"name": group.name, "order": group.n},
        "m": args.m,
        "family": family,
        "matrix": conn.to_json(),
        "vertices": args.m * group.n,
        "arcs": group.n * sum(sum(map(len, row)) for row in conn.sets),
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.matrix and (args.family is not None or args.m is not None):
        # the file fixes m and every set, so either flag would go unread
        raise ValueError("--matrix takes neither --family nor --m")
    group, spec = parse_group_spec(args.group)
    if args.matrix:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        # accept both a bare matrix and a construct/verify report wrapping one
        matrix = obj.get("matrix", obj) if isinstance(obj, dict) else obj
        if not isinstance(matrix, dict):
            raise ValueError(f"{args.matrix}: the matrix is not a JSON object")
        conn = ConnectionMatrix.from_json(matrix)
        family = None
    elif args.family:
        if args.m is None:
            raise ValueError("--family needs --m")
        conn = family_matrix(args.family, group, spec, args.m)
        family = args.family
    else:
        raise ValueError("verify needs --matrix or --family")
    report = verify_connection(group, conn, family=family)
    print(report.human_table())
    print()
    _emit(report.to_json(), args.out)
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    group, _spec = parse_group_spec(args.group)
    space = SearchSpace(
        group=group, m=args.m, require_oriented=True, require_connected=args.connected
    )
    outcome = exhaustive_search(space, budget=args.budget, checkpoint_path=args.checkpoint)
    _emit(outcome.to_json(), args.out)
    return EXIT_OK


def cmd_explore(args: argparse.Namespace) -> int:
    if args.mode == "exhaustive" and args.seed is not None:
        # the exhaustive search draws nothing, so the seed would go unread
        raise ValueError("--mode exhaustive takes no --seed")
    outcome = search_trivial_aut_digraph(
        args.n,
        args.k,
        oriented=not args.allow_digons,
        mode=args.mode,
        budget=args.budget,
        seed=0 if args.seed is None else args.seed,
    )
    report = outcome.to_json()
    _emit(report, args.out)
    if outcome.status == "BUDGET":
        return EXIT_BUDGET
    return EXIT_OK


def _criterion_numbers(text: str) -> tuple[int, ...]:
    """``--only``'s comma-separated criterion numbers, ASCII digits only."""
    parts = text.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(
            f"want criterion numbers 1..{len(CRITERIA)} separated by commas, got {text!r}"
        )
    return tuple(map(int, parts))


def cmd_suite(args: argparse.Namespace) -> int:
    results = run_all(args.only)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="omsr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("construct", help="emit a family's connection matrix")
    p.add_argument("--group", required=True, help=GROUP_HELP)
    p.add_argument("--m", type=int, required=True, help="number of blocks")
    p.add_argument("--family", choices=sorted(FAMILIES), help="force a family instead of dispatching")
    p.add_argument("--out", help="write the JSON report to this file")
    p.add_argument("--dot", help="write the digraph in DOT format to this file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the full OmSR check pipeline")
    p.add_argument("--group", required=True, help=GROUP_HELP)
    p.add_argument("--matrix", help="connection matrix JSON file")
    p.add_argument("--family", choices=sorted(FAMILIES))
    p.add_argument("--m", type=int, help="number of blocks (with --family)")
    p.add_argument("--out", help="write the verification report to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaust a (group, m) space")
    p.add_argument("--group", required=True, help=GROUP_HELP)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--checkpoint", help="JSON checkpoint file for resumable runs")
    p.add_argument("--connected", action="store_true", help="accept only connected witnesses")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("explore", help="hunt digraphs with trivial Aut (exploratory)")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--k", type=int, default=3, help="in- and out-valency")
    p.add_argument("--allow-digons", action="store_true", help="drop the oriented requirement")
    p.add_argument("--mode", choices=("exhaustive", "randomized"), default="randomized")
    p.add_argument(
        "--budget",
        type=int,
        help="work units when exhaustive (default 10^8), samples when randomized (default 10^6)",
    )
    p.add_argument("--seed", type=int, help="randomized mode only (default 0)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--only", type=_criterion_numbers, help="comma-separated criterion numbers")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
