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
from .groups import FiniteGroup, GeneratorSpec, group_from_json, load_group_file
from .mcayley import ConnectionMatrix, build
from .search import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    SearchSpace,
    exhaustive_search,
    search_trivial_aut_digraph,
)
from .suite import run_all
from .verify import verify_connection

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXCEPTION = 2
EXIT_BUDGET = 3


def parse_group_spec(text: str) -> tuple[FiniteGroup, GeneratorSpec]:
    """cyclic:N, product:a,b[,c...], or perm:file.json."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"group spec {text!r} is not kind:args")
    if kind == "cyclic":
        return group_from_json({"kind": "cyclic", "n": int(rest)})
    if kind == "product":
        factors = [int(part) for part in rest.split(",")]
        return group_from_json({"kind": "product", "factors": factors})
    if kind == "perm":
        return load_group_file(rest)
    raise ValueError(f"unknown group spec kind {kind!r} (want cyclic, product, perm)")


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
    gamma = build(group, conn)
    if args.dot:
        Path(args.dot).write_text(
            gamma.graph.to_dot(labels=gamma.dot_labels(), name=family.replace("-", "_")),
            encoding="utf-8",
        )
    report = {
        "schema": 1,
        "group": {"name": group.name, "order": group.n},
        "m": args.m,
        "family": family,
        "matrix": conn.to_json(),
        "vertices": gamma.graph.nv,
        "arcs": gamma.graph.arc_count,
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    group, spec = parse_group_spec(args.group)
    if args.matrix:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
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
    print(json.dumps(report.to_json(), indent=2))
    if args.out:
        report.save(args.out)
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    group, _spec = parse_group_spec(args.group)
    space = SearchSpace(
        group=group, m=args.m, require_oriented=True, require_connected=args.connected
    )
    outcome = exhaustive_search(
        space,
        budget=args.budget,
        checkpoint_path=args.checkpoint,
        jobs=args.jobs,
    )
    _emit(outcome.to_json(), args.out)
    return EXIT_OK


def cmd_explore(args: argparse.Namespace) -> int:
    outcome = search_trivial_aut_digraph(
        args.n,
        args.k,
        oriented=not args.allow_digons,
        mode=args.mode,
        budget=args.budget,
        seed=args.seed,
        switches=args.switches,
    )
    report = outcome.to_json()
    _emit(report, args.out)
    if outcome.status == "BUDGET":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    numbers = tuple(int(part) for part in args.only.split(",")) if args.only else None
    results = run_all(numbers)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="omsr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("construct", help="emit a family's connection matrix")
    p.add_argument("--group", required=True, help="cyclic:N | product:a,b[,c...] | perm:file.json")
    p.add_argument("--m", type=int, required=True, help="number of blocks")
    p.add_argument("--family", choices=sorted(FAMILIES), help="force a family instead of dispatching")
    p.add_argument("--out", help="write the JSON report to this file")
    p.add_argument("--dot", help="write the digraph in DOT format to this file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the full OmSR check pipeline")
    p.add_argument("--group", required=True)
    p.add_argument("--matrix", help="connection matrix JSON file")
    p.add_argument("--family", choices=sorted(FAMILIES))
    p.add_argument("--m", type=int, help="number of blocks (with --family)")
    p.add_argument("--out", help="write the verification report to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaust a (group, m) space")
    p.add_argument("--group", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=int, default=1, help="worker processes; same outcome as one job")
    p.add_argument("--checkpoint", help="JSON checkpoint file for resumable runs")
    p.add_argument("--connected", action="store_true", help="accept only connected witnesses")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("explore", help="hunt digraphs with trivial Aut (exploratory)")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--k", type=int, default=3, help="in- and out-valency")
    p.add_argument("--allow-digons", action="store_true", help="drop the oriented requirement")
    p.add_argument("--mode", choices=("exhaustive", "randomized"), default="randomized")
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--switches", type=int, help="arc switches between randomized samples")
    p.add_argument("--out")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers")
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
