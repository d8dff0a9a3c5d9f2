"""Command-line front end for enumeration, verification and graph export.

Every subcommand takes the configuration flags --p, --k, --involution
and --n plus --budget, --seed, --out and --format.  Reports are JSON
with stable key order; graphs additionally export as DOT or as a CSV
degree sequence.  Matrices and points are passed as JSON, either
inline or as a path to a JSON file, and point bases are canonicalised
before use.  Exit status is 0 on success, 1 when a verification check
fails and 2 on usage errors, including an --out file that cannot be
written and a run whose predicted work exceeds the budget, which
harness.ensure_within_budget counts before any table is built.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
from typing import Callable, NamedTuple

from .fields import IDENTITY
from .harness import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GeometryConfig,
    build_graph,
    ensure_within_budget,
    enumerate_grassmannian,
    graph_report,
    jordan_system_axioms_check,
    report_to_json,
    verify_remarks,
    verify_theorem1,
)
from .hermitian import (
    common_complement,
    decompose_isotropic,
    enumerate_isotropic,
    standard_form,
)
from .matrices import Matrix
from .projline import BartolonePair, bartolone, point_from_matrix


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="field characteristic")
    common.add_argument("--k", type=int, default=1, help="extension degree")
    common.add_argument(
        "--involution",
        default=IDENTITY,
        help="involution kind (identity or frobenius)",
    )
    common.add_argument("--n", type=int, default=2, help="matrix block size")
    common.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="largest predicted count of each kind of work accepted: field-table "
        "entries (q^2), points, report entries, triple products, graph "
        "incidences and edges",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    common.add_argument("--out", default=None, help="write output to this file")
    common.add_argument(
        "--format",
        choices=("json", "dot", "csv"),
        default="json",
        help="output format (dot and csv apply to graph only)",
    )

    parser = argparse.ArgumentParser(
        prog="hermline",
        description="projective lines over matrix rings and their isotropic geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, parents=[common], help=command.help)
        for flag, options in command.arguments:
            subparser.add_argument(flag, **options)
    return parser


def _load_json_argument(text: str) -> dict:
    """Parse an argument that is inline JSON or a path to a JSON file.

    Text that starts with { or [ is inline JSON, so an array reaches the
    matrix schema's check instead of being opened as a file name.
    """
    stripped = text.strip()
    try:
        if stripped.startswith(("{", "[")):
            return json.loads(stripped)
        with open(text, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc  # no filename
        shown = reprlib.repr(text)
        raise ValueError(f"cannot read JSON argument {shown}: {reason}") from exc
    except RecursionError:
        raise ValueError("JSON argument is nested too deeply") from None


def _matrix_argument(cfg: GeometryConfig, text: str, rows: int, cols: int) -> Matrix:
    matrix = Matrix.from_json(cfg.field(), _load_json_argument(text))
    if matrix.rows != rows or matrix.cols != cols:
        raise ValueError(
            f"expected a {rows}x{cols} matrix, got {matrix.rows}x{matrix.cols}"
        )
    return matrix


def _point_argument(cfg: GeometryConfig, text: str):
    matrix = _matrix_argument(cfg, text, cfg.n, 2 * cfg.n)
    return point_from_matrix(cfg.field(), cfg.n, matrix)


def _point_list_report(cfg: GeometryConfig, check: str, points) -> dict:
    report = cfg.report_header(check)
    report["count"] = len(points)
    report["points"] = [
        {"id": i, "basis": p.to_json()} for i, p in enumerate(points)
    ]
    return report


def _cmd_enumerate(cfg: GeometryConfig, args) -> tuple:
    return _point_list_report(cfg, "enumerate", enumerate_grassmannian(cfg)), True


def _cmd_isotropic(cfg: GeometryConfig, args) -> tuple:
    points = enumerate_isotropic(cfg.field(), cfg.n)
    return _point_list_report(cfg, "isotropic", points), True


def _cmd_verify_theorem1(cfg: GeometryConfig, args) -> tuple:
    report = verify_theorem1(cfg)
    return report, report["equal"]


def _cmd_verify_remarks(cfg: GeometryConfig, args) -> tuple:
    report = verify_remarks(cfg, seed=args.seed)
    return report, report["passed"]


def _cmd_graph(cfg: GeometryConfig, args) -> tuple:
    graph = build_graph(cfg, kind=args.relation, point_set=args.points)
    if args.format == "csv":
        return graph.degrees_csv(), True
    if args.format == "dot":
        return graph.to_dot(), True
    return graph_report(cfg, graph), True


def _cmd_bartolone(cfg: GeometryConfig, args) -> tuple:
    n = cfg.n
    t1 = _matrix_argument(cfg, args.t1, n, n)
    t2 = _matrix_argument(cfg, args.t2, n, n)
    point = bartolone(BartolonePair(t1, t2))
    form = standard_form(cfg.field(), n)
    report = cfg.report_header("bartolone")
    report["t1_hermitian"] = t1.is_hermitian()
    report["t2_hermitian"] = t2.is_hermitian()
    report["isotropic"] = form.is_totally_isotropic(point)
    report["point"] = point.to_json()
    return report, True


def _cmd_decompose(cfg: GeometryConfig, args) -> tuple:
    point = _point_argument(cfg, args.point)
    pair = decompose_isotropic(point)
    report = cfg.report_header("decompose")
    report["point"] = point.to_json()
    report["t1"] = pair.t1.to_json()
    report["t2"] = pair.t2.to_json()
    return report, True


def _cmd_complement(cfg: GeometryConfig, args) -> tuple:
    u1 = _point_argument(cfg, args.u1)
    u2 = _point_argument(cfg, args.u2)
    witness = common_complement(u1, u2)
    report = cfg.report_header("complement")
    report["u1"] = u1.to_json()
    report["u2"] = u2.to_json()
    report["complement"] = witness.to_json()
    return report, True


def _cmd_jordan_check(cfg: GeometryConfig, args) -> tuple:
    report = cfg.report_header("jordan-check")
    report.update(jordan_system_axioms_check(cfg.field(), cfg.n))
    return report, report["passed"]


class _Subcommand(NamedTuple):
    """A subcommand: its handler, help text and extra arguments.

    The handler returns the output (a report dict, or text for the dot
    and csv graph formats) and whether its checks passed.  main has the
    work of every subcommand counted against the budget before it runs.
    """

    run: Callable
    help: str
    arguments: tuple = ()
    formats: tuple = ("json",)


def _json_argument(flag: str, what: str) -> tuple:
    return flag, {"required": True, "help": f"{what} (JSON)"}


_SUBCOMMANDS = {
    "enumerate": _Subcommand(_cmd_enumerate, "list all points of the line"),
    "isotropic": _Subcommand(
        _cmd_isotropic, "list the maximal totally isotropic points"
    ),
    "verify-theorem1": _Subcommand(
        _cmd_verify_theorem1,
        "check that hermitian pairs parametrise exactly the isotropic points",
    ),
    "verify-remarks": _Subcommand(
        _cmd_verify_remarks,
        "run the embedding, rank law, annihilator, twisted map and star checks",
    ),
    "graph": _Subcommand(
        _cmd_graph,
        "build the distant or adjacency graph",
        arguments=(
            ("--relation", {"choices": ("distant", "adjacency"), "default": "distant"}),
            ("--points", {"choices": ("all", "isotropic"), "default": "all"}),
        ),
        formats=("json", "dot", "csv"),
    ),
    "bartolone": _Subcommand(
        _cmd_bartolone,
        "map a parameter pair to its point",
        arguments=(
            _json_argument("--t1", "first parameter matrix"),
            _json_argument("--t2", "second parameter matrix"),
        ),
    ),
    "decompose": _Subcommand(
        _cmd_decompose,
        "write an isotropic point as a hermitian parameter pair",
        arguments=(_json_argument("--point", "point basis matrix"),),
    ),
    "complement": _Subcommand(
        _cmd_complement,
        "common isotropic complement of two isotropic points",
        arguments=(
            _json_argument("--u1", "first point basis"),
            _json_argument("--u2", "second point basis"),
        ),
    ),
    "jordan-check": _Subcommand(
        _cmd_jordan_check, "check closure axioms of the hermitian matrix system"
    ),
}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        shown = reprlib.repr(out)
        raise ValueError(f"cannot write --out {shown}: {exc.strerror}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = GeometryConfig(
            p=args.p,
            k=args.k,
            involution=args.involution,
            n=args.n,
            budget=args.budget,
        )
        command = _SUBCOMMANDS[args.command]
        if args.format not in command.formats:
            raise ValueError(f"{args.command} only supports --format json")
        relation, points = (getattr(args, a, None) for a in ("relation", "points"))
        ensure_within_budget(cfg, args.command, relation, points, args.format)
        output, passed = command.run(cfg, args)
        if not isinstance(output, str):
            output = report_to_json(output)
        _emit(output, args.out)
        return 0 if passed else 1
    except (BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
