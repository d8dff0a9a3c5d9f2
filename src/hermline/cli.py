"""Command-line front end for enumeration, verification and graph export.

Every subcommand takes the configuration flags --p, --k, --involution
and --n plus --budget, --seed, --out and --format.  Reports are JSON
with stable key order; graphs additionally export as DOT or as a CSV
degree sequence.  Matrices and points are passed as JSON, either
inline or as a path to a JSON file, and point bases are canonicalised
before use.  Exit status is 0 on success, 1 when a verification check
fails and 2 on usage errors, including configurations whose predicted
point count exceeds the budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fields import IDENTITY
from .harness import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GeometryConfig,
    build_graph,
    ensure_within_budget,
    enumerate_grassmannian,
    graph_report,
    report_to_json,
    verify_remarks,
    verify_theorem1,
)
from .hermitian import (
    common_complement,
    decompose_isotropic,
    enumerate_isotropic,
    jordan_system_axioms_check,
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
        help="largest predicted point count accepted for enumeration",
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
    sub.add_parser("enumerate", parents=[common], help="list all points of the line")
    sub.add_parser(
        "isotropic", parents=[common], help="list the maximal totally isotropic points"
    )
    sub.add_parser(
        "verify-theorem1",
        parents=[common],
        help="check that hermitian pairs parametrise exactly the isotropic points",
    )
    sub.add_parser(
        "verify-remarks",
        parents=[common],
        help="run the embedding, rank law, annihilator, twisted map and star checks",
    )
    graph = sub.add_parser(
        "graph", parents=[common], help="build the distant or adjacency graph"
    )
    graph.add_argument(
        "--relation", choices=("distant", "adjacency"), default="distant"
    )
    graph.add_argument("--points", choices=("all", "isotropic"), default="all")
    bart = sub.add_parser(
        "bartolone", parents=[common], help="map a parameter pair to its point"
    )
    bart.add_argument("--t1", required=True, help="first parameter matrix (JSON)")
    bart.add_argument("--t2", required=True, help="second parameter matrix (JSON)")
    dec = sub.add_parser(
        "decompose",
        parents=[common],
        help="write an isotropic point as a hermitian parameter pair",
    )
    dec.add_argument("--point", required=True, help="point basis matrix (JSON)")
    comp = sub.add_parser(
        "complement",
        parents=[common],
        help="common isotropic complement of two isotropic points",
    )
    comp.add_argument("--u1", required=True, help="first point basis (JSON)")
    comp.add_argument("--u2", required=True, help="second point basis (JSON)")
    sub.add_parser(
        "jordan-check",
        parents=[common],
        help="check closure axioms of the hermitian matrix system",
    )
    return parser


def _load_json_argument(text: str) -> dict:
    """Parse an argument that is inline JSON or a path to a JSON file."""
    stripped = text.strip()
    try:
        if stripped.startswith("{"):
            return json.loads(stripped)
        with open(text, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON argument {text!r}: {exc}") from exc


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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _require_json(args) -> None:
    if args.format != "json":
        raise ValueError(f"{args.command} only supports --format json")


def _point_list_report(cfg: GeometryConfig, check: str, points) -> dict:
    report = cfg.report_header(check)
    report["count"] = len(points)
    report["points"] = [
        {"id": i, "basis": p.to_json()} for i, p in enumerate(points)
    ]
    return report


def _cmd_enumerate(cfg: GeometryConfig, args) -> int:
    _require_json(args)
    points = enumerate_grassmannian(cfg)
    _emit(report_to_json(_point_list_report(cfg, "enumerate", points)), args.out)
    return 0


def _cmd_isotropic(cfg: GeometryConfig, args) -> int:
    _require_json(args)
    points = enumerate_isotropic(cfg.field(), cfg.n)
    _emit(report_to_json(_point_list_report(cfg, "isotropic", points)), args.out)
    return 0


def _cmd_verify_theorem1(cfg: GeometryConfig, args) -> int:
    _require_json(args)
    report = verify_theorem1(cfg)
    _emit(report_to_json(report), args.out)
    return 0 if report["equal"] else 1


def _cmd_verify_remarks(cfg: GeometryConfig, args) -> int:
    _require_json(args)
    report = verify_remarks(cfg, seed=args.seed)
    _emit(report_to_json(report), args.out)
    return 0 if report["passed"] else 1


def _cmd_graph(cfg: GeometryConfig, args) -> int:
    graph = build_graph(cfg, kind=args.relation, point_set=args.points)
    if args.format == "json":
        _emit(report_to_json(graph_report(cfg, graph)), args.out)
    elif args.format == "dot":
        _emit(graph.to_dot(), args.out)
    else:
        _emit(graph.degrees_csv(), args.out)
    return 0


def _cmd_bartolone(cfg: GeometryConfig, args) -> int:
    _require_json(args)
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
    _emit(report_to_json(report), args.out)
    return 0


def _cmd_decompose(cfg: GeometryConfig, args) -> int:
    _require_json(args)
    point = _point_argument(cfg, args.point)
    pair = decompose_isotropic(point)
    report = cfg.report_header("decompose")
    report["point"] = point.to_json()
    report["t1"] = pair.t1.to_json()
    report["t2"] = pair.t2.to_json()
    _emit(report_to_json(report), args.out)
    return 0


def _cmd_complement(cfg: GeometryConfig, args) -> int:
    _require_json(args)
    u1 = _point_argument(cfg, args.u1)
    u2 = _point_argument(cfg, args.u2)
    witness = common_complement(u1, u2)
    report = cfg.report_header("complement")
    report["u1"] = u1.to_json()
    report["u2"] = u2.to_json()
    report["complement"] = witness.to_json()
    _emit(report_to_json(report), args.out)
    return 0


def _cmd_jordan_check(cfg: GeometryConfig, args) -> int:
    _require_json(args)
    report = cfg.report_header("jordan-check")
    report.update(jordan_system_axioms_check(cfg.field(), cfg.n))
    _emit(report_to_json(report), args.out)
    return 0 if report["passed"] else 1


# The subcommands that enumerate points; their budget is checked before
# any field table is built.
_ENUMERATING = ("enumerate", "isotropic", "verify-theorem1", "verify-remarks", "graph")

_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "isotropic": _cmd_isotropic,
    "verify-theorem1": _cmd_verify_theorem1,
    "verify-remarks": _cmd_verify_remarks,
    "graph": _cmd_graph,
    "bartolone": _cmd_bartolone,
    "decompose": _cmd_decompose,
    "complement": _cmd_complement,
    "jordan-check": _cmd_jordan_check,
}


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
        if args.command in _ENUMERATING:
            ensure_within_budget(cfg)
        cfg.field()
        return _COMMANDS[args.command](cfg, args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
