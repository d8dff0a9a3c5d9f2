"""The CLI workloads and the checks applied to each invocation's output.

Each operation is one ``hermline`` CLI invocation.  ``check`` parses its
stdout, compares every count with the closed forms in :mod:`oracles`
and returns the operation's work units, or raises ``CheckFailed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import oracles


class CheckFailed(Exception):
    """An output disagreed with an oracle or reported a failed check."""


@dataclass(frozen=True)
class Op:
    command: str
    p: int
    k: int = 1
    involution: str = "identity"
    n: int = 2
    relation: str = ""
    points: str = ""
    fmt: str = "json"

    @property
    def q(self) -> int:
        return self.p**self.k

    @property
    def hermitian(self) -> bool:
        return self.involution == "frobenius"

    @property
    def field(self) -> tuple[int, int, str]:
        return (self.p, self.k, self.involution)

    def argv(self, seed: int) -> list[str]:
        args = [self.command, "--p", str(self.p), "--k", str(self.k)]
        args += ["--involution", self.involution, "--n", str(self.n)]
        args += ["--seed", str(seed), "--format", self.fmt]
        if self.command == "graph":
            args += ["--relation", self.relation, "--points", self.points]
        return args

    def label(self) -> str:
        sigma = "s" if self.hermitian else ""
        extra = f" {self.points} {self.relation} {self.fmt}" if self.relation else ""
        return f"{self.command} GF({self.q}){sigma} n={self.n}{extra}"


CLI_WORKLOADS = {
    "theorem1": (
        Op("verify-theorem1", 3, 2, "frobenius"),
        Op("verify-theorem1", 5),
        Op("verify-theorem1", 2, n=3),
        Op("verify-theorem1", 2, 4, "frobenius"),
    ),
    "remarks": (
        Op("verify-remarks", 3),
        Op("verify-remarks", 2, 2, "frobenius"),
        Op("verify-remarks", 2, n=3),
    ),
    "graph": (
        Op("graph", 2, 2, relation="distant", points="all", fmt="json"),
        Op("graph", 2, 2, relation="adjacency", points="all", fmt="dot"),
        Op("graph", 3, 2, "frobenius", relation="adjacency", points="isotropic"),
        Op("graph", 3, 2, "frobenius", relation="distant", points="isotropic", fmt="csv"),
    ),
}


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _check_header(op: Op, report: dict) -> None:
    _expect("field", (report["field_p"], report["field_k"], report["n"]), (op.p, op.k, op.n))


def _check_theorem1(op: Op, report: dict) -> int:
    _check_header(op, report)
    q, n = op.q, op.n
    herm = oracles.hermitian_matrix_count(q, n, op.hermitian)
    iso = oracles.isotropic_count(q, n, op.hermitian)
    want = {
        "grassmannian": oracles.point_count(q, n),
        "isotropic": iso,
        "hermitian": herm,
        "hermitian_pairs": herm * herm,
        "bartolone_image": iso,
    }
    _expect("counts", report["counts"], want)
    _expect("equal", report["equal"], True)
    return report["counts"]["hermitian_pairs"]


def _check_remarks(op: Op, report: dict, seed: int) -> int:
    _check_header(op, report)
    _expect("seed", report["seed"], seed)
    cases = {c["name"]: c["cases"] for c in report["checks"]}
    _expect("cases", cases, oracles.remark_cases(op.q, op.k, op.n, op.hermitian))
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    _expect("failed checks", failed, [])
    _expect("passed", report["passed"], True)
    return sum(cases.values())


def _graph_oracle(op: Op) -> tuple[int, int]:
    q, n = op.q, op.n
    if op.points == "all":
        nodes = oracles.point_count(q, n)
    else:
        nodes = oracles.isotropic_count(q, n, op.hermitian)
    return nodes, oracles.graph_degree(q, n, op.relation, op.points, op.hermitian)


def _check_degrees(degrees: list[int], nodes: int, degree: int) -> None:
    _expect("node count", len(degrees), nodes)
    _expect("irregular degrees", sorted(set(degrees)), [degree])


def _check_graph(op: Op, text: str) -> int:
    nodes, degree = _graph_oracle(op)
    if op.fmt == "json":
        report = json.loads(text)
        _check_header(op, report)
        _expect("relation", (report["relation"], report["point_set"]), (op.relation, op.points))
        _expect("counts", report["counts"], {"nodes": nodes, "edges": nodes * degree // 2})
        _check_degrees(report["degree_sequence"], nodes, degree)
        _expect("diameter", report["diameter"], oracles.graph_diameter(op.n, op.relation))
        _expect("edge list", len(report["edges"]), nodes * degree // 2)
    elif op.fmt == "dot":
        body = [line.strip(" ;") for line in text.splitlines()[1:-1]]
        edges = [[int(x) for x in line.split(" -- ")] for line in body if "--" in line]
        _expect("dot nodes", len(body) - len(edges), nodes)
        _expect("edges", len(edges), nodes * degree // 2)
        degrees = [0] * nodes
        for i, j in edges:
            degrees[i] += 1
            degrees[j] += 1
        _check_degrees(degrees, nodes, degree)
    else:
        rows = text.splitlines()
        _expect("csv header", rows[0], "node_id,degree")
        _check_degrees([int(r.split(",")[1]) for r in rows[1:]], nodes, degree)
    return nodes * (nodes - 1) // 2


def check(op: Op, stdout: bytes, seed: int) -> int:
    """Check one invocation's stdout; return its work units."""
    text = stdout.decode("utf-8")
    try:
        if op.command == "graph":
            return _check_graph(op, text)
        report = json.loads(text)
        if op.command == "verify-theorem1":
            return _check_theorem1(op, report)
        return _check_remarks(op, report, seed)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None
