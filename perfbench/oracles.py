"""Closed-form counts for the projective line over K^(n x n).

Points of the line are the n-spaces of K^(2n), so the point graph is the
Grassmann graph J_q(2n, n); the maximal totally isotropic points form a
dual polar graph.  The counts come from Brouwer, Cohen & Neumaier,
*Distance-Regular Graphs* (1989), sections 9.3 and 9.4.  Nothing here
imports hermline, so a wrong count in the library cannot agree with
itself.

Throughout, q = |K|.  A hermitian configuration (Frobenius involution)
has q = r^2; a symplectic one (identity involution) uses q itself.
"""

from __future__ import annotations

import math


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """The number of r-dimensional subspaces of GF(q)^m."""
    num = den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _root(q: int) -> int:
    r = math.isqrt(q)
    if r * r != q:
        raise ValueError(f"{q} is not a square")
    return r


def point_count(q: int, n: int) -> int:
    return gaussian_binomial(2 * n, n, q)


def isotropic_count(q: int, n: int, hermitian: bool) -> int:
    """Prod (r^(2i-1) + 1) for r = sqrt(q), or prod (q^i + 1) if symplectic."""
    if hermitian:
        r = _root(q)
        return math.prod(r ** (2 * i - 1) + 1 for i in range(1, n + 1))
    return math.prod(q**i + 1 for i in range(1, n + 1))


def hermitian_matrix_count(q: int, n: int, hermitian: bool) -> int:
    """Hermitian n x n matrices: r^(n^2), or q^(n(n+1)/2) symmetric ones."""
    if hermitian:
        return _root(q) ** (n * n)
    return q ** (n * (n + 1) // 2)


def _sphere(q: int, n: int, i: int, points: str, hermitian: bool) -> int:
    """Vertices at distance i from a vertex (Grassmann or dual polar)."""
    if points == "all":
        return q ** (i * i) * gaussian_binomial(n, i, q) ** 2
    step = _root(q) if hermitian else q
    return gaussian_binomial(n, i, q) * q ** (i * (i - 1) // 2) * step**i


def graph_degree(q: int, n: int, relation: str, points: str, hermitian: bool) -> int:
    """Degree of the adjacency (distance 1) or distant (distance n) graph."""
    return _sphere(q, n, 1 if relation == "adjacency" else n, points, hermitian)


def graph_diameter(n: int, relation: str) -> int:
    """Adjacency graphs have diameter n; any point is two distant steps away."""
    return n if relation == "adjacency" else 2


def remark_cases(q: int, k: int, n: int, hermitian: bool) -> dict[str, int]:
    """The case count of each verify-remarks check, by check name.

    The pair space has q^(2n^2) elements and is swept exhaustively up to
    70,000 pairs; above that the checks draw fixed sample counts.  The
    twisted-map checks run for the transpose, a conjugation and, when
    k > 1, a Frobenius twist.  A hermitian star is a line of the dual
    polar space through the base point: s + 1 points for each of the
    n + 1 directions tried, with s = sqrt(q) or q.
    """
    pairs = q ** (2 * n * n)
    exhaustive = pairs <= 70_000
    edges = point_count(q, n) * graph_degree(q, n, "adjacency", "all", hermitian) // 2
    labels = ["transpose", "conjugation"] + (["frobenius_twist"] if k > 1 else [])
    cases = {
        "embedding_injectivity": 2 * q ** (n * n),
        "rank_distance_law": pairs if exhaustive else 10_000,
        "annihilator": pairs if exhaustive else 1_000,
    }
    for label in labels:
        cases[f"jordan_well_defined[{label}]"] = pairs if exhaustive else 500
        cases[f"jordan_adjacency[{label}]"] = edges if exhaustive else 500
    s = _root(q) if hermitian else q
    cases["hermitian_star"] = (n + 1) * (s + 1)
    return cases
