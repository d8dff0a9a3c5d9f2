"""The constructions workload: seeded isotropic points and their constructions.

Inputs are random hermitian parameter pairs mapped to isotropic points.
One pass runs ``decompose_isotropic`` on every point and
``common_complement`` on every cyclically consecutive pair of points of
each field.  Results are checked with this module's own row reduction
over the field's element tables, not with hermline's matrices,
parametrisation or form code.
"""

from __future__ import annotations

import hashlib
import random

# (p, k, involution, n): a field large enough that table building shows,
# two hermitian fields and a larger block size.
FIELDS = (
    (2, 8, "identity", 2),
    (3, 4, "frobenius", 2),
    (2, 2, "frobenius", 3),
    (5, 1, "identity", 4),
)
POINTS_PER_FIELD = 150


def _rank(field, rows) -> int:
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        src = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if src is None:
            continue
        work[rank], work[src] = work[src], work[rank]
        s = inv[work[rank][c]]
        pivot = [mul[s][x] for x in work[rank]]
        work[rank] = pivot
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = neg[work[i][c]]
                work[i] = [add[x][mul[f][y]] for x, y in zip(work[i], pivot)]
        rank += 1
    return rank


def _product(field, a, b):
    add, mul = field._add, field._mul
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = 0
            for x, brow in zip(row, b):
                acc = add[acc][mul[x][brow[j]]]
            new.append(acc)
        out.append(new)
    return out


def _is_hermitian(field, m) -> bool:
    sig = field._sigma
    return all(m[i][j] == sig[m[j][i]] for i in range(len(m)) for j in range(len(m)))


def _is_isotropic(field, n: int, rows) -> bool:
    """beta(x, y) = sum_i x_i sigma(y_(n+i)) - x_(n+i) sigma(y_i) vanishes."""
    add, sub, mul, sig = field._add, field._sub, field._mul, field._sigma
    for x in rows:
        for y in rows:
            acc = 0
            for i in range(n):
                acc = add[acc][sub[mul[x[i]][sig[y[n + i]]]][mul[x[n + i]][sig[y[i]]]]]
            if acc:
                return False
    return True


def _spans_point(field, n: int, rows, point_rows) -> bool:
    """rows has rank n and the same row space as point_rows."""
    return _rank(field, rows) == n and _rank(field, list(rows) + list(point_rows)) == n


def _random_hermitian(field, n: int, rng: random.Random):
    sig = field._sigma
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.choice(field.fixed_elements)
        for j in range(i + 1, n):
            m[i][j] = rng.randrange(field.q)
            m[j][i] = sig[m[i][j]]
    return m


def build_fields(hermline):
    return [(hermline.make_field(p, k, inv), n) for p, k, inv, n in FIELDS]


def make_inputs(hermline, fields, seed: int):
    """Per field, POINTS_PER_FIELD isotropic points from seeded hermitian pairs."""
    rng = random.Random(seed)
    inputs = []
    for field, n in fields:
        points = []
        for _ in range(POINTS_PER_FIELD):
            t1, t2 = (
                hermline.Matrix(field, _random_hermitian(field, n, rng), cols=n)
                for _ in range(2)
            )
            point = hermline.bartolone_hermitian(hermline.BartolonePair(t1, t2))
            if not _is_isotropic(field, n, point.space.basis.entries):
                raise AssertionError("a hermitian pair gave a non-isotropic point")
            points.append(point)
        inputs.append((field, n, points))
    return inputs


def operations(inputs):
    """The (kind, args) list of one pass, in a fixed order."""
    ops = []
    for field, n, points in inputs:
        for i, point in enumerate(points):
            ops.append(("decompose", (point,)))
            ops.append(("complement", (point, points[(i + 1) % len(points)])))
    return ops


def calls(hermline) -> dict:
    """The library call of each kind, looked up now so a tracer sees it."""
    return {
        "decompose": hermline.decompose_isotropic,
        "complement": hermline.common_complement,
    }


def result_digest(kind: str, result) -> str:
    if kind == "decompose":
        data = (result.t1.entries, result.t2.entries)
    else:
        data = result.space.basis.entries
    return hashlib.sha256(repr(data).encode()).hexdigest()


def verify(kind: str, args, result) -> bool:
    """The postconditions of one construction, checked independently."""
    point = args[0]
    field, n = point.field, point.n
    basis = point.space.basis.entries
    if kind == "decompose":
        t1, t2 = result.t1.entries, result.t2.entries
        if not (_is_hermitian(field, t1) and _is_hermitian(field, t2)):
            return False
        left = _product(field, t2, t1)
        for i in range(n):
            left[i][i] = field._sub[left[i][i]][1]
        rows = [a + list(b) for a, b in zip(left, t2)]
        return _spans_point(field, n, rows, basis)
    x = result.space.basis.entries
    return (
        _rank(field, x) == n
        and _is_isotropic(field, n, x)
        and all(_rank(field, list(x) + list(u.space.basis.entries)) == 2 * n for u in args)
    )
