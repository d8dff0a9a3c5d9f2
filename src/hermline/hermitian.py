"""Hermitian matrices and the dual polar space of maximal isotropic subspaces.

There is one form: the sigma-anti-hermitian form on K^(2n) with the
fixed Gram matrix J = (0, I; -I, 0), beta(x, y) = x * J * (y^sigma)^T,
which the pairing and perp compute in closed form.  Its maximal totally
isotropic subspaces have dimension n and are exactly the points of the
projective line parametrised by pairs of hermitian matrices,

    {row space of (T2*T1 - I, T2) : T1 = T1^Sigma, T2 = T2^Sigma},

where X^Sigma is the involution transpose.  This module provides the
form, the hermitian matrix set, the hermitian parametrisation, and the
constructions behind it.  The constructive proof is the cell pair:
_cell_pair_rows reads (T1, T2) off the rows of an isotropic point P
with one elimination, as P = {(x | a*R) : x * R^sigmaT = a*N}.  The
pair also names a form-preserving word g = omega * L(T2) * omega * L(T1)
that sends the base point K^n (+) 0 to P, where, on rows,
omega: (A | B) -> (-B | A) and L(t): (A | B) -> (A + B*t | B).  Both
constructions move a point to the base point with such a word, solve
there in closed form and move back: common_complement finds a common
complement of two isotropic points, and isotropic_meeting_perp, for a
maximal totally isotropic U = V (+) W, a maximal totally isotropic X
with X meet perp(V) = W.

The constructions run on entry rows, through the row kernels of
``matrices``, and none builds a Matrix or a Subspace before its result.
Their inputs are validated once, at the public boundary:
isotropic_meeting_perp, common_complement and decompose_isotropic
raise ValueError for a non-isotropic point, points of different lines
or a U that is not V (+) W, and then trust the rows they pass on.
Every postcondition is an explicit check that raises
AssertionError, so it also holds under python -O; this module has no
assert statement.
"""

from __future__ import annotations

import functools
import itertools

from .fields import FROBENIUS, FieldSpec
from .matrices import (
    Matrix,
    Subspace,
    _basis_rows,
    _meet_rows,
    _nullspace_rows,
    _product,
    _rank,
    _row_reduce,
    _rows_id,
    _rref_id,
    _rref_layouts,
    outer_product,
    unit_vector,
)
from .projline import (
    BartolonePair,
    SubspacePoint,
    _check_parameter_vector,
    _check_same_line,
    _pair_ids,
    bartolone,
    point_from_id,
    sweep_points,
)


class SesquilinearForm:
    """The standard sigma-anti-hermitian form on K^(2n), with Gram matrix J.

    J = (0, I; -I, 0) is fixed, so beta(x, y) is the closed form
    sum over i < n of x_i * sigma(y_(n+i)) - x_(n+i) * sigma(y_i), and
    the pairing and the perp read J's blocks off directly; no J is
    stored.
    """

    __slots__ = ("field", "n", "_halves")

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self._halves = tuple(zip(range(n), range(n, 2 * n)))

    def _pairing(self, x, y) -> int:
        """beta(x, y) by the closed form, skipping the zero terms."""
        field = self.field
        add, sub, mul, sig = field._add, field._sub, field._mul, field._sigma
        acc = 0
        for i, j in self._halves:
            if x[i] and y[j]:
                acc = add[acc][mul[x[i]][sig[y[j]]]]
            if x[j] and y[i]:
                acc = sub[acc][mul[x[j]][sig[y[i]]]]
        return acc

    def _rows_of(self, space: Subspace) -> tuple:
        """space's basis rows; a ValueError unless space lies in K^(2n)."""
        if space.field != self.field or space.ambient_dim != 2 * self.n:
            raise ValueError("the subspace lives in the wrong space")
        return space.basis.entries

    def perp(self, space: Subspace) -> Subspace:
        """The perpendicular subspace {x : beta(v, x) = 0 for all v}."""
        rows = self._perp_rows(self._rows_of(space))
        return Subspace._from_canonical(Matrix._of(self.field, rows, 2 * self.n))

    def _perp_rows(self, rows) -> tuple:
        """The RREF basis of {x : beta(v, x) = 0 for every row v}."""
        field, n = self.field, self.n
        neg, sig = field._neg, field._sigma
        # sigma(beta(v, x)) = sigma(v*J) * x^T, and v*J = (-v_B | v_A)
        vj = [[sig[neg[x]] for x in v[n:]] + [sig[x] for x in v[:n]] for v in rows]
        return _nullspace_rows(field, vj, 2 * n)

    def is_totally_isotropic(self, obj) -> bool:
        """Whether the form vanishes on the subspace (or point space).

        J is sigma-anti-hermitian, so beta(y, x) is -sigma(beta(x, y)),
        and the pairs of basis rows with x no later than y suffice.
        """
        space = obj.space if isinstance(obj, SubspacePoint) else obj
        return self._vanishes_on(self._rows_of(space))

    def _vanishes_on(self, rows) -> bool:
        """Whether the form vanishes on the span of the entry rows."""
        pairing = self._pairing
        return not any(
            pairing(x, y) for b, y in enumerate(rows) for x in rows[: b + 1]
        )


@functools.lru_cache(maxsize=None)
def standard_form(field: FieldSpec, n: int) -> SesquilinearForm:
    return SesquilinearForm(field, n)


@functools.lru_cache(maxsize=8)
def hermitian_matrices(field: FieldSpec, n: int) -> tuple[Matrix, ...]:
    """All hermitian n x n matrices, in lexicographic entry order.

    The diagonal entries run over the elements fixed by sigma and the
    entries above it over the field; each entry below the diagonal is
    sigma of its mirror, which comes earlier in row-major order, so
    running the free entries lexicographically keeps the matrices in
    lexicographic order.  Raises RuntimeError unless the result holds
    |F0|^n * q^(n(n-1)/2) pairwise distinct matrices, F0 the fixed field
    of order q, or sqrt(q) for the frobenius involution.
    """
    sig = field._sigma
    free = [(i, j) for i in range(n) for j in range(i, n)]
    domains = [field.fixed_elements if i == j else field.elements() for i, j in free]
    rows = [[0] * n for _ in range(n)]
    out = []
    for values in itertools.product(*domains):
        for (i, j), x in zip(free, values):
            rows[i][j] = x
            rows[j][i] = sig[x]
        out.append(Matrix._of(field, tuple(map(tuple, rows)), n))
    count = field.p ** _hermitian_exponent(field.k, field.involution, n)
    if len(out) != count or len(set(out)) != count:
        raise RuntimeError(f"the hermitian matrices of {field!r} are incomplete")
    return tuple(out)


def _hermitian_exponent(k: int, involution: str, n: int) -> int:
    """The e with p^e hermitian n x n matrices over GF(p^k): |F0|^n * q^(n(n-1)/2)."""
    return k * n * n // 2 if involution == FROBENIUS else k * n * (n + 1) // 2


@functools.lru_cache(maxsize=8)
def isotropic_ids(field: FieldSpec, n: int) -> tuple[int, tuple[int, ...]]:
    """The number of points and the ids of the isotropic ones, in order.

    Runs the form's pairwise test over the RREF templates of the points
    in id order, one row at a time: row r of a template takes its free
    entries in lexicographic order, is kept when the form vanishes on it
    and on each earlier row, and the points below a rejected row are
    skipped.  The ids kept are exactly those of the points that
    is_totally_isotropic accepts.
    """
    q = field.q
    pairing = standard_form(field, n)._pairing
    layouts = _rref_layouts(q, 2 * n, n)
    count = 0
    kept = []
    for pivots, (_, free) in layouts.items():
        count += q ** sum(map(len, free))
        choices = []
        for pivot, cols in zip(pivots, free):
            rows = []
            for entries in itertools.product(range(q), repeat=len(cols)):
                row = [0] * (2 * n)
                row[pivot] = 1
                for c, x in zip(cols, entries):
                    row[c] = x
                row = tuple(row)
                if not pairing(row, row):
                    rows.append(row)
            choices.append(rows)

        def extend(r: int, prefix: tuple) -> None:
            if r == n:
                kept.append(_rref_id(q, layouts, pivots, prefix))
                return
            for row in choices[r]:
                if not any(pairing(x, row) for x in prefix):
                    extend(r + 1, prefix + (row,))

        extend(0, ())
    return count, tuple(kept)


@functools.lru_cache(maxsize=8)
def enumerate_isotropic(field: FieldSpec, n: int) -> tuple[SubspacePoint, ...]:
    """All maximal totally isotropic points, in enumeration order."""
    return tuple(point_from_id(field, n, i) for i in isotropic_ids(field, n)[1])


def _require_isotropic(p: SubspacePoint, name: str) -> None:
    if not standard_form(p.field, p.n).is_totally_isotropic(p):
        raise ValueError(f"{name} is not totally isotropic")


def bartolone_hermitian(pair: BartolonePair) -> SubspacePoint:
    """The point of a hermitian parameter pair; always totally isotropic."""
    if not pair.t1.is_hermitian() or not pair.t2.is_hermitian():
        raise ValueError("both parameter matrices must be hermitian")
    point = bartolone(pair)
    if not standard_form(pair.field, pair.n).is_totally_isotropic(point):
        raise AssertionError("a hermitian pair parametrises a non-isotropic point")
    return point


def _point(field: FieldSpec, n: int, rows: tuple) -> SubspacePoint:
    """The point with these RREF basis rows."""
    return SubspacePoint(Subspace._from_canonical(Matrix._of(field, rows, 2 * n)), n)


def _omega(field: FieldSpec, n: int, rows) -> list[list[int]]:
    """The rows times omega: (A | B) -> (-B | A)."""
    neg = field._neg
    return [[neg[x] for x in row[n:]] + list(row[:n]) for row in rows]


def _shift(field: FieldSpec, n: int, rows, t, op) -> list[list[int]]:
    """(A | B) -> (A op B*t | B): the rows times L(t) for op = field._add,
    times L(-t) for op = field._sub."""
    bt = _product(field, [row[n:] for row in rows], t, n)
    return [
        [op[x][y] for x, y in zip(row, d)] + list(row[n:]) for row, d in zip(rows, bt)
    ]


def _from_base(field: FieldSpec, n: int, rows, s1, s2) -> list[list[int]]:
    """The rows times g = omega * L(S2) * omega * L(S1).

    g sends (I | 0) to (S2*S1 - I | S2), so for the cell pair (S1, S2)
    of a point it sends the base point to that point.  omega and L(t)
    for hermitian t keep the form: g * J * g^sigmaT = J.
    """
    add = field._add
    rows = _shift(field, n, _omega(field, n, rows), s2, add)
    return _shift(field, n, _omega(field, n, rows), s1, add)


def _to_base(field: FieldSpec, n: int, rows, s1, s2) -> list[list[int]]:
    """The rows times g^-1 = L(-S1) * omega * L(-S2) * omega.

    omega^-1 = -omega, and the two signs cancel.
    """
    sub = field._sub
    rows = _omega(field, n, _shift(field, n, rows, s1, sub))
    return _omega(field, n, _shift(field, n, rows, s2, sub))


def isotropic_meeting_perp(
    u: SubspacePoint, v: Subspace, w: Subspace
) -> SubspacePoint:
    """A maximal totally isotropic X with X meet perp(V) = W.

    The input must satisfy U = V (+) W with U maximal totally isotropic;
    this is checked here, once, with a ValueError naming what fails.
    The word g of U's cell pair sends the base point K^n (+) 0 to U, so
    W * g^-1 = (C | 0) lies in the base point, and X' = (C | 0) plus
    (0 | nullspace(sigma(C))) is maximal totally isotropic and meets the
    base point in W * g^-1.  X = X' * g then meets U in W, hence perp(V)
    in W: a vector of X orthogonal to V is orthogonal to W, as X is
    isotropic, so it lies in perp(U) = U and thus in W.  V enters only
    through the validation and the postcondition.
    """
    field = u.field
    n = u.n
    _require_isotropic(u, "u")
    if v.field != field or v.ambient_dim != 2 * n:
        raise ValueError("v lives in the wrong space")
    if w.field != field or w.ambient_dim != 2 * n:
        raise ValueError("w lives in the wrong space")
    # v + w = u: v and w meet trivially, their dimensions add up to n,
    # and both lie in u, so stacking u on them keeps rank n
    v_rows, w_rows = v.basis.entries, w.basis.entries
    if (
        _rank(field, v_rows + w_rows, 2 * n) != v.dim + w.dim
        or v.dim + w.dim != n
        or _rank(field, u.space.basis.entries + v_rows + w_rows, 2 * n) != n
    ):
        raise ValueError("u = v (+) w must be a direct sum decomposition")
    s1, s2 = _cell_pair_rows(field, n, u.space.basis.entries)
    moved = _to_base(field, n, w_rows, s1, s2)
    sig = field._sigma
    sigma_c = [[sig[x] for x in row[:n]] for row in moved]
    rows = [row[:n] + [0] * n for row in moved]
    rows += [[0] * n + list(d) for d in _nullspace_rows(field, sigma_c, n)]
    x = _basis_rows(field, _from_base(field, n, rows, s1, s2), 2 * n)
    form = standard_form(field, n)
    if len(x) != n or not form._vanishes_on(x):
        raise AssertionError("X is not a maximal totally isotropic space")
    if _meet_rows(field, 2 * n, x, form._perp_rows(v_rows)) != w_rows:
        raise AssertionError("X meet perp(V) is not W")
    return _point(field, n, x)


def common_complement(u1: SubspacePoint, u2: SubspacePoint) -> SubspacePoint:
    """A maximal totally isotropic complement of both input points.

    Raises ValueError unless both points are totally isotropic points of
    one line.  The word g of U1's cell pair sends the base point to U1;
    P' = U2 * g^-1 has a cell pair (T1', T2'), and (T1' | I) complements
    both the base point and P', as (T2'*T1' - I | T2') - T2' * (T1' | I)
    = (-I | 0).  So X = (T1' | I) * g complements U1 and U2.
    """
    field = u1.field
    n = u1.n
    _check_same_line(u1, u2)
    _require_isotropic(u1, "u1")
    _require_isotropic(u2, "u2")
    u1_rows, u2_rows = u1.space.basis.entries, u2.space.basis.entries
    s1, s2 = _cell_pair_rows(field, n, u1_rows)
    t1, _ = _cell_pair_rows(field, n, _to_base(field, n, u2_rows, s1, s2))
    rows = [list(row) + list(unit_vector(n, i)) for i, row in enumerate(t1)]
    x = _basis_rows(field, _from_base(field, n, rows, s1, s2), 2 * n)
    d = 2 * n
    if len(x) != n or not standard_form(field, n)._vanishes_on(x):
        raise AssertionError("X is not a maximal totally isotropic space")
    if _rank(field, x + u1_rows, d) != d or _rank(field, x + u2_rows, d) != d:
        raise AssertionError("X meets an input point")
    return _point(field, n, x)


def _cell_pair_rows(field: FieldSpec, n: int, rows: tuple) -> tuple[tuple, tuple]:
    """The entry rows of the cell pair (T1, T2) of the isotropic point P.

    rows are n independent rows (A | B) spanning P, such as its RREF
    rows.  Row reducing (B | A) on B's columns gives (R | A') on its
    first r = rank(B) rows, R the RREF of B's row space, and (0 | A'')
    below.  By isotropy N = A' * R^sigmaT is
    hermitian and A'' * R^sigmaT = 0, so P = {(x | a*R) : x*R^sigmaT = a*N}.
    With E picking R's pivot columns, R * E^T = I_r, so the row y of
    (T2*T1 - I | T2), for T2 = R^sigmaT * R and T1 = E^T * (N + I_r) * E,
    is (x | a*R) with a = y * R^sigmaT and x * R^sigmaT = a*N.
    """
    work = [list(row[n:] + row[:n]) for row in rows]
    pivots = _row_reduce(field, work, n)
    top = work[: len(pivots)]
    r_sig_t = [[field._sigma[row[j]] for row in top] for j in range(n)]
    cell = _product(field, [row[n:] for row in top], r_sig_t, len(pivots))
    t1 = [[0] * n for _ in range(n)]
    for i, (pi, row) in enumerate(zip(pivots, cell)):
        row[i] = field._add[row[i]][1]
        for pj, x in zip(pivots, row):
            t1[pi][pj] = x
    t2 = _product(field, r_sig_t, top, n)
    return tuple(map(tuple, t1)), tuple(map(tuple, t2))


def decompose_isotropic(p: SubspacePoint) -> BartolonePair:
    """The cell pair (T1, T2) of p: a hermitian parameter pair whose point is p.

    Raises ValueError unless p is totally isotropic.  _cell_pair_rows reads
    the pair off p's rows; rank(T2) is p's distance from the base point.
    That both are hermitian and that their point is p is checked explicitly.
    """
    field, n = p.field, p.n
    _require_isotropic(p, "the point")
    rows = p.space.basis.entries
    t1, t2 = _cell_pair_rows(field, n, rows)
    pair = BartolonePair(Matrix._of(field, t1, n), Matrix._of(field, t2, n))
    if not (pair.t1.is_hermitian() and pair.t2.is_hermitian()):
        raise AssertionError("a parameter matrix of the pair is not hermitian")
    if _pair_ids(field, n)(t1, t2) != _rows_id(field.q, 2 * n, rows):
        raise AssertionError("the cell pair parametrises another point")
    return pair


def hermitian_adjacent_star(field: FieldSpec, n: int, c0) -> list[SubspacePoint]:
    """Isotropic points adjacent to (or equal to) the base point.

    Sweeps T1 over the hermitian matrices and T2 over the rank-at-most-
    one hermitian matrices sigma(c0)^T * t * c0 with t fixed by sigma.
    Every returned point is totally isotropic and has arithmetical
    distance at most one from the base point.
    """
    c0 = _check_parameter_vector(field, n, c0, "c0")
    rank_one = outer_product(field, tuple(field._sigma[x] for x in c0), c0)
    t2s = [rank_one.scale(t) for t in field.fixed_elements]
    points = sweep_points(field, n, hermitian_matrices(field, n), t2s)
    form = standard_form(field, n)
    if not all(form.is_totally_isotropic(p) for p in points):
        raise AssertionError("a hermitian star point is not totally isotropic")
    return points

