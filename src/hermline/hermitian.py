"""Hermitian matrices and the dual polar space of maximal isotropic subspaces.

The standard sigma-anti-hermitian form on K^(2n) has Gram matrix
(0, I; -I, 0): beta(x, y) = x * G * (y^sigma)^T.  Its maximal totally
isotropic subspaces have dimension n and are exactly the points of the
projective line parametrised by pairs of hermitian matrices,

    {row space of (T2*T1 - I, T2) : T1 = T1^Sigma, T2 = T2^Sigma},

where X^Sigma is the involution transpose.  This module provides the
form, the hermitian matrix set, the hermitian parametrisation, and the
constructive machinery behind it: given a maximal totally isotropic
U = V + W (a direct sum) it builds a maximal totally isotropic X with
X meet perp(V) = W, from which a common complement of any two maximal
isotropic subspaces and the parameter pair of any isotropic point are
computed.
"""

from __future__ import annotations

import functools
import itertools

from .fields import FROBENIUS, FieldSpec
from .matrices import (
    Matrix,
    Subspace,
    _rref_id,
    _rref_layouts,
    extend_independent,
    nullspace,
    outer_product,
    unit_vector,
)
from .projline import (
    BartolonePair,
    SubspacePoint,
    _check_parameter_vector,
    bartolone,
    base_point,
    point_from_id,
    preimage_pair,
    sweep_points,
)


class SesquilinearForm:
    """A non-degenerate sigma-anti-hermitian form on K^(2n)."""

    __slots__ = ("field", "n", "gram", "_terms")

    def __init__(self, field: FieldSpec, n: int, gram: Matrix | None = None):
        if gram is None:
            ident = Matrix.identity(field, n)
            zero = Matrix.zeros(field, n, n)
            gram = Matrix.from_blocks([[zero, ident], [-ident, zero]])
        if gram.field != field or gram.rows != 2 * n or gram.cols != 2 * n:
            raise ValueError("gram matrix must be 2n x 2n over the given field")
        if not gram.is_invertible():
            raise ValueError("gram matrix must be invertible")
        if gram.sigma_transpose() != -gram:
            raise ValueError("gram matrix must be sigma-anti-hermitian")
        self.field = field
        self.n = n
        self.gram = gram
        self._terms = tuple(
            (i, j, g)
            for i, row in enumerate(gram.entries)
            for j, g in enumerate(row)
            if g
        )

    def _pairing(self, x, y) -> int:
        """beta(x, y) = sum of x_i * g_ij * sigma(y_j) over the nonzero g_ij."""
        field = self.field
        add, mul, sig = field._add, field._mul, field._sigma
        acc = 0
        for i, j, g in self._terms:
            if x[i] and y[j]:
                acc = add[acc][mul[mul[x[i]][g]][sig[y[j]]]]
        return acc

    def restricted_gram(self, rows: Matrix) -> Matrix:
        """The Gram matrix of the form on the given row vectors."""
        return rows * self.gram * rows.sigma_transpose()

    def perp(self, space: Subspace) -> Subspace:
        """The perpendicular subspace {x : beta(v, x) = 0 for all v}."""
        return nullspace((space.basis * self.gram)._map(self.field._sigma))

    def is_totally_isotropic(self, obj) -> bool:
        """Whether the form vanishes on the subspace (or point space).

        The gram matrix is sigma-anti-hermitian, so beta(y, x) is
        -sigma(beta(x, y)), and the pairs of basis rows with x no later
        than y suffice.
        """
        space = obj.space if isinstance(obj, SubspacePoint) else obj
        rows = space.basis.entries
        pairing = self._pairing
        return not any(
            pairing(x, y) for b, y in enumerate(rows) for x in rows[: b + 1]
        )


@functools.lru_cache(maxsize=None)
def standard_form(field: FieldSpec, n: int) -> SesquilinearForm:
    return SesquilinearForm(field, n)


def block_isotropy_criterion(p: SubspacePoint) -> bool:
    """The block form of isotropy: A * B^Sigma = B * A^Sigma."""
    a, b = p.blocks()
    return a * b.sigma_transpose() == b * a.sigma_transpose()


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
    fixed = field.p ** (field.k // 2) if field.involution == FROBENIUS else field.q
    count = fixed**n * field.q ** (n * (n - 1) // 2)
    if len(out) != count or len(set(out)) != count:
        raise RuntimeError(f"the hermitian matrices of {field!r} are incomplete")
    return tuple(out)


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
    assert standard_form(pair.field, pair.n).is_totally_isotropic(point)
    return point


def _skew_split(g: Matrix) -> Matrix:
    """Some D with D - D^Sigma = g, for an anti-hermitian g.

    Off-diagonal entries go into the upper triangle; each diagonal entry
    is solved by scanning the field, which succeeds because the form is
    trace-valued.
    """
    field = g.field
    assert g.sigma_transpose() == -g
    sub, sig = field._sub, field._sigma
    n = g.rows
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i + 1 :] = g.entries[i][i + 1 :]
        target = g.entries[i][i]
        d = next((x for x in field.elements() if sub[x][sig[x]] == target), None)
        if d is None:
            raise AssertionError("diagonal entry is not of trace form")
        rows[i][i] = d
    out = Matrix._of(field, tuple(map(tuple, rows)), n)
    assert out - out.sigma_transpose() == g
    return out


def _stacked_rank(*spaces: Subspace) -> int:
    """The dimension of the sum of the spaces: the rank of their stacked bases."""
    rows = tuple(row for space in spaces for row in space.basis.entries)
    return Matrix._of(spaces[0].field, rows, spaces[0].ambient_dim).rank()


def _meets_trivially(a: Subspace, b: Subspace) -> bool:
    """Whether a meet b = 0: the stacked bases have rank dim a + dim b."""
    return _stacked_rank(a, b) == a.dim + b.dim


def _ordered_frame(u: SubspacePoint, v: Subspace, w: Subspace):
    """Validate U = V (+) W and build an ordered frame of K^(2n).

    Returns (form, k, rows, vperp): rows list a basis of K^(2n) ordered
    as V-basis, W-basis, a completion of perp(V) to the full space, and
    a completion of U inside perp(V).  The middle two groups are the
    rows the construction will shear.
    """
    field = u.field
    n = u.n
    form = standard_form(field, n)
    _require_isotropic(u, "u")
    if v.field != field or v.ambient_dim != 2 * n:
        raise ValueError("v lives in the wrong space")
    if w.field != field or w.ambient_dim != 2 * n:
        raise ValueError("w lives in the wrong space")
    # v + w = u: v and w meet trivially, their dimensions add up to n,
    # and both lie in u, so stacking u on them keeps rank n
    if (
        not _meets_trivially(v, w)
        or v.dim + w.dim != n
        or _stacked_rank(u.space, v, w) != n
    ):
        raise ValueError("u = v (+) w must be a direct sum decomposition")
    k = v.dim
    v_rows = list(v.basis.entries)
    w_rows = list(w.basis.entries)
    u_rows = v_rows + w_rows
    vperp = form.perp(v)
    tail_rows = extend_independent(field, 2 * n, u_rows, vperp.basis.entries)[n:]
    assert len(tail_rows) == n - k
    arb_rows = extend_independent(
        field, 2 * n, u_rows + tail_rows, (unit_vector(2 * n, i) for i in range(2 * n))
    )[2 * n - k :]
    assert len(arb_rows) == k
    return form, k, v_rows + w_rows + arb_rows + tail_rows, vperp


def isotropic_meeting_perp(
    u: SubspacePoint, v: Subspace, w: Subspace
) -> SubspacePoint:
    """A maximal totally isotropic X with X meet perp(V) = W.

    The input must satisfy U = V (+) W with U maximal totally isotropic.
    The construction computes the Gram matrix of an ordered frame and
    applies a single closed-form shear transition to it; the sheared
    middle rows span X.
    """
    field = u.field
    n = u.n
    form, k, rows, vperp = _ordered_frame(u, v, w)
    frame = Matrix._of(field, tuple(rows), 2 * n)
    m = form.restricted_gram(frame)

    a = m.block(0, k, n, n + k)
    bb = m.block(k, n, n, n + k)
    c = m.block(k, n, n + k, 2 * n)
    g33 = m.block(n, n + k, n, n + k)
    e = m.block(n, n + k, n + k, 2 * n)
    g44 = m.block(n + k, 2 * n, n + k, 2 * n)
    assert m.block(0, n, 0, n).is_zero() and m.block(0, k, n + k, 2 * n).is_zero()

    d = _skew_split(g33)
    f = _skew_split(g44)
    c_inv = c.inverse()
    c_inv_sig = c_inv.sigma_transpose()
    s = ((e - bb.sigma_transpose() * c_inv_sig * f) * c_inv * bb - d) * a.inverse()
    r = -(bb.sigma_transpose() * c_inv_sig)

    ident_k = Matrix.identity(field, k)
    ident_nk = Matrix.identity(field, n - k)
    z = Matrix.zeros
    transition = Matrix.from_blocks(
        [
            [ident_k, z(field, k, n - k), z(field, k, k), z(field, k, n - k)],
            [z(field, n - k, k), ident_nk, z(field, n - k, k), z(field, n - k, n - k)],
            [s, z(field, k, n - k), ident_k, r],
            [z(field, n - k, k), z(field, n - k, n - k), z(field, n - k, k), ident_nk],
        ]
    )
    new_frame = transition * frame
    sheared = form.restricted_gram(new_frame)
    assert sheared.block(k, n + k, k, n + k).is_zero()

    x_rows = new_frame.entries[k : n + k]
    x = SubspacePoint(Subspace(Matrix._of(field, x_rows, 2 * n)), n)
    assert form.is_totally_isotropic(x)
    assert x.space.intersect(vperp) == w
    return x


def common_complement(u1: SubspacePoint, u2: SubspacePoint) -> SubspacePoint:
    """A maximal totally isotropic complement of both input points.

    Writes V = U1 meet U2, picks complements W1, W2 of V inside U1, U2
    from the canonical bases, rescales W1 so the form pairs the two
    complements as (0, I; -I, 0), and sums the paired basis vectors to
    get a diagonal W.  Then U = V (+) W is maximal totally isotropic and
    the X with X meet perp(V) = W avoids both inputs.
    """
    field = u1.field
    n = u1.n
    if u2.field != field or u2.n != n:
        raise ValueError("points belong to different projective lines")
    _require_isotropic(u1, "u1")
    _require_isotropic(u2, "u2")
    form = standard_form(field, n)

    v = u1.space.intersect(u2.space)
    k = v.dim

    def complement_rows(u: SubspacePoint):
        return extend_independent(
            field, 2 * n, v.basis.entries, u.space.basis.entries
        )[k:]

    w1 = Subspace(Matrix._of(field, tuple(complement_rows(u1)), 2 * n))
    w2 = Subspace(Matrix._of(field, tuple(complement_rows(u2)), 2 * n))
    assert w1.dim == n - k and w2.dim == n - k

    pairing = w1.basis * form.gram * w2.basis.sigma_transpose()
    scaled = pairing.inverse() * w1.basis
    w = Subspace(scaled + w2.basis)
    assert w.dim == n - k

    # w1 + w = w2 + w = w1 (+) w2: w lies in w1 (+) w2 and meets both trivially
    assert _meets_trivially(w1, w2)
    assert _stacked_rank(w1, w2, w) == 2 * (n - k)
    assert _meets_trivially(w, w1) and _meets_trivially(w, w2)

    u_space = v + w
    assert u_space.dim == n and form.is_totally_isotropic(u_space)
    x = isotropic_meeting_perp(SubspacePoint(u_space, n), v, w)
    assert _meets_trivially(x.space, u1.space)
    assert _meets_trivially(x.space, u2.space)
    return x


def decompose_isotropic(p: SubspacePoint) -> BartolonePair:
    """A hermitian parameter pair (T1, T2) whose point is p.

    Takes a common complement X of the base point and p, normalises its
    basis to (C | I), and solves the parametrisation: T1 = C and
    T2 = (B*C - A)^-1 * B for the canonical blocks (A, B) of p.
    """
    field = p.field
    n = p.n
    _require_isotropic(p, "the point")
    x = common_complement(base_point(field, n), p)
    c0, d0 = x.blocks()
    pair = preimage_pair(p, d0.inverse() * c0)
    assert pair.t1.is_hermitian() and pair.t2.is_hermitian()
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
    assert all(form.is_totally_isotropic(p) for p in points)
    return points

