"""Reference code that only the tests use.

``isotropic_meeting_perp_by_matrices`` and ``common_complement_by_matrices``
are independent constructions with the contracts of
``hermitian.isotropic_meeting_perp`` and ``hermitian.common_complement``,
on Matrix and Subspace values: they order a frame of K^(2n)
(``ordered_frame_by_matrices``) and shear it in closed form, as the
library did before it moved points to the base point by the word of a
cell pair.  ``isotropic_meeting_perp_stepwise`` shears the same frame in
two steps.  ``complement_pair_by_matrices`` is the pair of a point by the
common complement, as ``decompose_isotropic`` found it before the cell
pair, and ``decompose_isotropic_by_matrices`` is the cell pair on Matrix
values.  With ``skew_split_by_matrices`` they keep their postconditions
as plain asserts.  ``check_distant_chain`` proves
the "distant diameter at most two" claim with explicit middle points,
and ``graph_from_edges`` builds a small graph from a hand-written edge
list.  ``subspace_id`` ranks a subspace object the way the pair kernel
ranks its reduced rows.  ``extend_independent_by_rebuild``
greedily extends rows by the candidates that raise their rank; the frame
references use it.  ``bartolone_by_matrices``,
``hermitian_matrices_by_filter`` and ``isotropic_points_by_filter`` are
the plain versions that ``bartolone``, ``hermitian_matrices`` and
``isotropic_ids`` replace; ``bartolone_by_matrices`` multiplies through
the same kernel as ``bartolone``, so ``product_by_entries`` checks that
kernel against the product written from its definition.
``check_annihilator_by_products`` is ``harness.check_annihilator``
as it was before its row tables: per pair it builds the annihilator,
multiplies the point's basis by it and row reduces it.
``check_by_pairs`` is ``_PairCases.check`` as it was before the checks
ran by table row: it calls holds(t1, t2) once per pair.  On it,
``check_rank_law_by_pairs``, ``check_annihilator_by_pairs`` and
``check_jordan_well_defined_by_pairs`` state the rank law, the
annihilator and well-definedness pair by pair, as the harness did
before its row checks; ``check_jordan_adjacency_by_edges`` tests one
adjacent pair of points at a time.  ``tally_by_cases`` tallies them all
through ``tally_outcomes``, a report from one outcome per case.
``PairCasesByMatrices`` is ``harness._PairCases`` with the sampled
twisted-map cases it had before they ran on entry tuples: a preimage
pair by ``preimage_pair_by_matrices`` (a witness from
``stable_rank_witness_by_matrices``, then ``Matrix.inverse``) and a
neighbour by ``neighbour_by_subspace``, on points from its own point
memo.  ``point_images_by_first_pair`` is the exhaustive point map as
it was before the representative pairs: the image of the first pair of
each point in the pair table.
``field_tables_by_polynomials`` builds the field tables from
polynomial sums and products, the way ``FieldSpec`` did before its
log/antilog tables.  ``field_power`` is the square-and-multiply power
that ``FieldSpec`` had as its ``pow`` method.  ``contains``,
``evaluate`` and ``from_coeffs`` test subspace containment, evaluate the
form and pack polynomial-basis coefficients into an element.
``gram_matrix`` (J, which the form does not store), ``restricted_gram``
and ``block_isotropy_criterion`` are the Matrix-level references for the
form's closed forms.  None of them runs from the command line.
"""

import functools
import itertools

from hermline.fields import (
    FROBENIUS,
    FieldSpec,
    _digits,
    _find_modulus,
    _pack,
    _poly_mul,
    _poly_rem,
)
from hermline.hermitian import SesquilinearForm, _require_isotropic, standard_form
from hermline.harness import (
    RelationGraph,
    _PairCases,
    _cases,
    _edge_pairs,
    pair_point_table,
)
from hermline.matrices import (
    Matrix,
    Subspace,
    _matrix_id,
    _product,
    _row_reduce,
    _rref_id,
    _rref_layouts,
    all_matrices,
    unit_vector,
)
from hermline.projline import (
    BartolonePair,
    SubspacePoint,
    _Memo,
    _annihilator_shares,
    annihilator,
    base_point,
    enumerate_points,
    is_adjacent,
    is_distant,
    point_from_id,
    point_from_pair,
    preimage_pair,
)

# The configurations ((p, k, involution), n) that the id and isotropy
# tests run on, with their test ids.
LADDER = [
    ((2, 1, "identity"), 2),
    ((3, 1, "identity"), 2),
    ((2, 2, "frobenius"), 2),
    ((3, 2, "frobenius"), 2),
    ((2, 1, "identity"), 3),
]
LADDER_IDS = ["gf2-2", "gf3-2", "gf4-2", "gf9-2", "gf2-3"]


def subspace_id(space: Subspace) -> int:
    """The id of a subspace: its position in the enumerate_subspaces order."""
    rows = space.basis.entries
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    q = space.field.q
    return _rref_id(q, _rref_layouts(q, space.ambient_dim, space.dim), pivots, rows)


def contains(big: Subspace, small: Subspace) -> bool:
    """Whether small lies in big: stacking their bases keeps big's rank."""
    big._check_compatible(small)
    return big.basis.vstack(small.basis).rank() == big.dim


def evaluate(form: SesquilinearForm, x, y) -> int:
    """beta(x, y) for two coefficient tuples of length 2n."""
    x, y = tuple(x), tuple(y)
    if len(x) != 2 * form.n or len(y) != 2 * form.n:
        raise ValueError(f"vectors must have length {2 * form.n}")
    return form._pairing(x, y)


@functools.lru_cache(maxsize=None)
def gram_matrix(field: FieldSpec, n: int) -> Matrix:
    """J = (0, I; -I, 0), the Gram matrix of the standard form, as a Matrix."""
    ident = Matrix.identity(field, n)
    zero = Matrix.zeros(field, n, n)
    return zero.hstack(ident).vstack((-ident).hstack(zero))


def restricted_gram(form: SesquilinearForm, rows: Matrix) -> Matrix:
    """The Gram matrix of the form on the given row vectors."""
    return rows * gram_matrix(form.field, form.n) * rows.sigma_transpose()


def block_isotropy_criterion(p: SubspacePoint) -> bool:
    """The block form of isotropy: A * B^Sigma = B * A^Sigma."""
    a, b = p.blocks()
    return a * b.sigma_transpose() == b * a.sigma_transpose()


def from_coeffs(field: FieldSpec, coeffs) -> int:
    """The element with these polynomial-basis coefficients, constant first."""
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != field.k or any(not 0 <= c < field.p for c in coeffs):
        raise ValueError(f"need {field.k} coefficients in [0, {field.p})")
    return _pack(coeffs, field.p)


def field_power(field: FieldSpec, a: int, e: int) -> int:
    """a^e by square and multiply; a negative e inverts a first."""
    if e < 0:
        a, e = field.inv(a), -e
    out = 1
    while e:
        if e & 1:
            out = field.mul(out, a)
        a = field.mul(a, a)
        e >>= 1
    return out


@functools.lru_cache(maxsize=1)
def _tables_by_polynomials(p: int, k: int) -> tuple:
    """add, neg, sub, mul, inv and frob of GF(p^k), entry by entry."""
    q = p**k
    modulus = _find_modulus(p, k)

    # Both operations commute, so entry (a, b) with b < a is read from
    # row b; every other entry is a polynomial sum or product.
    digits = [_digits(a, p, k) for a in range(q)]
    add = []
    neg = []
    for a, da in enumerate(digits):
        neg.append(_pack(((p - c) % p for c in da), p))
        add.append(
            tuple(row[a] for row in add)
            + tuple(
                _pack(((x + y) % p for x, y in zip(da, db)), p) for db in digits[a:]
            )
        )
    sub = tuple(tuple(add[a][neg[b]] for b in range(q)) for a in range(q))

    mul = []
    for a, da in enumerate(digits):
        row = [r[a] for r in mul]
        for db in digits[a:]:
            prod = _poly_mul(da, db, p)
            row.append(_pack(_poly_rem(prod + [0], modulus, p), p))
        mul.append(tuple(row))

    inv = [0] * q
    for a in range(1, q):
        inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)

    def power(a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = mul[out][base]
            base = mul[base][base]
            e >>= 1
        return out

    frob = tuple(tuple(power(a, p**j) for a in range(q)) for j in range(k))
    return tuple(add), tuple(neg), sub, tuple(mul), tuple(inv), frob


def field_tables_by_polynomials(p: int, k: int, involution: str) -> dict:
    """The eight tables of FieldSpec(p, k, involution), by FieldSpec's names.

    Each add and mul entry on or above the diagonal is a polynomial sum
    or product reduced by the modulus, with no log tables; the build
    costs O(q^2 k^2).
    """
    add, neg, sub, mul, inv, frob = _tables_by_polynomials(p, k)
    sig = frob[k // 2 if involution == FROBENIUS else 0]
    assert all(sig[sig[a]] == a for a in range(p**k))
    return {
        "_add": add,
        "_sub": sub,
        "_neg": neg,
        "_mul": mul,
        "_inv": inv,
        "_frob": frob,
        "_sigma": sig,
        "fixed_elements": tuple(a for a in range(p**k) if sig[a] == a),
    }


def bartolone_by_matrices(pair: BartolonePair) -> SubspacePoint:
    """The point parametrised by (T1, T2): row space of (T2*T1 - I, T2).

    The block pair always has full rank; a failure here would be an
    internal invariant violation, not a user error.
    """
    field = pair.field
    n = pair.n
    left = pair.t2 * pair.t1 - Matrix.identity(field, n)
    space = Subspace(left.hstack(pair.t2))
    if space.dim != n:
        raise AssertionError("parametrised block pair lost rank")
    return SubspacePoint(space, n)


def product_by_entries(field: FieldSpec, a: Matrix, b: Matrix) -> tuple:
    """The entries of a * b as c_ij = sum_k a_ik * b_kj, by field.add and mul.

    No table rows are bound and no zero entry is skipped, so this checks
    the product kernel with nothing in common with it but the field.
    """
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc = field.add(acc, field.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def extend_independent_by_rebuild(field: FieldSpec, ambient_dim: int, rows, candidates):
    """Greedily extend rows by the candidates that raise the rank.

    Returns the combined list, the kept candidates in iteration order.
    Each candidate builds a validating Matrix of the rows kept so far
    plus the candidate and keeps the candidate when the rank rises.
    """
    rows = [tuple(r) for r in rows]
    rank = Matrix(field, rows, cols=ambient_dim).rank()
    if rank != len(rows):
        raise ValueError("starting rows are not independent")
    for cand in candidates:
        cand = tuple(cand)
        trial = Matrix(field, rows + [cand], cols=ambient_dim)
        if trial.rank() > rank:
            rows.append(cand)
            rank += 1
    return rows


def hermitian_matrices_by_filter(field: FieldSpec, n: int) -> tuple:
    """Every n x n matrix that equals its involution transpose, in order."""
    return tuple(m for m in all_matrices(field, n, n) if m.is_hermitian())


def isotropic_points_by_filter(field: FieldSpec, n: int) -> tuple:
    """Every point whose restricted Gram matrix is zero, in enumeration order."""
    form = standard_form(field, n)
    zero = Matrix.zeros(field, n, n)
    return tuple(
        p
        for p in enumerate_points(field, n)
        if restricted_gram(form, p.space.basis) == zero
    )


def skew_split_by_matrices(g: Matrix) -> Matrix:
    """Some D with D - D^Sigma = g, for an anti-hermitian g, on Matrix values."""
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


def ordered_frame_by_matrices(u: SubspacePoint, v: Subspace, w: Subspace):
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
    tail_rows = extend_independent_by_rebuild(
        field, 2 * n, u_rows, vperp.basis.entries
    )[n:]
    assert len(tail_rows) == n - k
    arb_rows = extend_independent_by_rebuild(
        field, 2 * n, u_rows + tail_rows, (unit_vector(2 * n, i) for i in range(2 * n))
    )[2 * n - k :]
    assert len(arb_rows) == k
    return form, k, v_rows + w_rows + arb_rows + tail_rows, vperp


def isotropic_meeting_perp_by_matrices(
    u: SubspacePoint, v: Subspace, w: Subspace
) -> SubspacePoint:
    """A maximal totally isotropic X with X meet perp(V) = W, on Matrix
    values: the frame's Gram matrix and one closed-form shear transition
    of the whole frame."""
    field = u.field
    n = u.n
    form, k, rows, vperp = ordered_frame_by_matrices(u, v, w)
    frame = Matrix._of(field, tuple(rows), 2 * n)
    m = restricted_gram(form, frame)

    a = m.block(0, k, n, n + k)
    bb = m.block(k, n, n, n + k)
    c = m.block(k, n, n + k, 2 * n)
    g33 = m.block(n, n + k, n, n + k)
    e = m.block(n, n + k, n + k, 2 * n)
    g44 = m.block(n + k, 2 * n, n + k, 2 * n)
    z = Matrix.zeros
    assert m.block(0, n, 0, n) == z(field, n, n)
    assert m.block(0, k, n + k, 2 * n) == z(field, k, n - k)

    d = skew_split_by_matrices(g33)
    f = skew_split_by_matrices(g44)
    c_inv = c.inverse()
    c_inv_sig = c_inv.sigma_transpose()
    s = ((e - bb.sigma_transpose() * c_inv_sig * f) * c_inv * bb - d) * a.inverse()
    r = -(bb.sigma_transpose() * c_inv_sig)

    ident = Matrix.identity(field, 2 * n)
    middle = s.hstack(z(field, k, n - k)).hstack(Matrix.identity(field, k)).hstack(r)
    transition = (
        ident.block(0, n, 0, 2 * n)
        .vstack(middle)
        .vstack(ident.block(n + k, 2 * n, 0, 2 * n))
    )
    new_frame = transition * frame
    sheared = restricted_gram(form, new_frame)
    assert sheared.block(k, n + k, k, n + k) == z(field, n, n)

    x_rows = new_frame.entries[k : n + k]
    x = SubspacePoint(Subspace(Matrix._of(field, x_rows, 2 * n)), n)
    assert form.is_totally_isotropic(x)
    assert x.space.intersect(vperp) == w
    return x


def common_complement_by_matrices(
    u1: SubspacePoint, u2: SubspacePoint
) -> SubspacePoint:
    """A common complement of two isotropic points, on Matrix and Subspace
    values: V = U1 meet U2, complements W1 and W2 of V in U1 and U2,
    a diagonal W of W1 (+) W2 on which the form vanishes, and the X
    with X meet perp(V) = W for U = V (+) W."""
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
        return extend_independent_by_rebuild(
            field, 2 * n, v.basis.entries, u.space.basis.entries
        )[k:]

    w1 = Subspace(Matrix._of(field, tuple(complement_rows(u1)), 2 * n))
    w2 = Subspace(Matrix._of(field, tuple(complement_rows(u2)), 2 * n))
    assert w1.dim == n - k and w2.dim == n - k

    pairing = w1.basis * gram_matrix(field, n) * w2.basis.sigma_transpose()
    scaled = pairing.inverse() * w1.basis
    w = Subspace(scaled + w2.basis)
    assert w.dim == n - k

    # w1 + w = w2 + w = w1 (+) w2: w lies in w1 (+) w2 and meets both trivially
    assert _meets_trivially(w1, w2)
    assert _stacked_rank(w1, w2, w) == 2 * (n - k)
    assert _meets_trivially(w, w1) and _meets_trivially(w, w2)

    u_space = v + w
    assert u_space.dim == n and form.is_totally_isotropic(u_space)
    x = isotropic_meeting_perp_by_matrices(SubspacePoint(u_space, n), v, w)
    assert _meets_trivially(x.space, u1.space)
    assert _meets_trivially(x.space, u2.space)
    return x


def decompose_isotropic_by_matrices(p: SubspacePoint) -> BartolonePair:
    """``decompose_isotropic`` as the cell formula on Matrix values.

    The first r = rank(B) rows of the RREF of (B | A) are (R | A'), and
    with E picking out R's pivot columns the pair is
    T1 = E^T * (A' * R^sigmaT + I_r) * E and T2 = R^sigmaT * R.  The full
    RREF also reduces A' by the rows (0 | A'') below, which changes
    neither N = A' * R^sigmaT nor the pair, since A'' * R^sigmaT = 0.
    """
    field = p.field
    n = p.n
    _require_isotropic(p, "the point")
    a, b = p.blocks()
    r = b.rank()
    reduced = Subspace(b.hstack(a)).basis
    rr = reduced.block(0, r, 0, n)
    cell = reduced.block(0, r, n, 2 * n) * rr.sigma_transpose()
    pivots = [row.index(1) for row in rr.entries]
    e = Matrix(field, [unit_vector(n, c) for c in pivots], cols=n)
    t1 = e.transpose() * (cell + Matrix.identity(field, r)) * e
    pair = BartolonePair(t1, rr.sigma_transpose() * rr)
    assert pair.t1.is_hermitian() and pair.t2.is_hermitian()
    return pair


def complement_pair_by_matrices(p: SubspacePoint) -> BartolonePair:
    """The pair of p through the Matrix-level common complement.

    The complement X = (C0 | D0) of the base point and p has an
    invertible D0, and T1 = D0^-1 * C0 has the hermitian preimage pair
    (T1, (B*T1 - A)^-1 * B); decompose_isotropic took this route before
    the cell pair.
    """
    field = p.field
    n = p.n
    _require_isotropic(p, "the point")
    x = common_complement_by_matrices(base_point(field, n), p)
    c0, d0 = x.blocks()
    assert d0.is_invertible()
    pair = preimage_pair(p, d0.inverse() * c0)
    assert pair.t1.is_hermitian() and pair.t2.is_hermitian()
    return pair


def isotropic_meeting_perp_stepwise(
    u: SubspacePoint, v: Subspace, w: Subspace
) -> SubspacePoint:
    """Same contract as :func:`isotropic_meeting_perp`, by row elimination.

    Kept as an independent cross-check: it shears the frame in two
    explicit steps, recomputing the Gram matrix in between, instead of
    using the closed-form transition.
    """
    field = u.field
    n = u.n
    form, k, rows, _ = ordered_frame_by_matrices(u, v, w)
    add, mul = field._add, field._mul

    def shear(target_rows, coeff: Matrix, source_rows):
        for i in range(len(target_rows)):
            vec = list(rows[target_rows[i]])
            for cf, src in zip(coeff.entries[i], source_rows):
                if cf:
                    srow = rows[src]
                    vec = [add[x][mul[cf][y]] for x, y in zip(vec, srow)]
            rows[target_rows[i]] = tuple(vec)

    def gram() -> Matrix:
        return restricted_gram(form, Matrix(field, rows, cols=2 * n))

    arb = list(range(n, n + k))
    tail = list(range(n + k, 2 * n))
    m = gram()
    bb = m.block(k, n, n, n + k)
    c = m.block(k, n, n + k, 2 * n)
    shear(arb, -(bb.sigma_transpose() * c.inverse().sigma_transpose()), tail)

    m = gram()
    assert m.block(k, n, n, n + k) == Matrix.zeros(field, n - k, k)
    a = m.block(0, k, n, n + k)
    d = skew_split_by_matrices(m.block(n, n + k, n, n + k))
    shear(arb, -(d * a.inverse()), list(range(k)))

    m = gram()
    assert m.block(k, n + k, k, n + k) == Matrix.zeros(field, n, n)
    x_rows = rows[k : n + k]
    x = SubspacePoint(Subspace.from_rows(field, 2 * n, x_rows), n)
    assert form.is_totally_isotropic(x)
    assert x.space.intersect(form.perp(v)) == w
    return x


def check_distant_chain(field: FieldSpec, n: int) -> dict:
    """Any point is within two distant steps of the base point.

    For every parameter pair, the intermediate point with basis
    (T1 | I) is distant from both the base point and the parametrised
    point, witnessing a distant graph diameter of at most two.
    """
    base = base_point(field, n)
    ident = Matrix.identity(field, n)
    mats = list(all_matrices(field, n, n))
    points = enumerate_points(field, n)
    table = pair_point_table(field, n)
    middles = [point_from_pair(t1, ident) for t1 in mats]

    def outcomes():
        for i, r in enumerate(middles):
            from_base = is_distant(base, r)
            from_point = {}
            for j, p in enumerate(table[i]):
                if p not in from_point:
                    from_point[p] = is_distant(r, points[p])
                if not from_base:
                    yield {"t1": mats[i].to_json(), "side": "base"}
                elif not from_point[p]:
                    yield {"t1": mats[i].to_json(), "t2": mats[j].to_json()}
                else:
                    yield None

    return tally_outcomes("distant_chain", "exhaustive", outcomes())


def graph_from_edges(kind: str, point_set: str, size: int, edges) -> RelationGraph:
    """The graph on the ids 0..size-1 whose related pairs are edges."""
    neighbours = [0] * size
    for i, j in edges:
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    return RelationGraph(kind, point_set, neighbours)


def tally_outcomes(name: str, mode: str, outcomes) -> dict:
    """A check's report from one outcome per case: None if it passed, else its witness.

    The first ten witnesses are kept, and every outcome is read.
    """
    outcomes = list(outcomes)
    witnesses = [o for o in outcomes if o is not None][:10]
    return {
        "name": name,
        "mode": mode,
        "cases": len(outcomes),
        "passed": not witnesses,
        "witnesses": witnesses,
    }


def tally_by_cases(name: str, mode: str, cases, holds, witness) -> dict:
    """One outcome per case (a, b) of cases: None if holds(a, b), else witness(a, b)."""
    outcomes = (None if holds(a, b) else witness(a, b) for a, b in cases)
    return tally_outcomes(name, mode, outcomes)


def check_by_pairs(cases: _PairCases, name: str, holds, seed: int, samples: int):
    """``_PairCases.check`` as it was before it ran by row: holds(t1, t2) per pair."""
    if cases.exhaustive:
        pairs = itertools.product(range(len(cases.table)), repeat=2)
    else:
        pairs = cases.pairs(seed, samples)
    return tally_by_cases(name, cases.mode, pairs, holds, cases._pair_witness)


def check_rank_law_by_pairs(field: FieldSpec, n: int, seed=0, samples=10_000) -> dict:
    """The rank law on the same cases, one distance and one rank read per pair."""
    cases = _cases(field, n)
    rank, rows = cases.per_matrix(Matrix.rank), cases.rows
    distance = _Memo(
        lambda p: len(_row_reduce(field, [list(r[n:]) for r in rows[p]], n))
    )

    def holds(t1, t2) -> bool:
        return distance[cases.table[t1][t2]] == rank[t2]

    return check_by_pairs(cases, "rank_distance_law", holds, seed, samples)


def check_annihilator_by_pairs(field: FieldSpec, n: int, seed=0, samples=1_000) -> dict:
    """The annihilator check on the same cases, one pair at a time.

    Each pair's columns are packed from its own shares, and each
    (point, column) is tested once for B*v = 0 by a product.
    """
    q, qn, width = field.q, field.q**n, field.q ** (2 * n)
    cases = _cases(field, n)
    invertible = cases.per_matrix(Matrix.is_invertible)

    def kernel_coordinates(p: int) -> _Memo:
        basis = cases.rows[p]
        transposed, pivots = tuple(zip(*basis)), {row.index(1) for row in basis}

        def free_entries(column: int):
            v = _digits(column, q, 2 * n)[::-1]
            if any(_product(field, (v,), transposed, n)[0]):
                return None
            return _matrix_id(q, [[x for c, x in enumerate(v) if c not in pivots]])

        return _Memo(free_entries)

    kernel = _Memo(kernel_coordinates)

    def holds(t1, t2) -> bool:
        t1_rows, t2_rows = cases.matrix[t1].entries, cases.matrix[t2].entries
        shares = _annihilator_shares(field, n, t2_rows, [(d,) for d in t1_rows])
        packed = sum(share for share, in shares)
        coordinates, minor = kernel[cases.table[t1][t2]], 0
        for _ in range(n):  # the columns, last first
            packed, column = divmod(packed, width)
            x = coordinates[column]
            if x is None:
                return False
            minor = minor * qn + x
        return invertible[minor]

    return check_by_pairs(cases, "annihilator", holds, seed, samples)


def check_annihilator_by_products(
    field: FieldSpec, n: int, seed: int = 0, samples: int = 1_000
) -> dict:
    """The annihilator check on the same cases, by a product and a rank per pair."""
    cases = _cases(field, n)

    def holds(t1, t2) -> bool:
        ann = annihilator(BartolonePair(cases.matrix[t1], cases.matrix[t2]))
        product = _product(field, cases.rows[cases.table[t1][t2]], ann.entries, n)
        return not any(map(any, product)) and ann.rank() == n

    return check_by_pairs(cases, "annihilator", holds, seed, samples)


def check_jordan_well_defined_by_pairs(field: FieldSpec, n: int, spec, label: str):
    """The exhaustive well-definedness check, one pair at a time.

    Each pair's image is compared with its point's image, the image of
    the point's representative pair.
    """
    cases = _cases(field, n)
    image, image_of = cases.image(spec), cases.point_image(spec)

    def holds(t1, t2) -> bool:
        return image(t1, t2) == image_of[cases.table[t1][t2]]

    return check_by_pairs(cases, f"jordan_well_defined[{label}]", holds, 0, 0)


def check_jordan_adjacency_by_edges(field: FieldSpec, n: int, spec, label: str) -> dict:
    """The exhaustive adjacency check, one adjacent pair of points at a time."""
    cases = _cases(field, n)
    neighbours, image_of = cases.neighbours, cases.point_image(spec)
    point = functools.partial(point_from_id, field, n)

    def kept(p, q) -> bool:
        return neighbours[image_of[p]] >> image_of[q] & 1

    def witness(p, q) -> dict:
        return {"p": point(p).to_json(), "q": point(q).to_json()}

    edges = _edge_pairs(neighbours)
    name = f"jordan_adjacency[{label}]"
    return tally_by_cases(name, "exhaustive", edges, kept, witness)


def point_images_by_first_pair(field: FieldSpec, n: int, spec) -> list:
    """For each point id, the id of the image of the first pair of that point.

    The pairs are scanned in the pair_point_table order, each matrix
    mapped once by spec.apply.
    """
    q, mats = field.q, all_matrices(field, n, n)
    iota = [_matrix_id(q, spec.apply(m).entries) for m in mats]
    table = pair_point_table(field, n)
    image_of = [None] * len(enumerate_points(field, n))
    for i, row in enumerate(table):
        for j, p in enumerate(row):
            if image_of[p] is None:
                image_of[p] = table[iota[i]][iota[j]]
    assert None not in image_of, "a point has no parameter pair"
    return image_of


def stable_rank_witness_by_matrices(a: Matrix, b: Matrix) -> Matrix:
    """``stable_rank_witness`` by a Matrix sum, product and rank per candidate."""
    field = a.field
    n = a.rows

    def candidates():
        yield Matrix.zeros(field, n, n)
        yield Matrix.identity(field, n)
        for i in range(n):
            for j in range(n):
                rows = [[0] * n for _ in range(n)]
                rows[i][j] = 1
                yield Matrix(field, (tuple(r) for r in rows), cols=n)
        yield from all_matrices(field, n, n)

    for w in candidates():
        if (a + b * w).is_invertible():
            return w
    raise RuntimeError("no stable rank witness found; this should be impossible")


def preimage_pair_by_matrices(p: SubspacePoint, t1: Matrix | None = None):
    """``preimage_pair`` by Matrix.inverse: T2 = (B*T1 - A)^-1 * B."""
    a, b = p.blocks()
    if t1 is None:
        t1 = stable_rank_witness_by_matrices(-a, b)
    g = (b * t1 - a).inverse()
    pair = BartolonePair(t1, g * b)
    if bartolone_by_matrices(pair) != p:
        raise AssertionError("the preimage pair parametrises another point")
    return pair


def neighbour_by_subspace(cases: _PairCases, p: SubspacePoint) -> SubspacePoint:
    """A random point meeting p in dimension n - 1, drawn from cases.rng."""
    n = cases.n
    kept = list(p.space.basis.entries[: n - 1])
    while True:
        vec = tuple(cases.rng.randrange(cases.field.q) for _ in range(2 * n))
        if contains(p.space, Subspace.from_rows(cases.field, 2 * n, [vec])):
            continue
        space = Subspace.from_rows(cases.field, 2 * n, kept + [vec])
        if space.dim == n:
            return SubspacePoint(space, n)


class PairCasesByMatrices(_PairCases):
    """_PairCases whose sampled twisted-map cases build matrices and points.

    Its point memo unranks each point id it reads once.
    """

    def __init__(self, field: FieldSpec, n: int):
        super().__init__(field, n)
        self.point = _Memo(functools.partial(point_from_id, field, n))

    def _draw(self) -> int:
        q, n, rng = self.field.q, self.n, self.rng
        return _matrix_id(q, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])

    def _id(self, m: Matrix) -> int:
        """The id of m; the matrix memo keeps m, so it is never unranked."""
        t = _matrix_id(self.field.q, m.entries)
        self.matrix[t] = m
        return t

    def other_image_row(self, spec):
        if self.exhaustive:
            return super().other_image_row(spec)
        image = self.image(spec)

        def others(t1: int, t2s, points):
            for t2, p in zip(t2s, points):
                mine, point = image(t1, t2), self.point[p]
                a, b = point.blocks()
                for _ in range(2):
                    alt = self._draw()
                    while not (b * self.matrix[alt] - a).is_invertible():
                        alt = self._draw()
                    pair = preimage_pair_by_matrices(point, self.matrix[alt])
                    theirs = image(alt, self._id(pair.t2))
                    if theirs != mine:
                        break
                yield theirs

        return others

    def adjacent_points(self, spec, seed, samples):
        if self.exhaustive:
            yield from super().adjacent_points(spec, seed, samples)
            return
        image = self.image(spec)
        for t1, t2 in self.pairs(seed, samples):
            p = self.point[self.table[t1][t2]]
            q = neighbour_by_subspace(self, p)
            pair = preimage_pair_by_matrices(q)
            img_q = image(self._id(pair.t1), self._id(pair.t2))
            kept = is_adjacent(self.point[image(t1, t2)], self.point[img_q])
            yield self.table[t1][t2], (subspace_id(q.space),), (kept,)
