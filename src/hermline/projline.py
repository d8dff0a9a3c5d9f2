"""The projective line over the ring of n x n matrices, as a Grassmannian.

Points of the projective line over the full matrix ring K^(n x n) are
the n-dimensional subspaces of K^(2n): a pair (A, B) of n x n blocks
with rank(A | B) = n stands for the row space of the n x 2n matrix
(A | B).  This module provides the point model, the two-parameter
parametrisation

    (T1, T2)  ->  row space of (T2*T1 - I, T2),

which private kernels compute on entry tuples as point ids: _pair_ids
for one pair (bartolone unranks its id into a point), over GF(2) on
rows packed into ints and row reduced by XOR, as is the preimage solve
_preimages, and over other fields on lists; and _pair_columns
for the pair sweeps, one T2 at a time, which names the point of each
pair by the triple (R, C, N): R and C the reduced bases of T2's row and
column spaces, and N an r x r matrix read off T1 by table lookups.  One
memo over the sweep maps the triple to the id, filled by _pair_ids on
the first pair that reaches it.  The module also provides the distant
and adjacency relations with the arithmetical distance that refines
them, and the constructions attached to the parametrisation: spheres
around the base point, stars, tops, pencils, annihilators, preimage
pairs with their stable-rank witnesses, and the twisted ring
isomorphisms and anti-isomorphisms (JordanMapSpec) whose images of a
parameter pair give the induced point maps.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .fields import FieldSpec
from .matrices import (
    Matrix,
    Subspace,
    _matrix_from_id,
    _matrix_id,
    _product,
    _row_reduce,
    _rref_id,
    _rref_layouts,
    _rows_id,
    all_matrices,
    all_vectors,
    enumerate_subspaces,
    outer_product,
    subspace_from_id,
)

AUTOMORPHISM = "automorphism"
ANTIAUTOMORPHISM = "antiautomorphism"


class SubspacePoint:
    """A point of the projective line: an n-space in K^(2n)."""

    __slots__ = ("space", "n")

    def __init__(self, space: Subspace, n: int):
        if space.ambient_dim != 2 * n or space.dim != n:
            raise ValueError(
                f"a point needs an n-space of K^(2n), got dim {space.dim} "
                f"in K^{space.ambient_dim} for n={n}"
            )
        self.space = space
        self.n = n

    @property
    def field(self) -> FieldSpec:
        return self.space.field

    def blocks(self) -> tuple[Matrix, Matrix]:
        """The (A, B) block pair of the canonical basis matrix."""
        basis, n = self.space.basis, self.n
        return basis.block(0, n, 0, n), basis.block(0, n, n, 2 * n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubspacePoint):
            return NotImplemented
        return self.space == other.space

    def __hash__(self) -> int:
        return hash(self.space)

    def __repr__(self) -> str:
        return f"SubspacePoint(n={self.n}, basis={list(self.space.basis.entries)})"

    def sort_key(self) -> tuple:
        return self.space.basis.entries

    def to_json(self) -> dict:
        return self.space.basis.to_json()


class BartolonePair:
    """An ordered parameter pair (T1, T2) of square matrices."""

    __slots__ = ("t1", "t2")

    def __init__(self, t1: Matrix, t2: Matrix):
        if t1.field != t2.field:
            raise ValueError("parameter matrices live over different fields")
        if t1.rows != t1.cols or t1.rows != t2.rows or t2.rows != t2.cols:
            raise ValueError("parameters must be square matrices of equal size")
        self.t1 = t1
        self.t2 = t2

    @property
    def field(self) -> FieldSpec:
        return self.t1.field

    @property
    def n(self) -> int:
        return self.t1.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, BartolonePair):
            return NotImplemented
        return self.t1 == other.t1 and self.t2 == other.t2

    def __hash__(self) -> int:
        return hash((self.t1, self.t2))

    def __repr__(self) -> str:
        return f"BartolonePair(t1={self.t1!r}, t2={self.t2!r})"


def point_from_pair(a: Matrix, b: Matrix) -> SubspacePoint:
    """The point with basis (A | B); raises ValueError when rank(A|B) < n."""
    if a.field != b.field:
        raise ValueError("blocks live over different fields")
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("blocks must be square matrices of equal size")
    try:
        return point_from_matrix(a.field, a.rows, a.hstack(b))
    except ValueError:
        raise ValueError(
            "(A, B) has rank below n and does not define a point"
        ) from None


def point_from_matrix(field: FieldSpec, n: int, m: Matrix) -> SubspacePoint:
    """Canonicalise an n x 2n generator matrix into a point."""
    if m.field != field:
        raise ValueError("matrix lives over a different field")
    if m.cols != 2 * n:
        raise ValueError(f"a point of the line needs {2 * n} columns")
    space = Subspace(m)
    if space.dim != n:
        raise ValueError("generator matrix has rank below n")
    return SubspacePoint(space, n)


@functools.lru_cache(maxsize=None)
def base_point(field: FieldSpec, n: int) -> SubspacePoint:
    """The base point, the row space of (I | 0)."""
    return point_from_pair(Matrix.identity(field, n), Matrix.zeros(field, n, n))


def bartolone(pair: BartolonePair) -> SubspacePoint:
    """The point parametrised by (T1, T2): row space of (T2*T1 - I, T2).

    The point is unranked from the id that _pair_ids computes.  The
    block pair always has full rank; a failure there is an internal
    invariant violation, not a user error.
    """
    field, n = pair.field, pair.n
    index = _pair_ids(field, n)(pair.t1.entries, pair.t2.entries)
    return point_from_id(field, n, index)


@functools.lru_cache(maxsize=None)
def _pair_ids(field: FieldSpec, n: int):
    """The parametrisation on entry tuples: (T1, T2) -> id of its point.

    The returned function row reduces (T2*T1 - I | T2) and reads the
    point id off the reduced rows, with no Matrix, Subspace or
    SubspacePoint: _packed_pair_ids over GF(2), else _list_pair_ids, the
    tests' reference on every field.  bartolone unranks its ids, and
    _pair_columns calls it once per point that a sweep reaches.  Lost
    rank raises AssertionError, also under python -O.
    """
    return _packed_pair_ids(n) if field.q == 2 else _list_pair_ids(field, n)


def _list_pair_ids(field: FieldSpec, n: int):
    """_pair_ids on rows as lists, from the rows of _product and _row_reduce."""
    sub = field._sub
    q = field.q
    layouts = _rref_layouts(q, 2 * n, n)

    def pair_id(t1: tuple, t2: tuple) -> int:
        work = _product(field, t2, t1, n)
        for i, (left, row) in enumerate(zip(work, t2)):
            left[i] = sub[left[i]][1]
            left.extend(row)
        pivots = _row_reduce(field, work, 2 * n)
        if len(pivots) != n:
            raise AssertionError("parametrised block pair lost rank")
        return _rref_id(q, layouts, pivots, work)

    return pair_id


def _xor_reduce(rows) -> dict:
    """The RREF of GF(2) rows packed into ints, as {leading bit: row}.

    Each row is reduced by the rows kept, then a remainder is cleared out
    of them and kept.  The keys sum to the mask of the pivot columns.
    """
    basis = {}
    for row in rows:
        for lead, kept in basis.items():
            if row & lead:
                row ^= kept
        if row:
            lead = 1 << (row.bit_length() - 1)
            for other, kept in basis.items():
                if kept & lead:
                    basis[other] = kept ^ row
            basis[lead] = row
    return basis


def _packed_products(n: int):
    """For GF(2) rows x of length n or 2n, and T1: each x XOR x[-n:]*T1 << n.

    Rows are packed into ints, column c of x at bit len(x) - 1 - c, so a
    row of T2 gives the row of (T2*T1 | T2), a row (A | B) of (A+B*T1 | B).
    """
    pack = _Memo(
        lambda x: (int("".join(map(str, x)), 2), [k for k in range(n) if x[k - n]])
    )

    def products(rows, t1: tuple) -> list[int]:
        left, work = [pack[x][0] << n for x in t1], []
        for x in rows:
            value, ks = pack[x]
            for k in ks:
                value ^= left[k]
            work.append(value)
        return work

    return products


def _packed_pair_ids(n: int):
    """_pair_ids over GF(2): _packed_products XOR I, then _xor_reduce.

    The id is read through the _rref_layouts templates: per pivot mask,
    a dict maps each reduced row the pattern admits to its share of the id.
    """
    layouts, products = _rref_layouts(2, 2 * n, n), _packed_products(n)
    bits = [1 << c for c in reversed(range(2 * n))]  # column c is bit 2n - 1 - c

    def read(mask: int) -> tuple[int, dict]:
        pivots = tuple(c for c, bit in enumerate(bits) if mask & bit)
        offset, free = layouts[pivots]
        shares, shift = {}, sum(map(len, free))
        for pivot, cols in zip(pivots, free):
            shift -= len(cols)
            for x, entries in enumerate(itertools.product((0, 1), repeat=len(cols))):
                row = bits[pivot] + sum(bits[c] for c, e in zip(cols, entries) if e)
                shares[row] = x << shift
        return offset, shares

    reads = _Memo(read)

    def pair_id(t1: tuple, t2: tuple) -> int:
        basis = _xor_reduce(map(operator.xor, products(t2, t1), bits))  # bits[i]: -I
        if len(basis) != n:
            raise AssertionError("parametrised block pair lost rank")
        offset, shares = reads[sum(basis)]
        return offset + sum(map(shares.__getitem__, basis.values()))

    return pair_id


class _Memo(dict):
    """The map key -> f(key), each value computed on its first lookup."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, key):
        self[key] = value = self.f(key)
        return value


def _pair_columns(field: FieldSpec, n: int, t1s, t2s):
    """For each T2 in t2s, the list of the ids of (T1, T2) for T1 in t1s.

    t1s is a list and t2s an iterable of entry tuples; the columns come
    lazily, one per T2.  Row reducing (T2 | I) to (R, E_top ; 0, E_bot)
    gives the rank r of T2, its r nonzero RREF rows R and the invertible
    E = (E_top ; E_bot) with E*T2 = (R ; 0).  Left multiplication by E
    keeps the row space of the generator:

        E * (T2*T1 - I | T2) = (R*T1 - E_top | R ; -E_bot | 0).

    Let C be the n x r matrix whose columns are the RREF basis of T2's
    column space, the nonzero rows of the row reduced transpose of T2.
    Then T2 = C*g*R for an invertible g, and E_top*C = g^-1.  The rows
    (-E_bot | 0) span the (v | 0) with v*T2 = 0, that is v*C = 0, so the
    point is {(x | a*R) : x*C = a*N} with N = R*T1*C - E_top*C.  R spans
    the point's projection onto the second block, C fixes its meet with
    K^n + 0, and N is then unique: each point has exactly one triple
    (R, C, N).  For an invertible T2, R = C = I and N = T1 - T2^-1.

    One memo, shared by all columns, maps (R, C) to the products d*C for
    the distinct rows d at each row index of the t1s, and to a dict from
    N to the id.  N is packed as a base-q numeral, row a at place
    q^(a*r) and entry b of a row at q^(r-1-b).  The first pair that
    reaches a key is row reduced with _pair_ids, so a sweep eliminates
    once per point it reaches.  When row a of R is the unit vector e_i,
    row a of N is one read at the slot of T1's row i, of d*C minus row a
    of E_top*C, packed.  Otherwise it is summed over the i with R[a][i]
    nonzero, entry by entry with the field's add and mul tables, the
    first table of each entry taking off E_top*C.
    """
    q, add, mul, sub = field.q, field._add, field._mul, field._sub
    pair_id = _pair_ids(field, n)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    distinct = [{} for _ in range(n)]
    slots = [
        [d.setdefault(t1[i], len(d)) for t1 in t1s] for i, d in enumerate(distinct)
    ]
    distinct = [list(d) for d in distinct]
    memo = {}

    for t2 in t2s:
        work = [list(row) + unit for row, unit in zip(t2, ident)]
        r = sum(p < n for p in _row_reduce(field, work, 2 * n))
        basis = [list(column) for column in zip(*t2)]
        _row_reduce(field, basis, n)
        c = list(zip(*basis[:r]))
        r_rows = tuple(tuple(row[:n]) for row in work[:r])
        key = r_rows, tuple(map(tuple, basis[:r]))
        if key not in memo:
            memo[key] = [_product(field, rows, c, r) for rows in distinct], {}
        images, ids = memo[key]
        folds = _product(field, [row[n:] for row in work[:r]], c, r)
        keys = [0] * len(t1s)
        place = 1
        for r_row, fold in zip(r_rows, folds):
            terms = [(mul[x], s, dc) for x, s, dc in zip(r_row, slots, images) if x]
            if len(terms) == 1:
                _, slot, dc = terms[0]
                table = []
                for image in dc:
                    value = 0
                    for x, y in zip(image, fold):
                        value = value * q + sub[x][y]
                    table.append(value * place)
                keys = map(operator.add, keys, map(table.__getitem__, slot))
            else:
                for b, y in enumerate(fold):
                    (scaled, slot, dc), *rest = terms
                    table = [sub[scaled[image[b]]][y] for image in dc]
                    entries = map(table.__getitem__, slot)
                    for scaled, slot, dc in rest:
                        table = [scaled[image[b]] for image in dc]
                        reads = map(table.__getitem__, slot)
                        entries = map(
                            operator.getitem, map(add.__getitem__, entries), reads
                        )
                    shift = place * q ** (r - 1 - b)
                    keys = map(operator.add, keys, map(shift.__mul__, entries))
            place *= q**r
        keys = list(keys)
        try:
            column = list(map(ids.__getitem__, keys))
        except KeyError:
            reach = dict(zip(keys, t1s))
            for key in reach.keys() - ids.keys():
                ids[key] = pair_id(reach[key], t2)
            column = list(map(ids.__getitem__, keys))
        yield column


def _check_same_line(p: SubspacePoint, q: SubspacePoint) -> None:
    if p.field != q.field or p.n != q.n:
        raise ValueError("points belong to different projective lines")


def is_distant(p: SubspacePoint, q: SubspacePoint) -> bool:
    """Whether the two point spaces are complementary in K^(2n)."""
    return arithmetical_distance(p, q) == p.n


def arithmetical_distance(p: SubspacePoint, q: SubspacePoint) -> int:
    """dim(P + Q) - n; ranges over 0..n and refines the distant relation."""
    _check_same_line(p, q)
    stacked = p.space.basis.vstack(q.space.basis)
    return stacked.rank() - p.n


def is_adjacent(p: SubspacePoint, q: SubspacePoint) -> bool:
    """Whether the point spaces meet in dimension n - 1."""
    return arithmetical_distance(p, q) == 1


def stable_rank_witness(a: Matrix, b: Matrix) -> Matrix:
    """Some W with A + B*W invertible, for a full-rank block pair (A, B).

    Candidates are tried in a deterministic order: the zero matrix, the
    identity, the single-entry matrices, then all matrices in
    lexicographic order.  Existence is guaranteed because the matrix
    ring over a field has stable rank two.  A + B*W is invertible
    exactly when W is the T1 of a preimage pair of the row space of
    (-A | B), so W is preimage_pair's T1 there.
    """
    return preimage_pair(point_from_pair(-a, b)).t1


def _witness_ids(field: FieldSpec, n: int):
    """The matrix ids of stable_rank_witness's candidates, in its order."""
    count = field.q ** (n * n)
    singles = [count // field.q ** (k + 1) for k in range(n * n)]  # E_ij, k = i*n + j
    return itertools.chain([0, sum(singles[:: n + 1])], singles, range(count))


@functools.lru_cache(maxsize=None)
def _preimages(field: FieldSpec, n: int):
    """The parametrisation solved for T2, on entry tuples.

    The returned function takes the rows (A | B) of a point and a T1 and
    row reduces (B*T1 - A | B) once.  When its pivots are 0..n-1, B*T1 - A
    is invertible, the right block is T2 = (B*T1 - A)^-1 * B, and
    (T2*T1 - I | T2) = (B*T1 - A)^-1 * (A | B) spans the point.
    Otherwise it returns None.  It is _packed_preimages over GF(2), else
    _list_preimages, the tests' reference on every field; it is the one
    preimage kernel, and _preimage_ids is its one caller.
    """
    return _packed_preimages(n) if field.q == 2 else _list_preimages(field, n)


def _list_preimages(field: FieldSpec, n: int):
    """_preimages on rows as lists: B*T1 - A is the product (A | B) * (-I ; T1)."""
    minus_ident, pivots = (-Matrix.identity(field, n)).entries, list(range(n))

    def preimage(rows: tuple, t1: tuple) -> tuple | None:
        work = _product(field, rows, minus_ident + t1, n)
        for left, row in zip(work, rows):
            left.extend(row[n:])
        if _row_reduce(field, work, n) != pivots:
            return None
        return tuple(tuple(row[n:]) for row in work)

    return preimage


def _packed_preimages(n: int):
    """_preimages over GF(2): _xor_reduce on the _packed_products of (A | B)."""
    products, leads = _packed_products(n), [1 << (2 * n - 1 - i) for i in range(n)]
    right = _Memo(lambda row: tuple(map(int, format(row, f"0{2 * n}b")[n:])))

    def preimage(rows: tuple, t1: tuple) -> tuple | None:
        basis = _xor_reduce(products(rows, t1))
        if sum(basis) != sum(leads):
            return None
        return tuple(right[basis[lead]] for lead in leads)

    return preimage


def _preimage_ids(field: FieldSpec, n: int, rows, point_id: int, t1_ids, matrix):
    """The ids of (T1, T2) for the first T1 in t1_ids that has a T2, or None.

    rows are the RREF rows (A | B) of the point with id point_id, and
    matrix maps a matrix id to its Matrix.  T2 comes from the _preimages
    kernel, and the pair's _pair_ids id is checked against point_id,
    under python -O too.  preimage_pair, and so stable_rank_witness, and
    the sampled twisted-map checks all solve through it.
    """
    solve, pair_id = _preimages(field, n), _pair_ids(field, n)
    for t1 in t1_ids:
        t2 = solve(rows, matrix[t1].entries)
        if t2 is not None:
            if pair_id(matrix[t1].entries, t2) != point_id:
                raise AssertionError("a preimage pair parametrises another point")
            return t1, _matrix_id(field.q, t2)
    return None


def preimage_pair(p: SubspacePoint, t1: Matrix | None = None) -> BartolonePair:
    """Some parameter pair whose point is p.

    Solves the parametrisation for the canonical blocks (A, B):
    any T1 with B*T1 - A invertible yields T2 = (B*T1 - A)^-1 * B.
    When t1 is not given, the first of stable_rank_witness's candidates
    that has a T2 is used.  The pair's point id is checked against p's,
    under python -O too.
    """
    field, n, rows = p.field, p.n, p.space.basis.entries
    if t1 is None:
        t1_ids = _witness_ids(field, n)
    elif t1.field != field or t1.rows != n or t1.cols != n:
        raise ValueError("T1 must be an n x n matrix over the point's field")
    else:
        t1_ids = [_matrix_id(field.q, t1.entries)]
    point_id = _rows_id(field.q, 2 * n, rows)
    matrix = _Memo(functools.partial(_matrix_from_id, field, n, n))
    found = _preimage_ids(field, n, rows, point_id, t1_ids, matrix)
    if found is None:
        raise ValueError("B*T1 - A is not invertible for this T1")
    return BartolonePair(*(matrix[t] for t in found))


def annihilator(pair: BartolonePair) -> Matrix:
    """The 2n x n matrix (-T2 on top of T1*T2 - I).

    Its columns are annihilated by every row of (T2*T1 - I | T2), and
    so by every vector of the pair's point; it always has rank n.
    """
    field, t1 = pair.field, pair.t1.entries
    rows = _annihilator_rows(field, pair.t2.entries, [(d,) for d in t1])
    upper = tuple(top for top, _ in rows)
    lower = tuple(bottom for _, (bottom,) in rows)
    return Matrix._of(field, upper + lower, pair.n)


def _annihilator_rows(field: FieldSpec, t2: tuple, ds) -> list[tuple]:
    """Rows i and n + i of the annihilator, for each T1[i] = d in ds[i].

    Row i is -T2[i] and row n + i is d*T2 - e_i, each d*T2 from one
    product of the distinct rows of all the ds[i] by T2.  Item i of the
    list is the pair of row i and the list of rows n + i over ds[i].
    """
    distinct = list(dict.fromkeys(itertools.chain.from_iterable(ds)))
    products = dict(zip(distinct, _product(field, distinct, t2, len(t2))))
    sub, rows = field._sub, []
    for i, (row, rows_i) in enumerate(zip(t2, ds)):
        lowers = []
        for d in rows_i:
            lower = products[d].copy()
            lower[i] = sub[lower[i]][1]
            lowers.append(tuple(lower))
        rows.append((tuple(map(field._neg.__getitem__, row)), lowers))
    return rows


def _annihilator_shares(field: FieldSpec, n: int, t2: tuple, ds) -> list[list[int]]:
    """For each i, the share of rows i and n + i of the annihilator, per d in ds[i].

    The annihilator's columns, as base-q numerals, are the rows of its
    transpose, whose matrix id is the sum over i of the share of row i
    of T1.
    """
    q, width = field.q, field.q ** (2 * n)
    shares = []
    for i, (upper, lowers) in enumerate(_annihilator_rows(field, t2, ds)):
        top = _matrix_id(width, (upper,)) * q ** (2 * n - 1 - i)
        place = q ** (n - 1 - i)
        shares.append([top + _matrix_id(width, (lower,)) * place for lower in lowers])
    return shares


class JordanMapSpec:
    """A twisted inner (anti-)isomorphism of the matrix ring.

    kind ``automorphism`` acts by X -> Q^-1 * X^gamma * Q and kind
    ``antiautomorphism`` by X -> Q^-1 * (X^delta)^T * Q, where the
    twist gamma or delta is the field automorphism
    x -> x^(p^frobenius_power) and Q is an invertible matrix.  Specs
    compare and hash by their type, kind, frobenius_power and Q.
    """

    __slots__ = ("kind", "frobenius_power", "q_matrix", "_q_inv", "_key")

    def __init__(self, kind: str, frobenius_power: int, q_matrix: Matrix):
        if kind not in (AUTOMORPHISM, ANTIAUTOMORPHISM):
            raise ValueError(f"unknown map kind {kind!r}")
        if q_matrix.rows != q_matrix.cols:
            raise ValueError("Q must be square")
        self.kind = kind
        self.frobenius_power = frobenius_power % q_matrix.field.k
        self.q_matrix = q_matrix
        self._q_inv = q_matrix.inverse()
        self._key = (type(self), kind, self.frobenius_power, q_matrix)

    def __eq__(self, other) -> bool:
        return isinstance(other, JordanMapSpec) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def apply(self, m: Matrix) -> Matrix:
        twisted = m._map(m.field._frob[self.frobenius_power])
        if self.kind == ANTIAUTOMORPHISM:
            twisted = twisted.transpose()
        return self._q_inv * twisted * self.q_matrix

    def __repr__(self) -> str:
        return (
            f"JordanMapSpec({self.kind}, frobenius_power={self.frobenius_power}, "
            f"q={list(self.q_matrix.entries)})"
        )


@functools.lru_cache(maxsize=8)
def enumerate_points(field: FieldSpec, n: int) -> tuple[SubspacePoint, ...]:
    """All points of the line, in the deterministic subspace order."""
    return tuple(
        SubspacePoint(space, n) for space in enumerate_subspaces(field, 2 * n, n)
    )


def point_from_id(field: FieldSpec, n: int, index: int) -> SubspacePoint:
    """The point at position index of the enumerate_points order."""
    return SubspacePoint(subspace_from_id(field, 2 * n, n, index), n)


def sweep_ids(field: FieldSpec, n: int, t1s, t2s) -> set[int]:
    """The ids of the points of all pairs in t1s x t2s."""
    t1s = [t1.entries for t1 in t1s]
    ids = set()
    for column in _pair_columns(field, n, t1s, (t2.entries for t2 in t2s)):
        ids.update(column)
    return ids


def sweep_points(field: FieldSpec, n: int, t1s, t2s) -> list[SubspacePoint]:
    """The distinct points of all pairs in t1s x t2s, in canonical order."""
    points = [point_from_id(field, n, i) for i in sweep_ids(field, n, t1s, t2s)]
    return sorted(points, key=SubspacePoint.sort_key)


def _check_parameter_vector(field: FieldSpec, n: int, vec, name: str) -> tuple:
    vec = tuple(vec)
    if len(vec) != n:
        raise ValueError(f"{name} must have length n = {n}")
    for x in vec:
        field.check_element(x)
    if not any(vec):
        raise ValueError(f"{name} must be nonzero")
    return vec


def sphere(field: FieldSpec, n: int, k: int) -> list[SubspacePoint]:
    """All points at arithmetical distance k from the base point.

    Generated by sweeping T1 over the matrix ring and T2 over the
    matrices of rank k; deduplicated and returned in canonical order.
    """
    if not 0 <= k <= n:
        raise ValueError(f"sphere radius must lie in 0..{n}")
    shells = [t2 for t2 in all_matrices(field, n, n) if t2.rank() == k]
    return sweep_points(field, n, all_matrices(field, n, n), shells)


def star(field: FieldSpec, n: int, c0) -> list[SubspacePoint]:
    """All points through a fixed (n-1)-space, via rank-one parameters.

    T2 runs over c0^T * d for every vector d, T1 over the whole ring.
    The result is the set of points containing the (n-1)-space cut out
    by sum_i x_i c0_i = 0 and x_(n+1) = ... = x_(2n) = 0.
    """
    c0 = _check_parameter_vector(field, n, c0, "c0")
    t2s = [outer_product(field, c0, d) for d in all_vectors(field, n)]
    return sweep_points(field, n, all_matrices(field, n, n), t2s)


def top(field: FieldSpec, n: int, d0) -> list[SubspacePoint]:
    """All points inside a fixed (n+1)-space, via rank-one parameters.

    T2 runs over c^T * d0 for every vector c, T1 over the whole ring.
    The result is the set of points inside the row space of the
    (n+1) x 2n matrix stacking (I | 0) on (0 | d0).
    """
    d0 = _check_parameter_vector(field, n, d0, "d0")
    t2s = [outer_product(field, c, d0) for c in all_vectors(field, n)]
    return sweep_points(field, n, all_matrices(field, n, n), t2s)


def pencil(field: FieldSpec, n: int, c0, d0) -> list[SubspacePoint]:
    """The parametrised pencil {point of (0, c0^T * t * d0) : t in K}.

    T1 is fixed at zero; t = 0 contributes the base point itself.  The
    set has exactly |K| members and is returned in canonical order.
    """
    c0 = _check_parameter_vector(field, n, c0, "c0")
    d0 = _check_parameter_vector(field, n, d0, "d0")
    line = outer_product(field, c0, d0)
    t2s = [line.scale(t) for t in field.elements()]
    return sweep_points(field, n, [Matrix.zeros(field, n, n)], t2s)
