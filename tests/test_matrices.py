"""Exact matrix arithmetic and canonical subspaces."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from hermline import Matrix, Subspace, all_matrices, enumerate_subspaces, make_field, nullspace
from hermline.matrices import (
    _matrix_from_id,
    _matrix_id,
    _product,
    all_vectors,
    outer_product,
    subspace_from_id,
    unit_vector,
)
from reference_checks import (
    LADDER,
    LADDER_IDS,
    contains,
    extend_independent_by_rebuild,
    product_by_entries,
    subspace_id,
)


def gf4_matrix(rows, cols):
    f = make_field(2, 2, "frobenius")
    entry = st.integers(min_value=0, max_value=3)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda e: Matrix(f, e, cols=cols))


def test_constructor_validation(f2):
    with pytest.raises(ValueError):
        Matrix(f2, [[0, 1], [1]])
    with pytest.raises(ValueError):
        Matrix(f2, [[0, 2]])
    with pytest.raises(ValueError):
        Matrix(f2, [])
    with pytest.raises(ValueError):
        Matrix(f2, [[0, 1]], cols=3)
    with pytest.raises(ValueError):
        Matrix(f2, [], cols=-2)
    with pytest.raises(ValueError):
        Matrix(f2, [[True, 0]])
    empty = Matrix(f2, [], cols=3)
    assert empty.rows == 0 and empty.cols == 3
    assert Matrix(f2, [[0, 1]], cols=2).cols == 2


@pytest.mark.parametrize(
    "entry, message",
    [
        (2, "2 is not an element of GF(2)"),
        (True, "True is not an element of GF(2)"),
        ("1", "'1' is not an element of GF(2)"),
        (1.0, "1.0 is not an element of GF(2)"),
    ],
    ids=["int", "bool", "str", "float"],
)
def test_constructor_entry_messages(f2, entry, message):
    with pytest.raises(ValueError) as info:
        Matrix(f2, [[0, entry]])
    assert str(info.value) == message


def test_constructor_abbreviates_a_huge_entry(f2):
    """A 4,000-digit entry is named in a short message, as check_element does."""
    with pytest.raises(ValueError) as info:
        Matrix(f2, [[10**4000]])
    assert len(str(info.value).encode()) < 200


def test_public_boundary_validation(f3):
    m = Matrix(f3, [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        Matrix.from_json(f3, {"rows": 1, "cols": 2, "entries": [["0", "3"]]})
    with pytest.raises(ValueError):
        m.scale(f3.q)
    with pytest.raises(ValueError):
        Subspace.from_rows(f3, 2, [(1, 3)])


def test_basic_arithmetic(f3):
    a = Matrix(f3, [[1, 2], [0, 1]])
    b = Matrix(f3, [[2, 1], [1, 0]])
    assert a + b == Matrix(f3, [[0, 0], [1, 1]])
    assert a - b == Matrix(f3, [[2, 1], [2, 1]])
    assert -a == Matrix(f3, [[2, 1], [0, 2]])
    assert a * b == Matrix(f3, [[1, 1], [1, 0]])
    assert a.scale(2) == Matrix(f3, [[2, 1], [0, 2]])
    ident = Matrix.identity(f3, 2)
    assert a * ident == a and ident * a == a


def test_shape_and_field_mismatch(f2, f3):
    a = Matrix(f2, [[1, 0]])
    with pytest.raises(ValueError):
        a + Matrix(f2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        a + Matrix(f3, [[1, 0]])
    with pytest.raises(ValueError):
        a * Matrix(f2, [[1, 0]])
    with pytest.raises(ValueError):
        Matrix.identity(f3, 2).hstack(Matrix.identity(f2, 2))
    with pytest.raises(ValueError):
        a.vstack(Matrix(f3, [[1, 0]]))


@pytest.mark.parametrize("label", ["f2", "f3", "f4", "f9"])
def test_product_matches_entry_reference(label, request):
    """r x m times m x c for r, m, c in 0..4, with seeded entries.

    Zero-row, zero-column and zero-inner shapes are included; zeros are
    drawn often, so the skipped left entries are exercised too.
    """
    field = request.getfixturevalue(label)
    rng = random.Random(label)

    def draw(rows, cols):
        entries = [
            [rng.choice((0, rng.randrange(field.q))) for _ in range(cols)]
            for _ in range(rows)
        ]
        return Matrix(field, entries, cols=cols)

    for r, m, c in itertools.product(range(5), repeat=3):
        for _ in range(3):
            a, b = draw(r, m), draw(m, c)
            want = product_by_entries(field, a, b)
            product = a * b
            assert (product.rows, product.cols) == (r, c)
            assert product.entries == want
            rows = _product(field, a.entries, b.entries, c)
            assert rows == [list(row) for row in want]


def test_transpose_and_sigma_transpose(f4):
    m = Matrix(f4, [[2, 1], [0, 3]])
    assert m.transpose() == Matrix(f4, [[2, 0], [1, 3]])
    assert m.sigma_transpose() == Matrix(
        f4, [[f4.sigma(2), 0], [f4.sigma(1), f4.sigma(3)]]
    )
    assert m.sigma_transpose().sigma_transpose() == m


@given(gf4_matrix(2, 2), gf4_matrix(2, 2), gf4_matrix(2, 2))
def test_algebra_laws_property(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b).transpose() == a.transpose() + b.transpose()
    # Results of the trusted internal constructor must equal and hash like
    # the same matrix built by the validating one: dict lookups rely on it.
    built = [a * b, Subspace(a * b).basis, Matrix.identity(a.field, 2), -c]
    if a.is_invertible():
        built.append(a.inverse())
    for m in built:
        public = Matrix(m.field, m.entries, cols=m.cols)
        assert m == public and hash(m) == hash(public)


@given(gf4_matrix(2, 3), gf4_matrix(3, 2))
def test_sigma_transpose_antihomomorphism_property(a, b):
    assert (a * b).sigma_transpose() == b.sigma_transpose() * a.sigma_transpose()
    assert (a * b).transpose() == b.transpose() * a.transpose()


def test_block_assembly(f2):
    a = Matrix(f2, [[1, 1], [0, 1]])
    ident = Matrix.identity(f2, 2)
    zero = Matrix.zeros(f2, 2, 2)
    m = a.hstack(ident).vstack(zero.hstack(a))
    assert m.rows == 4 and m.cols == 4
    assert m.block(0, 2, 0, 2) == a
    assert m.block(0, 2, 2, 4) == ident
    assert m.block(2, 4, 0, 2) == zero
    assert m.block(2, 4, 2, 4) == a


def test_zero_size_blocks(f2):
    a = Matrix(f2, [[1, 0], [0, 1]])
    empty_row = Matrix(f2, [], cols=2)
    wide = empty_row.hstack(Matrix(f2, [], cols=3))
    assert wide.rows == 0 and wide.cols == 5
    assert a.vstack(empty_row) == a
    assert empty_row.vstack(a) == a
    thin = a.block(0, 2, 1, 1)
    assert thin.rows == 2 and thin.cols == 0
    assert thin * thin.transpose() == Matrix.zeros(f2, 2, 2)


def test_rref_and_rank(f2):
    m = Matrix(f2, [[0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]])
    reduced = Subspace(m).basis
    assert reduced == Matrix(f2, [[1, 0, 1, 1], [0, 1, 1, 0]])
    assert Subspace(reduced).basis == reduced
    assert m.rank() == 2
    assert Matrix.zeros(f2, 2, 3).rank() == 0
    assert Matrix.identity(f2, 3).rank() == 3


@pytest.mark.parametrize(
    "p,rows,cols",
    [(2, 2, 4), (2, 3, 3), (3, 2, 4), (2, 0, 3), (2, 3, 0), (3, 0, 0)],
)
def test_rank_matches_rref_exhaustive(p, rows, cols):
    """rank() eliminates below pivots only; the dimension of the row space,
    read off its full RREF basis, is the oracle."""
    for m in all_matrices(make_field(p), rows, cols):
        assert m.rank() == Subspace(m).dim


@given(gf4_matrix(3, 5))
def test_rank_matches_rref_property(m):
    assert m.rank() == Subspace(m).dim


@pytest.mark.parametrize("p", [2, 3])
def test_inverse_exhaustive(p):
    f = make_field(p)
    ident = Matrix.identity(f, 2)
    invertible = 0
    for m in all_matrices(f, 2, 2):
        if m.is_invertible():
            invertible += 1
            inv = m.inverse()
            assert m * inv == ident and inv * m == ident
        else:
            with pytest.raises(ValueError):
                m.inverse()
    q = f.q
    assert invertible == (q**2 - 1) * (q**2 - q)


def test_inverse_of_product(f9):
    a = Matrix(f9, [[1, 2], [3, 1]])
    b = Matrix(f9, [[0, 1], [4, 2]])
    assert a.is_invertible() and b.is_invertible()
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_zero_by_zero_inverse(f2):
    empty = Matrix(f2, [], cols=0)
    assert empty.inverse() == empty
    assert empty.is_invertible()


def test_is_hermitian(f4):
    g = 2
    assert Matrix(f4, [[1, g], [f4.sigma(g), 0]]).is_hermitian()
    assert not Matrix(f4, [[1, g], [g, 0]]).is_hermitian()
    assert not Matrix(f4, [[g, 0], [0, 0]]).is_hermitian()
    with pytest.raises(ValueError):
        Matrix(f4, [[1, 0, 0], [0, 1, 0]]).is_hermitian()


def test_matrix_json_roundtrip(f9):
    m = Matrix(f9, [[0, 5], [7, 2]])
    data = m.to_json()
    assert data == {"rows": 2, "cols": 2, "entries": [["0", "5"], ["7", "2"]]}
    assert Matrix.from_json(f9, data) == m
    with pytest.raises(ValueError):
        Matrix.from_json(f9, {"rows": 1, "cols": 1, "entries": [["9"]]})
    with pytest.raises(ValueError):
        Matrix.from_json(f9, {"rows": 2, "cols": 1, "entries": [["1"]]})


def test_subspace_canonical_equality(f2):
    a = Subspace(Matrix(f2, [[1, 0, 1, 0], [0, 1, 0, 1]]))
    b = Subspace(Matrix(f2, [[1, 1, 1, 1], [0, 1, 0, 1]]))
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2
    assert Subspace(a.basis).basis == a.basis


def test_subspace_sum_and_intersection_oracle(f2, f3, f4):
    """Zassenhaus intersection agrees with brute-force vector membership.

    Over GF(2) planes meet every plane; over GF(3) and GF(4) spaces of
    unequal dimensions meet every third space of the other dimension and
    one space that contains, or lies in, the first.
    """
    shapes = {f2: [(2, 2)], f3: [(1, 2), (2, 3), (3, 1)], f4: [(1, 3), (2, 1), (3, 2)]}
    for field, pairs in shapes.items():
        vectors = list(all_vectors(field, 4))

        def has(space, v):
            return contains(space, Subspace.from_rows(field, 4, [v]))

        def members(space):
            return {v for v in vectors if has(space, v)}

        for da, db in pairs:
            step = 1 if field is f2 else 3
            others = [(b, members(b)) for b in list(enumerate_subspaces(field, 4, db))[::step]]
            for a in list(enumerate_subspaces(field, 4, da))[:12]:
                inside_a = members(a)
                if db <= da:
                    related = Subspace(a.basis.block(0, db, 0, 4))
                else:
                    units = [unit_vector(4, i) for i in range(4)]
                    rows = extend_independent_by_rebuild(
                        field, 4, a.basis.entries, units
                    )[:db]
                    related = Subspace(Matrix(field, rows, cols=4))
                overlaps = []
                for b, inside_b in others + [(related, members(related))]:
                    meet = a.intersect(b)
                    expected = inside_a & inside_b
                    assert len(expected) == field.q**meet.dim
                    assert all(has(meet, v) for v in expected)
                    assert meet == Subspace(meet.basis)
                    join = a + b
                    assert join.dim == a.dim + b.dim - meet.dim
                    assert contains(join, a) and contains(join, b)
                    overlaps.append(meet.dim)
                assert max(overlaps) == min(da, db)


def test_subspace_contains(f2):
    big = Subspace(Matrix(f2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))
    small = Subspace(Matrix(f2, [[1, 1, 0, 0]]))
    assert contains(big, small)
    assert not contains(small, big)
    assert contains(big, Subspace.from_rows(f2, 4, [(1, 1, 1, 0)]))
    assert not contains(big, Subspace.from_rows(f2, 4, [(0, 0, 0, 1)]))


def test_zero_subspace(f3):
    z = Subspace.from_rows(f3, 4, ())
    assert z.dim == 0
    assert z.basis.rows == 0 and z.basis.cols == 4
    plane = Subspace(Matrix(f3, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    assert (z + plane) == plane
    assert z.intersect(plane) == z
    assert contains(plane, z)
    assert contains(z, Subspace.from_rows(f3, 4, [(0, 0, 0, 0)]))


def test_nullspace(f3):
    for m in itertools.islice(all_matrices(f3, 2, 4), 0, 81, 7):
        ns = nullspace(m)
        assert ns.dim == 4 - m.rank()
        for row in ns.basis.entries:
            col = Matrix(f3, [[x] for x in row], cols=1)
            assert m * col == Matrix.zeros(f3, 2, 1)


def test_all_matrices_order(f2):
    mats = list(all_matrices(f2, 2, 2))
    assert len(mats) == 16
    assert mats[0] == Matrix.zeros(f2, 2, 2)
    assert mats[1] == Matrix(f2, [[0, 0], [0, 1]])
    assert len(set(mats)) == 16


def test_unit_vector_and_outer_product(f3):
    assert unit_vector(4, 2) == (0, 0, 1, 0)
    m = outer_product(f3, (1, 2), (2, 1))
    assert m == Matrix(f3, [[2, 1], [1, 2]])
    assert m.rank() == 1


@pytest.mark.parametrize(
    "p,ambient,dim,expected",
    [(2, 4, 2, 35), (3, 4, 2, 130), (2, 4, 1, 15), (3, 4, 3, 40), (2, 3, 1, 7)],
)
def test_enumerate_subspaces_counts(p, ambient, dim, expected):
    field = make_field(p)
    subs = list(enumerate_subspaces(field, ambient, dim))
    assert len(subs) == expected
    assert len(set(subs)) == expected
    for s in subs:
        assert s.dim == dim
        assert Subspace(s.basis).basis == s.basis


def test_enumerate_subspaces_extremes(f2):
    assert [s.dim for s in enumerate_subspaces(f2, 3, 0)] == [0]
    full = list(enumerate_subspaces(f2, 3, 3))
    assert len(full) == 1
    assert full[0].basis == Matrix.identity(f2, 3)


@pytest.mark.parametrize("field_args,n", LADDER, ids=LADDER_IDS)
def test_subspace_ids_are_enumeration_positions(field_args, n):
    """The id of the i-th enumerated n-space of K^(2n) is i, both ways."""
    field = make_field(*field_args)
    count = 0
    for i, space in enumerate(enumerate_subspaces(field, 2 * n, n)):
        assert subspace_id(space) == i
        unranked = subspace_from_id(field, 2 * n, n, i)
        assert unranked == space
        assert subspace_id(unranked) == i
        count += 1
    with pytest.raises(ValueError):
        subspace_from_id(field, 2 * n, n, count)
    with pytest.raises(ValueError):
        subspace_from_id(field, 2 * n, n, -1)


@pytest.mark.parametrize("ambient,dim", [(3, 0), (3, 3), (5, 2), (4, 1), (4, 3)])
def test_subspace_ids_other_shapes(f3, ambient, dim):
    for i, space in enumerate(enumerate_subspaces(f3, ambient, dim)):
        assert subspace_id(space) == i
        assert subspace_from_id(f3, ambient, dim, i) == space


def test_matrix_ids_are_enumeration_positions(f3):
    for rows, cols in ((2, 2), (1, 3), (3, 2), (0, 2)):
        entries = itertools.product(range(3), repeat=rows * cols)
        for i, (values, m) in enumerate(
            itertools.zip_longest(entries, all_matrices(f3, rows, cols))
        ):
            assert m.entries == tuple(
                values[r * cols : (r + 1) * cols] for r in range(rows)
            )
            assert _matrix_id(3, m.entries) == i
            assert _matrix_from_id(f3, rows, cols, i) == m
