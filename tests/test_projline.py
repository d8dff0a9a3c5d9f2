"""Points of the line, the parametrisation and the relations on points."""

import itertools
import operator
import random

import pytest

from hermline import (
    ANTIAUTOMORPHISM,
    AUTOMORPHISM,
    BartolonePair,
    JordanMapSpec,
    Matrix,
    SubspacePoint,
    all_matrices,
    annihilator,
    arithmetical_distance,
    bartolone,
    base_point,
    enumerate_points,
    hermitian_matrices,
    is_adjacent,
    is_distant,
    make_field,
    pencil,
    point_from_matrix,
    point_from_pair,
    sphere,
    stable_rank_witness,
    star,
    top,
)
from hermline import projline
from hermline.matrices import Subspace, _matrix_from_id, _matrix_id, all_vectors
from hermline.harness import pair_point_table
from hermline.projline import _pair_columns, _pair_ids, point_from_id
from reference_checks import (
    LADDER,
    LADDER_IDS,
    bartolone_by_matrices,
    contains,
    stable_rank_witness_by_matrices,
)


def all_pairs(field, n=2):
    mats = list(all_matrices(field, n, n))
    return [BartolonePair(t1, t2) for t1 in mats for t2 in mats]


def test_point_validation(f2):
    with pytest.raises(ValueError):
        SubspacePoint(Subspace(Matrix(f2, [[1, 0, 0, 0]])), 2)
    zero = Matrix.zeros(f2, 2, 2)
    with pytest.raises(ValueError):
        point_from_pair(zero, zero)
    with pytest.raises(ValueError):
        point_from_pair(Matrix.identity(f2, 2), Matrix.identity(make_field(3), 2))


def test_point_from_matrix_canonicalises(f2):
    m = Matrix(f2, [[1, 1, 1, 1], [0, 1, 0, 1]])
    p = point_from_matrix(f2, 2, m)
    assert p.space.basis == Matrix(f2, [[1, 0, 1, 0], [0, 1, 0, 1]])
    with pytest.raises(ValueError):
        point_from_matrix(f2, 2, Matrix(f2, [[1, 1, 1, 1], [1, 1, 1, 1]]))
    with pytest.raises(ValueError):
        point_from_matrix(f2, 2, Matrix(f2, [[1, 0], [0, 1]]))


def test_base_point(f2):
    assert base_point(f2, 2).space.basis == Matrix(f2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    a, b = base_point(f2, 2).blocks()
    assert a == Matrix.identity(f2, 2)
    assert b == Matrix.zeros(f2, 2, 2)


def test_bartolone_frozen_examples(f2):
    ident = Matrix.identity(f2, 2)
    zero = Matrix.zeros(f2, 2, 2)
    assert bartolone(BartolonePair(ident, ident)).space.basis == Matrix(
        f2, [[0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert bartolone(BartolonePair(zero, ident)).space.basis == Matrix(
        f2, [[1, 0, 1, 0], [0, 1, 0, 1]]
    )
    assert bartolone(BartolonePair(ident, zero)) == base_point(f2, 2)


def test_bartolone_surjective(f2, f3):
    for field in (f2, f3):
        image = {bartolone(pair) for pair in all_pairs(field)}
        assert image == set(enumerate_points(field, 2))


@pytest.mark.parametrize(
    "maker,expected",
    [
        (lambda: make_field(2), 35),
        (lambda: make_field(3), 130),
        (lambda: make_field(2, 2, "frobenius"), 357),
    ],
)
def test_enumerate_points_counts(maker, expected):
    points = enumerate_points(maker(), 2)
    assert len(points) == expected
    assert len(set(points)) == expected
    for p in points:
        assert p.space.basis.rank() == 2


def test_enumeration_starts_at_base_point(f2):
    assert enumerate_points(f2, 2)[0] == base_point(f2, 2)


def test_distant_is_complementarity(f2):
    points = enumerate_points(f2, 2)
    for p in points:
        assert not is_distant(p, p)
        for q in points:
            expected = p.space.intersect(q.space).dim == 0
            assert is_distant(p, q) == expected
            assert is_distant(q, p) == expected


def test_arithmetical_distance_formula(f2):
    points = enumerate_points(f2, 2)
    for p in points:
        for q in points:
            d = arithmetical_distance(p, q)
            assert d == 2 - p.space.intersect(q.space).dim
            assert is_adjacent(p, q) == (d == 1)
    with pytest.raises(ValueError):
        arithmetical_distance(points[0], base_point(make_field(3), 2))


def test_stable_rank_witness(f2, f3):
    for field in (f2, f3):
        mats = list(all_matrices(field, 2, 2))
        for a in mats:
            for b in mats:
                if a.hstack(b).rank() < 2:
                    continue
                w = stable_rank_witness(a, b)
                assert (a + b * w).is_invertible()
                assert w == stable_rank_witness_by_matrices(a, b)
    with pytest.raises(ValueError):
        zero = Matrix.zeros(f2, 2, 2)
        stable_rank_witness(zero, zero)


def test_witness_prefers_simple_candidates(f2):
    ident = Matrix.identity(f2, 2)
    zero = Matrix.zeros(f2, 2, 2)
    assert stable_rank_witness(ident, ident) == zero
    assert stable_rank_witness(zero, ident) == ident


def test_annihilator_exhaustive(f2):
    ident = Matrix.identity(f2, 2)
    for pair in all_pairs(f2):
        ann = annihilator(pair)
        assert ann.rows == 4 and ann.cols == 2
        assert ann == (-pair.t2).vstack(pair.t1 * pair.t2 - ident)
        assert ann.rank() == 2
        left = (pair.t2 * pair.t1 - ident).hstack(pair.t2)
        assert left * ann == Matrix.zeros(f2, 2, 2)


@pytest.mark.parametrize("config", LADDER, ids=LADDER_IDS)
def test_annihilator_shares_pack_the_columns(config):
    """The shares of the rows of T1 sum to the id of the transposed annihilator.

    A share depends on its row of T1 alone, not on the other rows asked
    for with it: the shares over every row, last row first, agree.
    """
    (p, k, involution), n = config
    field, rng = make_field(p, k, involution), random.Random(5)
    everything = list(all_vectors(field, n))[::-1]
    for _ in range(200):
        t1, t2 = (
            _matrix_from_id(field, n, n, rng.randrange(field.q ** (n * n)))
            for _ in range(2)
        )
        ones = [(d,) for d in t1.entries]
        shares = projline._annihilator_shares(field, n, t2.entries, ones)
        packed = sum(share for share, in shares)
        ann = annihilator(BartolonePair(t1, t2))
        assert packed == _matrix_id(field.q, ann.transpose().entries)
        shares = projline._annihilator_shares(field, n, t2.entries, [everything] * n)
        rows = map(everything.index, t1.entries)
        assert sum(map(operator.getitem, shares, rows)) == packed


def test_embedding_injectivity(f2, f3):
    for field in (f2, f3):
        for t1_0 in (Matrix.zeros(field, 2, 2), Matrix.identity(field, 2)):
            images = {bartolone(BartolonePair(t1_0, t2)) for t2 in all_matrices(field, 2, 2)}
            assert len(images) == field.q**4


def test_jordan_map_spec_validation(f2):
    with pytest.raises(ValueError):
        JordanMapSpec("twist", 0, Matrix.identity(f2, 2))
    with pytest.raises(ValueError):
        JordanMapSpec(AUTOMORPHISM, 0, Matrix.zeros(f2, 2, 2))


def test_jordan_apply_multiplicativity(f4):
    shear = Matrix(f4, [[1, 1], [0, 1]])
    auto = JordanMapSpec(AUTOMORPHISM, 1, shear)
    anti = JordanMapSpec(ANTIAUTOMORPHISM, 0, shear)
    mats = list(itertools.islice(all_matrices(f4, 2, 2), 0, 256, 11))
    for a in mats:
        for b in mats:
            assert auto.apply(a * b) == auto.apply(a) * auto.apply(b)
            assert anti.apply(a * b) == anti.apply(b) * anti.apply(a)
    ident = Matrix.identity(f4, 2)
    assert auto.apply(ident) == ident
    assert anti.apply(ident) == ident


def test_jordan_action_well_defined_on_collisions(f2):
    """Pairs that parametrise one point map to one image point."""
    spec = JordanMapSpec(ANTIAUTOMORPHISM, 0, Matrix(f2, [[1, 1], [0, 1]]))
    by_point = {}
    for pair in all_pairs(f2):
        by_point.setdefault(bartolone(pair), []).append(pair)
    collisions = 0
    for point, pairs in by_point.items():
        images = {bartolone(BartolonePair(spec.apply(p.t1), spec.apply(p.t2))) for p in pairs}
        assert len(images) == 1
        collisions += len(pairs) - 1
    assert collisions > 0


def test_sphere_partitions_points(f2):
    base = base_point(f2, 2)
    shells = [sphere(f2, 2, k) for k in range(3)]
    assert [len(s) for s in shells] == [1, 18, 16]
    assert sum(len(s) for s in shells) == 35
    for k, shell in enumerate(shells):
        for p in shell:
            assert arithmetical_distance(base, p) == k
    with pytest.raises(ValueError):
        sphere(f2, 2, 3)


def test_star_is_points_through_fixed_hyperplane(f2, f3):
    """star(c0) is exactly the set of points containing a fixed (n-1)-space."""
    for field in (f2, f3):
        for c0 in all_vectors(field, 2):
            if not any(c0):
                continue
            fixed = Subspace.from_rows(
                field,
                4,
                [
                    v + (0, 0)
                    for v in all_vectors(field, 2)
                    if field.add(field.mul(v[0], c0[0]), field.mul(v[1], c0[1])) == 0
                ],
            )
            assert fixed.dim == 1
            expected = {
                p for p in enumerate_points(field, 2) if contains(p.space, fixed)
            }
            assert set(star(field, 2, c0)) == expected


def test_top_is_points_inside_fixed_overspace(f2, f3):
    for field in (f2, f3):
        for d0 in all_vectors(field, 2):
            if not any(d0):
                continue
            overspace = Subspace(
                Matrix(
                    field,
                    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0) + tuple(d0)],
                    cols=4,
                )
            )
            assert overspace.dim == 3
            expected = {
                p for p in enumerate_points(field, 2) if contains(overspace, p.space)
            }
            assert set(top(field, 2, d0)) == expected


def test_pencil_size_and_membership(f2, f3):
    for field in (f2, f3):
        points = pencil(field, 2, (0, 1), (1, 0))
        assert len(points) == field.q
        assert base_point(field, 2) in points
        assert set(points) <= set(star(field, 2, (0, 1)))
        assert set(points) <= set(top(field, 2, (1, 0)))


def test_pencil_frozen_example(f2):
    points = pencil(f2, 2, (0, 1), (1, 0))
    bases = sorted(tuple(p.space.basis.entries) for p in points)
    assert bases == [
        ((1, 0, 0, 0), (0, 1, 0, 0)),
        ((1, 0, 0, 0), (0, 1, 1, 0)),
    ]


def test_parameter_vector_validation(f2):
    with pytest.raises(ValueError):
        star(f2, 2, (0, 0))
    with pytest.raises(ValueError):
        top(f2, 2, (1,))
    with pytest.raises(ValueError):
        pencil(f2, 2, (1, 2), (0, 1))


def _assert_pair_ids_match_bartolone(field, n, pairs):
    """The kernel's id and bartolone's point match the matrix reference.

    The reference point is ranked by its enumeration index, so the
    kernel, its unranking and the public bartolone are all checked
    against code that forms (T2*T1 - I | T2) with Matrix objects.
    """
    index = {p: i for i, p in enumerate(enumerate_points(field, n))}
    pair_id = _pair_ids(field, n)
    checked = 0
    for t1, t2 in pairs:
        pair = BartolonePair(t1, t2)
        point = bartolone_by_matrices(pair)
        assert pair_id(t1.entries, t2.entries) == index[point]
        assert point_from_id(field, n, index[point]) == point
        assert bartolone(pair) == point
        checked += 1
    return checked


EVERY_PAIR = LADDER[:2] + [((p, 1, "identity"), 1) for p in (2, 3, 5)]
EVERY_PAIR_IDS = LADDER_IDS[:2] + ["gf2-1", "gf3-1", "gf5-1"]


@pytest.mark.parametrize("field_args,n", EVERY_PAIR, ids=EVERY_PAIR_IDS)
def test_pair_ids_match_bartolone_on_every_pair(field_args, n):
    field = make_field(*field_args)
    mats = list(all_matrices(field, n, n))
    pairs = itertools.product(mats, repeat=2)
    assert _assert_pair_ids_match_bartolone(field, n, pairs) == len(mats) ** 2


@pytest.mark.parametrize("field_args,n", LADDER[2:], ids=LADDER_IDS[2:])
def test_pair_ids_match_bartolone_on_samples(field_args, n):
    field = make_field(*field_args)
    rng = random.Random(0)

    def draw():
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
        return Matrix(field, rows)

    pairs = [(draw(), draw()) for _ in range(2000)]
    assert _assert_pair_ids_match_bartolone(field, n, pairs) == 2000


def _assert_pair_columns_match_bartolone(field, n, t1s, t2s):
    """_pair_columns gives the reference's ranked point on all of t1s x t2s.

    Returns how many rows of R, the RREF rows of the t2s, are unit
    vectors and how many are not, so that a test can show both the
    unit-row read and the entry-by-entry sum ran.
    """
    index = {p: i for i, p in enumerate(enumerate_points(field, n))}
    t1_entries = [t1.entries for t1 in t1s]
    columns = list(_pair_columns(field, n, t1_entries, [t2.entries for t2 in t2s]))
    assert len(columns) == len(t2s)
    for t2, column in zip(t2s, columns):
        reference = [bartolone_by_matrices(BartolonePair(t1, t2)) for t1 in t1s]
        assert column == [index[p] for p in reference]
    r_rows = [row for t2 in t2s for row in Subspace(t2).basis.entries]
    unit = sum(sum(map(bool, row)) == 1 for row in r_rows)
    return unit, len(r_rows) - unit


@pytest.mark.parametrize("field_args,n", EVERY_PAIR, ids=EVERY_PAIR_IDS)
def test_pair_columns_match_bartolone_on_every_pair(field_args, n):
    """At n = 1 every row of R is the unit vector (1)."""
    field = make_field(*field_args)
    mats = list(all_matrices(field, n, n))
    unit, summed = _assert_pair_columns_match_bartolone(field, n, mats, mats)
    assert unit > 0
    assert (summed > 0) == (n > 1)


@pytest.mark.parametrize("field_args,n", LADDER[2:], ids=LADDER_IDS[2:])
def test_pair_columns_match_bartolone_on_samples(field_args, n):
    """2,000 seeded pairs, as 40 T1 against 50 T2."""
    field = make_field(*field_args)
    rng = random.Random(0)

    def draw():
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
        return Matrix(field, rows)

    t1s = [draw() for _ in range(40)]
    t2s = [draw() for _ in range(50)]
    unit, summed = _assert_pair_columns_match_bartolone(field, n, t1s, t2s)
    assert unit > 0 and summed > 0


@pytest.mark.parametrize(
    "field_args",
    [(2, 1, "identity"), (3, 1, "identity"), (2, 2, "frobenius")],
    ids=["gf2-3", "gf3-3", "gf4-3"],
)
def test_pair_columns_match_bartolone_at_every_rank(field_args):
    """Singular T2 of every rank against all hermitian T1, at n = 3.

    The fixed T2 give rank 0, rank 1 with a repeated row, rank 2 in
    reduced form with a nonzero free entry, so that row 0 of R has two
    nonzero entries, and rank 2 whose rows of R are unit vectors; seeded
    sums of outer products add ranks 1 and 2 with entries from the whole
    field.  Each id is unranked and compared
    with the reference point, as enumerating all points of these lines
    would cost more than the check.
    """
    field = make_field(*field_args)
    n = 3
    rng = random.Random(0)
    t2s = [
        Matrix.zeros(field, n, n),
        Matrix(field, [[0, 1, 1], [0, 0, 0], [0, 1, 1]]),
        Matrix(field, [[1, 1, 0], [0, 0, 1], [0, 0, 0]]),
        Matrix(field, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
    ]
    for rank in (1, 2):
        total = Matrix.zeros(field, n, n)
        for _ in range(rank):
            column = [[rng.randrange(1, field.q)] for _ in range(n)]
            row = [[rng.randrange(field.q) for _ in range(n - 1)] + [1]]
            total = total + Matrix(field, column) * Matrix(field, row)
        t2s.append(total)
    t1s = list(hermitian_matrices(field, n))
    entries = [t1.entries for t1 in t1s]
    columns = _pair_columns(field, n, entries, [t2.entries for t2 in t2s])
    for t2, column in zip(t2s, columns, strict=True):
        for t1, index in zip(t1s, column, strict=True):
            assert point_from_id(field, n, index) == bartolone_by_matrices(
                BartolonePair(t1, t2)
            )
    assert {t2.rank() for t2 in t2s} == set(range(n))


def _count_pair_ids(monkeypatch) -> dict:
    """Count _pair_ids calls per T2, in the dict returned, from now on."""
    kernel = projline._pair_ids
    calls = {}

    def counting(field, n):
        pair_id = kernel(field, n)

        def counted(t1, t2):
            calls[t2] = calls.get(t2, 0) + 1
            return pair_id(t1, t2)

        return counted

    monkeypatch.setattr(projline, "_pair_ids", counting)
    return calls


@pytest.mark.parametrize(
    "field_args,n,hermitian",
    [
        ((3, 1, "identity"), 2, False),
        ((2, 1, "identity"), 3, True),
        ((3, 2, "frobenius"), 2, True),
    ],
    ids=["gf3-2-all", "gf2-3-hermitian", "gf9-2-hermitian"],
)
def test_pair_columns_eliminate_once_per_key(monkeypatch, field_args, n, hermitian):
    """A sweep row reduces one pair per point it reaches.

    The key (R, C, N) of a pair names its point, and one memo keyed by
    it serves all columns, so _pair_ids is called once per distinct id
    across the columns; T2 = 0 costs one call.  Over GF(9) with sigma,
    a hermitian T2 has C = sigma(R)^T, which is not R^T for some T2.
    """
    field = make_field(*field_args)
    mats = list(
        hermitian_matrices(field, n) if hermitian else all_matrices(field, n, n)
    )
    entries = [m.entries for m in mats]
    calls = _count_pair_ids(monkeypatch)
    columns = list(_pair_columns(field, n, entries, entries))
    literal = _pair_ids(field, n)
    assert columns == [[literal(t1, t2) for t1 in entries] for t2 in entries]
    assert sum(calls.values()) == len(set().union(*columns))
    assert calls[Matrix.zeros(field, n, n).entries] == 1
    if field.involution != "identity":
        assert any(Subspace(m.transpose()).basis != Subspace(m).basis for m in mats)


def test_pair_columns_share_the_memo_across_columns(monkeypatch):
    """Columns with the same row space share the memo only by (R, C).

    c*T2 has T2's row and column spaces, but another g, so its key N
    differs from T2's by E_top*C; T2' has T2's row space and another
    column space, so only C tells its keys from T2's.  The row (1, 0, 1)
    of R is summed entry by entry and the row (0, 1, 0) is a unit read.
    """
    field = make_field(3)
    n = 3
    t2 = Matrix(field, [[1, 0, 1], [0, 1, 0], [0, 0, 0]])
    other = Matrix(field, [[0, 0, 0], [1, 0, 1], [0, 1, 0]])
    t2s = [t2, t2.scale(2), other]
    assert len({Subspace(m).basis for m in t2s}) == 1
    assert len({Subspace(m.transpose()).basis for m in t2s}) == 2
    t1s = list(hermitian_matrices(field, n))
    entries = [t1.entries for t1 in t1s]
    calls = _count_pair_ids(monkeypatch)
    columns = list(_pair_columns(field, n, entries, [m.entries for m in t2s]))
    assert sum(calls.values()) == len(set().union(*columns))
    assert calls.get(t2s[1].entries, 0) < len(set(columns[1]))
    for m, column in zip(t2s, columns, strict=True):
        for t1, index in zip(t1s, column, strict=True):
            assert point_from_id(field, n, index) == bartolone_by_matrices(
                BartolonePair(t1, m)
            )


@pytest.mark.parametrize(
    "field_args", [(3, 1, "identity"), (2, 2, "frobenius")], ids=["gf3-2", "gf4-2"]
)
def test_pair_point_table_matches_pair_ids(field_args):
    field = make_field(*field_args)
    pair_id = _pair_ids(field, 2)
    entries = [m.entries for m in all_matrices(field, 2, 2)]
    literal = [[pair_id(t1, t2) for t2 in entries] for t1 in entries]
    assert pair_point_table(field, 2) == literal


def test_pair_ids_raise_on_lost_rank(f2, monkeypatch):
    """The rank-n postcondition is a raised error, not an assert statement."""
    pair_id = _pair_ids(f2, 2)
    ident = Matrix.identity(f2, 2).entries
    monkeypatch.setattr(projline, "_row_reduce", lambda field, work, cols: [0])
    with pytest.raises(AssertionError, match="lost rank"):
        pair_id(ident, ident)
