"""The anti-hermitian form, isotropic points and the subspace constructions."""

import copy
import hashlib
import itertools

import pytest

from hermline import (
    BartolonePair,
    Matrix,
    SesquilinearForm,
    SubspacePoint,
    all_matrices,
    arithmetical_distance,
    bartolone_hermitian,
    base_point,
    block_isotropy_criterion,
    common_complement,
    decompose_isotropic,
    enumerate_isotropic,
    enumerate_points,
    enumerate_subspaces,
    hermitian_adjacent_star,
    hermitian_matrices,
    isotropic_meeting_perp,
    jordan_system_axioms_check,
    make_field,
    point_from_pair,
    standard_form,
)
from hermline.hermitian import _skew_split, isotropic_ids
from hermline.matrices import Subspace, all_vectors, outer_product
from reference_checks import (
    LADDER,
    LADDER_IDS,
    contains,
    evaluate,
    hermitian_matrices_by_filter,
    isotropic_meeting_perp_stepwise,
    isotropic_points_by_filter,
    subspace_id,
)

ALL_CONFIGS = [
    lambda: make_field(2),
    lambda: make_field(3),
    lambda: make_field(2, 2, "frobenius"),
    lambda: make_field(3, 2, "frobenius"),
]


def splittings(field, u):
    """All direct-sum decompositions u = v (+) w over canonical subspaces."""
    inside = {
        d: [s for s in enumerate_subspaces(field, 4, d) if contains(u.space, s)]
        for d in range(3)
    }
    for dv in range(3):
        for v in inside[dv]:
            for w in inside[2 - dv]:
                if v.intersect(w).dim == 0 and (v + w) == u.space:
                    yield v, w


def test_standard_gram_matrix(f2):
    form = standard_form(f2, 2)
    assert form.gram == Matrix(
        f2, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    f3 = make_field(3)
    assert standard_form(f3, 2).gram == Matrix(
        f3, [[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0]]
    )


def test_form_validation(f4, f9):
    with pytest.raises(ValueError):
        SesquilinearForm(f4, 2, Matrix.zeros(f4, 4, 4))
    with pytest.raises(ValueError):
        SesquilinearForm(f9, 2, Matrix.identity(f9, 4))
    with pytest.raises(ValueError):
        SesquilinearForm(f4, 2, Matrix.identity(f4, 3))


def test_form_is_sesquilinear(f9):
    form = standard_form(f9, 2)
    x = (1, 3, 0, 5)
    y = (2, 0, 7, 1)
    z = (0, 1, 1, 4)
    added = tuple(f9.add(a, b) for a, b in zip(y, z))
    sum_of_values = f9.add(evaluate(form, x, y), evaluate(form, x, z))
    assert evaluate(form, x, added) == sum_of_values
    for c in f9.elements():
        cx = tuple(f9.mul(c, a) for a in x)
        cy = tuple(f9.mul(c, a) for a in y)
        assert evaluate(form, cx, y) == f9.mul(c, evaluate(form, x, y))
        assert evaluate(form, x, cy) == f9.mul(f9.sigma(c), evaluate(form, x, y))


def test_form_antisymmetry_and_trace_values(f4):
    """beta(y,x) = -sigma(beta(x,y)) and beta(x,x) = w - sigma(w) for some w."""
    form = standard_form(f4, 2)
    trace_values = {f4.sub(w, f4.sigma(w)) for w in f4.elements()}
    vectors = list(all_vectors(f4, 4))
    for x in vectors:
        assert evaluate(form, x, x) in trace_values
        for y in vectors[:16]:
            assert evaluate(form, y, x) == f4.neg(f4.sigma(evaluate(form, x, y)))


def test_perp_dimensions_and_involution(f2):
    form = standard_form(f2, 2)
    for dim in range(3):
        for space in enumerate_subspaces(f2, 4, dim):
            perp = form.perp(space)
            assert perp.dim == 4 - dim
            assert form.perp(perp) == space
            for v in space.basis.entries:
                for w in perp.basis.entries:
                    assert evaluate(form, v, w) == 0


def test_block_criterion_matches_form():
    """On every point of the ladder: the pairwise test, the Gram product and
    the block criterion A * B^Sigma = B * A^Sigma agree."""
    for field_args, n in LADDER:
        field = make_field(*field_args)
        form = standard_form(field, n)
        for p in enumerate_points(field, n):
            by_gram = form.restricted_gram(p.space.basis).is_zero()
            assert form.is_totally_isotropic(p) == by_gram
            assert block_isotropy_criterion(p) == by_gram


@pytest.mark.parametrize("maker,expected", list(zip(ALL_CONFIGS, [8, 27, 16, 81])))
def test_hermitian_matrix_counts(maker, expected):
    field = maker()
    herm = hermitian_matrices(field, 2)
    assert len(herm) == expected
    for m in herm:
        assert m == m.sigma_transpose()
    a, b = herm[1], herm[-1]
    assert (a + b).is_hermitian()


@pytest.mark.parametrize("maker,expected", list(zip(ALL_CONFIGS, [15, 40, 27, 112])))
def test_isotropic_point_counts(maker, expected):
    field = maker()
    iso = enumerate_isotropic(field, 2)
    assert len(iso) == expected
    assert base_point(field, 2) in iso


def test_bartolone_hermitian_rejects_non_hermitian(f4):
    ident = Matrix.identity(f4, 2)
    skew = Matrix(f4, [[0, 2], [2, 0]])
    assert not skew.is_hermitian()
    with pytest.raises(ValueError):
        bartolone_hermitian(BartolonePair(skew, ident))
    with pytest.raises(ValueError):
        bartolone_hermitian(BartolonePair(ident, skew))
    point = bartolone_hermitian(BartolonePair(ident, ident))
    assert standard_form(f4, 2).is_totally_isotropic(point)


def test_skew_split(f4, f9):
    """_skew_split finds D with D - D^Sigma = G for anti-hermitian G."""
    for field in (f4, f9):
        anti = [
            g
            for g in itertools.islice(all_matrices(field, 2, 2), 0, None, 3)
            if g.sigma_transpose() == -g
        ]
        assert anti
        for g in anti:
            d = _skew_split(g)
            assert d - d.sigma_transpose() == g


def test_meeting_perp_exhaustive(f2):
    """All isotropic U and all splittings U = V (+) W at the binary field."""
    form = standard_form(f2, 2)
    checked = 0
    for u in enumerate_isotropic(f2, 2):
        for v, w in splittings(f2, u):
            x = isotropic_meeting_perp(u, v, w)
            assert form.is_totally_isotropic(x)
            assert x.space.intersect(form.perp(v)) == w
            y = isotropic_meeting_perp_stepwise(u, v, w)
            assert form.is_totally_isotropic(y)
            assert y.space.intersect(form.perp(v)) == w
            checked += 1
    assert checked == 120


def test_meeting_perp_extreme_splittings(f9):
    """The all-of-U and none-of-U splittings work over every configuration."""
    form = standard_form(f9, 2)
    for u in enumerate_isotropic(f9, 2)[:20]:
        zero = Subspace.zero(f9, 4)
        x = isotropic_meeting_perp(u, zero, u.space)
        assert form.is_totally_isotropic(x)
        assert x.space.intersect(form.perp(zero)) == u.space
        assert x == u
        y = isotropic_meeting_perp(u, u.space, zero)
        assert form.is_totally_isotropic(y)
        assert y.space.intersect(form.perp(u.space)) == zero


def test_meeting_perp_validation(f2):
    iso = enumerate_isotropic(f2, 2)
    u = iso[0]
    v = Subspace(Matrix(f2, [[1, 0, 0, 0]]))
    with pytest.raises(ValueError):
        isotropic_meeting_perp(u, v, v)
    not_iso = next(
        p for p in enumerate_points(f2, 2)
        if not standard_form(f2, 2).is_totally_isotropic(p)
    )
    with pytest.raises(ValueError):
        isotropic_meeting_perp(
            not_iso, Subspace.zero(f2, 4), not_iso.space
        )


def test_common_complement_all_pairs(f2):
    form = standard_form(f2, 2)
    iso = enumerate_isotropic(f2, 2)
    for u1 in iso:
        for u2 in iso:
            x = common_complement(u1, u2)
            assert form.is_totally_isotropic(x)
            assert x.space.intersect(u1.space).dim == 0
            assert x.space.intersect(u2.space).dim == 0


def test_common_complement_frozen_example(f2):
    u1 = base_point(f2, 2)
    u2 = point_from_pair(Matrix.zeros(f2, 2, 2), Matrix.identity(f2, 2))
    x = common_complement(u1, u2)
    assert x.space.basis == Matrix(f2, [[1, 0, 1, 0], [0, 1, 0, 1]])


def test_common_complement_validation(f2):
    not_iso = next(
        p for p in enumerate_points(f2, 2)
        if not standard_form(f2, 2).is_totally_isotropic(p)
    )
    with pytest.raises(ValueError):
        common_complement(base_point(f2, 2), not_iso)
    with pytest.raises(ValueError):
        common_complement(base_point(f2, 2), base_point(make_field(3), 2))


@pytest.mark.parametrize("maker", ALL_CONFIGS)
def test_decompose_roundtrip(maker):
    """Every isotropic point at n = 2, and at n = 3 over GF(2) (135 points)
    and GF(4) with Frobenius (891 points)."""
    field = maker()
    sizes = (2, 3) if field.q in (2, 4) else (2,)
    for n in sizes:
        for p in enumerate_isotropic(field, n):
            pair = decompose_isotropic(p)
            assert pair.t1.is_hermitian()
            assert pair.t2.is_hermitian()
            assert bartolone_hermitian(pair) == p


# sha256 of decompose_isotropic on every isotropic point, one
# "t1 entries t2 entries" line each, and of common_complement on each
# cyclically consecutive pair of those points, one basis line each;
# recorded before extend_independent carried its echelon form.
CONSTRUCTION_PINS = {
    "gf2-2": (
        "f59d766f0b92af6667c33d9465eb4c0c301b2cfb04aba41b0d25c707ac887a58",
        "a10e08bf7052d12dae18a43b3a263eb5e58b4c60356e41caf033bb1a607aa131",
    ),
    "gf3-2": (
        "257476631af20f6ccf5a9683b35cc7b15d3feb6b3b6191e66716760e164774b0",
        "b2ed97200e07e8d69c5eb3e92cc4fdcb8f72137839c479de2e0b09b3de351d34",
    ),
    "gf4-2": (
        "99507a48bdbe2293a0500679d6dcf1a9ef15b4786c4b05e1c1fbd7a8bfd301cf",
        "2f0b26d5f49f7e4fa48c90b9c8972f7355000d555ec71a605064bbe1f6526295",
    ),
    "gf9-2": (
        "69b1c8b8448ebd37b760170f88392e8a4d11bb8efe4b6e5d2977ad145180cdb9",
        "1a50adec5d6667d137ab00f40582fe5d1595aaf9a30dd75bb101792a39548d4d",
    ),
    "gf2-3": (
        "a55a4ceb8079301583b9d5cb63cba1ed1c90bfc424a591c061351ab9235de930",
        "bfe475c923307327dd6fa3a4f5df98c6b92a98b4c897257f3874f4047e96c307",
    ),
    "gf4-3": (
        "72bc0b1d3d65db4e47567b594b1a678350fa34aba81efa30abea1323710934b5",
        "2c5dbeb8ec0b03a6fdbbdeecdb2c5ee580cdfc86379456e1e0c8c04b31f80c0f",
    ),
}


PINNED_CONFIGS = dict(zip(LADDER_IDS, LADDER), **{"gf4-3": ((2, 2, "frobenius"), 3)})


@pytest.mark.parametrize("key", sorted(CONSTRUCTION_PINS))
def test_construction_outputs_are_pinned(key):
    field_args, n = PINNED_CONFIGS[key]
    points = enumerate_isotropic(make_field(*field_args), n)
    pairs = hashlib.sha256()
    complements = hashlib.sha256()
    for i, p in enumerate(points):
        pair = decompose_isotropic(p)
        pairs.update(f"{pair.t1.entries}{pair.t2.entries}\n".encode())
        x = common_complement(p, points[(i + 1) % len(points)])
        complements.update(f"{x.space.basis.entries}\n".encode())
    assert (pairs.hexdigest(), complements.hexdigest()) == CONSTRUCTION_PINS[key]


def test_decompose_frozen_example(f4):
    p = point_from_pair(Matrix.zeros(f4, 2, 2), Matrix.identity(f4, 2))
    pair = decompose_isotropic(p)
    assert pair.t1 == Matrix.identity(f4, 2)
    assert pair.t2 == Matrix.identity(f4, 2)


def test_decompose_base_point_has_zero_t2(f3):
    pair = decompose_isotropic(base_point(f3, 2))
    assert pair.t2.is_zero()


def test_decompose_rejects_non_isotropic(f2):
    not_iso = next(
        p for p in enumerate_points(f2, 2)
        if not standard_form(f2, 2).is_totally_isotropic(p)
    )
    with pytest.raises(ValueError):
        decompose_isotropic(not_iso)


def test_hermitian_star_stays_adjacent(f2, f4):
    for field in (f2, f4):
        base = base_point(field, 2)
        for c0 in [(1, 0), (0, 1), (1, 1), (1, field.q - 1)]:
            points = hermitian_adjacent_star(field, 2, c0)
            assert base in points
            for p in points:
                assert arithmetical_distance(base, p) <= 1


def test_hermitian_star_rank_one_parameters_are_hermitian(f4, f9):
    """sigma(c0)^T * t * c0 is hermitian even for c0 outside the fixed field."""
    for field in (f4, f9):
        for c0 in all_vectors(field, 2):
            if not any(c0):
                continue
            sigma_c0 = tuple(field.sigma(x) for x in c0)
            for t in field.fixed_elements:
                t2 = outer_product(field, sigma_c0, c0).scale(t)
                assert t2.is_hermitian()


def test_plain_rank_one_outer_product_needs_the_twist(f4):
    """c0^T * c0 itself is not hermitian for c0 off the fixed field."""
    g = next(x for x in f4.elements() if f4.sigma(x) != x)
    t2 = outer_product(f4, (1, g), (1, g))
    assert not t2.is_hermitian()


def test_hermitian_star_validation(f2):
    with pytest.raises(ValueError):
        hermitian_adjacent_star(f2, 2, (0, 0))
    with pytest.raises(ValueError):
        hermitian_adjacent_star(f2, 2, (1, 0, 0))


@pytest.mark.parametrize("maker,herm_count", list(zip(ALL_CONFIGS, [8, 27, 16, 81])))
def test_jordan_axioms(maker, herm_count):
    field = maker()
    report = jordan_system_axioms_check(field, 2)
    assert report["passed"]
    assert report["hermitian_count"] == herm_count
    assert report["inverse_closure_ok"]
    assert report["triple_product_closure_ok"]
    assert report["witnesses"] == {"inverse": [], "triple_product": []}


@pytest.mark.parametrize(
    "field_args,n",
    LADDER + [((2, 4, "frobenius"), 2)],
    ids=LADDER_IDS + ["gf16-2"],
)
def test_hermitian_matrices_match_the_filter(field_args, n):
    field = make_field(*field_args)
    assert hermitian_matrices(field, n) == hermitian_matrices_by_filter(field, n)


@pytest.mark.parametrize("field_args", [(3, 1, "identity"), (3, 2, "frobenius")])
def test_hermitian_matrices_check_they_are_complete(field_args):
    """A fixed field missing an element yields too few matrices: a raise."""
    field = copy.copy(make_field(*field_args))
    field.fixed_elements = field.fixed_elements[:-1]
    with pytest.raises(RuntimeError, match="incomplete"):
        hermitian_matrices.__wrapped__(field, 2)


@pytest.mark.parametrize("field_args,n", LADDER, ids=LADDER_IDS)
def test_isotropic_scan_matches_the_filter(field_args, n):
    """The ranked scan keeps the filter's points, in order, under their ids."""
    field = make_field(*field_args)
    reference = isotropic_points_by_filter(field, n)
    count, ids = isotropic_ids(field, n)
    assert count == len(enumerate_points(field, n))
    assert list(ids) == [subspace_id(p.space) for p in reference]
    assert enumerate_isotropic(field, n) == reference
