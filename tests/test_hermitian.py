"""The anti-hermitian form, isotropic points and the subspace constructions."""

import ast
import copy
import hashlib
import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hermline import (
    BartolonePair,
    Matrix,
    SubspacePoint,
    all_matrices,
    arithmetical_distance,
    bartolone,
    bartolone_hermitian,
    base_point,
    common_complement,
    decompose_isotropic,
    enumerate_isotropic,
    enumerate_points,
    enumerate_subspaces,
    gaussian_binomial,
    hermitian,
    hermitian_adjacent_star,
    hermitian_matrices,
    isotropic_meeting_perp,
    jordan_system_axioms_check,
    make_field,
    nullspace,
    point_from_pair,
    standard_form,
)
from hermline.hermitian import _omega, _shift, isotropic_ids
from hermline.matrices import (
    Subspace,
    all_vectors,
    outer_product,
    unit_vector,
)
from reference_checks import (
    LADDER,
    LADDER_IDS,
    block_isotropy_criterion,
    common_complement_by_matrices,
    complement_pair_by_matrices,
    contains,
    decompose_isotropic_by_matrices,
    evaluate,
    extend_independent_by_rebuild,
    gram_matrix,
    hermitian_matrices_by_filter,
    isotropic_meeting_perp_by_matrices,
    isotropic_meeting_perp_stepwise,
    isotropic_points_by_filter,
    restricted_gram,
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
    assert gram_matrix(f2, 2) == Matrix(
        f2, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    f3 = make_field(3)
    assert gram_matrix(f3, 2) == Matrix(
        f3, [[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0]]
    )


def unit_pairing_mismatches(form):
    """The (i, j) where the pairing of the unit vectors e_i, e_j is not J_ij."""
    units = [unit_vector(2 * form.n, i) for i in range(2 * form.n)]
    return [
        (i, j)
        for i, x in enumerate(units)
        for j, y in enumerate(units)
        if form._pairing(x, y) != gram_matrix(form.field, form.n).entries[i][j]
    ]


@pytest.mark.parametrize("field_args, n", LADDER, ids=LADDER_IDS)
def test_pairing_matches_the_gram_on_unit_vectors(field_args, n):
    assert unit_pairing_mismatches(standard_form(make_field(*field_args), n)) == []


@pytest.mark.parametrize("field_args, n", LADDER, ids=LADDER_IDS)
def test_pairing_matches_the_gram_product(field_args, n):
    """On seeded random pairs, beta(x, y) is x * J * sigma(y)^T by Matrix products."""
    field = make_field(*field_args)
    form = standard_form(field, n)
    j = gram_matrix(field, n)
    rng = random.Random(11)
    for _ in range(300):
        x, y = (tuple(rng.randrange(field.q) for _ in range(2 * n)) for _ in "xy")
        product = Matrix(field, [x]) * j * Matrix(field, [y]).sigma_transpose()
        assert form._pairing(x, y) == product.entries[0][0]


def test_perp_rows_match_the_nullspace_of_sigma_vj(f3, f4):
    """On every subspace V of K^4, _perp_rows is the nullspace of sigma(V * J)."""
    for field in (f3, f4):
        form = standard_form(field, 2)
        for dim in range(5):
            for space in enumerate_subspaces(field, 4, dim):
                vj = (space.basis * gram_matrix(field, 2)).sigma_transpose().transpose()
                want = nullspace(vj).basis.entries
                assert form._perp_rows(space.basis.entries) == want


# The pairing with + for the - of its second term: (the line, the mutant).
PAIRING_SIGN_MUTANT = (
    "                acc = sub[acc][mul[x[j]][sig[y[i]]]]\n",
    "                acc = add[acc][mul[x[j]][sig[y[i]]]]\n",
)


def test_unit_vector_oracle_catches_a_pairing_sign_mutant(f2, f3, f4):
    """The mutant's J_(n+i, i) reads +1, so the oracle fails on GF(3).

    In characteristic 2, -1 = 1 and the mutant is the same form, so no
    oracle can fail there: the sign is tested in odd characteristic only.
    """
    source = Path(hermitian.__file__).read_text()
    line, mutated = PAIRING_SIGN_MUTANT
    assert source.count(line) == 1
    namespace = {"__name__": "hermline._pairing_mutant", "__package__": "hermline"}
    exec(compile(source.replace(line, mutated), hermitian.__file__, "exec"), namespace)
    mutant = namespace["SesquilinearForm"]
    assert unit_pairing_mismatches(mutant(f3, 2)) == [(2, 0), (3, 1)]
    assert unit_pairing_mismatches(mutant(f2, 2)) == []
    assert unit_pairing_mismatches(mutant(f4, 2)) == []


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
    """beta(y,x) = -sigma(beta(x,y)), a property of J, and beta(x,x) = w - sigma(w)."""
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


def test_form_rejects_a_subspace_of_another_space(f2, f3):
    """perp and is_totally_isotropic raise on a subspace of K^d, d != 2n,
    or of another field, as isotropic_meeting_perp does."""
    form = standard_form(f2, 2)
    line6 = Subspace.from_rows(f2, 6, [(1, 0, 0, 0, 0, 0)])
    line3 = Subspace.from_rows(f3, 4, [(1, 2, 0, 1)])
    for space in (line6, line3):
        with pytest.raises(ValueError, match="wrong space"):
            form.perp(space)
        with pytest.raises(ValueError, match="wrong space"):
            form.is_totally_isotropic(space)


def test_block_criterion_matches_form():
    """On every point of the ladder: the pairwise test, the Gram product and
    the block criterion A * B^Sigma = B * A^Sigma agree."""
    for field_args, n in LADDER:
        field = make_field(*field_args)
        form = standard_form(field, n)
        for p in enumerate_points(field, n):
            by_gram = restricted_gram(form, p.space.basis) == Matrix.zeros(field, n, n)
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


@pytest.mark.parametrize("field_args, n", LADDER, ids=LADDER_IDS)
def test_omega_and_hermitian_shifts_keep_the_form(field_args, n):
    """On Matrix values, omega = (0, I; -I, 0) and L(t) = (I, 0; t, I) for
    every hermitian t satisfy g * J * g^sigmaT = J, and _omega and _shift
    are the products of rows with them; L(t) for a non-hermitian t does
    not keep J."""
    field = make_field(*field_args)
    j = gram_matrix(field, n)
    ident = Matrix.identity(field, n)
    zero = Matrix.zeros(field, n, n)
    rows = Matrix.identity(field, 2 * n).entries

    def keeps(g):
        return g * j * g.sigma_transpose() == j

    def shift(t):
        return ident.hstack(zero).vstack(t.hstack(ident))

    omega = zero.hstack(ident).vstack((-ident).hstack(zero))
    assert keeps(omega)
    assert _omega(field, n, rows) == list(map(list, omega.entries))
    for t in hermitian_matrices(field, n):
        assert keeps(shift(t))
        for op, g in ((field._add, shift(t)), (field._sub, shift(-t))):
            assert _shift(field, n, rows, t.entries, op) == list(map(list, g.entries))
    t = next(m for m in all_matrices(field, n, n) if not m.is_hermitian())
    assert not keeps(shift(t))


def test_meeting_perp_exhaustive(f2, f3, f4):
    """All isotropic U and all splittings U = V (+) W at n = 2 over GF(2),
    GF(3) and GF(4)s: 2 + q(q+1) per point, V = 0, V = U, or V and W two
    distinct lines of U.  X meets U in W, so one X serves every
    complement V' of W in U: X meet perp(V') = W."""
    checked = []
    for field in (f2, f3, f4):
        form = standard_form(field, 2)
        checked.append(0)
        for u in enumerate_isotropic(field, 2):
            complements = {}
            for v, w in splittings(field, u):
                complements.setdefault(w, []).append(v)
            for w, vs in complements.items():
                first = isotropic_meeting_perp(u, vs[0], w)
                for v in vs:
                    perp = form.perp(v)
                    x = isotropic_meeting_perp(u, v, w)
                    y = isotropic_meeting_perp_stepwise(u, v, w)
                    for z in (x, y):
                        assert form.is_totally_isotropic(z)
                        assert z.space.intersect(perp) == w
                    assert first.space.intersect(perp) == w
                    checked[-1] += 1
    assert checked == [120, 560, 594]


def test_meeting_perp_extreme_splittings(f9):
    """The all-of-U and none-of-U splittings work over every configuration."""
    form = standard_form(f9, 2)
    for u in enumerate_isotropic(f9, 2)[:20]:
        zero = Subspace.from_rows(f9, 4, ())
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
        isotropic_meeting_perp(not_iso, Subspace.from_rows(f2, 4, ()), not_iso.space)


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


def test_construction_boundary_errors(f2, f3):
    """Each public construction refuses bad input once, at its boundary,
    with these ValueErrors."""
    form = standard_form(f2, 2)
    iso = enumerate_isotropic(f2, 2)
    points = enumerate_points(f2, 2)
    not_iso = next(p for p in points if not form.is_totally_isotropic(p))
    base = base_point(f2, 2)
    u = iso[5]
    other = next(p for p in iso if p.space.intersect(u.space).dim == 0)
    line = Subspace.from_rows(f2, 4, u.space.basis.entries[:1])
    zero = Subspace.from_rows(f2, 4, ())
    meet = isotropic_meeting_perp
    lines = "points belong to different projective lines"
    direct = "u = v (+) w must be a direct sum decomposition"
    cases = [
        (decompose_isotropic, (not_iso,), "the point is not totally isotropic"),
        (common_complement, (not_iso, base), "u1 is not totally isotropic"),
        (common_complement, (base, not_iso), "u2 is not totally isotropic"),
        (common_complement, (base, base_point(f3, 2)), lines),
        (common_complement, (base, base_point(f2, 3)), lines),
        (meet, (not_iso, zero, not_iso.space), "u is not totally isotropic"),
        (meet, (u, Subspace.from_rows(f3, 4, ()), u.space), "v lives in the wrong space"),
        (meet, (u, zero, Subspace.from_rows(f2, 6, ())), "w lives in the wrong space"),
        (meet, (u, line, line), direct),
        (meet, (u, zero, line), direct),
        (meet, (u, zero, other.space), direct),
    ]
    for construction, args, message in cases:
        with pytest.raises(ValueError) as raised:
            construction(*args)
        assert type(raised.value) is ValueError
        assert str(raised.value) == message


# The fields and block sizes of the benchmark's constructions workload.
BENCHMARK_CONSTRUCTIONS = [
    ((2, 8, "identity"), 2),
    ((3, 4, "frobenius"), 2),
    ((2, 2, "frobenius"), 3),
    ((5, 1, "identity"), 4),
]


def seeded_isotropic_points(field, n, count, seed):
    """Points of seeded hermitian pairs whose T2 has each rank 0..n in turn,
    so that the point meets the base point in each dimension."""
    rng = random.Random(seed)
    sig = field._sigma
    points = []
    for i in range(count):
        t1 = [[0] * n for _ in range(n)]
        for a in range(n):
            t1[a][a] = rng.choice(field.fixed_elements)
            for b in range(a + 1, n):
                t1[a][b] = rng.randrange(field.q)
                t1[b][a] = sig[t1[a][b]]
        # T2 = sum of sigma(c)^T * t * c over r echelon vectors c and
        # nonzero fixed t, which has rank r
        t2 = Matrix.zeros(field, n, n)
        for j in range(i % (n + 1)):
            c = [0] * j + [1] + [rng.randrange(field.q) for _ in range(n - j - 1)]
            t = rng.choice(field.fixed_elements[1:])
            t2 = t2 + outer_product(field, [sig[x] for x in c], c).scale(t)
        points.append(bartolone_hermitian(BartolonePair(Matrix(field, t1), t2)))
    return points


@pytest.mark.parametrize(
    "field_args,n", BENCHMARK_CONSTRUCTIONS, ids=["gf256-2", "gf81-2", "gf4-3", "gf5-4"]
)
def test_constructions_match_the_matrix_reference(field_args, n):
    """The constructions are not unique, so the library and the Matrix-level
    references are both checked against the contract on the same seeded
    inputs: the complement X of each point with the next one, with itself
    and with the base point is isotropic of dimension n and meets both
    points trivially, and for U = p, V = p meet the base point and W a
    complement of V in p, X is isotropic of dimension n and X meet
    perp(V) = W.  The pair of each point is the reference's cell pair.
    The pair that the common complement of the base point and p gives,
    (D0^-1 * C0, T2) for X = (C0 | D0), is hermitian and reproduces p
    too; D0.inverse and preimage_pair raise ValueError when D0 or
    B*T1 - A is singular."""
    field = make_field(*field_args)
    form = standard_form(field, n)
    points = seeded_isotropic_points(field, n, 12, seed=n)
    base = base_point(field, n)

    def isotropic(x):
        return x.space.dim == n and form.is_totally_isotropic(x)

    meets = set()
    for i, p in enumerate(points):
        assert decompose_isotropic(p) == decompose_isotropic_by_matrices(p)
        pair = complement_pair_by_matrices(p)
        assert pair.t1.is_hermitian() and pair.t2.is_hermitian()
        assert bartolone(pair) == p
        q = points[(i + 1) % len(points)]
        for other in (q, p, base):
            for make in (common_complement, common_complement_by_matrices):
                x = make(p, other)
                assert isotropic(x)
                assert x.space.intersect(p.space).dim == 0
                assert x.space.intersect(other.space).dim == 0
        v = p.space.intersect(base.space)
        rows = extend_independent_by_rebuild(
            field, 2 * n, v.basis.entries, p.space.basis.entries
        )
        w = Subspace.from_rows(field, 2 * n, rows[v.dim :])
        perp = form.perp(v)
        for make in (isotropic_meeting_perp, isotropic_meeting_perp_by_matrices):
            x = make(p, v, w)
            assert isotropic(x)
            assert x.space.intersect(perp) == w
        meets.add(v.dim)
    assert meets == set(range(n + 1))


# Source mutants of the kernel: (the line as it is, the line mutated).
KERNEL_MUTANTS = {
    # omega: (A | B) -> (B | A) scales the form by -1, so the word still
    # keeps isotropy but no longer sends the base point to U1
    "omega-no-sign": (
        "    return [[neg[x] for x in row[n:]] + list(row[:n]) for row in rows]\n",
        "    return [list(row[n:]) + list(row[:n]) for row in rows]\n",
    ),
    # g^-1 with L(+S1) for L(-S1): no longer the inverse of g
    "inverse-word-plus-s1": (
        "    rows = _omega(field, n, _shift(field, n, rows, s1, sub))\n",
        "    rows = _omega(field, n, _shift(field, n, rows, s1, field._add))\n",
    ),
    # the annihilator of W' = (C | 0) as the nullspace of C, not sigma(C):
    # X' is not isotropic once C has an entry off the fixed field
    "annihilator-no-sigma": (
        "    sigma_c = [[sig[x] for x in row[:n]] for row in moved]\n",
        "    sigma_c = [list(row[:n]) for row in moved]\n",
    ),
    # T1 = E^T * N * E: the pair is hermitian but parametrises another point
    "cell-pair-no-identity": (
        "        row[i] = field._add[row[i]][1]\n",
        "        row[i] = field._add[row[i]][0]\n",
    ),
    # R^T for R^sigmaT: T2 = R^T * R is not hermitian once R has an entry
    # off the fixed field.  Under the identity involution R^T is R^sigmaT,
    # so this mutant cannot fail there; MUTANT_RUN runs on GF(9)s.
    "cell-pair-plain-transpose": (
        "    r_sig_t = [[field._sigma[row[j]] for row in top] for j in range(n)]\n",
        "    r_sig_t = [[row[j] for row in top] for j in range(n)]\n",
    ),
}

MUTANT_RUN = """
import sys
import traceback
from pathlib import Path

from hermline import hermitian, make_field

if __debug__:
    sys.exit("not running under python -O")
source = Path(hermitian.__file__).read_text()
line, mutated = sys.argv[1], sys.argv[2]
if source.count(line) != 1:
    sys.exit("the mutated line is not in the kernel exactly once")
code = compile(source.replace(line, mutated), hermitian.__file__, "exec")
exec(code, vars(hermitian))
field = make_field(3, 2, "frobenius")
add, mul = field._add, field._mul
points = hermitian.enumerate_isotropic(field, 2)
try:
    for i, u in enumerate(points):
        hermitian.decompose_isotropic(u)
        hermitian.common_complement(u, points[(i + 1) % len(points)])
        # U = V (+) W for V spanned by r0 + c*r1 and W by r1, the rows of U
        r0, r1 = u.space.basis.entries
        w = hermitian.Subspace.from_rows(field, 4, [r1])
        for c in field.elements():
            row = [add[x][mul[c][y]] for x, y in zip(r0, r1)]
            v = hermitian.Subspace.from_rows(field, 4, [row])
            hermitian.isotropic_meeting_perp(u, v, w)
except AssertionError as exc:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    print(frame.name, exc)
    sys.exit(0)
sys.exit("every construction passed")
"""


@pytest.mark.parametrize("mutant", sorted(KERNEL_MUTANTS))
def test_kernel_postconditions_catch_mutants_under_O(mutant):
    """Under python -O, a broken word or cell pair raises AssertionError
    from a postcondition instead of returning a wrong result.  A broken
    cell pair may surface in decompose_isotropic or in a construction
    that moves points by the pair's word."""
    line, mutated = KERNEL_MUTANTS[mutant]
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-O", "-c", MUTANT_RUN, line, mutated],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    function, _ = run.stdout.split(" ", 1)
    constructions = {"common_complement", "isotropic_meeting_perp"}
    if mutant.startswith("cell-pair"):
        assert function in constructions | {"decompose_isotropic"}
    else:
        assert function in constructions


ROOT = Path(__file__).resolve().parent.parent


def src_trees() -> dict:
    """The parsed modules of src/hermline, by file name."""
    src = ROOT / "src" / "hermline"
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}


def test_src_has_no_assert_statement():
    """Every invariant in src/hermline raises explicitly, so python -O keeps it."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in src_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# The public names of src/hermline that no code there calls, each with the
# caller outside src/ that needs it: the CLI, perfbench, the library API
# that the README lists, or ROADMAP item 5, which moves the BFS together
# with its perfbench metric.
LIBRARY_API = {
    **dict.fromkeys(
        ["FieldSpec.frobenius", "FieldSpec.sigma", "SesquilinearForm.perp"]
        + ["Subspace.from_rows", "Subspace.intersect", "SubspacePoint.blocks"]
        + ["annihilator", "is_adjacent", "is_distant", "isotropic_meeting_perp"]
        + ["nullspace", "pencil", "sphere", "stable_rank_witness", "star", "top"]
        + ["FieldSpec.add", "FieldSpec.sub", "FieldSpec.mul", "FieldSpec.neg"]
        + ["FieldSpec.inv", "FieldSpec.coeffs"],
        "readme",
    ),
    "bartolone_hermitian": "perfbench",
    "RelationGraph.bfs_distances": "roadmap-item-5",
}


def test_src_public_names_have_a_caller():
    """Each public function, class and method of src/hermline is referenced
    in src/ outside its own definition, or is in LIBRARY_API.  Re-exports
    in __init__ are no reference, but any name or attribute spelled like
    the definition is, so a name collision (a local add passes
    FieldSpec.add) can let a name through: this is a guard, not a proof.
    """
    trees = src_trees().values()
    uses = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            uses.setdefault(name, set()).add(node)
    public = {}
    for node in (node for tree in trees for node in tree.body):
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d, prefix in [(node, "")] + [(m, f"{node.name}.") for m in members]:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name[0] != "_":
                public[prefix + d.name] = d
    uncalled = [q for q, d in public.items() if not uses.get(d.name, set()) - set(ast.walk(d))]
    assert [q for q in uncalled if q not in LIBRARY_API] == []
    assert set(LIBRARY_API) <= set(public)
    assert set(LIBRARY_API.values()) <= {"cli", "perfbench", "readme", "roadmap-item-5"}
    readme = (ROOT / "README.md").read_text()
    assert [q for q, why in LIBRARY_API.items() if why == "readme" and f"`{q}`" not in readme] == []


@pytest.mark.parametrize("maker", ALL_CONFIGS)
def test_decompose_roundtrip(maker):
    """Every isotropic point at n = 2, and at n = 3 over GF(2) (135 points),
    GF(3) (1,120 points) and GF(4) with Frobenius (891 points)."""
    field = maker()
    sizes = (2, 3) if field.q in (2, 3, 4) else (2,)
    for n in sizes:
        for p in enumerate_isotropic(field, n):
            pair = decompose_isotropic(p)
            assert pair.t1.is_hermitian()
            assert pair.t2.is_hermitian()
            assert bartolone_hermitian(pair) == p


# sha256 of decompose_isotropic on every isotropic point, one
# "t1 entries t2 entries" line each, and of common_complement on each
# cyclically consecutive pair of those points, one basis line each.  The
# pairs were recorded when decompose_isotropic became the cell pair, the
# complements when common_complement moved points by the cell pair's word.
CONSTRUCTION_PINS = {
    "gf2-2": (
        "ccef7158c76fbb66743be9d954f5a67881c87e6b4b913dbadff32e172a766c7c",
        "a3a842404d6b2184b38ae5de3f4b38d2afbff6acb36649c6d45e50a490e31b20",
    ),
    "gf3-2": (
        "bd949f3ce0b6893f41bea2839fd7cc597d02d064210cbbf1f8f3643f77b010e7",
        "a8959da59a1e64753c6022c84e1e46930fb72ed0a42ed8de9831c3a289385f96",
    ),
    "gf4-2": (
        "c94ee5061cf88a6b64d6549a716ec82eb4f54a03a319872469cf80746f366048",
        "4b9bfa2b4e8365966d6886d1778e3e95efa5c8aea95810c5655c1b44e664221a",
    ),
    "gf9-2": (
        "015e41f1b043ea20e547fb31a6087b7a9c8dda75d4c74366d7265b2ddc309bb3",
        "2149cfacac63fa1e0303c3f216edacc37478e3b54c54d7873eb8a47909444613",
    ),
    "gf2-3": (
        "5936f0909c834f18e858e91cd86f2b92a1477e7756dbb0e7b493858a7966a20b",
        "11550a32c5be37b1e3fad6a424b9d549bdfcb15f4efb62afca869745223a085a",
    ),
    "gf4-3": (
        "359b4bd382c1ce4dc3f81b52b8a3ce7ad469f1de804262a3b49930a9c1fd218e",
        "673ac52437c91d7967a0d2ccd0b304bf8962bfbea9c377920c3ea539d21caa9f",
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


CELL_CONFIGS = dict(PINNED_CONFIGS, **{"gf3-3": ((3, 1, "identity"), 3)})


@pytest.mark.parametrize("key", sorted(CELL_CONFIGS))
def test_decompose_gives_the_cell_pair(key):
    """On every isotropic point (A | B): T2 = R^sigmaT * R for R the RREF of
    B's row space, rank(T2) = rank(B) = the arithmetical distance from the
    base point, and T1 vanishes off R's pivot rows and columns.  The points
    with rank(T2) = r number [n, r]_q * |H_r|, |H_r| the number of r x r
    hermitian matrices: q^(r(r+1)/2), or s^(r^2) with s^2 = q for the
    frobenius involution."""
    field_args, n = CELL_CONFIGS[key]
    field = make_field(*field_args)
    base = base_point(field, n)
    tally = [0] * (n + 1)
    for p in enumerate_isotropic(field, n):
        pair = decompose_isotropic(p)
        b = p.blocks()[1]
        r = b.rank()
        rr = Subspace(b).basis
        assert pair.t2 == rr.sigma_transpose() * rr
        assert pair.t2.rank() == r == arithmetical_distance(base, p)
        pivots = {row.index(1) for row in rr.entries}
        for i, j in itertools.product(range(n), repeat=2):
            assert pair.t1.entries[i][j] == 0 or {i, j} <= pivots
        tally[r] += 1
    q = field.q
    if field.involution == "frobenius":
        herm = [math.isqrt(q) ** (r * r) for r in range(n + 1)]
    else:
        herm = [q ** (r * (r + 1) // 2) for r in range(n + 1)]
    assert tally == [gaussian_binomial(n, r, q) * herm[r] for r in range(n + 1)]


def test_decompose_frozen_example(f4):
    p = point_from_pair(Matrix.zeros(f4, 2, 2), Matrix.identity(f4, 2))
    pair = decompose_isotropic(p)
    assert pair.t1 == Matrix.identity(f4, 2)
    assert pair.t2 == Matrix.identity(f4, 2)


def test_decompose_base_point_has_zero_t2(f3):
    pair = decompose_isotropic(base_point(f3, 2))
    assert pair.t2 == Matrix.zeros(f3, 2, 2)


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
