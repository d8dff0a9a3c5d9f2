"""Reference code that only the tests use.

``isotropic_meeting_perp_stepwise`` is an independent cross-check of
``hermitian.isotropic_meeting_perp``, ``check_distant_chain`` proves
the "distant diameter at most two" claim with explicit middle points,
and ``graph_from_edges`` builds a small graph from a hand-written edge
list.  ``subspace_id`` ranks a subspace object the way the pair kernel
ranks its reduced rows.  ``bartolone_by_matrices``,
``hermitian_matrices_by_filter`` and ``isotropic_points_by_filter`` are
the plain versions that ``bartolone``, ``hermitian_matrices`` and
``isotropic_ids`` replace.  None of them runs from the command line.
"""

from hermline.fields import FieldSpec
from hermline.hermitian import _ordered_frame, _skew_split, standard_form
from hermline.harness import RelationGraph, _result, pair_point_table
from hermline.matrices import Matrix, Subspace, _rref_id, _rref_layouts, all_matrices
from hermline.projline import (
    BartolonePair,
    SubspacePoint,
    base_point,
    enumerate_points,
    is_distant,
    point_from_pair,
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


def hermitian_matrices_by_filter(field: FieldSpec, n: int) -> tuple:
    """Every n x n matrix that equals its involution transpose, in order."""
    return tuple(m for m in all_matrices(field, n, n) if m.is_hermitian())


def isotropic_points_by_filter(field: FieldSpec, n: int) -> tuple:
    """Every point whose restricted Gram matrix is zero, in enumeration order."""
    form = standard_form(field, n)
    return tuple(
        p
        for p in enumerate_points(field, n)
        if form.restricted_gram(p.space.basis).is_zero()
    )


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
    form, k, rows = _ordered_frame(u, v, w)
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
        return form.restricted_gram(Matrix(field, rows, cols=2 * n))

    arb = list(range(n, n + k))
    tail = list(range(n + k, 2 * n))
    m = gram()
    bb = m.block(k, n, n, n + k)
    c = m.block(k, n, n + k, 2 * n)
    shear(arb, -(bb.sigma_transpose() * c.inverse().sigma_transpose()), tail)

    m = gram()
    assert m.block(k, n, n, n + k).is_zero()
    a = m.block(0, k, n, n + k)
    d = _skew_split(m.block(n, n + k, n, n + k))
    shear(arb, -(d * a.inverse()), list(range(k)))

    m = gram()
    assert m.block(k, n + k, k, n + k).is_zero()
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

    return _result("distant_chain", "exhaustive", outcomes())


def graph_from_edges(kind: str, point_set: str, size: int, edges) -> RelationGraph:
    """The graph on the ids 0..size-1 whose related pairs are edges."""
    neighbours = [0] * size
    for i, j in edges:
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    return RelationGraph(kind, point_set, neighbours)
