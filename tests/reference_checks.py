"""Reference code that only the tests use.

``isotropic_meeting_perp_stepwise`` is an independent cross-check of
``hermitian.isotropic_meeting_perp``, ``check_distant_chain`` proves
the "distant diameter at most two" claim with explicit middle points,
and ``graph_from_edges`` builds a small graph from a hand-written edge
list.  None of them runs from the command line.
"""

from hermline.fields import FieldSpec
from hermline.hermitian import _ordered_frame, _skew_split
from hermline.harness import RelationGraph, _result, pair_point_table
from hermline.matrices import Matrix, Subspace
from hermline.projline import SubspacePoint, base_point, is_distant, point_from_pair


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
    mats, points, table = pair_point_table(field, n)
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
