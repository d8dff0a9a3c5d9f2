"""Enumeration, graph building and batch verification over a configuration.

A :class:`GeometryConfig` names a field, an involution and a block size
n.  The harness enumerates the point set, verifies that the hermitian
parametrisation hits exactly the maximal totally isotropic subspaces,
builds distant and adjacency graphs as neighbour bitmasks, and runs the
batch checks (embedding injectivity, the rank distance law,
annihilators, twisted point maps, hermitian stars) exhaustively when the
pair space is small and by seeded sampling otherwise, plus the Jordan
closure laws of the hermitian matrices, each after ensure_within_budget
has counted its work.  The pair checks of a run share one case set and
draw their cases from their own seeds.  All reports are plain dicts with
stable key order, so serialising them is deterministic.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import operator
import random

from .fields import FROBENIUS, FieldSpec, _digits, check_field_parameters, make_field
from .hermitian import hermitian_adjacent_star, hermitian_matrices, isotropic_ids
from .hermitian import _hermitian_exponent
from .matrices import (
    Matrix,
    _entries_from_id,
    _matrix_id,
    _product,
    _rank,
    _row_reduce,
    _rows_id,
    _rref_rows,
    unit_vector,
)
from .projline import (
    ANTIAUTOMORPHISM,
    AUTOMORPHISM,
    BartolonePair,
    JordanMapSpec,
    SubspacePoint,
    _Memo,
    _annihilator_shares,
    _pair_columns,
    _pair_ids,
    _preimage_ids,
    _witness_ids,
    annihilator,
    arithmetical_distance,
    base_point,
    enumerate_points,
    point_from_id,
    sweep_ids,
)

DEFAULT_BUDGET = 1_000_000
_EXACT_BELOW = 2**64  # a count past this and the budget is only bounded below
_POINT_SETS = {  # the points each subcommand but graph enumerates
    "enumerate": "all", "verify-theorem1": "all", "verify-remarks": "all",
    "isotropic": "isotropic",
}
_EXHAUSTIVE_PAIR_LIMIT = 70_000
_WITNESS_CAP = 10


class BudgetExceededError(Exception):
    """Raised when a predicted count or table size exceeds the budget."""


class GeometryConfig(
    collections.namedtuple(
        "GeometryConfig",
        ("p", "k", "involution", "n", "budget"),
        defaults=(1, "identity", 2, DEFAULT_BUDGET),
    )
):
    """A verification target: GF(p^k) with an involution and block size n.

    An immutable, hashable record, checked whenever one is made, by
    _replace and _make too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 2:
            raise ValueError("the geometry needs n >= 2")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        check_field_parameters(self.p, self.k, self.involution)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def field(self) -> FieldSpec:
        """The field, refused before its q^2-entry tables exceed the budget."""
        ensure_within_budget(self)
        return make_field(self.p, self.k, self.involution)

    def report_header(self, check: str) -> dict:
        field = self.field()
        return {
            "format_version": 1,
            "check": check,
            "field_p": field.p,
            "field_k": field.k,
            "involution": field.involution,
            "n": self.n,
        }


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """The number of r-dimensional subspaces of an m-dimensional space."""
    if r < 0 or r > m:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise AssertionError(f"[{m},{r}]_{q} is not an integer")
    return num // den


def _capped_power(base: int, exponent: int, cap: int) -> int:
    """base**exponent, or as a lower bound its first partial power past cap."""
    power = 1
    for _ in range(exponent):
        power *= base
        if power > cap:
            break
    return power


def predicted_point_count(cfg: GeometryConfig) -> int:
    """The point count [2n,n]_q, q = p^k, from p, k and n alone.

    No field is built.  The count is at least q^(n*n) = p^(k*n*n), so
    the power is formed one factor of p at a time and, once it passes
    both the budget and 2^64, returned as a lower bound instead: a huge
    k or n then costs at most log2(max(budget, 2^64)) + 1 multiplications.
    """
    cap = max(cfg.budget, _EXACT_BELOW)
    bound = _capped_power(cfg.p, cfg.k * cfg.n * cfg.n, cap)
    if bound > cap:
        return bound
    return gaussian_binomial(2 * cfg.n, cfg.n, cfg.p**cfg.k)


def _work(cfg: GeometryConfig, command, relation, point_set, fmt):
    """Yield (count, what) for the work of command, cheapest first.

    Closed forms in p, k, the involution and n (Brouwer, Cohen & Neumaier,
    Distance-Regular Graphs, 9.3-9.4), s = sqrt(q) for frobenius, else q;
    graph ORs in the [n,1]_q d-spaces of each point.  The first count
    past the field's is capped or bounded below, so a huge k or n fails
    fast, and a later one is only formed once those before it pass.
    """
    p, k, n, cap = cfg.p, cfg.k, cfg.n, max(cfg.budget, _EXACT_BELOW)
    yield _capped_power(p, 2 * k, cap), "field tables of {} entries"
    involution = check_field_parameters(p, k, cfg.involution)
    h = _hermitian_exponent(k, involution, n)  # |H| = p^h
    if command == "jordan-check":  # A*B*A for all hermitian A and B
        yield _capped_power(p, 2 * h, cap), "{} hermitian triple products"
    point_set = _POINT_SETS.get(command, point_set)
    q, s = p**k, p ** (k // 2 if involution == FROBENIUS else k)
    if point_set == "all":
        yield (points := predicted_point_count(cfg)), "{} points"
    elif point_set == "isotropic":  # at least the |H| points with T1 = I
        points = _capped_power(p, h, cap)
        if points <= cap:
            points = math.prod(q**i * s + 1 for i in range(n))
        yield points, "{} isotropic points"
    if command != "graph":
        return
    yield points * gaussian_binomial(n, 1, q), "{} incidences"
    if fmt in ("json", "dot"):
        d = n if relation == "distant" else 1
        degree = gaussian_binomial(n, d, q) * q ** (d * (d - 1) // 2) * s**d
        if point_set == "all":  # the Grassmann graph, not the dual polar one
            degree = q ** (d * d) * gaussian_binomial(n, d, q) ** 2
        yield points * degree // 2, "{} edges in json or dot"


def ensure_within_budget(cfg, command=None, relation=None, point_set=None, fmt=None):
    """Refuse, before any table is built, the first count of command's
    work over the budget; without a command, count the field tables."""
    for count, what in _work(cfg, command, relation, point_set, fmt):
        if count > cfg.budget:
            shown = f"at least {count}" if count > _EXACT_BELOW else count
            refused = f"{what.format(shown)} exceed the budget {cfg.budget}"
            raise BudgetExceededError(refused + "; raise --budget to allow them")


def enumerate_grassmannian(cfg: GeometryConfig) -> tuple[SubspacePoint, ...]:
    """All points of the line for this configuration, budget permitting."""
    ensure_within_budget(cfg, "enumerate")
    return enumerate_points(cfg.field(), cfg.n)


# -- exhaustive pair machinery ------------------------------------------------


def pair_point_table(field: FieldSpec, n: int) -> list[list[int]]:
    """For every parameter pair, the id of the point it parametrises.

    table[i][j] is the id of the point of the matrices with ids i and j,
    their positions in the all_matrices order.  Only built for pair
    spaces of exhaustible size.
    """
    if not _exhaustible(field, n):
        raise ValueError("pair space too large for an exhaustive table")
    count = field.q ** (n * n)
    entries = [_entries_from_id(field.q, n, n, t) for t in range(count)]
    # one int object per point, not one per pair
    ids = list(range(gaussian_binomial(2 * n, n, field.q))).__getitem__
    columns = [
        list(map(ids, column)) for column in _pair_columns(field, n, entries, entries)
    ]
    return [list(row) for row in zip(*columns)]


def _exhaustible(field: FieldSpec, n: int) -> bool:
    """Whether the q^(2n^2) parameter pairs are few enough to sweep them all."""
    return field.q ** (2 * n * n) <= _EXHAUSTIVE_PAIR_LIMIT


# -- reports ------------------------------------------------------------------


def report_to_json(report: dict) -> str:
    """Serialise a report: exactly the text of json.dumps(report, indent=2) + "\\n".

    Key order is preserved, so the text is stable.  json.dumps runs its
    C encoder only without indent, so lists of plain ints and lists of
    equal-length int lists, the large arrays of a report, are written
    by str.join and one %-template each, with no Python step per
    element.  Everything else, every key and scalar included, is
    json.dumps's own text.
    """
    return "".join(_json_chunks(report, "\n")) + "\n"


def _json_chunks(value, pad: str):
    """Yield the text of json.dumps(value, indent=2), pad after each newline.

    pad is a newline and the indentation of value's own line.  Only
    exact ints take the join path, so bools still read true and false.
    The fallback, which also takes dicts with non-str keys, re-indents
    json.dumps's text: JSON strings never hold a raw newline.
    """
    inner = pad + "  "
    if type(value) is dict and value and set(map(type, value)) == {str}:
        opening = "{"
        for key, member in value.items():
            yield opening + inner + json.dumps(key) + ": "
            yield from _json_chunks(member, inner)
            opening = ","
        yield pad + "}"
        return
    entries = ()
    if type(value) is list and value:
        kinds = set(map(type, value))
        if kinds == {int}:
            entries, item = tuple(value), "%d"
        elif kinds == {list} and len(widths := set(map(len, value))) == 1:
            entries, cell = tuple(itertools.chain.from_iterable(value)), inner + "  "
            item = "[" + cell + ("," + cell).join(["%d"] * widths.pop()) + inner + "]"
    if entries and set(map(type, entries)) == {int}:
        items = ("," + inner).join([item] * len(value)) % entries
        yield from ("[" + inner, items, pad + "]")
    else:
        yield json.dumps(value, indent=2).replace("\n", pad)


def verify_theorem1(cfg: GeometryConfig) -> dict:
    """Compare the hermitian-pair image with the maximal isotropic set.

    Both sides are sets of point ids, positions in the enumerate_points
    order, computed independently: the left by sweeping all hermitian
    parameter pairs through the parametrisation, the right by running
    the form's isotropy test over the whole point enumeration.  Points
    are built only for the witnesses of a failure.
    """
    ensure_within_budget(cfg, "verify-theorem1")
    field = cfg.field()
    n = cfg.n
    grassmannian, isotropic = isotropic_ids(field, n)
    isotropic = set(isotropic)
    herm = hermitian_matrices(field, n)
    image = sweep_ids(field, n, herm, herm)

    def witnesses(kind: str, ids) -> list[dict]:
        points = sorted(
            (point_from_id(field, n, i) for i in ids), key=SubspacePoint.sort_key
        )
        return _witnesses({"kind": kind, "basis": p.to_json()} for p in points)

    found = witnesses("isotropic_without_parameters", isotropic - image)
    found += witnesses("parametrised_but_not_isotropic", image - isotropic)
    report = cfg.report_header("theorem1")
    report["counts"] = {
        "grassmannian": grassmannian,
        "isotropic": len(isotropic),
        "hermitian": len(herm),
        "hermitian_pairs": len(herm) ** 2,
        "bartolone_image": len(image),
    }
    report["equal"] = not found
    report["witnesses"] = found
    return report


# -- graphs -------------------------------------------------------------------


def _relation_neighbours(field: FieldSpec, n: int, ids, kind: str) -> list[int]:
    """For the point ids, in increasing order, the masks of the related points.

    Bit j of the mask at position i is set when the points ids[i] and
    ids[j] are related.  Two n-spaces meet in dimension >= d exactly
    when they contain a common d-space, so the points meeting P that
    much are those through any d-space D of P: each D keeps the list of
    the positions of its points, and its mask is ORed into each of
    them.  Distant points are the rest of the set for d = 1; adjacent
    ones are those of d = n - 1 less P itself.  The d-spaces of P, with
    RREF basis B, are spanned by C * B over the RREF bases C of the
    d-spaces of K^n, and C * B is already the RREF basis of its span.
    Row r of C is zero before its pivot c_r and 1 there; rows i >= c_r
    of B are zero before their pivots p_i >= p_(c_r), and column p_i of
    B is the unit column e_i.  So row r of C * B leads with 1 at
    p_(c_r), and column p_(c_r) of C * B is column c_r of C, a unit
    column.  The entries of C * B thus name D, with no elimination.
    """
    q, distant = field.q, kind == "distant"
    dim = 1 if distant else n - 1
    bases = [_rref_rows(q, n, dim, c) for c in range(gaussian_binomial(n, dim, q))]
    members = collections.defaultdict(list)
    for j, i in enumerate(ids):
        b = _rref_rows(q, 2 * n, n, i)
        for c in bases:
            members[tuple(map(tuple, _product(field, c, b, 2 * n)))].append(j)
    masks = [0] * len(ids)
    for js in members.values():
        mask = sum(map((1).__lshift__, js))
        for j in js:
            masks[j] |= mask
    everyone = (1 << len(ids)) - 1
    return [mask ^ (everyone if distant else 1 << j) for j, mask in enumerate(masks)]


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> bytes:
    """Byte t is bit t of mask, 0 or 1, up to its highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_BIT_VALUES)


def _members(mask: int, ids):
    """ids[t] for each set bit t of mask, lowest first, with no Python step per bit."""
    return itertools.compress(ids, _bits(mask))


def _edge_pairs(neighbours: list[int]):
    """Yield the pairs (i, j), i < j, of related ids in lexicographic order."""
    ids = list(range(len(neighbours)))
    for i, mask in enumerate(neighbours):
        yield from zip(itertools.repeat(i), _members(mask >> (i + 1), ids[i + 1 :]))


def _bfs_levels(adj: list[int], start: int):
    """Yield the BFS levels around start as bitmasks, nearest first."""
    everyone = (1 << len(adj)) - 1
    seen = level = 1 << start
    while level:
        yield level
        if seen == everyone:
            return
        reached = 0
        for u in _members(level, range(len(adj))):
            reached |= adj[u]
        level = reached & ~seen
        seen |= level


class RelationGraph:
    """A relation graph on the point ids 0..N-1, held as neighbour bitmasks.

    Bit j of neighbours[i] is set when points i and j are related.
    """

    def __init__(self, kind: str, point_set: str, neighbours: list[int]):
        self.kind = kind
        self.point_set = point_set
        self.neighbours = neighbours

    def degree_sequence(self) -> list[int]:
        return [mask.bit_count() for mask in self.neighbours]

    def edges(self):
        """Yield the related pairs (i, j), i < j, in lexicographic order."""
        return _edge_pairs(self.neighbours)

    def bfs_distances(self, start: int) -> list[int | None]:
        dist: list[int | None] = [None] * len(self.neighbours)
        for d, level in enumerate(_bfs_levels(self.neighbours, start)):
            for u in _members(level, range(len(dist))):
                dist[u] = d
        return dist

    def diameter(self) -> int | None:
        """Longest shortest path; None when the graph is disconnected."""
        size = len(self.neighbours)
        if size <= 1:
            return 0
        everyone = (1 << size) - 1
        best = 0
        for start in range(size):
            reached = 0
            for d, level in enumerate(_bfs_levels(self.neighbours, start)):
                reached |= level
            if reached != everyone:
                return None
            best = max(best, d)
        return best

    def to_dot(self) -> str:
        lines = [f"graph {self.kind} {{"]
        lines.extend(f"  {i};" for i in range(len(self.neighbours)))
        lines.extend(f"  {i} -- {j};" for i, j in self.edges())
        lines.append("}")
        return "\n".join(lines) + "\n"

    def degrees_csv(self) -> str:
        lines = ["node_id,degree"]
        lines.extend(f"{i},{d}" for i, d in enumerate(self.degree_sequence()))
        return "\n".join(lines) + "\n"


def build_graph(
    cfg: GeometryConfig, kind: str = "distant", point_set: str = "all"
) -> RelationGraph:
    """The distant or adjacency graph on all points or the isotropic ones."""
    if kind not in ("distant", "adjacency"):
        raise ValueError(f"unknown relation {kind!r}")
    if point_set not in ("all", "isotropic"):
        raise ValueError(f"unknown point set {point_set!r}")
    ensure_within_budget(cfg, "graph", kind, point_set)
    field, n = cfg.field(), cfg.n
    if point_set == "all":
        ids = range(gaussian_binomial(2 * n, n, field.q))
    else:
        ids = isotropic_ids(field, n)[1]
    return RelationGraph(kind, point_set, _relation_neighbours(field, n, ids, kind))


def graph_report(cfg: GeometryConfig, graph: RelationGraph) -> dict:
    degrees = graph.degree_sequence()
    report = cfg.report_header("graph")
    report["relation"] = graph.kind
    report["point_set"] = graph.point_set
    report["counts"] = {"nodes": len(degrees), "edges": sum(degrees) // 2}
    report["degree_sequence"] = degrees
    report["diameter"] = graph.diameter()
    report["nodes"] = list(range(len(degrees)))
    report["edges"] = [[i, j] for i, j in graph.edges()]
    return report


# -- batch checks ---------------------------------------------------------------


def _witnesses(found) -> list:
    """The first _WITNESS_CAP items of found; the rest are not read."""
    return list(itertools.islice(found, _WITNESS_CAP))


def _tally(name: str, mode: str, rows, witness) -> dict:
    """A check's report from rows (a, bs, verdicts), one case per b, in order.

    Each row's verdicts are read whole, with no Python step per case,
    before the next row is asked for, so a sampled row of one is
    decided before the next pair is drawn.  Only a row with a failure is
    searched, and only the first _WITNESS_CAP failing cases (a, b) are
    made witness(a, b).  Every row is read, also after the last witness.
    The check passed when no case failed.
    """
    cases = 0

    def failures():
        nonlocal cases
        for a, bs, verdicts in rows:
            verdicts = list(verdicts)
            cases += len(verdicts)
            if not all(verdicts):
                failed = itertools.compress(bs, map(operator.not_, verdicts))
                yield from zip(itertools.repeat(a), failed)

    found = failures()
    witnesses = list(itertools.starmap(witness, _witnesses(found)))
    collections.deque(found, maxlen=0)  # read the rows after the last witness
    return {
        "name": name,
        "mode": mode,
        "cases": cases,
        "passed": not witnesses,
        "witnesses": witnesses,
    }


def check_embedding_injectivity(field: FieldSpec, n: int) -> dict:
    """The map T2 -> point is injective for T1 fixed at 0 and at I.

    T2 runs over the matrix ids, and each pair's point is read from the
    case set's table: a T2 passes when no smaller T2 reaches its point.
    Matrices are built, and the clash is looked up, only for a witness.
    """
    cases = _cases(field, n)
    t2s = range(field.q ** (n * n))
    points = _Memo(lambda t1: list(map(cases.table[t1].__getitem__, t2s)))
    to_json = lambda t: cases.matrix[t].to_json()

    def row(t1: int):
        first = dict(zip(reversed(points[t1]), reversed(t2s)))  # each point's first T2
        return t1, t2s, map(operator.eq, map(first.__getitem__, points[t1]), t2s)

    def witness(t1: int, t2: int) -> dict:
        clash = points[t1].index(points[t1][t2])
        return {"t1_0": to_json(t1), "t2": to_json(t2), "clash": to_json(clash)}

    rows = map(row, (0, _matrix_id(field.q, Matrix.identity(field, n).entries)))
    return _tally("embedding_injectivity", "exhaustive", rows, witness)


def _kernel_coordinates(field: FieldSpec, n: int, rows) -> dict:
    """The kernel of a point's RREF rows B: each column id -> its free entries.

    A column v with B*v = 0 is fixed by its entries x at B's free
    columns: at the pivot of row r it is minus the sum of B[r][f] * x_f
    over the free columns f.  So the kernel is x*M over all x in K^n,
    one product, for the n x 2n matrix M whose row k has 1 at the k-th
    free column f and -B[r][f] at the pivot of each row r.  Each kernel
    column's id maps to the matrix id of its x.
    """
    q, neg = field.q, field._neg
    pivots = [row.index(1) for row in rows]
    spread = []
    for f in (c for c in range(2 * n) if c not in pivots):
        spread.append([0] * (2 * n))
        spread[-1][f] = 1
        for row, pivot in zip(rows, pivots):
            spread[-1][pivot] = neg[row[f]]
    xs = itertools.product(range(q), repeat=n)
    columns = _product(field, xs, spread, 2 * n)
    return {_matrix_id(q, (v,)): x for x, v in enumerate(columns)}


def _below(rng: random.Random, q: int, count: int) -> list[int]:
    """count draws below q: the values of count calls of rng.randrange(q).

    randrange(q) reads k = q.bit_length() bits with getrandbits, again
    while they read q or more (CPython's _randbelow_with_getrandbits,
    3.10 to 3.13); this loop takes the same steps, so the values and the
    generator's state are randrange's, without its frames per draw.
    """
    bits, k, drawn = rng.getrandbits, q.bit_length(), []
    for _ in range(count):
        r = bits(k)
        while r >= q:
            r = bits(k)
        drawn.append(r)
    return drawn


class _PairCases:
    """The parameter pairs (T1, T2) of the batch checks on one (field, n).

    A case is a pair of matrix ids, positions in the all_matrices order,
    and table[t1][t2] is the id of its point.  Up to
    _EXHAUSTIVE_PAIR_LIMIT pairs the table is pair_point_table and a
    check runs on every pair, one row of the table at a time: T1 is
    fixed and every T2 is read through C-level maps over id lists, so no
    Python function runs per pair but to build a failing pair's witness.
    Above the limit _pair_ids fills the table in, off the entry tuples
    of the ids, as it is read, and a check runs on `samples` random
    pairs, each a row of one.  The mode is fixed when the case set is
    built.  The one case set of a run, from _cases, owns what its checks
    share, each value computed on first read: the table, each id's
    entries, Matrix and RREF rows, one memo of image ids per map, each
    point's representative pair, and in exhaustive mode each point's
    kernel coordinates, the annihilator shares and the adjacency masks.
    A check draws its pairs, and the T1s and neighbours between them,
    from random.Random(seed) started as it asks for its pairs, so a seed
    names the same cases whatever ran before; _below draws every value,
    randrange's values read through getrandbits.  A check states its
    property as a row of verdicts, once for both modes but for the
    annihilator's drawn pairs, and _tally reads all rows the same way.
    The twisted-map cases run on entry tuples and ids: other pairs of a
    point come from _preimage_ids on the point's rows, each drawn
    (point, T1) solved and checked once per case set in `solved`,
    sampled neighbours from one elimination, and a point object is
    built only for a witness.
    """

    def __init__(self, field: FieldSpec, n: int):
        self.field, self.n = field, n
        self.entries = e = _Memo(functools.partial(_entries_from_id, field.q, n, n))
        self.matrix = m = _Memo(lambda t: Matrix._of(field, e[t], n))
        self.rows = _Memo(functools.partial(_rref_rows, field.q, 2 * n, n))
        self.images = _Memo(
            lambda spec: _Memo(lambda t: _matrix_id(field.q, spec.apply(m[t]).entries))
        )
        self.pair = _Memo(lambda p: self._preimage(p, _witness_ids(field, n)))
        self.solved = _Memo(
            lambda key: _preimage_ids(field, n, self.rows[key[0]], key[0], key[1:], e)
        )
        self.exhaustive = _exhaustible(field, n)
        self.mode = "exhaustive" if self.exhaustive else "sampled"
        coordinates = functools.partial(_kernel_coordinates, field, n)
        self.kernel = _Memo(  # exhaustive: a column outside the kernel reads 0
            lambda p: collections.defaultdict(int, coordinates(self.rows[p]))
        )
        if self.exhaustive:
            self.table = pair_point_table(field, n)
        else:
            pair_id = _pair_ids(field, n)
            self.table = _Memo(lambda a: _Memo(lambda b: pair_id(e[a], e[b])))

    @functools.cached_property
    def neighbours(self) -> list[int]:
        """For each point id, the bitmask of the ids of the points adjacent to it."""
        ids = range(gaussian_binomial(2 * self.n, self.n, self.field.q))
        return _relation_neighbours(self.field, self.n, ids, "adjacency")

    @functools.cached_property
    def shares(self) -> list[list[tuple]]:
        """shares[i][d]: the annihilator share of every T2 for row i of T1 of id d.

        Exhaustive only.  Each T2's shares come from one product of all
        q^n rows, in id order, by T2, shared by every index i.
        """
        field, n = self.field, self.n
        rows = [list(itertools.product(range(field.q), repeat=n))] * n
        per_t2 = [
            _annihilator_shares(field, n, self.entries[t2], rows)
            for t2 in range(len(self.table))
        ]
        return [list(zip(*shares)) for shares in zip(*per_t2)]

    def _draw(self) -> int:
        """The id of a random matrix, its entries drawn in row-major order."""
        q = self.field.q
        return _matrix_id(q, (_below(self.rng, q, self.n * self.n),))

    def pairs(self, seed: int, samples: int):
        """A sampled check's drawn pairs; its rng starts here, from seed."""
        self.rng = random.Random(seed)
        return ((self._draw(), self._draw()) for _ in range(samples))

    def per_matrix(self, f):
        return _Memo(lambda t: f(self.matrix[t]))

    def image(self, spec: JordanMapSpec):
        """The id of the point of (T1^spec, T2^spec), from the ids of (T1, T2).

        The matrix images come from the case set's memo for the map,
        which every check of an equal map reads in either mode.
        """
        iota, table = self.images[spec], self.table
        return lambda t1, t2: table[iota[t1]][iota[t2]]

    def image_row(self, spec: JordanMapSpec):
        """image(spec) on a row: from T1 and ids t2s, the images of (T1, T2)."""
        iota, table = self.images[spec], self.table
        return lambda t1, t2s: map(
            table[iota[t1]].__getitem__, map(iota.__getitem__, t2s)
        )

    def point_image(self, spec: JordanMapSpec) -> _Memo:
        """The image of each point id: the image of its representative pair."""
        image, pair = self.image(spec), self.pair
        return _Memo(lambda p: image(*pair[p]))

    def other_image_row(self, spec: JordanMapSpec):
        """On a row, the image of another pair of each pair's point.

        The row function takes T1, ids t2s and the pairs' points.
        Exhaustive: the image of the point's representative pair.
        Sampled: of two pairs whose T1 is drawn, again until B*T1 - A is
        invertible for the point's rows (A | B), the first whose image
        differs from the pair's, else the second; the second is drawn
        only when the first agrees.  Each drawn (point, T1) is read from
        `solved`, so the maps of a run, which draw the same T1s from the
        same seed, solve and check it once.
        """
        if self.exhaustive:
            image_of = self.point_image(spec)
            return lambda t1, t2s, points: map(image_of.__getitem__, points)
        image, images, solved = self.image(spec), self.image_row(spec), self.solved

        def others(t1: int, t2s, points):
            for mine, p in zip(images(t1, t2s), points):
                for _ in range(2):
                    found = None
                    while found is None:
                        found = solved[p, self._draw()]
                    theirs = image(*found)
                    if theirs != mine:
                        break
                yield theirs

        return others

    def adjacent_points(self, spec: JordanMapSpec, seed: int, samples: int):
        """Yield rows (p, qs, kept): points qs adjacent to p, and if their images are.

        Exhaustive: for each point p, its neighbours q > p from its mask,
        each image tested against a byte table of the mask of p's image.
        Sampled: the point of each drawn pair and a random neighbour,
        whose image is its representative pair's.
        """
        image_of = self.point_image(spec)
        if self.exhaustive:
            neighbours = self.neighbours
            size = len(neighbours)
            for p, mask in enumerate(neighbours):
                qs = list(_members(mask >> (p + 1), range(p + 1, size)))
                adjacent = _bits(neighbours[image_of[p]]).ljust(size, b"\0")
                yield p, qs, map(adjacent.__getitem__, map(image_of.__getitem__, qs))
            return
        field, n, image = self.field, self.n, self.image(spec)
        for t1, t2 in self.pairs(seed, samples):
            p = self.table[t1][t2]
            q = self._neighbour(p)
            stacked = list(map(list, self.rows[image(t1, t2)] + self.rows[image_of[q]]))
            rank = len(_row_reduce(field, stacked, 2 * n, below_only=True))
            yield p, (q,), (rank == n + 1,)

    def _preimage(self, p: int, t1s) -> tuple[int, int]:
        """The ids of (T1, T2) for the first T1 in t1s that parametrises p.

        Over _witness_ids that is p's representative pair, preimage_pair's.
        A point without one raises AssertionError, under python -O too.
        """
        found = _preimage_ids(self.field, self.n, self.rows[p], p, t1s, self.entries)
        if found is None:
            raise AssertionError("a point has no parameter pair")
        return found

    def _neighbour(self, p: int) -> int:
        """The id of a random point meeting point p in dimension n - 1.

        A drawn vector outside p, tested against p's RREF rows, is also
        outside the span of the first n - 1 of them, which it joins.
        """
        field, n, rows = self.field, self.n, self.rows[p]
        pivots = [row.index(1) for row in rows]
        while True:
            vec = _below(self.rng, field.q, 2 * n)
            if _product(field, ([vec[c] for c in pivots],), rows, 2 * n)[0] != vec:
                work = [list(row) for row in rows[: n - 1]] + [vec]
                _row_reduce(field, work, 2 * n)
                return _rows_id(field.q, 2 * n, work)

    def check(self, name: str, row, seed: int, samples: int) -> dict:
        """Tally row(t1, t2s, points), the verdicts on the pairs (T1, T2).

        t2s are T2 ids and points the ids of the pairs' points.
        Exhaustive: one row per T1, over every T2; sampled: a row of one
        per drawn pair.  Failing pairs are witnesses.
        """
        if self.exhaustive:
            t2s = range(len(self.table))
            rows = (
                (t1, t2s, row(t1, t2s, points)) for t1, points in enumerate(self.table)
            )
        else:
            rows = (
                (t1, (t2,), row(t1, (t2,), (self.table[t1][t2],)))
                for t1, t2 in self.pairs(seed, samples)
            )
        return _tally(name, self.mode, rows, self._pair_witness)

    def _pair_witness(self, t1: int, t2: int) -> dict:
        return {"t1": self.matrix[t1].to_json(), "t2": self.matrix[t2].to_json()}


@functools.lru_cache(maxsize=1)
def _cases(field: FieldSpec, n: int) -> _PairCases:
    """The case set of (field, n), which every batch check of a run reads."""
    return _PairCases(field, n)


def check_rank_law(
    field: FieldSpec, n: int, seed: int = 0, samples: int = 10_000
) -> dict:
    """Arithmetical distance from the base point equals rank(T2).

    The base point is the row space of (I | 0), so a point with RREF
    rows (A | B) lies at distance dim(P + (I | 0)) - n = rank(B).
    """
    cases = _cases(field, n)
    rank, rows = cases.per_matrix(Matrix.rank), cases.rows
    distance = _Memo(
        lambda p: len(_row_reduce(field, [list(r[n:]) for r in rows[p]], n))
    )

    def row(t1, t2s, points):
        distances = map(distance.__getitem__, points)
        return map(operator.eq, distances, map(rank.__getitem__, t2s))

    return cases.check("rank_distance_law", row, seed, samples)


def check_annihilator(
    field: FieldSpec, n: int, seed: int = 0, samples: int = 1_000
) -> dict:
    """The pair's point annihilates the stacked matrix, which has rank n.

    The point's RREF basis B spans the row space of (T2*T1 - I | T2), so
    it annihilates the matrix exactly when that generator does.  Sampled,
    each drawn pair's matrix is built by annihilator, multiplied by B
    and ranked.  Exhaustive, its columns are packed in one id, the sum of
    _annihilator_shares.  Each column v is looked up in the point's
    kernel coordinates, v's entries at B's free columns, onto which the
    kernel of B projects isomorphically; with every column in the
    kernel, rank n means an invertible minor on the free rows, looked up
    by its matrix id.  A column outside the kernel reads 0, a zero row of
    the minor, so the pair fails as it should.
    """
    qn, width = field.q**n, field.q ** (2 * n)
    cases = _cases(field, n)
    invertible = cases.per_matrix(Matrix.is_invertible)
    places = [width**k for k in range(n)]  # the columns, last first

    def row(t1, t2s, points):
        if not cases.exhaustive:
            (t2,), (p,) = t2s, points
            ann = annihilator(BartolonePair(cases.matrix[t1], cases.matrix[t2])).entries
            product = _product(field, cases.rows[p], ann, n)
            return (not any(map(any, product)) and _rank(field, ann, n) == n,)
        rows = _digits(t1, qn, n)[::-1]  # the ids of T1's rows
        packed = list(map(sum, zip(*map(operator.getitem, cases.shares, rows))))
        kernels = list(map(cases.kernel.__getitem__, points))
        minor = itertools.repeat(0, len(packed))
        for place in places:
            columns = map(width.__rmod__, map(place.__rfloordiv__, packed))
            coordinates = map(operator.getitem, kernels, columns)
            minor = map(operator.add, map(qn.__mul__, minor), coordinates)
        return map(invertible.__getitem__, minor)

    return cases.check("annihilator", row, seed, samples)


def default_jordan_specs(field: FieldSpec, n: int) -> list[tuple[str, JordanMapSpec]]:
    """The twisted maps exercised by the batch checks."""
    ident = Matrix.identity(field, n)
    shear_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    shear_rows[0][1] = 1
    shear = Matrix(field, (tuple(r) for r in shear_rows), cols=n)
    specs = [
        ("transpose", JordanMapSpec(ANTIAUTOMORPHISM, 0, ident)),
        ("conjugation", JordanMapSpec(AUTOMORPHISM, 0, shear)),
    ]
    if field.k > 1:
        specs.append(
            ("frobenius_twist", JordanMapSpec(AUTOMORPHISM, field.k // 2, ident))
        )
    return specs


def check_jordan_well_defined(
    field: FieldSpec,
    n: int,
    spec: JordanMapSpec,
    label: str,
    seed: int = 0,
    samples: int = 500,
) -> dict:
    """The point map induced by the pair map is parameter independent.

    The image of each pair is compared with the images of other pairs of
    the same point: its representative pair in exhaustive mode, two
    random ones in sampled mode.
    """
    cases = _cases(field, n)
    images, others = cases.image_row(spec), cases.other_image_row(spec)

    def row(t1, t2s, points):
        return map(operator.eq, images(t1, t2s), others(t1, t2s, points))

    return cases.check(f"jordan_well_defined[{label}]", row, seed, samples)


def check_jordan_adjacency(
    field: FieldSpec,
    n: int,
    spec: JordanMapSpec,
    label: str,
    seed: int = 0,
    samples: int = 500,
) -> dict:
    """Adjacent points stay adjacent under the induced point map.

    Exhaustive mode runs over every adjacent pair of points, sampled
    mode over random points with a random neighbour each.
    """
    cases = _cases(field, n)
    point = functools.partial(point_from_id, field, n)
    return _tally(
        f"jordan_adjacency[{label}]",
        cases.mode,
        cases.adjacent_points(spec, seed, samples),
        lambda p, q: {"p": point(p).to_json(), "q": point(q).to_json()},
    )


def check_hermitian_star(field: FieldSpec, n: int) -> dict:
    """Hermitian rank-one stars stay within distance one of the base point."""
    base = base_point(field, n)
    vectors = [unit_vector(n, i) for i in range(n)] + [(1,) * n]
    stars = ((c0, list(hermitian_adjacent_star(field, n, c0))) for c0 in vectors)
    rows = (
        (c0, points, [arithmetical_distance(base, p) <= 1 for p in points])
        for c0, points in stars
    )
    return _tally(
        "hermitian_star",
        "exhaustive",
        rows,
        lambda c0, point: {"c0": list(c0), "point": point.to_json()},
    )


def jordan_system_axioms_check(field: FieldSpec, n: int) -> dict:
    """Exhaustively check the Jordan closure laws of the hermitian set.

    Verifies that the inverse of every invertible hermitian matrix is
    hermitian and that A*B*A is hermitian for all hermitian A, B.
    Returns counts and (capped) witness lists; the CLI puts the report
    header in front.
    """
    herm = hermitian_matrices(field, n)
    invertible = [m for m in herm if m.is_invertible()]
    inverse_witnesses = _witnesses(
        m.to_json() for m in invertible if not m.inverse().is_hermitian()
    )
    triple_witnesses = _witnesses(
        {"a": a.to_json(), "b": b.to_json()}
        for a in herm
        for b in herm
        if not (a * b * a).is_hermitian()
    )
    return {
        "hermitian_count": len(herm),
        "invertible_hermitian_count": len(invertible),
        "inverse_closure_ok": not inverse_witnesses,
        "triple_product_closure_ok": not triple_witnesses,
        "witnesses": {
            "inverse": inverse_witnesses,
            "triple_product": triple_witnesses,
        },
        "passed": not inverse_witnesses and not triple_witnesses,
    }


def verify_remarks(cfg: GeometryConfig, seed: int = 0) -> dict:
    """Run the embedding, distance, annihilator, twisted-map and star checks."""
    ensure_within_budget(cfg, "verify-remarks")
    field = cfg.field()
    n = cfg.n
    checks = [
        check_embedding_injectivity(field, n),
        check_rank_law(field, n, seed=seed),
        check_annihilator(field, n, seed=seed),
    ]
    for label, spec in default_jordan_specs(field, n):
        checks.append(check_jordan_well_defined(field, n, spec, label, seed=seed))
        checks.append(check_jordan_adjacency(field, n, spec, label, seed=seed))
    checks.append(check_hermitian_star(field, n))
    report = cfg.report_header("remarks")
    report["seed"] = seed
    report["checks"] = checks
    report["passed"] = all(c["passed"] for c in checks)
    return report
