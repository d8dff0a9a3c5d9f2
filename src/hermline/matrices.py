"""Exact dense matrices and canonical subspaces over a small Galois field.

Matrices are immutable, hashable and carry their field.  Subspaces of
K^d are stored by their reduced row echelon basis, which is a canonical
form: two subspaces are equal exactly when their stored bases are equal.
A subspace's integer id is its position in ``enumerate_subspaces``,
read off its basis rows by ``_rows_id`` and inverted by
``subspace_from_id`` (``_rref_rows`` on entry tuples).
Zero-row and zero-column matrices are permitted throughout; the zero
subspace of K^d, for one, has a 0 x d basis.

Validation happens once, at the boundary: the public constructor,
``from_json``, ``scale`` and ``Subspace.from_rows`` check shapes and
entries.  Internal paths trust their inputs: arithmetic, reshaping,
elimination and the enumerations build their results with
``Matrix._of``, which skips the checks.
Hashes are computed on first use.

Arithmetic has one path.  ``_product`` is the only matrix-product loop
and ``_row_reduce`` the only elimination; both take entry rows, so the
kernels of the other modules call them with no Matrix in between.  So
are the row forms behind the methods: ``_rank``, ``_basis_rows``,
``_meet_rows``, ``_nullspace_rows`` and ``_zip_rows`` compute
``Matrix.rank``, the canonical basis of ``Subspace``,
``Subspace.intersect``, ``nullspace`` and ``Matrix._zip``.  Entrywise
arithmetic is ``Matrix._map`` (x -> table[x]) and ``_zip_rows``
(x, y -> table[x][y]) over a field table.  ``src/`` has no other
product loop, but for the GF(2) kernels of ``projline``, which XOR rows
packed into ints.
Eliminations stop at echelon form where that suffices:
``_rank`` reduces below the pivots only, and ``Subspace.intersect``
reads the intersection off an echelon form of the Zassenhaus block.
"""

from __future__ import annotations

import functools
import itertools
from operator import getitem

from .fields import FieldSpec

# Zero and identity matrices, built once per (field, shape) through the
# validating constructor.  Matrices are immutable, so callers share them.
_ZEROS: dict = {}
_IDENTITIES: dict = {}


class Matrix:
    """An immutable r x c matrix over a :class:`FieldSpec`.

    Entries are the field's packed-int elements.  Arithmetic uses the
    field's tables; ``*`` is the matrix product.
    """

    __slots__ = ("field", "rows", "cols", "entries", "_hash")

    def __init__(self, field: FieldSpec, entries, *, cols: int | None = None):
        ents = tuple(tuple(row) for row in entries)
        if ents:
            width = len(ents[0])
            if any(len(row) != width for row in ents):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"rows have {width} entries but cols is {cols}")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        elif cols < 0:
            raise ValueError(f"column count {cols} is negative")
        for x in itertools.chain.from_iterable(ents):
            field.check_element(x)
        self.field = field
        self.rows = len(ents)
        self.cols = cols
        self.entries = ents
        self._hash = None

    @classmethod
    def _of(cls, field: FieldSpec, entries: tuple, cols: int) -> "Matrix":
        """Trusting constructor: entries is a tuple of cols-long tuples of elements."""
        self = object.__new__(cls)
        self.field = field
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries
        self._hash = None
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        key = (field, rows, cols)
        m = _ZEROS.get(key)
        if m is None:
            m = _ZEROS[key] = cls(field, ((0,) * cols,) * rows, cols=cols)
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        key = (field, n)
        m = _IDENTITIES.get(key)
        if m is None:
            m = _IDENTITIES[key] = cls(
                field,
                tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                cols=n,
            )
        return m

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.entries == other.entries
            and self.cols == other.cols
            and self.field == other.field
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.field, self.rows, self.cols, self.entries))
        return h

    def __repr__(self) -> str:
        body = ", ".join(str(list(row)) for row in self.entries)
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}, [{body}])"

    # -- arithmetic --------------------------------------------------------

    def _same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def _map(self, table) -> "Matrix":
        """The matrix of table[x] over the entries x: the unary entry helper."""
        get = table.__getitem__
        entries = tuple([tuple(map(get, row)) for row in self.entries])
        return Matrix._of(self.field, entries, self.cols)

    def _zip(self, other, table):
        """The matrix of table[x][y] over paired entries: the binary entry helper."""
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        entries = tuple(_zip_rows(table, self.entries, other.entries))
        return Matrix._of(self.field, entries, self.cols)

    def __add__(self, other):
        return self._zip(other, self.field._add)

    def __sub__(self, other):
        return self._zip(other, self.field._sub)

    def __neg__(self):
        return self._map(self.field._neg)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        rows = _product(self.field, self.entries, other.entries, other.cols)
        return Matrix._of(self.field, tuple(map(tuple, rows)), other.cols)

    def scale(self, c: int) -> "Matrix":
        return self._map(self.field._mul[self.field.check_element(c)])

    # -- shape manipulation ------------------------------------------------

    def transpose(self) -> "Matrix":
        # zip(*rows) yields no columns at all when there are no rows.
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._of(self.field, entries, self.rows)

    def sigma_transpose(self) -> "Matrix":
        """Transpose with the field involution applied entrywise."""
        return self._map(self.field._sigma).transpose()

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.rows != other.rows:
            raise ValueError("hstack needs matching fields and row counts")
        return Matrix._of(
            self.field,
            tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)),
            self.cols + other.cols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.cols != other.cols:
            raise ValueError("vstack needs matching fields and column counts")
        return Matrix._of(self.field, self.entries + other.entries, self.cols)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """The submatrix with rows r0..r1-1 and columns c0..c1-1."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError("block out of range")
        return Matrix._of(
            self.field,
            tuple(row[c0:c1] for row in self.entries[r0:r1]),
            c1 - c0,
        )

    # -- Gauss-Jordan ------------------------------------------------------

    def rank(self) -> int:
        return _rank(self.field, self.entries, self.cols)

    def inverse(self) -> "Matrix":
        """Inverse via Gauss-Jordan on the identity-augmented matrix.

        Raises ValueError when the matrix is not square or not
        invertible, which doubles as the GL membership test.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("only square matrices can be inverted")
        if n == 0:
            return self
        work = [
            list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(self.entries)
        ]
        pivots = _row_reduce(self.field, work, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is not invertible")
        return Matrix._of(self.field, tuple(tuple(r[n:]) for r in work), n)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    # -- predicates ---------------------------------------------------------

    def is_hermitian(self) -> bool:
        """Whether the matrix equals its involution transpose."""
        if self.rows != self.cols:
            raise ValueError("hermitian only makes sense for square matrices")
        return self.sigma_transpose() == self

    # -- serialisation --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                [self.field.element_to_string(x) for x in row] for row in self.entries
            ],
        }

    @classmethod
    def from_json(cls, field: FieldSpec, data) -> "Matrix":
        if not isinstance(data, dict):
            raise ValueError("matrix JSON must be an object")
        rows, cols, entries = data.get("rows"), data.get("cols"), data.get("entries")
        # JSON integers only: bool is an int subclass, and floats truncate.
        if type(rows) is not int or type(cols) is not int or type(entries) is not list:
            raise ValueError(
                "matrix JSON needs integer 'rows', 'cols' and an 'entries' array"
            )
        if len(entries) != rows:
            raise ValueError("entry row count does not match 'rows'")
        parsed = []
        for row in entries:
            if not isinstance(row, list) or len(row) != cols:
                raise ValueError("entry column count does not match 'cols'")
            parsed.append(tuple(field.parse_element(str(x)) for x in row))
        return cls(field, parsed, cols=cols)


def _zip_rows(table, a, b) -> list[tuple]:
    """The rows of table[x][y] over the paired entries of the rows a and b."""
    get = table.__getitem__
    return [tuple(map(getitem, map(get, r1), r2)) for r1, r2 in zip(a, b)]


def _product(field: FieldSpec, a, b, cols: int) -> list[list[int]]:
    """The rows, as lists, of the product of the entry rows a and b.

    b has cols columns.  This is the one matrix-product loop: zero
    entries of a are skipped, and entries of b are looked up untested,
    since a zero there adds zero.
    """
    add = field._add
    mul = field._mul
    span = range(cols)
    out = []
    for row in a:
        new = [0] * cols
        for x, b_row in zip(row, b):
            if x:
                mx = mul[x]
                for j in span:
                    new[j] = add[new[j]][mx[b_row[j]]]
        out.append(new)
    return out


def _row_reduce(
    field: FieldSpec, work: list[list[int]], cols: int, below_only: bool = False
) -> list[int]:
    """In-place Gauss-Jordan elimination; returns the pivot column list.

    The result is the reduced row echelon form.  With below_only, rows
    above each pivot are left alone, which leaves a row echelon form
    with the same pivots at less cost; rank needs only that.
    """
    add = field._add
    mul = field._mul
    neg = field._neg
    inv = field._inv
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(cols):
        if r == nrows:
            break
        for src in range(r, nrows):
            if work[src][c]:
                break
        else:
            continue
        work[r], work[src] = work[src], work[r]
        row = work[r]
        if row[c] != 1:
            ms = mul[inv[row[c]]]
            work[r] = row = [ms[x] for x in row]
        for i in range(r + 1 if below_only else 0, nrows):
            cur = work[i]
            if i != r and cur[c]:
                mf = mul[neg[cur[c]]]
                work[i] = [add[x][mf[y]] for x, y in zip(cur, row)]
        pivots.append(c)
        r += 1
    return pivots


def _rank(field: FieldSpec, rows, cols: int) -> int:
    """The rank of the entry rows, from an echelon form of a copy."""
    return len(_row_reduce(field, [list(row) for row in rows], cols, below_only=True))


def _basis_rows(field: FieldSpec, rows, cols: int) -> tuple:
    """The RREF basis, as tuples, of the row space of the entry rows."""
    work = [list(row) for row in rows]
    rank = len(_row_reduce(field, work, cols))
    return tuple(map(tuple, work[:rank]))


def _meet_rows(field: FieldSpec, cols: int, a, b) -> tuple:
    """The RREF basis of the intersection of the row spaces of a and b.

    The Zassenhaus block trick: row reduce [A | A; B | 0] to echelon
    form; the right halves of the rows whose left half vanished span
    the intersection.
    """
    work = [list(row) + list(row) for row in a]
    work += [list(row) + [0] * cols for row in b]
    _row_reduce(field, work, 2 * cols, below_only=True)
    meet = [r[cols:] for r in work if not any(r[:cols]) and any(r[cols:])]
    return _basis_rows(field, meet, cols)


class Subspace:
    """A subspace of K^d, stored by its canonical RREF basis."""

    __slots__ = ("basis", "ambient_dim")

    def __init__(self, matrix: Matrix):
        rows = _basis_rows(matrix.field, matrix.entries, matrix.cols)
        self.basis = Matrix._of(matrix.field, rows, matrix.cols)
        self.ambient_dim = matrix.cols

    @classmethod
    def _from_canonical(cls, matrix: Matrix) -> "Subspace":
        """Trusting constructor for a basis already in RREF with no zero rows."""
        self = object.__new__(cls)
        self.basis = matrix
        self.ambient_dim = matrix.cols
        return self

    @classmethod
    def from_rows(cls, field: FieldSpec, ambient_dim: int, rows) -> "Subspace":
        return cls(Matrix(field, rows, cols=ambient_dim))

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of K^{self.ambient_dim})"

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different spaces")

    def __add__(self, other):
        """Subspace sum, computed by stacking the bases."""
        if not isinstance(other, Subspace):
            return NotImplemented
        self._check_compatible(other)
        return Subspace(self.basis.vstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the Zassenhaus block trick (see _meet_rows)."""
        self._check_compatible(other)
        d = self.ambient_dim
        rows = _meet_rows(self.field, d, self.basis.entries, other.basis.entries)
        return Subspace._from_canonical(Matrix._of(self.field, rows, d))


def unit_vector(length: int, index: int) -> tuple[int, ...]:
    return tuple(int(i == index) for i in range(length))


def nullspace(m: Matrix) -> Subspace:
    """The right kernel {x : m x^T = 0} as a subspace of K^cols."""
    rows = _nullspace_rows(m.field, m.entries, m.cols)
    return Subspace._from_canonical(Matrix._of(m.field, rows, m.cols))


def _nullspace_rows(field: FieldSpec, rows, cols: int) -> tuple:
    """The RREF basis of the right kernel {x : rows x^T = 0} of K^cols."""
    work = [list(row) for row in rows]
    pivots = _row_reduce(field, work, cols)
    neg = field._neg
    kernel = []
    for f in range(cols):
        if f in pivots:
            continue
        vec = [0] * cols
        vec[f] = 1
        for row, pc in zip(work, pivots):
            vec[pc] = neg[row[f]]
        kernel.append(vec)
    return _basis_rows(field, kernel, cols)


def all_matrices(field: FieldSpec, rows: int, cols: int):
    """All rows x cols matrices, in lexicographic row-major entry order."""
    for index in range(field.q ** (rows * cols)):
        yield _matrix_from_id(field, rows, cols, index)


def _matrix_id(q: int, entries) -> int:
    """The position of the matrix with these entries in the all_matrices order."""
    value = 0
    for row in entries:
        for x in row:
            value = value * q + x
    return value


def _entries_from_id(q: int, rows: int, cols: int, index: int) -> tuple:
    """The entry rows of the matrix at position index of the all_matrices order."""
    entries = [[0] * cols for _ in range(rows)]
    for row in reversed(entries):
        for c in reversed(range(cols)):
            index, row[c] = divmod(index, q)
    return tuple(map(tuple, entries))


def _matrix_from_id(field: FieldSpec, rows: int, cols: int, index: int) -> Matrix:
    """The matrix at position index of the all_matrices order; inverts _matrix_id."""
    return Matrix._of(field, _entries_from_id(field.q, rows, cols, index), cols)


def all_vectors(field: FieldSpec, length: int):
    """All length-tuples over the field, in lexicographic order."""
    return itertools.product(field.elements(), repeat=length)


def outer_product(field: FieldSpec, u, v) -> Matrix:
    """The matrix (u_i * v_j) for two coefficient tuples."""
    v = tuple(v)
    column = Matrix._of(field, tuple((x,) for x in u), 1)
    return column * Matrix._of(field, (v,), len(v))


@functools.lru_cache(maxsize=None)
def _rref_layouts(q: int, ambient_dim: int, dim: int) -> dict:
    """The RREF templates of the dim-spaces of K^ambient_dim, in id order.

    Maps each pivot pattern, in lexicographic order, to (offset, free):
    free[r] lists the columns after pivots[r] that hold no pivot, which
    are row r's free entries, and offset is the id of the first subspace
    with this pattern.
    """
    layouts = {}
    offset = 0
    for pivots in itertools.combinations(range(ambient_dim), dim):
        free = tuple(
            tuple(c for c in range(p + 1, ambient_dim) if c not in pivots)
            for p in pivots
        )
        layouts[pivots] = (offset, free)
        offset += q ** sum(map(len, free))
    return layouts


def _rref_id(q: int, layouts: dict, pivots, rows) -> int:
    """The id of the subspace whose RREF basis is rows, with these pivots.

    layouts is _rref_layouts for the shape; the id is the pattern's
    offset plus the free entries, row by row, read as a base-q numeral.
    """
    offset, free = layouts[tuple(pivots)]
    value = 0
    for row, cols in zip(rows, free):
        for c in cols:
            value = value * q + row[c]
    return offset + value


def _rows_id(q: int, ambient_dim: int, rows) -> int:
    """The id of the subspace with these RREF basis rows; inverts _rref_rows."""
    layouts = _rref_layouts(q, ambient_dim, len(rows))
    return _rref_id(q, layouts, [row.index(1) for row in rows], rows)


def _rref_rows(q: int, ambient_dim: int, dim: int, index: int) -> tuple:
    """The RREF basis rows, as tuples, of the subspace with this id."""
    for pivots, (offset, free) in _rref_layouts(q, ambient_dim, dim).items():
        if 0 <= index - offset < q ** sum(map(len, free)):
            break
    else:
        raise ValueError(f"subspace id {index} is out of range")
    rows = [[0] * ambient_dim for _ in pivots]
    value = index - offset
    for row, pivot, cols in reversed(tuple(zip(rows, pivots, free))):
        row[pivot] = 1
        for c in reversed(cols):
            value, row[c] = divmod(value, q)
    return tuple(map(tuple, rows))


def subspace_from_id(
    field: FieldSpec, ambient_dim: int, dim: int, index: int
) -> Subspace:
    """The subspace at position index of the enumerate_subspaces order."""
    rows = _rref_rows(field.q, ambient_dim, dim, index)
    return Subspace._from_canonical(Matrix._of(field, rows, ambient_dim))


def enumerate_subspaces(field: FieldSpec, ambient_dim: int, dim: int):
    """All dim-dimensional subspaces of K^ambient_dim.

    The order is deterministic: pivot column patterns in lexicographic
    order, then the free entries of the RREF basis in lexicographic
    row-major order.  A subspace's position in this order is its id;
    subspace_from_id inverts it.
    """
    if dim < 0 or dim > ambient_dim:
        return
    for pivots, (_, free) in _rref_layouts(field.q, ambient_dim, dim).items():
        slots = [(r, c) for r, cols in enumerate(free) for c in cols]
        template = [[0] * ambient_dim for _ in range(dim)]
        for r, c in zip(range(dim), pivots):
            template[r][c] = 1
        for values in itertools.product(field.elements(), repeat=len(slots)):
            for (r, c), v in zip(slots, values):
                template[r][c] = v
            yield Subspace._from_canonical(
                Matrix._of(field, tuple(tuple(row) for row in template), ambient_dim)
            )
