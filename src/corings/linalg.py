"""Dense exact linear algebra with deterministic basis choices.

Conventions fixed here and relied on everywhere downstream:

* rref scans columns left to right and normalizes pivots to 1, so every
  "chosen basis" (kernels, quotient bases, solved functional spaces) is
  deterministic.
* Kernel bases use the free-column convention: the basis vector for free
  column c has a 1 at c and zeros at every other free column.  Hence the
  coordinates of a kernel element in that basis can be read off the free
  columns directly.
* Tensor (Kronecker) bases are ordered e_i (x) e_j with i major, j minor.
* Quotient spaces choose the classes of non-pivot ambient coordinates, in
  ascending index order, as their basis; the section sends a class to its
  representative coordinate vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

from corings.scalars import DimensionMismatch, Field, FieldMismatch


def _nonzeros(seq, start: int = 0) -> list:
    """The (index, value) pairs of the nonzero entries of seq from start on."""
    return [(j, seq[j]) for j in compress(range(start, len(seq)), seq[start:])]


def _row_entries(m: "Mat") -> list:
    """The nonzero (column, value) pairs of each row of m, from one scan."""
    rows = [[] for _ in range(m.rows)]
    for k, x in _nonzeros(m.data):
        i, j = divmod(k, m.cols)
        rows[i].append((j, x))
    return rows


@dataclass(frozen=True)
class Mat:
    """Immutable dense matrix over an exact field, row-major entries."""

    field: Field
    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if len(self.data) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(self.data)}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Mat":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        data = tuple(field.of(x) for r in rows for x in r)
        return cls(field, nrows, ncols, data)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        one, zero = field.one, field.zero
        data = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(field, n, n, data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, rows, cols, (field.zero,) * (rows * cols))

    @classmethod
    def from_cols(cls, field: Field, cols) -> "Mat":
        return cls._from_cols(field, [[field.of(x) for x in c] for c in cols])

    @classmethod
    def _from_cols(cls, field: Field, cols, rows: int | None = None) -> "Mat":
        """from_cols for entries that are already field elements: no
        coercion through `Field.of`.  Without `rows`, the row count is the
        length of the first column, and 0 when there are no columns."""
        cols = list(cols)
        if rows is None:
            rows = len(cols[0]) if cols else 0
        return cls(field, rows, len(cols), tuple(chain.from_iterable(zip(*cols))))

    @classmethod
    def col_vector(cls, field: Field, v) -> "Mat":
        v = list(v)
        return cls(field, len(v), 1, tuple(field.of(x) for x in v))

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.data[j::self.cols]

    def row_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra -----------------------------------------------------------

    def _check_field(self, other: "Mat"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return Mat(self.field, self.rows, self.cols,
                   tuple(map(self.field.reduce, map(operator.add, self.data, other.data))))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        return Mat(self.field, self.rows, self.cols,
                   tuple(map(self.field.reduce, map(operator.sub, self.data, other.data))))

    def scale(self, c) -> "Mat":
        c = self.field.of(c)
        return Mat(self.field, self.rows, self.cols,
                   tuple(map(self.field.reduce, [c * a for a in self.data])))

    # The products below accumulate with plain `+` and `*` and bring each
    # output entry to canonical form once, through `Field.reduce`.

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        sdata, odata, red = self.data, other.data, self.field.reduce
        orows = [None] * k  # nonzero entries of the rows of other, as needed
        out = [0] * (n * m)
        for i in range(n):
            acc = {}
            for t, a in _nonzeros(sdata[i * k:(i + 1) * k]):
                orow = orows[t]
                if orow is None:
                    orow = orows[t] = _nonzeros(odata[t * m:(t + 1) * m])
                for j, b in orow:
                    acc[j] = acc.get(j, 0) + a * b
            for j, x in acc.items():
                out[i * m + j] = red(x)
        return Mat(self.field, n, m, tuple(out))

    def apply(self, vec) -> tuple:
        """Matrix times column vector, given and returned as a tuple."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        data, cols = self.data, self.cols
        entries = _nonzeros(vec)
        out = []
        for i in range(self.rows):
            base, s = i * cols, 0
            for j, v in entries:
                a = data[base + j]
                if a:
                    s += a * v
            out.append(s)
        return tuple(map(self.field.reduce, out))

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   tuple(chain.from_iterable(self.data[j::self.cols] for j in range(self.cols))))

    def is_zero(self) -> bool:
        return not any(self.data)

    @cached_property
    def _row_solver(self) -> "_RowSolver":
        """The factorization `coords_in_rowspace` solves against, built on
        first use; as a cached property it stays out of eq, hash and repr."""
        return _RowSolver(self)

    def __repr__(self):
        fmt = self.field.format
        rows = ["[" + ", ".join(fmt(self.at(i, j)) for j in range(self.cols)) + "]"
                for i in range(self.rows)]
        return "Mat[" + "; ".join(rows) + "]"


# -- stacking ---------------------------------------------------------------

def hstack(mats) -> Mat:
    mats = list(mats)
    F = mats[0].field
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise DimensionMismatch("hstack row mismatch")
        if m.field != F:
            raise FieldMismatch("hstack field mismatch")
    data = []
    for i in range(rows):
        for m in mats:
            data.extend(m.row(i))
    return Mat(F, rows, sum(m.cols for m in mats), tuple(data))


def vstack(mats) -> Mat:
    mats = list(mats)
    F = mats[0].field
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise DimensionMismatch("vstack column mismatch")
        if m.field != F:
            raise FieldMismatch("vstack field mismatch")
    data = []
    for m in mats:
        data.extend(m.data)
    return Mat(F, sum(m.rows for m in mats), cols, tuple(data))


def block_matrix(field: Field, row_dims, col_dims, blocks) -> Mat:
    """The matrix cut into row blocks of sizes row_dims and column blocks of
    sizes col_dims (each block after the ones before it), holding
    blocks[(i, j)] in block (i, j) and zeros everywhere else."""
    row_offsets = [sum(row_dims[:i]) for i in range(len(row_dims))]
    col_offsets = [sum(col_dims[:j]) for j in range(len(col_dims))]
    width = sum(col_dims)
    data = [field.zero] * (sum(row_dims) * width)
    for (i, j), m in blocks.items():
        if (m.rows, m.cols) != (row_dims[i], col_dims[j]):
            raise DimensionMismatch(f"block ({i}, {j}) is {m.rows}x{m.cols}, "
                                    f"expected {row_dims[i]}x{col_dims[j]}")
        if m.field != field:
            raise FieldMismatch(f"block ({i}, {j}) over {m.field}, expected {field}")
        for r in range(m.rows):
            start = (row_offsets[i] + r) * width + col_offsets[j]
            data[start:start + m.cols] = m.data[r * m.cols:(r + 1) * m.cols]
    return Mat(field, sum(row_dims), width, tuple(data))


def block_diagonal(blocks) -> Mat:
    """The block matrix with the given blocks down the diagonal, in order."""
    return block_matrix(blocks[0].field, [b.rows for b in blocks], [b.cols for b in blocks],
                        {(k, k): b for k, b in enumerate(blocks)})


def combine(field: Field, rows: int, cols: int, mats, coeffs) -> Mat:
    """The rows x cols matrix sum(c * m) over the pairs of mats and coeffs;
    only the entries some term touches are brought to canonical form."""
    mats, coeffs = list(mats), list(coeffs)
    if len(mats) != len(coeffs):
        raise DimensionMismatch(f"{len(mats)} matrices vs {len(coeffs)} coefficients")
    acc = {}
    for m, c in zip(mats, coeffs):
        if not c:
            continue
        if (m.rows, m.cols) != (rows, cols):
            raise DimensionMismatch(f"{m.rows}x{m.cols} term in a {rows}x{cols} sum")
        if m.field != field:
            raise FieldMismatch(f"term over {m.field} in a sum over {field}")
        c = field.of(c)
        for k, x in _nonzeros(m.data):
            acc[k] = acc.get(k, 0) + c * x
    red = field.reduce
    out = [0] * (rows * cols)
    for k, x in acc.items():
        out[k] = red(x)
    return Mat(field, rows, cols, tuple(out))


# -- gaussian elimination ----------------------------------------------------

def _rref_rows(field: Field, rows: list) -> tuple[list, list]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    red = field.reduce
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = None
        for i in range(r, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        inv = field.inv(prow[c])
        if inv != 1:
            prow = rows[r] = [red(inv * x) if x else x for x in prow]
        pentries = _nonzeros(prow, c)
        for i in range(nrows):
            tgt = rows[i]
            f = tgt[c]
            if not f or i == r:
                continue
            for j, pv in pentries:
                tgt[j] = red(tgt[j] - f * pv)
        pivots.append(c)
        r += 1
    return rows, pivots


def rref_pivots(m: Mat) -> tuple[Mat, tuple]:
    rows, pivots = _rref_rows(m.field, m.row_lists())
    data = tuple(chain.from_iterable(rows))
    return Mat(m.field, m.rows, m.cols, data), tuple(pivots)


def rref(m: Mat) -> Mat:
    """Reduced row echelon form (pivots are leading 1s, pivot columns cleared)."""
    return rref_pivots(m)[0]


def rank(m: Mat) -> int:
    return len(rref_pivots(m)[1])


def row_space(m: Mat) -> Mat:
    """Canonical basis of the row space: rref with zero rows dropped.

    Two matrices span the same row space iff their row_space outputs are
    equal, so this doubles as the subspace-equality test.
    """
    r, pivots = rref_pivots(m)
    k = len(pivots)
    return Mat(m.field, k, m.cols, r.data[: k * m.cols])


def kernel(m: Mat) -> Mat:
    """Basis of the right null space, one row per basis vector.

    Row count is cols - rank.  The basis vector for free column c carries
    a 1 at position c and zeros at all other free columns.
    """
    r, pivots = rref_pivots(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    F = m.field
    rows = []
    for c in free:
        v = [F.zero] * m.cols
        v[c] = F.one
        for i, pc in enumerate(pivots):
            x = r.at(i, c)
            if x:
                v[pc] = F.neg(x)
        rows.append(v)
    if not rows:
        return Mat(F, 0, m.cols, ())
    return Mat(F, len(rows), m.cols, tuple(x for row in rows for x in row))


def solve(m: Mat, b) -> tuple | None:
    """Some x with m @ x = b, or None when inconsistent.

    Free variables are set to 0 under the rref pivot order, which makes the
    answer deterministic.
    """
    b = tuple(b)
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs length {len(b)} vs {m.rows} rows")
    F = m.field
    aug_rows = [list(m.row(i)) + [F.of(b[i])] for i in range(m.rows)]
    rows, pivots = _rref_rows(F, aug_rows) if aug_rows else ([], [])
    ncols = m.cols
    x = [F.zero] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None  # pivot in the augmented column: inconsistent
        x[pc] = rows[i][ncols]
    return tuple(x)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of non-square matrix")
    F = m.field
    n = m.rows
    aug = [list(m.row(i)) + [F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    rows, pivots = _rref_rows(F, aug)
    if list(pivots) != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    data = tuple(rows[i][n + j] for i in range(n) for j in range(n))
    return Mat(F, n, n, data)


class _RowSolver:
    """The rows of a basis factored once for repeated coordinate solves.

    `indep` are the rows kept by ``solve(basis.transpose(), v)``: the pivots
    of rref(basis^T), i.e. each row not in the span of the rows before it.
    With [R | T] = rref([B | I]) for B the kept rows, R has an identity
    block at its pivot columns and T @ B = R.  A vector v lies in the span
    iff v = y @ R for y = v at those pivots, and then y @ T are its
    coordinates in B.  Each row of [R | T] is kept as its pivot and the
    nonzero entries of R off the pivots and of T.
    """

    def __init__(self, basis: Mat):
        F = basis.field
        _, indep = _rref_rows(F, basis.transpose().row_lists())
        r, n = len(indep), basis.cols
        aug = [list(basis.row(i)) + list(unit_vec(F, r, k)) for k, i in enumerate(indep)]
        rows, pivots = _rref_rows(F, aug)
        pivset = set(pivots)
        self.field = F
        self.size = basis.rows
        self.indep = indep
        self.free = [j for j in range(n) if j not in pivset]
        self.rows = [(p, [(j, x) for j, x in _nonzeros(row[:n]) if j not in pivset],
                      _nonzeros(row, n)) for p, row in zip(pivots, rows)]
        self.width = n

    def solve(self, v: tuple) -> tuple | None:
        acc = [0] * (self.width + len(self.indep))
        for p, off_pivot, trow in self.rows:
            y = v[p]
            if y:
                for j, x in off_pivot:
                    acc[j] += y * x
                for k, t in trow:
                    acc[k] += y * t
        red = self.field.reduce
        for j in self.free:
            if red(acc[j] - v[j]):
                return None
        x = [self.field.zero] * self.size
        for k, i in enumerate(self.indep, self.width):
            x[i] = red(acc[k])
        return tuple(x)


def coords_in_rowspace(basis: Mat, v) -> tuple | None:
    """Coordinates of vector v in the span of basis rows, or None if outside.

    Equal, value and canonical form, to ``solve(basis.transpose(), v)``:
    dependent rows get coordinate zero.  The basis is factored on the first
    call and each further call costs O(rank * cols).
    """
    v = tuple(v)
    if len(v) != basis.cols:
        raise DimensionMismatch("vector length vs basis width")
    return basis._row_solver.solve(v)


def rowspace_coords(basis: Mat, vecs) -> tuple[list, bool]:
    """The coordinates of each vector in the rows of basis (zeros for one
    outside their span) and whether every vector lies in the span."""
    out, ok = [], True
    for v in vecs:
        coords = coords_in_rowspace(basis, v)
        if coords is None:
            ok, coords = False, (basis.field.zero,) * basis.rows
        out.append(coords)
    return out, ok


# -- tensor product over the base field --------------------------------------

def tensor_k(f: Mat, g: Mat) -> Mat:
    """Kronecker product: the matrix of f (x) g in the lexicographic basis
    e_i (x) e_j (i major, j minor) on both sides."""
    if f.field != g.field:
        raise FieldMismatch("tensor over mismatched fields")
    F = f.field
    red = F.reduce
    rows = f.rows * g.rows
    cols = f.cols * g.cols
    grows = [_nonzeros(g.row(j)) for j in range(g.rows)]
    data = [0] * (rows * cols)
    for i in range(f.rows):
        for k, a in enumerate(f.row(i)):
            if not a:
                continue
            for j, grow in enumerate(grows):
                base = (i * g.rows + j) * cols + k * g.cols
                for l, b in grow:
                    data[base + l] = red(a * b)
    return Mat(F, rows, cols, tuple(data))


def kron_after(m: Mat, x: Mat, y: Mat) -> Mat:
    """m @ tensor_k(x, y), computed from the nonzero entries of m, x and y
    without forming the Kronecker product.

    Column t = i * y.rows + j of m meets row i of x and row j of y: entry
    m[r, t] contributes m[r, t] * x[i, k] * y[j, l] to column k * y.cols + l
    of row r.  Each row of m is first summed against the rows of y, one
    partial row per i, and those against the rows of x; only the touched
    entries are reduced.
    """
    if not m.field == x.field == y.field:
        raise FieldMismatch(f"{m.field} vs {x.field} (x) {y.field}")
    if m.cols != x.rows * y.rows:
        raise DimensionMismatch(f"cannot multiply {m.rows}x{m.cols} by "
                                f"{x.rows * y.rows}x{x.cols * y.cols}")
    red = m.field.reduce
    yr, yc, width = y.rows, y.cols, x.cols * y.cols
    xrows, yrows = _row_entries(x), _row_entries(y)
    out = [0] * (m.rows * width)
    for r, mrow in enumerate(_row_entries(m)):
        partial = {}  # i -> {l: sum over j of m[r, i * yr + j] * y[j, l]}
        for t, a in mrow:
            i, j = divmod(t, yr)
            prow = partial.get(i)
            if prow is None:
                prow = partial[i] = {}
            for l, b in yrows[j]:
                prow[l] = prow.get(l, 0) + a * b
        acc = {}
        for i, prow in partial.items():
            for k, a in xrows[i]:
                base = k * yc
                for l, b in prow.items():
                    acc[base + l] = acc.get(base + l, 0) + a * b
        base = r * width
        for c, v in acc.items():
            out[base + c] = red(v)
    return Mat(m.field, m.rows, width, tuple(out))


def tensor_vec(field: Field, u, v) -> tuple:
    """u (x) v as a coordinate tuple in the lexicographic basis."""
    return tuple(map(field.reduce, [a * b for a in u for b in v]))


# -- quotient spaces ----------------------------------------------------------

@dataclass(frozen=True)
class QuotientSpace:
    """Ambient space modulo the kernel of `proj`.

    proj maps ambient coordinates onto quotient coordinates, sect picks the
    canonical representative of each class; proj @ sect is the identity and
    the representatives are the unit vectors of the free ambient columns.
    """

    field: Field
    ambient_dim: int
    proj: Mat       # dim x ambient_dim
    sect: Mat       # ambient_dim x dim
    dim: int

    def project(self, v) -> tuple:
        return self.proj.apply(v)

    @cached_property
    def relations(self) -> Mat:
        """The kernel of proj in canonical (row_space) form: for each
        non-free column c in ascending order, e_c minus the sum of
        proj[q, c] e_free(q).  This is the rref of any relation matrix the
        space is the quotient by."""
        F, n = self.field, self.ambient_dim
        free = [c for c in range(n) if any(self.sect.row(c))]
        freeset = set(free)
        rows = []
        for c in range(n):
            if c in freeset:
                continue
            row = [F.zero] * n
            row[c] = F.one
            for q, fc in enumerate(free):
                x = self.proj.at(q, c)
                if x:
                    row[fc] = F.neg(x)
            rows.extend(row)
        return Mat(F, n - self.dim, n, tuple(rows))


def _quotient_on(field: Field, ambient_dim: int, free, proj: Mat) -> QuotientSpace:
    """The quotient whose basis is the classes of the ambient columns free
    (ascending), for a proj that is the identity on those columns."""
    dim = len(free)
    sect = [field.zero] * (ambient_dim * dim)
    for q, c in enumerate(free):
        sect[c * dim + q] = field.one
    return QuotientSpace(field, ambient_dim, proj, Mat(field, ambient_dim, dim, tuple(sect)), dim)


def quotient_by(field: Field, ambient_dim: int, relations: Mat | None) -> QuotientSpace:
    """Quotient of k^ambient_dim by the row span of `relations`.

    The quotient basis consists of the classes of the non-pivot ambient
    coordinates in ascending order.
    """
    if relations is None or relations.rows == 0:
        relations = Mat(field, 0, ambient_dim, ())
    if relations.cols != ambient_dim:
        raise DimensionMismatch("relation width vs ambient dimension")
    r, pivots = rref_pivots(relations)
    pivset = set(pivots)
    free = [c for c in range(ambient_dim) if c not in pivset]
    F = field
    # proj: e_free -> corresponding class; e_pivot -> -sum of rref tail over free cols
    proj = [F.zero] * (len(free) * ambient_dim)
    for qi, c in enumerate(free):
        proj[qi * ambient_dim + c] = F.one
    for i, pc in enumerate(pivots):
        for qi, c in enumerate(free):
            x = r.at(i, c)
            if x:
                proj[qi * ambient_dim + pc] = F.neg(x)
    return _quotient_on(F, ambient_dim, free, Mat(F, len(free), ambient_dim, tuple(proj)))


def balanced_quotient(field: Field, dim_m: int, dim_n: int,
                      right_acts, left_acts) -> QuotientSpace:
    """Quotient of k^(dim_m * dim_n) by middle relations (m.u)(x)n - m(x)(u.n).

    right_acts[t] is the matrix of the right action of the t-th middle basis
    element on the left factor, left_acts[t] the left action on the right
    factor.  Relation generators over basis triples suffice by bilinearity.
    """
    F = field
    rows = []
    zero_row = [F.zero] * (dim_m * dim_n)
    for R, L in zip(right_acts, left_acts):
        for i in range(dim_m):
            mcol = R.col(i)
            for k in range(dim_n):
                ncol = L.col(k)
                row = list(zero_row)
                for a, x in enumerate(mcol):
                    if x:
                        row[a * dim_n + k] = F.add(row[a * dim_n + k], x)
                for b, y in enumerate(ncol):
                    if y:
                        row[i * dim_n + b] = F.sub(row[i * dim_n + b], y)
                if any(row):
                    rows.append(row)
    if rows:
        rel = Mat(F, len(rows), dim_m * dim_n, tuple(x for row in rows for x in row))
    else:
        rel = None
    return quotient_by(F, dim_m * dim_n, rel)


def triple_balanced_quotient(field: Field, d1: int, d2: int, d3: int,
                             acts12, acts23) -> QuotientSpace:
    """Quotient of k^(d1*d2*d3) by middle relations at both junctions.

    acts12 = (right action mats on factor 1, left action mats on factor 2),
    acts23 = (right action mats on factor 2, left action mats on factor 3).
    It is built as (M (x)_A N) (x)_A P from two balanced quotients, and
    equals the quotient by the relations of both junctions, basis included,
    whenever the right actions on factor 2 descend to M (x)_A N, as they do
    for a bimodule.
    """
    F = field
    total = d1 * d2 * d3
    q12 = balanced_quotient(F, d1, d2, *acts12)
    ident = Mat.identity(F, d1)
    outer = [kron_after(q12.proj, ident, R) @ q12.sect for R in acts23[0]]
    q = balanced_quotient(F, q12.dim, d3, outer, acts23[1])
    pi = kron_after(q.proj, q12.proj, Mat.identity(F, d3))
    # Column c is a pivot of the rref of the relations exactly when pi(e_c)
    # lies in the span of the pi(e_c') with c' > c, so the free columns are
    # the pivots of pi with its columns reversed.
    _, rev_pivots = _rref_rows(F, [row[::-1] for row in pi.row_lists()])
    free = sorted(total - 1 - c for c in rev_pivots)
    on_free = Mat._from_cols(F, [pi.col(c) for c in free], q.dim)
    return _quotient_on(F, total, free, inverse(on_free) @ pi)


def sandwich_operator(P: Mat, S: Mat, fn: int, fm: int) -> Mat:
    """Matrix of the linear operator F -> P @ F @ S on row-major vec(F),
    where F is fn x fm.  Output rows index the flattened result."""
    if P.cols != fn or S.rows != fm:
        raise DimensionMismatch("sandwich operator shape mismatch")
    return tensor_k(P, S.transpose())


def tensor_slice_operator(P: Mat, S: Mat, c: int, fn: int, fm: int) -> Mat:
    """Matrix of F -> P @ (F tensor I_c) @ S on row-major vec(F).

    F is fn x fm, so F tensor I_c is (fn*c) x (fm*c); P consumes its rows
    and S feeds its columns.  Entry ((p, s), (n, m)) is the sum over k of
    P[p, n*c + k] * S[m*c + k, s], summed from the nonzero entries of P and
    S; only the touched entries are reduced.
    """
    if P.cols != fn * c or S.rows != fm * c:
        raise DimensionMismatch("tensor slice operator shape mismatch")
    red = P.field.reduce
    width = fn * fm
    srows = _row_entries(S)
    block = S.cols * width  # the rows (p, s) of one p
    out = [0] * (P.rows * block)
    for p, prow in enumerate(_row_entries(P)):
        acc = {}
        for t, a in prow:
            n, k = divmod(t, c)
            for m in range(fm):
                col = n * fm + m
                for s, b in srows[m * c + k]:
                    j = s * width + col
                    acc[j] = acc.get(j, 0) + a * b
        base = p * block
        for j, v in acc.items():
            out[base + j] = red(v)
    return Mat(P.field, P.rows * S.cols, width, tuple(out))


class LinearSystem:
    """Homogeneous linear equations in named matrix unknowns.

    The columns are the entries of the unknowns in declaration order, each
    flattened row-major.  An equation is a sum of signed terms
    sign * P @ (X tensor I_c) @ S (c = 1 meaning P @ X @ S) and stands for
    one row per entry of the result.  Terms on the same unknown accumulate,
    terms on an empty unknown contribute nothing, and rows that come out
    zero are dropped; none of this moves a kernel basis, since the rref
    depends only on the row span and the column order.
    """

    def __init__(self, field: Field, shapes):
        self.field = field
        self.shapes = dict(shapes)
        self.offsets = {}
        width = 0
        for name, (rows, cols) in self.shapes.items():
            self.offsets[name] = width
            width += rows * cols
        self.width = width
        self.rows = []  # sparse: {column: nonzero value}

    def add(self, *terms) -> None:
        """Add sum(sign * P @ (X_name tensor I_c) @ S) = 0; each term is
        (sign, name, P, S) or (sign, name, P, S, c)."""
        F = self.field
        acc = None
        for sign, name, P, S, *c in terms:
            fn, fm = self.shapes[name]
            if fn * fm == 0:
                continue
            c = c[0] if c else 1
            if c == 1:
                op = sandwich_operator(P, S, fn, fm)
            else:
                op = tensor_slice_operator(P, S, c, fn, fm)
            if acc is None:
                acc = [{} for _ in range(op.rows)]
            elif len(acc) != op.rows:
                raise DimensionMismatch("terms of one equation differ in shape")
            sign = F.of(sign)
            off = self.offsets[name]
            for i, entries in enumerate(_row_entries(op)):
                row = acc[i]
                for j, x in entries:
                    row[off + j] = row.get(off + j, 0) + sign * x
        red = F.reduce
        for row in acc or ():
            row = {j: x for j, x in zip(row, map(red, row.values())) if x}
            if row:
                self.rows.append(row)

    def kernel(self) -> Mat:
        """Basis of the solutions as rows over the whole column layout."""
        F = self.field
        data = []
        for row in self.rows:
            dense = [F.zero] * self.width
            for j, x in row.items():
                dense[j] = x
            data.extend(dense)
        return kernel(Mat(F, len(self.rows), self.width, tuple(data)))

    def basis(self) -> list:
        """Basis of the solutions, each a tuple of unknown values in
        declaration order."""
        k = self.kernel()
        layout = [(self.offsets[name], rows, cols) for name, (rows, cols) in self.shapes.items()]
        return [tuple(Mat(self.field, rows, cols, k.row(i)[off:off + rows * cols])
                      for off, rows, cols in layout)
                for i in range(k.rows)]


def unit_vec(field: Field, n: int, i: int) -> tuple:
    """The i-th standard basis vector of field^n."""
    return tuple(field.one if k == i else field.zero for k in range(n))


def random_invertible(field: Field, n: int, rng) -> Mat:
    """Deterministic (seeded) invertible matrix with small entries."""
    while True:
        data = tuple(field.random(rng) for _ in range(n * n))
        m = Mat(field, n, n, data)
        if rank(m) == n:
            return m
