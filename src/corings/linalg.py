"""Exact linear algebra with deterministic basis choices.

A `Mat` is stored as the nonzero (column, value) pairs of each row, in
ascending column order; the matrices of the library are block-structured
and almost all zeros.  `Mat(field, rows, cols, data)` takes row-major
entries and keeps only the nonzero ones, and `data` is a view of the rows
built on first read.  Every matrix passes through one constructor,
`Mat._of_rows`, and every operation is written on the rows: products,
Kronecker products, sums, transposes, stacks, blocks and reshapes read
the nonzero entries and bring only the entries they touch to canonical
form (compressed sparse rows, as in Davis, *Direct Methods for Sparse
Linear Systems*, SIAM 2006, ch. 2).  This module is the one owner of
block layouts: `block_matrix` and `block_diagonal` place blocks, `hstack`
lays out the left action matrices of a module and `interleave` the right
ones, and `hsplit` (for any list of widths) and `deinterleave` read the
blocks back in one pass over the rows (an algebra's multiplication
matrix is both flattened regular actions, so its action matrices are
read off it).  No constructor reads a row count off a list of columns:
`_from_cols` is given it, so a matrix with no columns keeps its rows.
Equality compares the rows, and the hash, computed once, is read
off them, so a matrix built from dense entries equals and hashes like
the same matrix built from rows.  Beside the rows a `Mat` caches its
columns (for `col` and `transpose`), its rank and whether it is an
identity (`Mat.identity` sets the flag as it builds), each computed on
first read by this module's lock-free `cached_property`.  An identity
operand costs nothing: `@` returns the other operand, and `kron_after`
returns m when both factors are identities and otherwise makes one pass
when one is.

Over QQ the products multiply and add integers only, in the
common-denominator form of a rational matrix (von zur Gathen and
Gerhard, *Modern Computer Algebra*): a `Mat` caches D, the lcm of the
denominators of its entries, and, when D is not 1, its rows times D as
ints.  `Mat._denominator` reads D off the rows on the first product,
and over GF(p) it is 1 without a scan.  No constructor records D but
`_from_numerators`, which knows as it builds an integral product over QQ,
the common case, that its D is 1.  `@` and `kron_after` sum the
scaled rows and write each output entry once, in `_from_numerators`: the
sum divided by the product of the denominators, an int when it divides
and one `Fraction` in lowest terms otherwise.  Elimination runs
on sparse rows only: one eliminator reduces `{column: value}` dicts in
place and serves rref, kernels, solves, inverses, quotients and hom
systems; it still works on `Fraction` entries.  A hom system
(`LinearSystem`) stores no one-entry row: it keeps the column such a row
sets to 0 in a set of ints and forms later equations without the zeroed
columns.  `balanced_quotient` does the same with its one-sided relations
of one entry, and keeps each longer one-sided relation once.  Both hand
the eliminator their other rows without the zeroed columns and add
those back as pivots (`_eliminate_zeroed`), before the kernel or the
quotient is read off.

Conventions fixed here and relied on everywhere downstream:

* rref scans columns left to right and normalizes pivots to 1, so every
  "chosen basis" (kernels, quotient bases, solved functional spaces) is
  deterministic.  The reduced form is unique, so which row supplies a
  pivot never shows in a result.
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
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import lcm

from corings.scalars import DimensionMismatch, Field, FieldMismatch

_IDENTITIES: dict = {}  # (field.p, n) -> the last n x n identity built, see `Mat.identity`


class cached_property:
    """An attribute computed on its first read: the function's value is
    written into the instance `__dict__`, where every later read finds it
    without calling the descriptor.  Unlike `functools.cached_property`,
    whose first read takes a lock in CPython 3.11, it holds no lock; the
    library computes on one thread.  Every cache of `Mat` and
    `QuotientSpace` is one."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner):
        if obj is None:  # read on the class
            return self
        try:
            d = obj.__dict__
        except AttributeError:
            raise TypeError(f"{owner.__name__} instances have no __dict__ "
                            f"to cache {self.name} in") from None
        value = d[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Mat:
    """Immutable matrix over an exact field, stored as sparse rows.

    No row list is changed once a matrix holds it, so matrices share them:
    a stack holds the rows of its parts, and a transpose the column lists
    of its source."""

    field: Field
    rows: int
    cols: int
    _entries: list

    def __new__(cls, field: Field, rows: int, cols: int, data) -> "Mat":
        """The matrix with the row-major entries data; the dense entry point
        of the loader and the tests.  Only the nonzero entries are kept."""
        if len(data) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}")
        return _from_flat(field, rows, cols, ((k, data[k]) for k in compress(range(len(data)), data)))

    @classmethod
    def _of_rows(cls, field: Field, rows: int, cols: int, entries: list) -> "Mat":
        """The one constructor every matrix passes through: entries[i] lists
        the nonzero (column, value) pairs of row i in ascending column order,
        values in canonical form."""
        if len(entries) != rows:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows} rows, got {len(entries)}")
        m = object.__new__(cls)
        d = m.__dict__
        d["field"], d["rows"], d["cols"], d["_entries"] = field, rows, cols, entries
        return m

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.rows == other.rows and self.cols == other.cols
                and self._entries == other._entries)

    def __hash__(self):
        return self._hash

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Mat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        return cls._of_rows(field, len(rows), ncols,
                            [[(j, x) for j, x in enumerate(map(field.of, r)) if x] for r in rows])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        """The n x n identity, shared by every call with the same field
        object until a call with another one replaces it: no matrix changes
        its rows, and an identity that holds its operands' field object
        passes the `is` test of `_check_field`."""
        m = _IDENTITIES.get((field.p, n))
        if m is None or m.field is not field:
            m = _IDENTITIES[field.p, n] = cls._of_rows(field, n, n, [[(i, field.one)] for i in range(n)])
            m.__dict__["_is_identity"] = True
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls._of_rows(field, rows, cols, [[] for _ in range(rows)])

    @classmethod
    def _from_cols(cls, field: Field, cols, rows: int) -> "Mat":
        """The rows x len(cols) matrix with the given columns, whose entries
        are already field elements (no coercion through `Field.of`).  The
        row count is given, never read off a column, so that an empty list
        of columns has its shape."""
        cols = list(cols)
        out = [[] for _ in range(rows)]
        for j, col in enumerate(cols):
            if len(col) != rows:
                raise DimensionMismatch(f"column of {len(col)} entries in a matrix of {rows} rows")
            for i in compress(range(rows), col):
                out[i].append((j, col[i]))
        return cls._of_rows(field, rows, len(cols), out)

    @classmethod
    def col_vector(cls, field: Field, v) -> "Mat":
        v = [field.of(x) for x in v]
        return cls._from_cols(field, [v], len(v))

    # -- access ------------------------------------------------------------

    @cached_property
    def data(self) -> tuple:
        """The entries, row-major: a view of the rows, built on first read
        and kept."""
        cols = self.cols
        return _densify(self.field, self.rows * cols,
                        ((i * cols + j, x) for i, row in enumerate(self._entries) for j, x in row))

    def row(self, i: int) -> tuple:
        return _densify(self.field, self.cols, self._entries[i])

    def col(self, j: int) -> tuple:
        return _densify(self.field, self.rows, self._columns[j])

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The rows x cols matrix of the same entries read row-major; a
        one-row reshape is vec(self)."""
        if rows * cols != self.rows * self.cols:
            raise DimensionMismatch(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        if (rows, cols) == (self.rows, self.cols):
            return self
        width = self.cols
        return _from_flat(self.field, rows, cols,
                          ((i * width + j, x) for i, row in enumerate(self._entries) for j, x in row))

    # -- algebra -----------------------------------------------------------

    def _check_field(self, other: "Mat"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _combined(self, other: "Mat", op, what: str) -> "Mat":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"shape mismatch in {what}")
        rows = []
        for srow, orow in zip(self._entries, other._entries):
            acc = dict(srow)
            for j, x in orow:
                acc[j] = op(acc.get(j, 0), x)
            rows.append(acc)
        return _from_entries(self.field, rows, self.cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combined(other, operator.add, "addition")

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combined(other, operator.sub, "subtraction")

    def scale(self, c) -> "Mat":
        c, red = self.field.of(c), self.field.reduce
        return Mat._of_rows(self.field, self.rows, self.cols,
                            [[(j, red(c * x)) for j, x in row] if c else [] for row in self._entries])

    # The products below accumulate ints over the scaled rows of their
    # operands and make each output entry once, in `_from_numerators`: over
    # QQ the sum divided by the product of the denominators, over GF(p) the
    # sum mod p.  A product with an identity returns the other operand.

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self._is_identity:
            return other
        if other._is_identity:
            return self
        da, db, rows = self._denominator, other._denominator, []
        srows = self._entries if da == 1 else self._scaled_rows
        orows = other._entries if db == 1 else other._scaled_rows
        for srow in srows:
            acc = {}
            for t, a in srow:
                for j, b in orows[t]:
                    acc[j] = acc.get(j, 0) + a * b
            rows.append(acc)
        return _from_numerators(self.field, rows, other.cols, da * db)

    def apply(self, vec) -> tuple:
        """Matrix times column vector, given and returned as a tuple."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        out = []
        for row in self._entries:
            s = 0
            for j, a in row:
                s += a * vec[j]
            out.append(s)
        return tuple(map(self.field.reduce, out))

    def transpose(self) -> "Mat":
        return Mat._of_rows(self.field, self.cols, self.rows, self._columns)

    def is_zero(self) -> bool:
        return not any(self._entries)

    @cached_property
    def _columns(self) -> list:
        """The nonzero (row, value) pairs of each column in ascending row
        order, the rows of the transpose; built on the first `col` or
        `transpose` and shared with the transpose."""
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._entries):
            for j, x in row:
                cols[j].append((i, x))
        return cols

    @cached_property
    def _is_identity(self) -> bool:
        """Whether this is an identity matrix, read off the rows; like the
        other caches, outside eq, hash and repr."""
        one = self.field.one
        return self.rows == self.cols and all(row == [(i, one)] for i, row in enumerate(self._entries))

    @cached_property
    def _denominator(self) -> int:
        """D, the lcm of the denominators of the entries, read off the rows
        on the first product: 1 for an integral matrix, and over GF(p),
        where every value is an int, without a scan.  Only an integral
        product over QQ has it recorded (`_from_numerators`).  Outside eq,
        hash and repr, like the other caches."""
        d = 1
        if self.field.p is None:
            for row in self._entries:
                for _, x in row:
                    if type(x) is not int:
                        d = lcm(d, x.denominator)
        return d

    @cached_property
    def _scaled_rows(self) -> list:
        """The rows times D as (column, int) pairs, built on the first
        product of a matrix whose D is not 1, so that only a matrix with
        fractions keeps a second copy of its rows."""
        d = self._denominator
        return [[(j, x * d if type(x) is int else d // x.denominator * x.numerator) for j, x in row]
                for row in self._entries]

    @cached_property
    def _hash(self) -> int:
        """The hash of the rows, computed on the first `hash()`: the memo
        keys of `algebra.cached_tensor` are tuples of action matrices,
        hashed again at every lookup."""
        return hash((self.field, self.rows, self.cols, tuple(map(tuple, self._entries))))

    @cached_property
    def _rank(self) -> int:
        """The rank, from one elimination on the first `rank()`; the
        invertibility test and a witness that prints the rank share it."""
        return len(rref_pivots(self)[1])

    @cached_property
    def _row_factor(self) -> "Mat":
        """The factor `rowspace_coords` multiplies by (`_rowspace_factor`),
        built on first use; as a cached property it stays out of eq, hash
        and repr."""
        return _rowspace_factor(self)

    def __repr__(self):
        fmt = self.field.format
        rows = ["[" + ", ".join(map(fmt, self.row(i))) + "]" for i in range(self.rows)]
        return "Mat[" + "; ".join(rows) + "]"


def _densify(field: Field, n: int, pairs) -> tuple:
    """The length-n coordinate tuple with the entries (index, value) pairs."""
    out = [field.zero] * n
    for j, x in pairs:
        out[j] = x
    return tuple(out)


def _from_flat(field: Field, rows: int, cols: int, pairs) -> Mat:
    """The rows x cols matrix whose row-major entries are the (index, value)
    pairs, given in ascending index order."""
    if rows == 1:  # vec(m), read by every coordinate solve of a functional
        return Mat._of_rows(field, 1, cols, [list(pairs)])
    out = [[] for _ in range(rows)]
    for k, x in pairs:
        i, j = divmod(k, cols)
        out[i].append((j, x))
    return Mat._of_rows(field, rows, cols, out)


def _from_entries(field: Field, rows, cols: int) -> Mat:
    """The matrix with len(rows) rows and cols columns whose row i holds the
    entries of the dict rows[i] ({column: value}, values as plain `+` and
    `*` leave them); only those entries are brought to canonical form, and
    an int over QQ already is."""
    red, entries = field.reduce, []
    modular = field.p is not None
    for row in rows:
        out = []
        for j in sorted(row):
            v = row[j]
            if modular or type(v) is not int:
                v = red(v)
            if v:
                out.append((j, v))
        entries.append(out)
    return Mat._of_rows(field, len(rows), cols, entries)


def _from_numerators(field: Field, rows, cols: int, d: int) -> Mat:
    """The matrix with len(rows) rows and cols columns whose row i holds the
    entries of the dict rows[i] ({column: int}) divided by d: over QQ an
    int where d divides the entry and one `Fraction` in lowest terms where
    it does not, over GF(p) (where d is 1) the entry mod p.  An integral
    product (d = 1 over QQ) has its `Mat._denominator` recorded as 1."""
    if field.p is not None:
        return _from_entries(field, rows, cols)
    entries = []
    if d == 1:  # the common case, with no test per entry (`_from_entries` makes two)
        for row in rows:
            if len(row) < 2:  # most product rows: nothing to sort
                entries.append([*row.items()] if any(row.values()) else [])
                continue
            out = []
            for j in sorted(row):
                v = row[j]
                if v:
                    out.append((j, v))
            entries.append(out)
        m = Mat._of_rows(field, len(rows), cols, entries)
        m.__dict__["_denominator"] = 1
        return m
    for row in rows:
        out = []
        for j in sorted(row):
            v = row[j]
            if v:
                q, r = divmod(v, d)
                out.append((j, Fraction(v, d) if r else q))
        entries.append(out)
    return Mat._of_rows(field, len(rows), cols, entries)


def _pairs(v) -> tuple[int, list]:
    """The length and the nonzero (index, value) pairs of the vector v, a
    sequence or a one-row matrix."""
    if isinstance(v, Mat):
        if v.rows != 1:
            raise DimensionMismatch(f"a {v.rows}x{v.cols} matrix is no row vector")
        return v.cols, v._entries[0]
    v = tuple(v)
    return len(v), [(j, x) for j, x in enumerate(v) if x]


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
    out, width = [[] for _ in range(rows)], 0
    for m in mats:
        for row, mrow in zip(out, m._entries):
            row.extend([(width + j, x) for j, x in mrow])
        width += m.cols
    return Mat._of_rows(F, rows, width, out)


def vstack(mats) -> Mat:
    mats = list(mats)
    F = mats[0].field
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise DimensionMismatch("vstack column mismatch")
        if m.field != F:
            raise FieldMismatch("vstack field mismatch")
    return Mat._of_rows(F, sum(m.rows for m in mats), cols, [row for m in mats for row in m._entries])


def interleave(field: Field, rows: int, mats) -> Mat:
    """The matrix whose column k * len(mats) + j is column k of mats[j]: for
    the right action matrices mats[j] of a basis e_j, the flattened action
    M (x) A -> M, m_k (x) e_j -> m_k . e_j, as `hstack(mats)` is the left
    one.  Every mats[j] has `rows` rows and the same columns; rows gives an
    empty family its shape."""
    mats = list(mats)
    width = mats[0].cols if mats else 0
    for m in mats:
        if (m.rows, m.cols) != (rows, width):
            raise DimensionMismatch(f"{m.rows}x{m.cols} matrix in a family of {rows}x{width}")
        if m.field != field:
            raise FieldMismatch(f"matrix over {m.field} in a family over {field}")
    # the columns, in the new order, are the rows of the transpose
    return Mat._of_rows(field, width * len(mats), rows,
                        [m._columns[k] for k in range(width) for m in mats]).transpose()


def hsplit(m: Mat, widths) -> tuple:
    """The inverse of `hstack`: the matrices of the given widths whose
    columns are those of m, part after part.  The left action matrices of
    an algebra are `hsplit(mul_mat, [dim] * dim)`."""
    widths = list(widths)
    if sum(widths) != m.cols:
        raise DimensionMismatch(f"cannot split {m.cols} columns into parts of widths {widths}")
    # the part of each column of m, and its column there
    part = [k for k, w in enumerate(widths) for _ in range(w)]
    local = [j for w in widths for j in range(w)]
    parts = [[[] for _ in range(m.rows)] for _ in widths]
    for i, row in enumerate(m._entries):
        for t, x in row:
            parts[part[t]][i].append((local[t], x))
    return tuple(Mat._of_rows(m.field, m.rows, w, rows) for w, rows in zip(widths, parts))


def deinterleave(m: Mat, n: int) -> tuple:
    """The inverse of `interleave`: the n matrices whose column k is column
    k * n + j of m for matrix j.  The right action matrices of an algebra
    are `deinterleave(mul_mat, dim)`."""
    width = m.cols // n if n else 0
    if n * width != m.cols:
        raise DimensionMismatch(f"cannot deinterleave {m.cols} columns into {n} matrices")
    parts = [[[] for _ in range(m.rows)] for _ in range(n)]
    for i, row in enumerate(m._entries):
        for t, x in row:
            k, j = divmod(t, n)
            parts[j][i].append((k, x))
    return tuple(Mat._of_rows(m.field, m.rows, width, rows) for rows in parts)


def vec_rows(field: Field, width: int, mats) -> Mat:
    """The matrix whose row k is vec(mats[k]), the entries of mats[k]
    row-major; each has width entries, and the field and width give an
    empty list its shape."""
    mats, rows = list(mats), []
    for m in mats:
        if m.rows * m.cols != width:
            raise DimensionMismatch(f"{m.rows}x{m.cols} matrix in rows of width {width}")
        rows.append([(i * m.cols + j, x) for i, mrow in enumerate(m._entries) for j, x in mrow])
    return Mat._of_rows(field, len(rows), width, rows)


def unvec_rows(m: Mat, rows: int, cols: int) -> tuple:
    """The inverse of `vec_rows`: each row of m as the rows x cols matrix
    whose vec it is."""
    return tuple(_from_flat(m.field, rows, cols, entries) for entries in m._entries)


def regroup(m: Mat, s: int, d: int) -> Mat:
    """For m: V (x) W -> U with dim V = s and dim W = d (column i * d + v
    holds m(e_i (x) e_v)), the d x (s * dim U) matrix whose block i is the
    transpose of T_i: w -> m(e_i (x) w).  Since vec(T X) = vec(X) (T^T (x) I),
    row k of kron_after(vec_rows(Xs), regroup(m, s, d), I) holds vec(T_i X_k)
    for every i, block after block."""
    if m.cols != s * d:
        raise DimensionMismatch(f"{m.rows}x{m.cols} matrix is no map from a {s} (x) {d} space")
    out, rows = m.rows, [[] for _ in range(d)]
    for w, mrow in enumerate(m._entries):
        for t, x in mrow:
            i, v = divmod(t, d)
            rows[v].append((i * out + w, x))
    for row in rows:
        row.sort()
    return Mat._of_rows(m.field, d, s * out, rows)


def block_matrix(field: Field, row_dims, col_dims, blocks) -> Mat:
    """The matrix cut into row blocks of sizes row_dims and column blocks of
    sizes col_dims (each block after the ones before it), holding
    blocks[(i, j)] in block (i, j) and zeros everywhere else."""
    row_offsets = [sum(row_dims[:i]) for i in range(len(row_dims))]
    col_offsets = [sum(col_dims[:j]) for j in range(len(col_dims))]
    out = [[] for _ in range(sum(row_dims))]
    # blocks in column-block order, so that each row is filled left to right
    for (i, j), m in sorted(blocks.items(), key=lambda item: item[0][1]):
        if (m.rows, m.cols) != (row_dims[i], col_dims[j]):
            raise DimensionMismatch(f"block ({i}, {j}) is {m.rows}x{m.cols}, "
                                    f"expected {row_dims[i]}x{col_dims[j]}")
        if m.field != field:
            raise FieldMismatch(f"block ({i}, {j}) over {m.field}, expected {field}")
        off = col_offsets[j]
        for row, mrow in zip(out[row_offsets[i]:], m._entries):
            row.extend([(off + c, x) for c, x in mrow])
    return Mat._of_rows(field, len(out), sum(col_dims), out)


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
    acc = [{} for _ in range(rows)]
    for m, c in zip(mats, coeffs):
        if not c:
            continue
        if (m.rows, m.cols) != (rows, cols):
            raise DimensionMismatch(f"{m.rows}x{m.cols} term in a {rows}x{cols} sum")
        if m.field != field:
            raise FieldMismatch(f"term over {m.field} in a sum over {field}")
        c = field.of(c)
        for row, mrow in zip(acc, m._entries):
            for j, x in mrow:
                row[j] = row.get(j, 0) + c * x
    return _from_entries(field, acc, cols)


# -- gaussian elimination ----------------------------------------------------

def _eliminate(field: Field, rows: list) -> list:
    """Reduce the sparse rows {column: nonzero value} in place to reduced row
    echelon form; returns the (pivot column, row) pairs in ascending pivot
    order, each row 1 at its pivot and 0 at every other pivot column.

    Columns are swept left to right.  Each row waits under its leading
    column; in each column the waiting row with the fewest entries becomes
    the pivot (Markowitz's rule, the lowest index breaking ties) and
    clears the column from the others, which move on to their new leading
    columns.  The pivot rows are then cleared above each other, last pivot
    first.  The reduced form is unique, so the choice of pivot rows moves
    no result.
    """
    red, inv = field.reduce, field.inv
    waiting = {}  # leading column -> indices of the rows led there
    for i, row in enumerate(rows):
        if row:
            waiting.setdefault(min(row), []).append(i)
    heap = list(waiting)
    heapify(heap)
    pivoted = []
    while heap:
        c = heappop(heap)
        led = waiting.pop(c)
        p = min(led, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        if prow[c] != 1:
            s = inv(prow[c])
            for j, x in prow.items():
                prow[j] = red(s * x)
        tail = [(j, x) for j, x in prow.items() if j != c]
        for i in led:
            if i != p:
                row = rows[i]
                _subtract(red, row, row.pop(c), tail)
                if row:
                    k = min(row)
                    if k in waiting:
                        waiting[k].append(i)
                    else:
                        waiting[k] = [i]
                        heappush(heap, k)
        pivoted.append((c, prow))
    # A pivot row holds no earlier pivot column, and clearing a later one
    # adds only columns that are no pivot, so the rows holding each pivot
    # column can be listed once, before the rows are cleared above.
    index = {c: k for k, (c, _) in enumerate(pivoted)}
    above = [[] for _ in pivoted]
    for c, row in pivoted:
        for j in row:
            if j != c and j in index:
                above[index[j]].append(row)
    for (c, prow), rows_above in zip(reversed(pivoted), reversed(above)):
        tail = [(j, x) for j, x in prow.items() if j != c]
        for row in rows_above:
            _subtract(red, row, row.pop(c), tail)
    return pivoted


def _subtract(red, row: dict, f, tail) -> None:
    """row -= f * tail in place, dropping the entries that cancel."""
    for j, x in tail:
        v = red(row.get(j, 0) - f * x)
        if v:
            row[j] = v
        else:
            row.pop(j, None)


def _eliminate_zeroed(field: Field, rows: list, zeroed) -> list:
    """`_eliminate` of the rows together with the unit rows e_c of the
    columns c in zeroed, without writing the unit rows: the rows are
    copied without the zeroed columns and reduced, and each zeroed column
    joins them as the pivot of {c: 1}.  The pivots come in no fixed
    order.  This is the rref of the whole span, since each e_c lies in it
    and the rref depends only on the span and the column order."""
    rows = [{j: x for j, x in row.items() if j not in zeroed} for row in rows]
    pivoted = _eliminate(field, rows)
    pivoted.extend((c, {c: field.one}) for c in zeroed)
    return pivoted


def _null_basis(field: Field, width: int, pivoted) -> Mat:
    """One row per free column c of the reduced rows pivoted: 1 at c and
    -r[c] at the pivot of each reduced row r.  These rows are the kernel
    basis of the reduced matrix and the projection onto its quotient."""
    pivots = {c for c, _ in pivoted}
    free = [c for c in range(width) if c not in pivots]
    index = {c: q for q, c in enumerate(free)}
    rows, neg = [[(c, field.one)] for c in free], field.neg
    for pc, row in pivoted:
        for c, x in row.items():
            if c != pc:
                rows[index[c]].append((pc, neg(x)))
    for row in rows:
        row.sort()
    return Mat._of_rows(field, len(free), width, rows)


def rref_pivots(m: Mat) -> tuple[Mat, tuple]:
    pivoted = _eliminate(m.field, [dict(row) for row in m._entries])
    rows = [row for _, row in pivoted] + [{}] * (m.rows - len(pivoted))
    return _from_entries(m.field, rows, m.cols), tuple(c for c, _ in pivoted)


def rref(m: Mat) -> Mat:
    """Reduced row echelon form (pivots are leading 1s, pivot columns cleared)."""
    return rref_pivots(m)[0]


def rank(m: Mat) -> int:
    return m._rank


def is_invertible(m: Mat) -> bool:
    """Whether m is square of full rank."""
    return m.rows == m.cols and rank(m) == m.rows


def row_space(m: Mat) -> Mat:
    """Canonical basis of the row space: rref with zero rows dropped.

    Two matrices span the same row space iff their row_space outputs are
    equal, so this doubles as the subspace-equality test.
    """
    r, pivots = rref_pivots(m)
    k = len(pivots)
    return Mat._of_rows(m.field, k, m.cols, r._entries[:k])


def kernel(m: Mat) -> Mat:
    """Basis of the right null space, one row per basis vector.

    Row count is cols - rank.  The basis vector for free column c carries
    a 1 at position c and zeros at all other free columns.
    """
    return _null_basis(m.field, m.cols, _eliminate(m.field, [dict(row) for row in m._entries]))


def solve(m: Mat, b) -> tuple | None:
    """Some x with m @ x = b, or None when inconsistent: the coordinates of
    b in the columns of m, the one-row case of `rowspace_coords` on
    m.transpose().  Free variables are 0 under the rref pivot order, which
    makes the answer deterministic.  b is a sequence or a one-row matrix,
    its entries brought into the field."""
    nb, b = _pairs(b)
    if nb != m.rows:
        raise DimensionMismatch(f"rhs length {nb} vs {m.rows} rows")
    F = m.field
    b = [(i, y) for i, y in ((i, F.of(y)) for i, y in b) if y]
    coords, outside = rowspace_coords(m.transpose(), Mat._of_rows(F, 1, nb, [b]))
    return None if outside else coords.row(0)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of non-square matrix")
    F, n = m.field, m.rows
    aug = [dict(row) for row in m._entries]
    for i, row in enumerate(aug):
        row[n + i] = F.one
    pivoted = _eliminate(F, aug)
    if [c for c, _ in pivoted] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return _from_entries(F, [{j - n: x for j, x in row.items() if j >= n} for _, row in pivoted], n)


def _rowspace_factor(basis: Mat) -> Mat:
    """The n x (n + k) factor K of the k x n basis: for a row v, v @ K holds
    the residual of v off the span in its first n columns and the
    coordinates of v in the rows of basis after them.

    Only the rows of basis not in the span of the rows before it (the
    pivots of rref(basis^T)) get a coordinate; the others get zero.  With
    [R | T] = rref([B | I]) for B those rows, R has an identity block at
    its pivot columns and T @ B = R.  A vector v lies in the span iff
    v = y @ R for y = v at those pivots, and then y @ T are its coordinates
    in B.  So row p of K, for a pivot p, holds the entries of R off the
    pivots and, at column n + i for the row i of basis that B's row t is,
    entry t of T; row j for a column that is no pivot holds -1 at j.  Then
    v @ K is v @ R - v off the pivots, followed by the coordinates."""
    F, n = basis.field, basis.cols
    indep = [i for i, _ in _eliminate(F, [dict(col) for col in basis._columns])]
    aug = [dict(basis._entries[i]) for i in indep]
    for k, row in enumerate(aug, n):
        row[k] = F.one
    rows = [[(j, F.neg(F.one))] for j in range(n)]
    for p, row in _eliminate(F, aug):
        rows[p] = sorted((j if j < n else n + indep[j - n], x) for j, x in row.items() if j != p)
    return Mat._of_rows(F, n, n + basis.rows, rows)


def rowspace_coords(basis: Mat, rows: Mat) -> tuple[Mat, list]:
    """The coordinates of each row of `rows` in the rows of basis, as the
    rows of one matrix, and the indices of the rows outside their span,
    whose coordinates are zero.

    This is the library's one coordinate solve: `solve` and `span_coords`
    are its cases.  Dependent rows of basis get coordinate zero.  The basis
    is factored on the first call (`_rowspace_factor`), and each call is
    one product with the factor."""
    if rows.cols != basis.cols:
        raise DimensionMismatch("vector length vs basis width")
    n = basis.cols
    coords, outside, product = [], [], rows @ basis._row_factor
    for i, row in enumerate(product._entries):
        if row and row[0][0] < n:  # a nonzero residual
            outside.append(i)
            row = []
        coords.append([(j - n, x) for j, x in row])
    return Mat._of_rows(basis.field, rows.rows, basis.rows, coords), outside


def span_coords(basis: Mat, rows: Mat, error: str) -> Mat:
    """`rowspace_coords` of rows that lie in the span of basis; raises
    ValueError(error) when one does not."""
    coords, outside = rowspace_coords(basis, rows)
    if outside:
        raise ValueError(error)
    return coords


# -- tensor product over the base field --------------------------------------

def tensor_k(f: Mat, g: Mat) -> Mat:
    """Kronecker product: the matrix of f (x) g in the lexicographic basis
    e_i (x) e_j (i major, j minor) on both sides."""
    if f.field != g.field:
        raise FieldMismatch("tensor over mismatched fields")
    F = f.field
    red, gc, grows = F.reduce, g.cols, g._entries
    return Mat._of_rows(F, f.rows * g.rows, f.cols * gc,
                        [[(k * gc + l, red(a * b)) for k, a in frow for l, b in grow]
                         for frow in f._entries for grow in grows])


def kron_after(m: Mat, x: Mat, y: Mat) -> Mat:
    """m @ tensor_k(x, y), computed from the nonzero entries of m, x and y
    without forming the Kronecker product.

    Column t = i * y.rows + j of m meets row i of x and row j of y: entry
    m[r, t] contributes m[r, t] * x[i, k] * y[j, l] to column k * y.cols + l
    of row r.  Each row of m is first summed against the rows of y, one
    partial row per i, and those against the rows of x, all on the scaled
    rows (`Mat._scaled_rows`); only the touched entries are divided by
    D_m * D_x * D_y.  With identity factors this is m itself, and with one
    identity factor each entry of m meets one row of the other factor.
    """
    F = m.field
    if (x.field is not F and x.field != F) or (y.field is not F and y.field != F):
        raise FieldMismatch(f"{m.field} vs {x.field} (x) {y.field}")
    if m.cols != x.rows * y.rows:
        raise DimensionMismatch(f"cannot multiply {m.rows}x{m.cols} by "
                                f"{x.rows * y.rows}x{x.cols * y.cols}")
    yr, yc = y.rows, y.cols
    if y._is_identity and x._is_identity:
        return m
    dm, rows = m._denominator, []
    mrows = m._entries if dm == 1 else m._scaled_rows
    if y._is_identity:
        dx = x._denominator
        xrows = x._entries if dx == 1 else x._scaled_rows
        for mrow in mrows:  # m[r, i * yr + j] * x[i, k] lands in column k * yr + j
            acc = {}
            for t, a in mrow:
                i, j = divmod(t, yr)
                for k, b in xrows[i]:
                    col = k * yr + j
                    acc[col] = acc.get(col, 0) + a * b
            rows.append(acc)
        return _from_numerators(F, rows, x.cols * yc, dm * dx)
    dy = y._denominator
    yrows = y._entries if dy == 1 else y._scaled_rows
    if x._is_identity:
        for mrow in mrows:  # m[r, i * yr + j] * y[j, l] lands in column i * yc + l
            acc = {}
            for t, a in mrow:
                i, j = divmod(t, yr)
                base = i * yc
                for l, b in yrows[j]:
                    acc[base + l] = acc.get(base + l, 0) + a * b
            rows.append(acc)
        return _from_numerators(F, rows, x.cols * yc, dm * dy)
    dx = x._denominator
    xrows = x._entries if dx == 1 else x._scaled_rows
    for mrow in mrows:
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
        rows.append(acc)
    return _from_numerators(F, rows, x.cols * yc, dm * dx * dy)


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
        """The class of v, a tuple or a one-row matrix, in quotient
        coordinates."""
        return self.proj.apply(_densify(self.field, *_pairs(v)))

    @cached_property
    def relations(self) -> Mat:
        """The kernel of proj in canonical (row_space) form: for each
        non-free column c in ascending order, e_c minus the sum of
        proj[q, c] e_free(q).  This is the rref of any relation matrix the
        space is the quotient by."""
        F, n = self.field, self.ambient_dim
        free = [c for c, row in enumerate(self.sect._entries) if row]
        rows = {c: {c: F.one} for c, row in enumerate(self.sect._entries) if not row}
        for fc, prow in zip(free, self.proj._entries):
            for c, x in prow:
                if c in rows:
                    rows[c][fc] = F.neg(x)
        return _from_entries(F, list(rows.values()), n)


def _quotient_on(field: Field, ambient_dim: int, free, proj: Mat) -> QuotientSpace:
    """The quotient whose basis is the classes of the ambient columns free
    (ascending), for a proj that is the identity on those columns."""
    index = {c: q for q, c in enumerate(free)}
    sect = Mat._of_rows(field, ambient_dim, len(free),
                        [[(index[c], field.one)] if c in index else [] for c in range(ambient_dim)])
    return QuotientSpace(field, ambient_dim, proj, sect, len(free))


def quotient_by(field: Field, ambient_dim: int, relations: Mat | None) -> QuotientSpace:
    """Quotient of k^ambient_dim by the row span of `relations`.

    The quotient basis consists of the classes of the non-pivot ambient
    coordinates in ascending order.
    """
    if relations is None or relations.rows == 0:
        return _quotient(field, ambient_dim, [])
    if relations.cols != ambient_dim:
        raise DimensionMismatch("relation width vs ambient dimension")
    return _quotient(field, ambient_dim, _eliminate(field, [dict(row) for row in relations._entries]))


def _quotient(field: Field, ambient_dim: int, pivoted) -> QuotientSpace:
    """The quotient by the span of the reduced rows pivoted, (pivot column,
    row) pairs in any order as `_eliminate` and `_eliminate_zeroed` return
    them.  The projection sends e_c for a free column c to its class and a
    pivot column to minus the reduced relation's entries on the free
    columns: the rows of `_null_basis`."""
    pivots = {c for c, _ in pivoted}
    free = [c for c in range(ambient_dim) if c not in pivots]
    return _quotient_on(field, ambient_dim, free, _null_basis(field, ambient_dim, pivoted))


def balanced_quotient(field: Field, dim_m: int, dim_n: int,
                      right_acts, left_acts) -> QuotientSpace:
    """Quotient of k^(dim_m * dim_n) by middle relations (m.u)(x)n - m(x)(u.n).

    right_acts[t] is the matrix of the right action of the t-th middle basis
    element on the left factor, left_acts[t] the left action on the right
    factor.  Relation generators over basis triples suffice by bilinearity.
    The generator of (t, i, k) reads column i of right_acts[t] and column k
    of left_acts[t].  When one of the two is empty the relation is
    one-sided, the other column placed at i or at k: one with a single
    entry zeroes its column (a set of ints, as in `LinearSystem`), and one
    with more is kept once, under the key (side, place, column content),
    whose content is built once per action column.  Two-sided relations
    are kept as they come: they are short, and hashing each one costs
    more than the eliminator spends on the repeats.  The kept rows are
    reduced without the zeroed columns, which then join as pivots
    (`_eliminate_zeroed`), so no relation row with one entry reaches the
    eliminator and the quotient is the one of every relation.
    """
    red = field.reduce
    rows, zeroed, kept = [], set(), set()
    for R, L in zip(right_acts, left_acts):
        ncols, nkeys = L._columns, None
        for i, mcol in enumerate(R._columns):
            if not mcol:  # m_i . u = 0: the relations m_i (x) (u . n_k)
                nkeys = nkeys or [tuple(ncol) for ncol in ncols]
                base = i * dim_n
                for ncol, nkey in zip(ncols, nkeys):
                    if len(ncol) == 1:
                        zeroed.add(base + ncol[0][0])
                    elif ncol and (0, i, nkey) not in kept:
                        kept.add((0, i, nkey))
                        rows.append({base + b: y for b, y in ncol})
                continue
            mkey = None
            for k, ncol in enumerate(ncols):
                if ncol:
                    row = {a * dim_n + k: x for a, x in mcol}
                    _subtract(red, row, 1, [(i * dim_n + b, y) for b, y in ncol])
                    if len(row) > 1:
                        rows.append(row)
                    else:  # the two sides cancel but at one column, or at all
                        zeroed.update(row)
                elif len(mcol) == 1:  # u . n_k = 0: the relation (m_i . u) (x) n_k
                    zeroed.add(mcol[0][0] * dim_n + k)
                else:  # the same, with more entries
                    mkey = mkey or tuple(mcol)
                    if (1, k, mkey) not in kept:
                        kept.add((1, k, mkey))
                        rows.append({a * dim_n + k: x for a, x in mcol})
    return _quotient(field, dim_m * dim_n, _eliminate_zeroed(field, rows, zeroed))


def triple_balanced_quotient(field: Field, d1: int, d2: int, d3: int,
                             acts12, acts23) -> QuotientSpace:
    """Quotient of k^(d1*d2*d3) by middle relations at both junctions, with
    the canonical non-pivot basis: the tests' reference, called by no
    library code, which compares in (M (x)_A N) (x)_A P through the
    projection `algebra.cached_triple` with the same kernel.  acts12 =
    (right action mats on factor 1, left action mats on factor 2), acts23
    = (right action mats on factor 2, left action mats on factor 3).  Built
    from two balanced quotients, it equals the quotient by the relations of
    both junctions, basis included, whenever the right actions on factor 2
    descend to M (x)_A N, as they do for a bimodule."""
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
    rev = _eliminate(F, [{total - 1 - j: x for j, x in row} for row in pi._entries])
    free = sorted(total - 1 - c for c, _ in rev)
    on_free = Mat._of_rows(F, len(free), q.dim, [pi._columns[c] for c in free]).transpose()
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
    S by `_add_term`; only the touched entries are reduced.
    """
    if P.cols != fn * c or S.rows != fm * c:
        raise DimensionMismatch("tensor slice operator shape mismatch")
    acc = defaultdict(dict)
    _add_term(acc, 1, 0, P, S, c, fm, frozenset())
    return _from_entries(P.field, [acc.get(i, {}) for i in range(P.rows * S.cols)], fn * fm)


def _add_term(rows: defaultdict, sign, off: int, P: Mat, S: Mat, c: int, fm: int,
              zeroed) -> None:
    """Add sign * P @ (X tensor I_c) @ S, for X with fm columns whose
    row-major entries sit at the columns from off on, to rows, a
    `defaultdict(dict)` from the index p * S.cols + s of row (p, s) to
    its {column: value} dict, from the nonzero entries of P and S.  The
    columns in zeroed are skipped.  A row is made when a term first
    writes to it.  Values are left as plain `+` and `*` give them."""
    srows, width = S._entries, S.cols
    for p, prow in enumerate(P._entries):
        base = p * width
        for t, a in prow:
            n, k = divmod(t, c)
            a = sign * a
            for m in range(fm):
                col = off + n * fm + m
                if col in zeroed:
                    continue
                for s, b in srows[m * c + k]:
                    row = rows[base + s]
                    row[col] = row.get(col, 0) + a * b


class LinearSystem:
    """Homogeneous linear equations in named matrix unknowns.

    The columns are the entries of the unknowns in declaration order, each
    flattened row-major.  An equation is a sum of signed terms
    sign * P @ (X tensor I_c) @ S (c = 1 meaning P @ X @ S) and stands for
    one row per entry of the result.  Terms on the same unknown accumulate,
    terms on an empty unknown contribute nothing, and a row that comes out
    zero or repeats an earlier row of the system is not kept.  A row with
    one entry says that its column is 0: the column joins the set
    `zeroed` instead of being stored, and later equations are formed
    without it (the singleton step of structured Gaussian elimination,
    LaMacchia and Odlyzko, CRYPTO '90).  `kernel` reduces the kept rows
    without the zeroed columns and then makes each zeroed column a pivot.
    None of this moves a kernel basis: every e_c of a zeroed column lies
    in the row span, and the rref depends only on the row span and the
    column order.  A system only solves: a given map is tested against
    the law it should satisfy, not against a solved system.
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
        self.rows = []  # sparse: {column: nonzero value}, each kept once, two entries or more
        self.zeroed = set()  # the columns of the one-entry rows
        self._kept = {frozenset()}  # the items of each row kept, and of the zero row

    def add(self, *terms) -> None:
        """Add sum(sign * P @ (X_name tensor I_c) @ S) = 0; each term is
        (sign, name, P, S) or (sign, name, P, S, c).  The terms skip the
        columns already zeroed, and the rows they touch are kept in
        ascending index order."""
        F, zeroed = self.field, self.zeroed
        acc, size = defaultdict(dict), None
        for sign, name, P, S, *c in terms:
            fn, fm = self.shapes[name]
            if fn * fm == 0:
                continue
            c = c[0] if c else 1
            if P.cols != fn * c or S.rows != fm * c:
                raise DimensionMismatch(f"term on {name} does not fit its {fn}x{fm} shape")
            if size is None:
                size = P.rows * S.cols
            elif size != P.rows * S.cols:
                raise DimensionMismatch("terms of one equation differ in shape")
            _add_term(acc, F.of(sign), self.offsets[name], P, S, c, fm, zeroed)
        red, kept = F.reduce, self._kept
        modular = F.p is not None
        for i in sorted(acc):
            row = acc[i]
            if modular:
                row = {j: x for j, x in zip(row, map(red, row.values())) if x}
            else:  # an int over QQ is in canonical form already
                row = {j: x if type(x) is int else red(x) for j, x in row.items() if x}
            if len(row) == 1:
                zeroed.update(row)
                continue
            key = frozenset(row.items())
            if key not in kept:
                kept.add(key)
                self.rows.append(row)

    def kernel(self) -> Mat:
        """Basis of the solutions as rows over the whole column layout."""
        return _null_basis(self.field, self.width, _eliminate_zeroed(self.field, self.rows, self.zeroed))

    def basis(self) -> list:
        """Basis of the solutions, each a tuple of unknown values in
        declaration order."""
        layout = [(self.offsets[name], rows, cols) for name, (rows, cols) in self.shapes.items()]
        kernel = self.kernel()
        return [tuple(_from_flat(self.field, rows, cols,
                                 [(j - off, x) for j, x in krow if off <= j < off + rows * cols])
                      for off, rows, cols in layout)
                for krow in kernel._entries]


def unit_vec(field: Field, n: int, i: int) -> tuple:
    """The i-th standard basis vector of field^n."""
    return (field.zero,) * i + (field.one,) + (field.zero,) * (n - 1 - i)


def random_invertible(field: Field, n: int, rng) -> Mat:
    """Deterministic (seeded) invertible matrix with small entries."""
    while True:
        data = tuple(field.random(rng) for _ in range(n * n))
        m = Mat(field, n, n, data)
        if rank(m) == n:
            return m
