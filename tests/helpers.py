"""Code the tests share that the library itself never calls.

* `dense_triple_quotient` is the reference for
  `linalg.triple_balanced_quotient`: it writes every balanced relation of
  both junctions over the d1*d2*d3 ambient columns and eliminates them in
  one matrix.
* `reference_induced_right`, `reference_induced_delta` and
  `reference_smash_mul` are the references for the right action and the
  comultiplication of `hopf.coring_from_comodule_algebra` and for
  `hopf.SmashProduct.mul`: they build each entry by a loop over basis
  indices instead of by Kronecker products.
* `reference_validate_ring_bimodule` and `reference_validate_morita_context`
  are the references for `morita.validate_ring_bimodule` and
  `morita.validate_morita_context`: they check each law one pair of basis
  elements at a time, with dense Kronecker products and one linear
  combination of action matrices per index pair.
* `reference_coefficient_ring` is the reference for
  `morita.coefficient_ring`: it multiplies, shifts and repeats the
  coefficient families block by block instead of taking a subalgebra of
  the product of base copies.  `reference_intertwining_failures` is the
  reference for `algebra.intertwining_failures`: one linear combination of
  the target actions per basis element, the loop the context comparisons
  ran before they were one identity.
* `reference_pack_gcomodule`, `reference_gcomodule_to_graded`,
  `reference_comodule_to_module`, `reference_graded_to_gcomodule` and
  `reference_dual_basis_comultiplication` are the references for
  `comodules.pack_gcomodule`, the dual-ring functors of `dualring` and
  `dualring.check_dual_basis_comultiplication`.  The pack reference
  eliminates over the whole direct sum instead of assembling its quotient
  from the summands'; the others add up one dual-basis pair or one
  functional at a time.
* `reference_is_gcomodule_hom` is the reference for
  `comodules.is_gcomodule_map`: it checks right-linearity one base basis
  element at a time and applies each candidate map through a pair
  projection one degree pair at a time, instead of through
  `algebra.intertwining_failures` and `coring.comultiplicative_failures`.
* `dense_rref_rows` is the dense Gauss-Jordan elimination the library
  used before its sparse eliminator (`linalg._eliminate`): it takes the
  first row with an entry in each column as the pivot.  `dense_rref_pivots`,
  `dense_kernel`, `dense_solve`, `dense_inverse` and `dense_quotient_by`
  are the library's old elimination-backed operations written on it, the
  references for `rref_pivots`, `kernel`, `solve`, `inverse` and
  `quotient_by`.
* `reference_validate_algebra`, `reference_validate_bimodule`,
  `reference_validate_ring_morphism`, `reference_multiplicative_failures`
  and `reference_grouplike_character` are the references for the algebra
  laws the library states as matrix identities over `Algebra.mul_mat`
  (`validate_algebra`, `validate_bimodule`, `validate_ring_morphism`,
  `algebra_map_failures` and `grouplike_character`): they multiply basis
  vectors one pair or triple at a time with `multiply`.
* `cube` reads the structure constants mul[i][j] (the coordinates of
  e_i e_j) off `Algebra.mul_mat`, the table an algebra stored before its
  multiplication matrix was its storage; `multiply` is the product of two
  vectors by an index loop over it.  `reference_tensor_algebra`,
  `reference_subalgebra` and `reference_from_products` build the
  structure constants of `algebra.tensor_algebra`, `algebra.subalgebra`
  and `dualring.GradedAlgebra.from_products` entry by entry and pass them
  to `Algebra.from_tables`.
* `reference_coring_laws`, `reference_comultiplicative_row`,
  `reference_cofree_compatible_row`, `reference_validate_comodule`,
  `reference_validate_g_comodule`, `reference_graded_ring_laws`,
  `reference_validate_smash_product`, `reference_graded_map_failures`,
  `reference_graded_module_laws` and `reference_validate_rmodule` are the
  references for the degree-indexed laws that `coring.coaction_failures`,
  `coring.comultiplicative_failures`, `dualring.graded_action_failures` and
  `dualring.graded_map_failures` state once: each checks its own kind of
  structure by a loop over degree pairs or triples, and the plain comodule
  and R-module keep laws of their own instead of being read as their
  replicates at the identity tag.
* `left_mult` and `right_mult` are the multiplications by one element,
  one `kron_after` each, the references for `Algebra.left_mults`,
  `Algebra.right_mults` and the action matrices `left_mats` and
  `right_mats`, which are read off one product or off `mul_mat` itself.
  `reference_precomposed` is `GradedRing.precomposed` as it was before it
  was one `kron_after`: the functionals stacked by a reshape, one
  product and a reshape back.  `reference_balanced_quotient` is
  `linalg.balanced_quotient` writing every relation row, one-entry and
  repeated rows included, and eliminating them in one `quotient_by`.
* `reference_dual_mul` and `reference_standard_context` are the
  references for `dualring.GradedRing._build_mul` and for
  `morita.graded_end` and `morita.context_from_graded_module`: they apply
  each basis map and solve each coordinate vector one at a time
  (`coords_in` or `dual_coords` per product, per family or per
  functional), the loops the library ran before it stacked each degree's
  maps and solved each degree's coordinates in one `rowspace_coords`.
* `coords_in` and `dual_coords` are the one-vector coordinate solves of
  the tests: one row of `linalg.rowspace_coords` and of
  `GradedRing.coordinates`.  `reference_solve` is `linalg.solve` as it
  was before it became the one-row case of `rowspace_coords`: an
  elimination of its own with b as an augmented column.
* `reference_graded_module_balance` and `reference_dual_ring_compat` are
  the references for the balanced row of `dualring.validate_graded_module`
  and the bimodule-compat row of `dualring.validate_graded_ring`: they
  compare the two sides of each law one base basis element at a time,
  where the library compares identities over the collapse maps, two per
  degree pair or per degree.
* `trivial_coring` (every component the regular bimodule), and
  `GradedCoring` with `pack_graded_coring` and `unpack_graded_coring`,
  the paper's packing of a group coring into one coring graded by the
  group and back, are objects only the tests use: no report row checks
  the packed coring.
* `Dense` is a matrix kept as a plain row-major tuple, the storage `Mat`
  had before its sparse rows, with the operations `linalg` now writes on
  rows (`row`, `col`, `transpose`, `+`, `-`, `scale`, `is_zero`,
  `reshape`, `row_space`, `kernel`) as slices and index loops over that
  tuple; `dense_hstack`, `dense_vstack`, `dense_vec_rows`,
  `dense_block_matrix`, `dense_tensor` and `dense_quotient` are the
  references for `hstack`, `vstack`, `vec_rows`, `block_matrix`,
  `tensor_k` and the `proj` and `sect` of `quotient_by`.  None of them
  reads a `Mat`.
* `derived` gives a fixture the `Derived` objects that the checks taking
  a structure's derived objects read, as `MainStructure.derived` does.
* `triangular_family` is a grouplike family over a group with elements
  that are not their own inverses and that does not commute with the base,
  so the shifts of the graded Morita contexts are not the identity.
* `coinvariants` solves the coinvariants of a single comodule.
* `reference_trace_generator` is the reference for the generator verdict
  of `algebra.left_module_predicates`: it grows the span of the trace
  values by products with the base until one solve finds them all inside,
  the saturation the library ran before it read the trace ideal off the
  span of the values at once.
* `cyclic_group`, `symmetric3`, `field_add`, `field_sub`, `field_mul`,
  `field_div` and `entry` are the cyclic groups, the symmetric group S3,
  the arithmetic of a field and the entry (i, j) of a matrix, which only
  the tests build or read.  `mixed_mat` is a seeded random sparse
  matrix of small integers and, over QQ, fractions.  `from_cols` is the
  matrix of a list of columns of any scalars, its row count read off the
  first column: the dense entry point the tests write matrices through,
  which the library, where every constructor is given its row count, no
  longer has.
* `over_prime_field` rewrites a structure file over QQ as the same file
  over GF(p): the oracle that compares the reports of the two fields runs
  the unchanged modular code against the rationals.
* `regular_cyclic_text(n)` is the structure file of the regular comodule
  algebra k[C_n] over QQ, the ladder of sizes above the fixtures:
  `bench/inputs/c3-qq.coring` is its n = 3 case, and `over_prime_field`
  gives its twins over GF(p).
* The other functions are checks and objects only the tests use: the
  dual-basis identity, tensor quotient maps, coring isomorphisms, the
  graded-algebra and Hopf-algebra axioms, the group algebra with its
  standard Hopf structure, a Hopf family with a broken antipode and the
  trivial Hopf family on the base field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from corings.algebra import (
    Algebra,
    Bimodule,
    BimoduleMap,
    DualBasis,
    MissingDualBasis,
    TensorProduct,
    cached_tensor,
    cached_triple,
    contract_left,
    contract_right,
    direct_sum_bimodule,
    field_algebra,
    find_dual_basis,
    is_bimodule_iso,
    left_dual,
    tensor_algebra,
    tensor_over_algebra,
    validate_algebra,
)
from corings.comodules import Comodule, GComodule
from corings.coring import CofreeWitness, GroupCoring, GroupCoringMorphism, cofree_coring
from corings.dualring import GradedAlgebra, GradedModule, GradedRing, RModule
from corings.galois import CoinvariantRing, GrouplikeFamily, RingMorphism
from corings.groups import TRIVIAL_GROUP, FiniteGroup
from corings.hopf import HopfAlgebra, HopfGCoalgebra, cofree_hopf
from corings.linalg import (
    Mat,
    _eliminate,
    _pairs,
    QuotientSpace,
    block_matrix,
    combine,
    hstack,
    kernel,
    kron_after,
    quotient_by,
    row_space,
    rowspace_coords,
    tensor_k,
    tensor_vec,
    unit_vec,
    vstack,
)
from corings.morita import CoefficientRing, MoritaContext, RingBimodule, graded_hom
from corings.report import CheckReport
from corings.scalars import GF, QQ, DimensionMismatch, Field
from corings.structfile import Derived


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group of order n, the residues mod n under addition."""
    return FiniteGroup(n, tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def symmetric3() -> FiniteGroup:
    """S3 with elements enumerated as permutations of (0,1,2) in
    lexicographic order of their one-line notation, identity first."""
    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(idx[tuple(p[q[k]] for k in range(3))] for q in perms) for p in perms
    )
    return FiniteGroup(6, table)


def field_add(field: Field, a, b):
    """a + b in field."""
    return field.reduce(a + b)


def field_sub(field: Field, a, b):
    """a - b in field."""
    return field.reduce(a - b)


def field_mul(field: Field, a, b):
    """a * b in field."""
    return field.reduce(a * b)


def field_div(field: Field, a, b):
    """a / b in field."""
    return field_mul(field, a, field.inv(b))


def entry(m, i: int, j: int):
    """Entry (i, j) of a `Mat` or a `Dense`, read off its row i."""
    return m.row(i)[j]


def from_cols(field: Field, cols) -> Mat:
    """The matrix with the given columns, each entry coerced through
    `Field.of`, with as many rows as the first column has entries (none
    when there is no column)."""
    cols = [[field.of(x) for x in c] for c in cols]
    return Mat._from_cols(field, cols, len(cols[0]) if cols else 0)


def mixed_mat(field: Field, rows: int, cols: int, rng) -> Mat:
    """Sparse entries with small integers and, over QQ, proper fractions."""
    def entry():
        if rng.random() < 0.5:
            return field.zero
        if field.p is None and rng.random() < 0.3:
            return field.of(Fraction(rng.randint(-4, 4), rng.randint(2, 4)))
        return field.of(rng.randint(-3, 3))
    return Mat(field, rows, cols, tuple(entry() for _ in range(rows * cols)))


# an integer or a/b scalar token of a structure file, not part of a name
_SCALAR = re.compile(r"(?<![\w./-])(-?\d+)(?:/(-?\d+))?(?![\w./])")


def over_prime_field(text: str, p: int) -> str:
    """The structure file text, declared over QQ, declared over GF(p)
    instead, with each scalar a/b written as a * b^-1 mod p and each
    integer, negative ones included, as its residue in [0, p).  Indices,
    dimensions and degrees are integers in [0, p) and stay as they are;
    comments are kept.  Raises ValueError when p divides a denominator."""
    lines = text.split("\n")
    if "field Q" not in lines:
        raise ValueError("the text is not declared over QQ")

    def residue(match):
        a, b = int(match[1]), int(match[2] or 1)
        if b % p == 0:
            raise ValueError(f"{p} divides the denominator of {match[0]}")
        return str(a * pow(b, -1, p) % p)

    for k, line in enumerate(lines):
        code, hash_, comment = line.partition("#")
        lines[k] = _SCALAR.sub(residue, code) + hash_ + comment
    lines[lines.index("field Q")] = f"field Fp {p}"
    return "\n".join(lines)


def regular_cyclic_text(n: int) -> str:
    """The structure file of the regular comodule algebra k[C_n] over QQ:
    the group algebra A of C_n coacted on by the cofree Hopf family of its
    function algebra, with its coring, canonical grouplike and base k."""
    unit = [1] + [0] * (n - 1)

    def e(k):
        return [int(j == k % n) for j in range(n)]

    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[e(i + j) for j in range(n)] for i in range(n)]
    delta = [[int(i == j == k) for k in range(n)] for i in range(n) for j in range(n)]
    antipode = [e(-i) for i in range(n)]
    return "\n".join([
        f"# regular comodule algebra k[C_{n}] over QQ",
        "field Q",
        "",
        "begin group G", f"  table {table}", "end",
        "",
        "begin algebra A", f"  dim {n}", f"  unit {unit}", f"  mul {mul}", "end",
        "",
        "begin algebra B", "  dim 1", "  unit [1]", "  mul [[[1]]]", "end",
        "",
        "begin hopfalgebra HE", "  algebra A", f"  delta {delta}", f"  counit {[[1] * n]}",
        f"  antipode {antipode}", "end",
        "",
        "begin hopf H", "  group G", "  cofree HE", "end",
        "",
        "begin comodule-algebra CA", "  algebra A", "  hopf H", "  regular", "end",
        "",
        "begin coring C", "  from-comodule-algebra CA", "end",
        "",
        "begin grouplike X", "  coring C", "  canonical", "end",
        "",
        "begin morphism IB", "  src B", "  dst A", f"  mat {[[x] for x in unit]}", "end",
        "",
        "begin main", "  coring C", "  grouplike X", "  base IB", "  comodule-algebra CA", "end",
        "",
    ])


def cube(a: Algebra) -> tuple:
    """The structure constants of a: cube(a)[i][j] is the coordinate tuple
    of e_i e_j, column i * dim + j of `a.mul_mat`."""
    return tuple(tuple(a.mul_mat.col(i * a.dim + j) for j in range(a.dim)) for i in range(a.dim))


def multiply(a: Algebra, x, y) -> tuple:
    """The product x y in a, summed over the structure constants cube(a)[i][j]
    of the nonzero coordinate pairs, each read as its column of `a.mul_mat`."""
    acc = [0] * a.dim
    for i, s in enumerate(x):
        if not s:
            continue
        for j, t in enumerate(y):
            if not t:
                continue
            st = s * t
            for k, c in enumerate(a.mul_mat.col(i * a.dim + j)):
                if c:
                    acc[k] += st * c
    return tuple(map(a.field.reduce, acc))


def left_mult(a: Algebra, x) -> Mat:
    """The matrix of y -> x y, from one `kron_after` over `a.mul_mat` for
    the one element x."""
    return kron_after(a.mul_mat, Mat.col_vector(a.field, x), Mat.identity(a.field, a.dim))


def right_mult(a: Algebra, x) -> Mat:
    """The matrix of y -> y x, from one `kron_after` over `a.mul_mat` for
    the one element x."""
    return kron_after(a.mul_mat, Mat.identity(a.field, a.dim), Mat.col_vector(a.field, x))


def reference_tensor_algebra(a: Algebra, b: Algebra) -> Algebra:
    """A (x)k B from structure constants: (e_i (x) f_j)(e_k (x) f_l) =
    e_i e_k (x) f_j f_l, at index i * dim B + j."""
    ca, cb, F = cube(a), cube(b), a.field
    mul = [[tensor_vec(F, ca[i][k], cb[j][l]) for k in range(a.dim) for l in range(b.dim)]
           for i in range(a.dim) for j in range(b.dim)]
    return Algebra.from_tables(F, mul, tensor_vec(F, a.unit, b.unit))


def reference_subalgebra(ambient: Algebra, basis: Mat) -> Algebra:
    """The subalgebra on the rows of basis, one product of rows at a time
    (the rows are assumed to span a subalgebra)."""
    rows = [basis.row(i) for i in range(basis.rows)]

    def coords(v) -> tuple:
        c = coords_in(basis, v)
        assert c is not None
        return c

    mul = [[coords(multiply(ambient, u, v)) for v in rows] for u in rows]
    return Algebra.from_tables(ambient.field, mul, coords(ambient.unit))


def reference_from_products(field: Field, group: FiniteGroup, dims, product, unit) -> Algebra:
    """The packed algebra of `GradedAlgebra.from_products`, entry by entry:
    e_i of degree a times e_j of degree b is column i * dims[b] + j of
    product(a, b), placed at the offset of degree ab."""
    offsets = [sum(dims[:a]) for a in range(len(dims))]
    n = sum(dims)

    def placed(c: int, vec) -> tuple:
        out = [field.zero] * n
        out[offsets[c]:offsets[c] + dims[c]] = vec
        return tuple(out)

    mul = [[placed(group.mul(a, b), product(a, b).col(i * dims[b] + j))
            for b in group.elements() for j in range(dims[b])]
           for a in group.elements() for i in range(dims[a])]
    return Algebra.from_tables(field, mul, placed(group.identity, unit))


def dense_rref_rows(field: Field, rows: list) -> tuple[list, list]:
    """In-place reduced row echelon form of dense rows; returns (rows,
    pivot column list)."""
    red = field.reduce
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.inv(rows[r][c])
        prow = rows[r] = [red(inv * x) for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [red(x - f * y) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return rows, pivots


def dense_rref_pivots(m: Mat) -> tuple[Mat, tuple]:
    rows, pivots = dense_rref_rows(m.field, [list(m.row(i)) for i in range(m.rows)])
    return Mat(m.field, m.rows, m.cols, tuple(x for row in rows for x in row)), tuple(pivots)


def dense_kernel(m: Mat) -> Mat:
    """The free-column kernel basis read off the dense rref."""
    F = m.field
    r, pivots = dense_rref_pivots(m)
    rows = []
    for c in (c for c in range(m.cols) if c not in pivots):
        v = [F.zero] * m.cols
        v[c] = F.one
        for i, pc in enumerate(pivots):
            if entry(r, i, c):
                v[pc] = F.neg(entry(r, i, c))
        rows.append(v)
    return Mat(F, len(rows), m.cols, tuple(x for row in rows for x in row))


def dense_solve(m: Mat, b) -> tuple | None:
    F = m.field
    aug = [list(m.row(i)) + [F.of(b[i])] for i in range(m.rows)]
    rows, pivots = dense_rref_rows(F, aug)
    x = [F.zero] * m.cols
    for i, pc in enumerate(pivots):
        if pc == m.cols:
            return None
        x[pc] = rows[i][m.cols]
    return tuple(x)


def dense_inverse(m: Mat) -> Mat:
    F, n = m.field, m.rows
    aug = [list(m.row(i)) + list(unit_vec(F, n, i)) for i in range(n)]
    rows, pivots = dense_rref_rows(F, aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return Mat(F, n, n, tuple(x for row in rows for x in row[n:]))


def dense_quotient_by(field: Field, ambient_dim: int, relations: Mat) -> QuotientSpace:
    """The quotient basis is the non-pivot columns; proj is the kernel
    basis of the relations and sect their unit vectors."""
    _, pivots = dense_rref_pivots(relations)
    free = [c for c in range(ambient_dim) if c not in pivots]
    sect = from_cols(field, [unit_vec(field, ambient_dim, c) for c in free]) if free \
        else Mat(field, ambient_dim, 0, ())
    return QuotientSpace(field, ambient_dim, dense_kernel(relations), sect, len(free))


@dataclass(frozen=True)
class Dense:
    """A matrix as its row-major entries, with the dense operations."""

    field: Field
    rows: int
    cols: int
    data: tuple

    def mat(self) -> Mat:
        return Mat(self.field, self.rows, self.cols, self.data)

    def nonzero_rows(self) -> list:
        """The nonzero (column, value) pairs of each row, ascending: what a
        `Mat` of these entries stores."""
        return [[(j, x) for j, x in enumerate(self.row(i)) if x] for i in range(self.rows)]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.data[j::self.cols]

    def transpose(self) -> "Dense":
        return Dense(self.field, self.cols, self.rows,
                     tuple(x for j in range(self.cols) for x in self.col(j)))

    def __add__(self, other: "Dense") -> "Dense":
        return Dense(self.field, self.rows, self.cols,
                     tuple(field_add(self.field, x, y) for x, y in zip(self.data, other.data)))

    def __sub__(self, other: "Dense") -> "Dense":
        return Dense(self.field, self.rows, self.cols,
                     tuple(field_sub(self.field, x, y) for x, y in zip(self.data, other.data)))

    def scale(self, c) -> "Dense":
        F = self.field
        return Dense(F, self.rows, self.cols, tuple(field_mul(F, F.of(c), x) for x in self.data))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def reshape(self, rows: int, cols: int) -> "Dense":
        assert rows * cols == len(self.data)
        return Dense(self.field, rows, cols, self.data)

    def _rref(self) -> tuple[list, list]:
        return dense_rref_rows(self.field, [list(self.row(i)) for i in range(self.rows)])

    def row_space(self) -> "Dense":
        rows, pivots = self._rref()
        return Dense(self.field, len(pivots), self.cols,
                     tuple(x for row in rows[:len(pivots)] for x in row))

    def kernel(self) -> "Dense":
        """The free-column kernel basis."""
        F = self.field
        rows, pivots = self._rref()
        out = []
        for c in (c for c in range(self.cols) if c not in pivots):
            v = [F.zero] * self.cols
            v[c] = F.one
            for row, pc in zip(rows, pivots):
                if row[c]:
                    v[pc] = F.neg(row[c])
            out.extend(v)
        return Dense(F, len(out) // self.cols if self.cols else 0, self.cols, tuple(out))


def dense_hstack(mats) -> Dense:
    return Dense(mats[0].field, mats[0].rows, sum(m.cols for m in mats),
                 tuple(x for i in range(mats[0].rows) for m in mats for x in m.row(i)))


def dense_vstack(mats) -> Dense:
    return Dense(mats[0].field, sum(m.rows for m in mats), mats[0].cols,
                 tuple(x for m in mats for x in m.data))


def dense_vec_rows(field: Field, width: int, mats) -> Dense:
    return Dense(field, len(mats), width, tuple(x for m in mats for x in m.data))


def dense_block_matrix(field: Field, row_dims, col_dims, blocks) -> Dense:
    """Entry by entry: find the block of each position, read it or put zero."""
    def locate(dims, idx):
        for b, d in enumerate(dims):
            if idx < d:
                return b, idx
            idx -= d
    data = []
    for i in range(sum(row_dims)):
        bi, r = locate(row_dims, i)
        for j in range(sum(col_dims)):
            bj, c = locate(col_dims, j)
            data.append(entry(blocks[(bi, bj)], r, c) if (bi, bj) in blocks else field.zero)
    return Dense(field, sum(row_dims), sum(col_dims), tuple(data))


def dense_tensor(f: Dense, g: Dense) -> Dense:
    F = f.field
    return Dense(F, f.rows * g.rows, f.cols * g.cols, tuple(
        field_mul(F, entry(f, i, k), entry(g, j, l))
        for i in range(f.rows) for j in range(g.rows)
        for k in range(f.cols) for l in range(g.cols)))


def dense_quotient(field: Field, ambient_dim: int, relations: Dense) -> tuple[Dense, Dense]:
    """(proj, sect) of the quotient by the rows of relations: the kernel
    basis of the relations, and the unit vectors of the free columns."""
    proj = relations.kernel()
    _, pivots = relations._rref()
    free = [c for c in range(ambient_dim) if c not in pivots]
    sect = tuple(field.one if c == f else field.zero for c in range(ambient_dim) for f in free)
    return proj, Dense(field, ambient_dim, len(free), sect)


def derived(fx) -> Derived:
    """The derived objects of a fixture's coring, family, base morphism,
    witness and comodule algebra."""
    return Derived(fx.coring, fx.grouplike, fx.base, fx.witness, fx.comodule_algebra)


def triangular_family() -> GrouplikeFamily:
    """The family x_a = diag(1, 2^a) on trivial_coring(T_2, C_3) over GF(7),
    where T_2 is the algebra of upper triangular 2x2 matrices with basis
    e11, e12, e22 (2 has order three mod 7)."""
    F = GF(7)
    # mul[i][j]: the coordinates of e_i e_j
    t2 = Algebra.from_tables(F, [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
                                 [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
                                 [[0, 0, 0], [0, 0, 0], [0, 0, 1]]], [1, 0, 1])
    g = cyclic_group(3)
    coring, _ = trivial_coring(t2, g)
    return GrouplikeFamily(coring, tuple((1, 0, pow(2, a, 7)) for a in g.elements()))


def coinvariants(m: Comodule, x: GrouplikeFamily) -> Mat:
    """Basis rows of the coinvariant subspace of a comodule: the v with
    rho_a(v) = v (x) x_a in every degree a."""
    F = m.coring.base.field
    ident = Mat.identity(F, m.space.dim)
    return kernel(vstack([
        m.rho[a] - kron_after(m.tensor(a).space.proj, ident, Mat.col_vector(F, x.vec(a)))
        for a in m.coring.group.elements()]))


def dense_triple_quotient(field: Field, d1: int, d2: int, d3: int,
                          acts12, acts23) -> QuotientSpace:
    """Quotient of k^(d1*d2*d3) by middle relations at both junctions.

    acts12 = (right action mats on factor 1, left action mats on factor 2),
    acts23 = (right action mats on factor 2, left action mats on factor 3).
    """
    F = field
    total = d1 * d2 * d3
    rows = []
    r12, l12 = acts12
    for R, L in zip(r12, l12):
        for i in range(d1):
            mcol = R.col(i)
            for k in range(d2):
                ncol = L.col(k)
                base = [F.zero] * (d1 * d2)
                for a, x in enumerate(mcol):
                    if x:
                        base[a * d2 + k] = field_add(F, base[a * d2 + k], x)
                for b, y in enumerate(ncol):
                    if y:
                        base[i * d2 + b] = field_sub(F, base[i * d2 + b], y)
                if any(base):
                    for w in range(d3):
                        row = [F.zero] * total
                        for idx, v in enumerate(base):
                            if v:
                                row[idx * d3 + w] = v
                        rows.append(row)
    r23, l23 = acts23
    for R, L in zip(r23, l23):
        for k in range(d2):
            mcol = R.col(k)
            for w in range(d3):
                ncol = L.col(w)
                base = [F.zero] * (d2 * d3)
                for a, x in enumerate(mcol):
                    if x:
                        base[a * d3 + w] = field_add(F, base[a * d3 + w], x)
                for b, y in enumerate(ncol):
                    if y:
                        base[k * d3 + b] = field_sub(F, base[k * d3 + b], y)
                if any(base):
                    for u in range(d1):
                        row = [F.zero] * total
                        off = u * d2 * d3
                        for idx, v in enumerate(base):
                            if v:
                                row[off + idx] = v
                        rows.append(row)
    if rows:
        rel = Mat(F, len(rows), total, tuple(x for row in rows for x in row))
    else:
        rel = None
    return quotient_by(F, total, rel)


def induced_map(src: TensorProduct, dst: TensorProduct, f: Mat, g: Mat) -> Mat:
    """The map f (x)_A g between tensor quotients, computed through sections."""
    return dst.space.proj @ tensor_k(f, g) @ src.space.sect


def check_dual_basis(db: DualBasis) -> bool:
    m = db.module
    F = m.base.field
    for j in range(m.dim):
        e = unit_vec(F, m.dim, j)
        acc = [F.zero] * m.dim
        for f, vec in db.pairs:
            a = f.apply(e)
            img = m.left_act(a).apply(vec)
            acc = [field_add(F, x, y) for x, y in zip(acc, img)]
        if tuple(acc) != e:
            return False
    return True


def is_coring_iso(f: GroupCoringMorphism) -> bool:
    return all(
        is_bimodule_iso(BimoduleMap(f.src.comps[a], f.dst.comps[a], f.maps[a]))
        for a in f.src.group.elements()
    )


def validate_graded_algebra(ga: GradedAlgebra) -> CheckReport:
    rep = CheckReport()
    g = ga.group
    A = ga.algebra
    bad = []
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            for i in range(ga.dims[a]):
                for j in range(ga.dims[b]):
                    x = A.basis_vec(ga.offsets[a] + i)
                    y = A.basis_vec(ga.offsets[b] + j)
                    prod = multiply(A, x, y)
                    for k, v in enumerate(prod):
                        if v and not (ga.offsets[ab] <= k < ga.offsets[ab] + ga.dims[ab]):
                            bad.append((a, b, i, j))
                            break
    rep.add("grading.multiplicative", "homogeneous products land in the product degree",
            not bad, f"failing: {bad[:5]}" if bad else "")
    return rep


def validate_hopf_algebra(h: HopfAlgebra) -> CheckReport:
    rep = CheckReport()
    a = h.algebra
    F = a.field
    rep.extend(validate_algebra(a), prefix="underlying.")
    ident = Mat.identity(F, a.dim)
    lhs = tensor_k(h.delta, ident) @ h.delta
    rhs = tensor_k(ident, h.delta) @ h.delta
    rep.add("hopf.coassociative", "comultiplication coassociativity", lhs == rhs)
    rep.add("hopf.counit", "counit laws",
            tensor_k(ident, h.counit) @ h.delta == ident
            and tensor_k(h.counit, ident) @ h.delta == ident)
    aa = tensor_algebra(a, a)
    bad = [
        (i, j)
        for i in range(a.dim)
        for j in range(a.dim)
        if h.delta.apply(multiply(a, a.basis_vec(i), a.basis_vec(j)))
        != multiply(aa, h.delta.col(i), h.delta.col(j))
    ]
    rep.add("hopf.delta-multiplicative", "comultiplication is an algebra map",
            not bad, f"failing pairs: {bad[:5]}" if bad else "")
    rep.add("hopf.delta-unital", "comultiplication preserves the unit",
            h.delta.apply(a.unit) == tensor_vec(F, a.unit, a.unit))
    bad = [
        (i, j)
        for i in range(a.dim)
        for j in range(a.dim)
        if h.counit.apply(multiply(a, a.basis_vec(i), a.basis_vec(j)))
        != (field_mul(F, entry(h.counit, 0, i), entry(h.counit, 0, j)),)
    ]
    rep.add("hopf.counit-multiplicative", "counit is an algebra map",
            not bad and h.counit.apply(a.unit) == (F.one,),
            f"failing pairs: {bad[:5]}" if bad else "")
    mm = a.mul_mat
    anti1 = mm @ tensor_k(h.antipode, ident) @ h.delta
    anti2 = mm @ tensor_k(ident, h.antipode) @ h.delta
    unit_eps = from_cols(F, [tuple(field_mul(F, entry(h.counit, 0, i), u) for u in a.unit)
                                 for i in range(a.dim)])
    rep.add("hopf.antipode", "antipode law",
            anti1 == unit_eps and anti2 == unit_eps)
    return rep


def group_hopf_algebra(field: Field, g: FiniteGroup) -> HopfAlgebra:
    """The group algebra with its standard Hopf structure: basis elements are
    grouplike and the antipode inverts."""
    n = g.order
    basis = [unit_vec(field, n, i) for i in range(n)]
    mul = tuple(tuple(basis[g.mul(i, j)] for j in range(n)) for i in range(n))
    alg = Algebra.from_tables(field, mul, basis[g.identity])
    delta = from_cols(field, [tensor_vec(field, x, x) for x in basis])
    counit = Mat.from_rows(field, [[field.one] * n])
    antipode = from_cols(field, [basis[g.inv(i)] for i in range(n)])
    return HopfAlgebra(alg, delta, counit, antipode)


@lru_cache(maxsize=None)
def bad_antipode_hopf() -> HopfGCoalgebra:
    """Cofree family on the order-three group algebra with the antipode
    replaced by the identity: every axiom holds except the antipode law."""
    c3 = cyclic_group(3)
    ha = group_hopf_algebra(QQ, c3)
    broken = HopfAlgebra(ha.algebra, ha.delta, ha.counit, Mat.identity(QQ, 3))
    return cofree_hopf(broken, cyclic_group(2))


def trivial_hopf(field: Field, group: FiniteGroup) -> HopfGCoalgebra:
    """Tagged copies of the base field with its trivial Hopf structure."""
    one = Mat.identity(field, 1)
    return cofree_hopf(HopfAlgebra(field_algebra(field), one, one, one), group)


def reference_induced_right(ca, p: int) -> tuple:
    """Right action matrices of the degree-p component A (x) H_p of the
    coring the comodule algebra ca induces, summed term by term."""
    a = ca.algebra
    h = ca.hopf
    F = a.field
    hp = h.comps[p]
    dim = a.dim * hp.dim
    right = []
    for j in range(a.dim):
        v = ca.rho[p].col(j)
        acc = Mat.zeros(F, dim, dim)
        for pi in range(a.dim):
            for qi in range(hp.dim):
                coeff = v[pi * hp.dim + qi]
                if coeff:
                    acc = acc + tensor_k(a.right_mats[pi], hp.right_mats[qi]).scale(coeff)
        right.append(acc)
    return tuple(right)


def reference_induced_delta(ca, cor, p: int, q: int) -> Mat:
    """Comultiplication (p, q) of the coring cor that the comodule algebra
    ca induces, one pure tensor (a (x) h(1)) (x) (1 (x) h(2)) at a time."""
    a = ca.algebra
    h = ca.hopf
    g = h.group
    F = a.field
    pq = g.mul(p, q)
    t = cor.tensor(p, q)
    hp_dim = h.comps[p].dim
    hq_dim = h.comps[q].dim
    cols = []
    for i in range(a.dim):
        for m in range(h.comps[pq].dim):
            dcol = h.delta[(p, q)].col(m)
            vec = [F.zero] * t.space.ambient_dim
            for u in range(hp_dim):
                for v in range(hq_dim):
                    coeff = dcol[u * hq_dim + v]
                    if coeff:
                        first = [F.zero] * (a.dim * hp_dim)
                        first[i * hp_dim + u] = coeff
                        second = [F.zero] * (a.dim * hq_dim)
                        for k, unit_c in enumerate(a.unit):
                            if unit_c:
                                second[k * hq_dim + v] = unit_c
                        pure = tensor_vec(F, tuple(first), tuple(second))
                        vec = [field_add(F, xx, yy) for xx, yy in zip(vec, pure)]
            cols.append(t.space.project(vec))
    return from_cols(F, cols)


def reference_smash_mul(sp, p: int, q: int) -> Mat:
    """Multiplication SP_p (x) SP_q -> SP_{pq} of the smash product sp,
    entry by entry over the Sweedler parts."""
    ca = sp.ca
    h = ca.hopf
    g = sp.group
    a = ca.algebra
    F = sp.field
    pinv, qinv = g.inv(p), g.inv(q)
    pq = g.mul(p, q)
    hp, hq = h.comps[pinv], h.comps[qinv]
    hpq = h.comps[g.inv(pq)]
    # pairing data: delta of H_{(pq)^{-1}} into H_{q^{-1}} (x) H_{p^{-1}}
    dd = h.delta[(qinv, pinv)]
    # comultiplication of the dual component K_q = H_{q^{-1}}^*: transpose of mult
    mm_q = hq.mul_mat
    cols = []
    for hu in range(hp.dim):
        for ai in range(a.dim):
            for kv in range(hq.dim):
                for bj in range(a.dim):
                    # (delta_u^* # e_ai)(delta_v^* # e_bj)
                    # = (k(1)* . h*) # (k(2)* . a) b over Sweedler parts of k*
                    out = [F.zero] * (hpq.dim * a.dim)
                    # Sweedler parts of delta_v^*: <k(1)*, x><k(2)*, y> = <k*, xy>
                    for s in range(hq.dim):
                        for t_ in range(hq.dim):
                            coeff_split = entry(mm_q, kv, s * hq.dim + t_)
                            if not coeff_split:
                                continue
                            # action part: k(2)* . e_ai = <delta_t*, a[1,q^{-1}]> a[0]
                            acted = [F.zero] * a.dim
                            acol = ca.rho[qinv].col(ai)
                            for mi in range(a.dim):
                                cval = acol[mi * hq.dim + t_]
                                if cval:
                                    acted[mi] = field_add(F, acted[mi], cval)
                            if not any(acted):
                                continue
                            coeff_a = multiply(a, tuple(acted), a.basis_vec(bj))
                            # product part: (delta_s* ? delta_hu*) on H_{(pq)^{-1}}:
                            # <prod, h> = <delta_s*, h(1,q^{-1})><delta_hu*, h(2,p^{-1})>
                            for w in range(hpq.dim):
                                pair_val = entry(dd, s * hp.dim + hu, w)
                                if pair_val:
                                    for z, av in enumerate(coeff_a):
                                        if av:
                                            idx = w * a.dim + z
                                            out[idx] = field_add(F, 
                                                out[idx],
                                                field_mul(F, coeff_split, field_mul(F, pair_val, av)))
                    cols.append(tuple(out))
    return from_cols(F, cols)


def reference_validate_ring_bimodule(m: RingBimodule) -> CheckReport:
    """`morita.validate_ring_bimodule` as one loop per pair of basis elements."""
    rep = CheckReport()
    F = m.left_ring.field
    ident = Mat.identity(F, m.dim)

    def act(mats, vec):
        return combine(F, m.dim, m.dim, mats, vec)

    rep.add("bimodule.left-unital", "left unit acts as the identity",
            act(m.left, m.left_ring.unit) == ident)
    rep.add("bimodule.right-unital", "right unit acts as the identity",
            act(m.right, m.right_ring.unit) == ident)
    bad = []
    for i in range(m.left_ring.dim):
        for j in range(m.left_ring.dim):
            if act(m.left, multiply(
                    m.left_ring, m.left_ring.basis_vec(i), m.left_ring.basis_vec(j))) != m.left[i] @ m.left[j]:
                bad.append(("left", i, j))
    for i in range(m.right_ring.dim):
        for j in range(m.right_ring.dim):
            if act(m.right, multiply(
                    m.right_ring, m.right_ring.basis_vec(i), m.right_ring.basis_vec(j))) != m.right[j] @ m.right[i]:
                bad.append(("right", i, j))
    rep.add("bimodule.actions", "actions respect ring multiplication",
            not bad, f"failing: {bad[:5]}" if bad else "")
    bad = [(i, j) for i in range(m.left_ring.dim) for j in range(m.right_ring.dim)
           if m.left[i] @ m.right[j] != m.right[j] @ m.left[i]]
    rep.add("bimodule.commuting", "left and right actions commute",
            not bad, f"failing: {bad[:5]}" if bad else "")
    return rep


def reference_validate_morita_context(ctx: MoritaContext) -> CheckReport:
    """`morita.validate_morita_context` with a dense Kronecker product per
    law and basis element and a linear combination per index pair."""
    rep = CheckReport()
    F = ctx.ring1.field
    rep.extend(reference_validate_ring_bimodule(ctx.p), prefix="p.")
    rep.extend(reference_validate_ring_bimodule(ctx.q), prefix="q.")
    bad = []
    for j in range(ctx.ring2.dim):
        lhs = ctx.tau @ tensor_k(ctx.p.right[j], Mat.identity(F, ctx.q.dim))
        rhs = ctx.tau @ tensor_k(Mat.identity(F, ctx.p.dim), ctx.q.left[j])
        if lhs != rhs:
            bad.append(j)
    rep.add("morita.tau-balanced", "first connecting map is balanced over the big ring",
            not bad, f"failing basis: {bad[:5]}" if bad else "")
    bad = []
    for i in range(ctx.ring1.dim):
        lhs = ctx.mu @ tensor_k(ctx.q.right[i], Mat.identity(F, ctx.p.dim))
        rhs = ctx.mu @ tensor_k(Mat.identity(F, ctx.q.dim), ctx.p.left[i])
        if lhs != rhs:
            bad.append(i)
    rep.add("morita.mu-balanced", "second connecting map is balanced over the small ring",
            not bad, f"failing basis: {bad[:5]}" if bad else "")
    bad = []
    for i in range(ctx.ring1.dim):
        lhs = ctx.tau @ tensor_k(ctx.p.left[i], Mat.identity(F, ctx.q.dim))
        if lhs != ctx.ring1.left_mats[i] @ ctx.tau:
            bad.append(("left", i))
        lhs = ctx.tau @ tensor_k(Mat.identity(F, ctx.p.dim), ctx.q.right[i])
        if lhs != ctx.ring1.right_mats[i] @ ctx.tau:
            bad.append(("right", i))
    rep.add("morita.tau-bilinear", "first connecting map is bilinear over the small ring",
            not bad, f"failing: {bad[:5]}" if bad else "")
    bad = []
    for j in range(ctx.ring2.dim):
        lhs = ctx.mu @ tensor_k(ctx.q.left[j], Mat.identity(F, ctx.p.dim))
        if lhs != ctx.ring2.left_mats[j] @ ctx.mu:
            bad.append(("left", j))
        lhs = ctx.mu @ tensor_k(Mat.identity(F, ctx.q.dim), ctx.p.right[j])
        if lhs != ctx.ring2.right_mats[j] @ ctx.mu:
            bad.append(("right", j))
    rep.add("morita.mu-bilinear", "second connecting map is bilinear over the big ring",
            not bad, f"failing: {bad[:5]}" if bad else "")
    pd, qd = ctx.p.dim, ctx.q.dim
    bad = []
    for i in range(pd):
        for j in range(qd):
            left_t = combine(F, pd, pd, ctx.p.left, ctx.tau.col(i * qd + j))
            for k in range(pd):
                right_m = combine(F, pd, pd, ctx.p.right, ctx.mu.col(j * pd + k))
                if left_t.col(k) != right_m.col(i):
                    bad.append((i, j, k))
    rep.add("morita.assoc-p", "connecting maps associate through the first module",
            not bad, f"failing: {bad[:3]}" if bad else "")
    bad = []
    for j in range(qd):
        for i in range(pd):
            left_m = combine(F, qd, qd, ctx.q.left, ctx.mu.col(j * pd + i))
            for l in range(qd):
                right_t = combine(F, qd, qd, ctx.q.right, ctx.tau.col(i * qd + l))
                if left_m.col(l) != right_t.col(j):
                    bad.append((j, i, l))
    rep.add("morita.assoc-q", "connecting maps associate through the second module",
            not bad, f"failing: {bad[:3]}" if bad else "")
    return rep


# -- references for the direct-sum and dual-basis constructions -----------------

def reference_pack_gcomodule(m: GComodule) -> Comodule:
    """The packed comodule, each summand's coaction included into a tensor
    quotient eliminated over the whole sum."""
    c = m.coring
    g = c.group
    F = c.base.field
    total, inj, proj = direct_sum_bimodule([mm.with_trivial_left() for mm in m.comps])
    rho = []
    for a in g.elements():
        t_tot = tensor_over_algebra(total, c.comps[a])
        acc = Mat.zeros(F, t_tot.space.dim, total.dim)
        ainv = g.inv(a)
        idc = Mat.identity(F, c.comps[a].dim)
        for b in g.elements():
            src = g.mul(b, ainv)
            t_src = m.tensor(src, a)
            incl = kron_after(t_tot.space.proj, inj[src], idc) @ t_src.space.sect
            acc = acc + incl @ m.rho[(src, a)] @ proj[b]
        rho.append(acc)
    return Comodule(c, total, rho)


def reference_is_gcomodule_hom(m: GComodule, n: GComodule, fams) -> bool:
    """Whether the per-degree maps `fams` form a family morphism m -> n:
    `comodules.is_gcomodule_map` as loops over basis elements and degree
    pairs."""
    c = m.coring
    g = c.group
    for a in g.elements():
        for j in range(c.base.dim):
            if fams[a] @ m.comps[a].right[j] != n.comps[a].right[j] @ fams[a]:
                return False
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            cdim = c.comps[b].dim
            lhs = kron_after(n.tensor(a, b).space.proj, fams[a], Mat.identity(c.base.field, cdim)) \
                @ m.tensor(a, b).space.sect @ m.rho[(a, b)]
            if lhs != n.rho[(a, b)] @ fams[ab]:
                return False
    return True


def _interleaved_contractions(target, t: TensorProduct, rho: Mat, functionals) -> Mat:
    """Column i * len(functionals) + u: rho(e_i) contracted by functional u."""
    mats = [contract_right(target, f) @ t.space.sect @ rho for f in functionals]
    return from_cols(target.base.field, [mat.col(i) for i in range(rho.cols) for mat in mats])


def reference_gcomodule_to_graded(m: GComodule, r: GradedRing) -> GradedModule:
    g = m.coring.group
    act = {}
    for a in g.elements():
        for b in g.elements():
            ab, binv = g.mul(a, b), g.inv(b)
            act[(a, b)] = _interleaved_contractions(m.comps[ab], m.tensor(ab, binv),
                                                    m.rho[(ab, binv)], r.functionals[b])
    return GradedModule(r, tuple(m.comps), act)


def reference_comodule_to_module(m: Comodule, r: GradedRing) -> RModule:
    g = m.coring.group
    act = {a: _interleaved_contractions(m.space, m.tensor(g.inv(a)), m.rho[g.inv(a)],
                                        r.functionals[a])
           for a in g.elements()}
    return RModule(r, m.space, act)


def _dual_basis_pairs(c: GroupCoring, r: GradedRing) -> dict:
    """Per degree b, the dual basis of C_b as (dual-ring coordinates, vector) pairs."""
    g = c.group
    out = {}
    for b in g.elements():
        db = find_dual_basis(c.comps[b])
        if db is None:
            raise MissingDualBasis(f"component {b} has no dual basis")
        out[b] = [(dual_coords(r, g.inv(b), func), vec) for func, vec in db.pairs]
    return out


def reference_graded_to_gcomodule(m: GradedModule, c: GroupCoring) -> GComodule:
    """rho(e_i) = sum over the dual basis pairs (f, c) of e_i.f (x) c, one
    pair at a time."""
    g = c.group
    F = c.base.field
    dbs = _dual_basis_pairs(c, m.ring)
    out = GComodule(c, tuple(m.comps), {})
    rho = {}
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            binv = g.inv(b)
            t = out.tensor(a, b)
            cols = []
            for i in range(m.comps[ab].dim):
                vec = [F.zero] * t.space.ambient_dim
                for fcoords, cu in dbs[b]:
                    mi = m.act[(ab, binv)].apply(
                        tensor_vec(F, unit_vec(F, m.comps[ab].dim, i), fcoords))
                    pure = tensor_vec(F, mi, cu)
                    vec = [field_add(F, x, y) for x, y in zip(vec, pure)]
                cols.append(t.space.project(vec))
            rho[(a, b)] = from_cols(F, cols)
    out.rho = rho
    return out


def reference_dual_basis_comultiplication(c: GroupCoring, r: GradedRing) -> list:
    """The degree pairs (b, c) at which the comultiplied dual basis of C_bc
    and the product expansion of the dual bases of C_b and C_c differ,
    summed one pair at a time."""
    g = c.group
    F = c.base.field
    dbs = _dual_basis_pairs(c, r)
    bad = []
    for b in g.elements():
        for cdeg in g.elements():
            bc = g.mul(b, cdeg)
            tq3 = cached_triple(r.comps[g.inv(bc)], c.comps[b], c.comps[cdeg])
            lift = c.delta_left_lift(b, cdeg)
            lhs = [F.zero] * tq3.ambient_dim
            for fcoords, vec in dbs[bc]:
                pure = tensor_vec(F, fcoords, lift.apply(vec))
                lhs = [field_add(F, x, y) for x, y in zip(lhs, pure)]
            rhs = [F.zero] * tq3.ambient_dim
            for fu, cu in dbs[b]:
                for gv, dv in dbs[cdeg]:
                    # product f^(c) # f^(b) in degree (bc)^{-1}
                    prod = r.mul[(g.inv(cdeg), g.inv(b))].apply(tensor_vec(F, gv, fu))
                    pure = tensor_vec(F, prod, tensor_vec(F, cu, dv))
                    rhs = [field_add(F, x, y) for x, y in zip(rhs, pure)]
            if tq3.project(lhs) != tq3.project(rhs):
                bad.append((b, cdeg))
    return bad


# -- references for the algebra laws ------------------------------------------------

def reference_validate_algebra(a: Algebra) -> CheckReport:
    """`algebra.validate_algebra` as loops over basis triples and elements."""
    rep = CheckReport()
    bad = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                lhs = multiply(a, multiply(a, a.basis_vec(i), a.basis_vec(j)), a.basis_vec(k))
                rhs = multiply(a, a.basis_vec(i), multiply(a, a.basis_vec(j), a.basis_vec(k)))
                if lhs != rhs:
                    bad.append((i, j, k))
    rep.add("algebra.associativity", "associativity on basis triples",
            not bad, f"failing triples: {bad}" if bad else "")
    bad = []
    for i in range(a.dim):
        e = a.basis_vec(i)
        if multiply(a, a.unit, e) != e or multiply(a, e, a.unit) != e:
            bad.append(i)
    rep.add("algebra.unit", "two-sided unit on basis elements",
            not bad, f"failing indices: {bad}" if bad else "")
    return rep


def reference_validate_bimodule(m: Bimodule) -> CheckReport:
    """`algebra.validate_bimodule` as one comparison per pair of basis
    elements."""
    rep = CheckReport()
    A = m.base
    ident = Mat.identity(A.field, m.dim)
    pairs = [(i, j) for i in range(A.dim) for j in range(A.dim)]
    if m.left is not None:
        rep.add("bimodule.left.unital", "left action of the unit is the identity",
                m.left_act(A.unit) == ident)
        bad = [(i, j) for i, j in pairs
               if m.left_act(multiply(A, A.basis_vec(i), A.basis_vec(j)))
               != m.left[i] @ m.left[j]]
        rep.add("bimodule.left.associative", "left action respects multiplication",
                not bad, f"failing pairs: {bad}" if bad else "")
    if m.right is not None:
        rep.add("bimodule.right.unital", "right action of the unit is the identity",
                m.right_act(A.unit) == ident)
        bad = [(i, j) for i, j in pairs
               if m.right_act(multiply(A, A.basis_vec(i), A.basis_vec(j)))
               != m.right[j] @ m.right[i]]
        rep.add("bimodule.right.associative", "right action respects multiplication",
                not bad, f"failing pairs: {bad}" if bad else "")
    if m.left is not None and m.right is not None:
        bad = [(i, j) for i, j in pairs if m.left[i] @ m.right[j] != m.right[j] @ m.left[i]]
        rep.add("bimodule.commuting", "left and right actions commute",
                not bad, f"failing pairs: {bad}" if bad else "")
    return rep


def reference_multiplicative_failures(f: Mat, src: Algebra, dst: Algebra) -> list:
    """The pairs (i, j) with f(e_i e_j) != f(e_i) f(e_j), one pair at a time:
    the loop of `galois.validate_ring_morphism`, `morita.end_to_twisted_iso`
    and the theta and phi47 checks of `morita.check_group_ring_context_match`."""
    return [(i, j) for i in range(src.dim) for j in range(src.dim)
            if f.apply(multiply(src, src.basis_vec(i), src.basis_vec(j)))
            != multiply(dst, f.col(i), f.col(j))]


def reference_validate_ring_morphism(b: RingMorphism) -> CheckReport:
    rep = CheckReport()
    rep.add("ring-morphism.unit", "preserves the unit",
            b.mat.apply(b.src.unit) == b.dst.unit)
    bad = reference_multiplicative_failures(b.mat, b.src, b.dst)
    rep.add("ring-morphism.multiplicative", "preserves products",
            not bad, f"failing pairs: {bad}" if bad else "")
    return rep


def reference_grouplike_character(x: GrouplikeFamily, r: GradedRing) -> tuple[Mat, CheckReport]:
    """`morita.grouplike_character` with the associativity law checked one
    pair of homogeneous basis elements at a time."""
    rep = CheckReport()
    g = x.coring.group
    A = x.coring.base
    F = A.field
    packed = r.packed()
    chi = from_cols(F, [r.functionals[a][u].apply(x.vec(g.inv(a)))
                            for a in g.elements() for u in range(r.dim(a))])
    bad = [j for j in range(A.dim)
           if chi @ block_matrix(F, packed.dims, packed.dims,
                                 {(a, a): r.comps[a].right[j] for a in g.elements()})
           != A.right_mats[j] @ chi]
    rep.add("character.right-linear", "the character is right-linear over the base",
            not bad, f"failing basis: {bad}" if bad else "")
    bad = []
    for a in g.elements():
        for u in range(r.dim(a)):
            fa = packed.inject(a, unit_vec(F, r.dim(a), u))
            chifa = chi.apply(fa)
            for b in g.elements():
                for v in range(r.dim(b)):
                    lhs = chi.apply(packed.inject(
                        b, r.comps[b].left_act(chifa).apply(unit_vec(F, r.dim(b), v))))
                    prod = r.mul[(a, b)].apply(
                        tensor_vec(F, unit_vec(F, r.dim(a), u), unit_vec(F, r.dim(b), v)))
                    rhs = chi.apply(packed.inject(g.mul(a, b), prod))
                    if lhs != rhs:
                        bad.append((a, u, b, v))
    rep.add("character.associative", "character of a scaled factor equals character of the product",
            not bad, f"failing: {bad[:5]}" if bad else "")
    rep.add("character.unit", "character of the unit is one",
            chi.apply(packed.inject(g.identity, r.unit_vec)) == A.unit)
    return chi, rep


# -- references for the coefficient ring and the context comparisons -------------

def reference_coefficient_ring(x: GrouplikeFamily, basis: Mat,
                               t: CoinvariantRing) -> CoefficientRing:
    """`morita.coefficient_ring` with the componentwise product, the shifts
    and the diagonal families built block by block."""
    c = x.coring
    g = c.group
    A = c.base
    F = A.field
    n = g.order
    w = basis.rows

    def coords(vecs, failure: str) -> list:
        out = [coords_in(basis, v) for v in vecs]
        if None in out:
            raise ValueError(failure)
        return out

    def block(vec, a: int) -> tuple:
        return vec[a * A.dim:(a + 1) * A.dim]

    def product(u, v) -> tuple:
        return tuple(e for a in range(n) for e in multiply(A, block(u, a), block(v, a)))

    def shifted(u, s: int) -> tuple:
        """The family whose block of degree a is the block of degree s a of u."""
        return tuple(e for a in range(n) for e in block(u, g.mul(s, a)))

    (unit_coords,) = coords([A.unit * n], "coefficient families do not contain the unit family")
    mul = tuple(tuple(coords([product(basis.row(i), basis.row(j)) for j in range(w)],
                             "coefficient families are not closed under multiplication"))
                for i in range(w))
    s_alg = Algebra.from_tables(F, mul, unit_coords)
    sigma = tuple(Mat._from_cols(F, coords([shifted(basis.row(i), s) for i in range(w)],
                                           "coefficient families are not stable under the "
                                           "shift action"), w)
                  for s in g.elements())
    twisted = GradedAlgebra.from_products(
        F, g, [w] * n, lambda a, b: kron_after(s_alg.mul_mat, sigma[b], Mat.identity(F, w)),
        unit_coords)
    diag = Mat._from_cols(F, coords([t.basis.row(i) * n for i in range(t.basis.rows)],
                                    "diagonal coinvariant family escapes the coefficient ring"), w)
    return CoefficientRing(basis, s_alg, sigma, twisted, diag)


def reference_intertwining_failures(f: Mat, src_acts, dst_acts, ring_map: Mat) -> list:
    """`algebra.intertwining_failures` as the loop the context comparisons
    ran: one linear combination of the target actions per basis element."""
    rows = cols = f.rows
    return [k for k in range(len(src_acts))
            if f @ src_acts[k] != combine(f.field, rows, cols, dst_acts, ring_map.col(k)) @ f]


# -- the degree-indexed laws as loops over degree pairs and triples ---------------------------

def reference_coring_laws(c: GroupCoring) -> CheckReport:
    """The coassociativity and counit rows of `coring.validate_group_coring`,
    one degree triple or degree at a time."""
    rep = CheckReport()
    g = c.group
    e = g.identity
    F = c.base.field
    bad = []
    for a in g.elements():
        for b in g.elements():
            for d in g.elements():
                tq3 = c.triple(a, b, d)
                lhs = kron_after(tq3.proj, c.delta_left_lift(a, b),
                                 Mat.identity(F, c.comps[d].dim)) @ c.delta_left_lift(g.mul(a, b), d)
                rhs = kron_after(tq3.proj, Mat.identity(F, c.comps[a].dim),
                                 c.delta_left_lift(b, d)) @ c.delta_left_lift(a, g.mul(b, d))
                if lhs != rhs:
                    bad.append((a, b, d))
    rep.add("coring.coassociativity", "comultiplication coassociativity",
            not bad, f"failing triples: {bad}" if bad else "")
    bad = []
    for a in g.elements():
        comp = c.comps[a]
        ident = Mat.identity(F, comp.dim)
        right_side = contract_right(comp, c.counit) @ c.delta_left_lift(a, e)
        left_side = contract_left(comp, c.counit) @ c.delta_left_lift(e, a)
        if right_side != ident or left_side != ident:
            bad.append(a)
    rep.add("coring.counit", "counit laws on every component",
            not bad, f"failing indices: {bad}" if bad else "")
    return rep


def reference_comultiplicative_row(f: GroupCoringMorphism) -> CheckReport:
    """The comultiplicativity row of `coring.validate_coring_morphism`."""
    rep = CheckReport()
    g = f.src.group
    bad = []
    for a in g.elements():
        for b in g.elements():
            src_t = f.src.tensor(a, b)
            dst_t = f.dst.tensor(a, b)
            lhs = kron_after(dst_t.space.proj, f.maps[a], f.maps[b]) \
                @ src_t.space.sect @ f.src.delta[(a, b)]
            if lhs != f.dst.delta[(a, b)] @ f.maps[g.mul(a, b)]:
                bad.append((a, b))
    rep.add("morphism.comultiplicative", "compatibility with comultiplication",
            not bad, f"failing pairs: {bad}" if bad else "")
    return rep


def reference_cofree_compatible_row(c: GroupCoring, w: CofreeWitness) -> CheckReport:
    """The `cofree.compatible` row of `coring.verify_cofree`."""
    rep = CheckReport()
    g = c.group
    e = g.identity
    bad = []
    for a in g.elements():
        for b in g.elements():
            t = c.tensor(a, b)
            te = c.tensor(e, e)
            lhs = c.delta[(a, b)] @ w.gammas[g.mul(a, b)]
            rhs = kron_after(t.space.proj, w.gammas[a], w.gammas[b]) \
                @ te.space.sect @ c.delta[(e, e)]
            if lhs != rhs:
                bad.append((a, b))
    rep.add("cofree.compatible", "connecting maps intertwine comultiplication",
            not bad, f"failing pairs: {bad}" if bad else "")
    return rep


def reference_validate_comodule(m: Comodule) -> CheckReport:
    """`comodules.validate_comodule` with its own loops over degree pairs."""
    rep = CheckReport()
    c = m.coring
    g = c.group
    F = c.base.field
    bad_lin = []
    for a in g.elements():
        t = m.tensor(a)
        for j in range(c.base.dim):
            if m.rho[a] @ m.space.right[j] != t.module.right[j] @ m.rho[a]:
                bad_lin.append((a, j))
    rep.add("comodule.right-linear", "coactions are right-linear",
            not bad_lin, f"failing (degree, basis): {bad_lin}" if bad_lin else "")
    bad = []
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            tq3 = m.triple(a, b)
            idm = Mat.identity(F, m.space.dim)
            idc = Mat.identity(F, c.comps[b].dim)
            lhs = kron_after(tq3.proj, idm, c.delta_left_lift(a, b)) \
                @ m.tensor(ab).space.sect @ m.rho[ab]
            rhs = kron_after(tq3.proj, m.tensor(a).space.sect @ m.rho[a], idc) \
                @ m.tensor(b).space.sect @ m.rho[b]
            if lhs != rhs:
                bad.append((a, b))
    rep.add("comodule.coassociativity", "coaction coassociativity",
            not bad, f"failing pairs: {bad}" if bad else "")
    e = g.identity
    counit_side = contract_right(m.space, c.counit) @ m.tensor(e).space.sect @ m.rho[e]
    rep.add("comodule.counit", "counit law", counit_side == Mat.identity(F, m.space.dim))
    return rep


def reference_validate_g_comodule(m: GComodule) -> CheckReport:
    """`comodules.validate_g_comodule` with its own loops over degree pairs
    and triples."""
    rep = CheckReport()
    c = m.coring
    g = c.group
    F = c.base.field
    bad_lin = []
    for (a, b), mat in sorted(m.rho.items()):
        t = m.tensor(a, b)
        for j in range(c.base.dim):
            if mat @ m.comps[g.mul(a, b)].right[j] != t.module.right[j] @ mat:
                bad_lin.append((a, b, j))
    rep.add("g-comodule.right-linear", "coactions are right-linear",
            not bad_lin, f"failing (pair, basis): {bad_lin[:5]}" if bad_lin else "")
    bad = []
    for a in g.elements():
        for b in g.elements():
            for d in g.elements():
                ab = g.mul(a, b)
                bd = g.mul(b, d)
                tq3 = m.triple(a, b, d)
                idm = Mat.identity(F, m.comps[a].dim)
                idc = Mat.identity(F, c.comps[d].dim)
                lhs = kron_after(tq3.proj, idm, c.delta_left_lift(b, d)) \
                    @ m.tensor(a, bd).space.sect @ m.rho[(a, bd)]
                rhs = kron_after(tq3.proj, m.tensor(a, b).space.sect @ m.rho[(a, b)], idc) \
                    @ m.tensor(ab, d).space.sect @ m.rho[(ab, d)]
                if lhs != rhs:
                    bad.append((a, b, d))
    rep.add("g-comodule.coassociativity", "family coaction coassociativity",
            not bad, f"failing triples: {bad[:5]}" if bad else "")
    e = g.identity
    bad = [a for a in g.elements()
           if contract_right(m.comps[a], c.counit) @ m.tensor(a, e).space.sect @ m.rho[(a, e)]
           != Mat.identity(F, m.comps[a].dim)]
    rep.add("g-comodule.counit", "counit law on every component",
            not bad, f"failing indices: {bad}" if bad else "")
    return rep


def _reference_ring_laws(g: FiniteGroup, mul, unit, dims, prefix: str,
                         laws: tuple) -> CheckReport:
    """The associativity and two-sided unit rows of a graded product mul
    with dims[a] basis elements in degree a, one degree triple or degree at
    a time, under the check ids prefix + "associative" and prefix + "unit"
    and the law texts `laws`."""
    rep = CheckReport()
    F = unit.field
    ident = [Mat.identity(F, dims[a]) for a in g.elements()]
    bad = [(a, b, c) for a in g.elements() for b in g.elements() for c in g.elements()
           if kron_after(mul[(g.mul(a, b), c)], mul[(a, b)], ident[c])
           != kron_after(mul[(a, g.mul(b, c))], ident[a], mul[(b, c)])]
    rep.add(prefix + "associative", laws[0], not bad, f"failing triples: {bad[:5]}" if bad else "")
    e = g.identity
    bad = [a for a in g.elements()
           if kron_after(mul[(e, a)], unit, ident[a]) != ident[a]
           or kron_after(mul[(a, e)], ident[a], unit) != ident[a]]
    rep.add(prefix + "unit", laws[1], not bad, f"failing degrees: {bad}" if bad else "")
    return rep


def reference_graded_ring_laws(r: GradedRing) -> CheckReport:
    """The associativity and unit rows of `dualring.validate_graded_ring`."""
    return _reference_ring_laws(
        r.group, r.mul, Mat.col_vector(r.base.field, r.unit_vec),
        [r.dim(a) for a in r.group.elements()], "dual-ring.",
        ("product associativity on all degree triples", "the counit is a two-sided unit"))


def reference_validate_smash_product(sp) -> CheckReport:
    """`hopf.validate_smash_product` with its own loops over degree triples."""
    return _reference_ring_laws(sp.group, sp.mul, Mat.col_vector(sp.field, sp.unit_vec),
                                sp.dims, "smash.",
                                ("multiplication associativity", "two-sided unit"))


def reference_graded_map_failures(g: FiniteGroup, maps, src_mul, dst_mul) -> list:
    """The multiplicativity loop of `dualring.validate_graded_ring_morphism`,
    `hopf.smash_dual` and `dualring.cofree_dual_group_ring_iso`."""
    bad = []
    for a in g.elements():
        for b in g.elements():
            lhs = maps[g.mul(a, b)] @ src_mul[(a, b)]
            if lhs != kron_after(dst_mul[(a, b)], maps[a], maps[b]):
                bad.append((a, b))
    return bad


def reference_graded_module_laws(m: GradedModule) -> CheckReport:
    """The unit and associativity rows of `dualring.validate_graded_module`."""
    rep = CheckReport()
    r = m.ring
    g = r.group
    F = r.base.field
    e = g.identity
    unit = Mat.col_vector(F, r.unit_vec)
    bad = [a for a in g.elements()
           if kron_after(m.act[(a, e)], Mat.identity(F, m.comps[a].dim), unit)
           != Mat.identity(F, m.comps[a].dim)]
    rep.add("graded-module.unit", "the unit acts as the identity",
            not bad, f"failing degrees: {bad}" if bad else "")
    bad = []
    for a in g.elements():
        for b in g.elements():
            for c in g.elements():
                lhs = kron_after(m.act[(g.mul(a, b), c)], m.act[(a, b)], Mat.identity(F, r.dim(c)))
                rhs = kron_after(m.act[(a, g.mul(b, c))], Mat.identity(F, m.comps[a].dim),
                                 r.mul[(b, c)])
                if lhs != rhs:
                    bad.append((a, b, c))
    rep.add("graded-module.associative", "action associativity on degree triples",
            not bad, f"failing triples: {bad[:5]}" if bad else "")
    return rep


def reference_validate_rmodule(m: RModule) -> CheckReport:
    """`dualring.validate_rmodule` with its own loop over degree pairs."""
    rep = CheckReport()
    r = m.ring
    g = r.group
    F = r.base.field
    e = g.identity
    ident = Mat.identity(F, m.module.dim)
    rep.add("module.unit", "the unit acts as the identity",
            kron_after(m.act[e], ident, Mat.col_vector(F, r.unit_vec)) == ident)
    bad = []
    for a in g.elements():
        for b in g.elements():
            lhs = kron_after(m.act[g.mul(a, b)], ident, r.mul[(a, b)])
            rhs = kron_after(m.act[b], m.act[a], Mat.identity(F, r.dim(b)))
            if lhs != rhs:
                bad.append((a, b))
    rep.add("module.associative", "action associativity on degree pairs",
            not bad, f"failing pairs: {bad}" if bad else "")
    return rep


# -- references for the stacked dual-ring product and the standard context ------

def reference_dual_mul(r: GradedRing, a: int, b: int) -> Mat:
    """`GradedRing._build_mul` one product and one solve per pair of
    functionals: column u * dim(b) + v holds the coordinates of f_v o leg_u."""
    ab = r.group.mul(a, b)
    return Mat._from_cols(r.base.field, [dual_coords(r, ab, gv @ leg) for leg in r.legs[(a, b)]
                                         for gv in r.functionals[b]], r.dim(ab))


def reference_precomposed(r: GradedRing, a: int, m: Mat) -> Mat:
    """`GradedRing.precomposed` by reshapes: the functionals of degree a
    stacked on top of each other, one product with m, and the rows vec(f o m)
    read back."""
    stacked = r._func_bases[a].reshape(r.dim(a) * r.base.dim, m.rows)
    return (stacked @ m).reshape(r.dim(a), r.base.dim * m.cols)


def reference_balanced_quotient(field: Field, dim_m: int, dim_n: int,
                                right_acts, left_acts) -> QuotientSpace:
    """`linalg.balanced_quotient` by writing every relation row
    (m_i . u_t) (x) n_k - m_i (x) (u_t . n_k), one-entry and repeated rows
    included, and eliminating them all in one `quotient_by`."""
    width, rows = dim_m * dim_n, []
    for R, L in zip(right_acts, left_acts):
        for i in range(dim_m):
            mcol = R.col(i)
            for k in range(dim_n):
                row = [field.zero] * width
                for a, x in enumerate(mcol):
                    row[a * dim_n + k] = x
                for b, y in enumerate(L.col(k)):
                    row[i * dim_n + b] = field_sub(field, row[i * dim_n + b], y)
                rows.append(row)
    return quotient_by(field, width, Mat(field, len(rows), width, [x for row in rows for x in row]))


def _reference_family_coords(F, bases, what: str):
    """Coordinates of maps in the solved bases of all degrees, laid out
    degree after degree; bases[sigma] lists the families of degree sigma.
    Returns coords(fams, sigma) for a family of degree sigma."""
    def flat(fams) -> Mat:  # the maps of a family, each row-major, one after another
        return hstack([f.reshape(1, f.rows * f.cols) for f in fams])

    per_degree = [vstack([flat(fams) for fams in fams_list]) if fams_list else Mat.zeros(F, 0, 0)
                  for fams_list in bases]

    def coords(fams, sigma: int) -> tuple:
        local = coords_in(per_degree[sigma], flat(fams))
        if local is None:
            raise ValueError(f"{what} escaped its solved basis")
        return tuple(x for d, basis in enumerate(per_degree)
                     for x in (local if d == sigma else (F.zero,) * basis.rows))

    return coords


def reference_standard_context(m: GradedModule) -> tuple:
    """The endomorphism product of `morita.graded_end` and the bimodules and
    pairings of `morita.context_from_graded_module`, column by column: each
    composite or action is one product per basis family and degree, and
    each family's coordinates one solve.  Returns (END product, p.left,
    p.right, q.left, q.right, phi, psi)."""
    r = m.ring
    g = r.group
    F = r.base.field
    end_bases = tuple(graded_hom(m, m, sigma) for sigma in g.elements())
    end_coords = _reference_family_coords(F, end_bases, "endomorphism")
    elems = [(sigma, fams) for sigma in g.elements() for fams in end_bases[sigma]]
    end_mul = Mat._from_cols(F, [end_coords(tuple(sfam[g.mul(tau, a)] @ tfam[a] for a in g.elements()),
                                            g.mul(sigma, tau))
                                 for sigma, sfam in elems for tau, tfam in elems], len(elems))
    packed = r.packed()
    ring_module = GradedModule(r, tuple(r.comps), dict(r.mul))
    hom_bases = tuple(graded_hom(m, ring_module, sigma) for sigma in g.elements())
    hdims = [len(b) for b in hom_bases]
    hom_coords = _reference_family_coords(F, hom_bases, "module map")
    m_dims = [mm.dim for mm in m.comps]

    def fixing_left(act, e, d):
        """The map R_d -> W, v -> act(e (x) v), for the action act: V (x) R_d -> W."""
        return kron_after(act, Mat.col_vector(F, e), Mat.identity(F, r.dim(d)))

    p_left = tuple(block_matrix(F, m_dims, m_dims,
                                {(g.mul(sigma, a), a): fams[a] for a in g.elements()})
                   for sigma in g.elements() for fams in end_bases[sigma])
    p_right = tuple(block_matrix(F, m_dims, m_dims, {
        (g.mul(a, b), a): kron_after(m.act[(a, b)], Mat.identity(F, m_dims[a]),
                                     Mat.col_vector(F, unit_vec(F, r.dim(b), u)))
        for a in g.elements()}) for b in g.elements() for u in range(r.dim(b)))
    q_left = []
    for b in g.elements():
        for u in range(r.dim(b)):
            times = [fixing_left(r.mul[(b, d)], unit_vec(F, r.dim(b), u), d) for d in g.elements()]
            q_left.append(Mat._from_cols(F, [
                hom_coords(tuple(times[g.mul(sigma, a)] @ fams[a] for a in g.elements()),
                           g.mul(b, sigma))
                for sigma in g.elements() for fams in hom_bases[sigma]], sum(hdims)))
    q_right = []
    for tau in g.elements():
        for tfam in end_bases[tau]:
            q_right.append(Mat._from_cols(F, [
                hom_coords(tuple(fams[g.mul(tau, a)] @ tfam[a] for a in g.elements()),
                           g.mul(sigma, tau))
                for sigma in g.elements() for fams in hom_bases[sigma]], sum(hdims)))
    phi_cols = []
    for a in g.elements():
        for i in range(m_dims[a]):
            moving = [fixing_left(m.act[(a, d)], unit_vec(F, m_dims[a], i), d) for d in g.elements()]
            for sigma in g.elements():
                for fams in hom_bases[sigma]:
                    endo = tuple(moving[g.mul(sigma, b)] @ fams[b] for b in g.elements())
                    phi_cols.append(end_coords(endo, g.mul(a, sigma)))
    phi = Mat._from_cols(F, phi_cols, len(elems))
    psi = Mat._from_cols(F, [packed.inject(g.mul(sigma, a), fams[a].col(i))
                             for sigma in g.elements() for fams in hom_bases[sigma]
                             for a in g.elements() for i in range(m_dims[a])],
                         packed.algebra.dim)
    return end_mul, p_left, p_right, tuple(q_left), tuple(q_right), phi, psi


# -- one-row coordinate solves and the references for the retired solves --------

def coords_in(basis: Mat, v) -> tuple | None:
    """The coordinates of the vector v, a sequence or a one-row matrix, in
    the rows of basis, or None outside their span: one row of
    `rowspace_coords`."""
    coords, outside = rowspace_coords(basis, v if isinstance(v, Mat) else Mat.from_rows(basis.field, [v]))
    return None if outside else coords.row(0)


def dual_coords(r: GradedRing, a: int, functional: Mat) -> tuple:
    """The coordinates of one degree-a functional of the dual ring r."""
    return r.coordinates(a, functional.reshape(1, functional.rows * functional.cols)).row(0)


def reference_solve(m: Mat, b) -> tuple | None:
    """`linalg.solve` by an elimination of its own: b joins the sparse rows
    of m as an augmented column, and a pivot in that column means no
    solution."""
    nb, b = _pairs(b)
    if nb != m.rows:
        raise DimensionMismatch(f"rhs length {nb} vs {m.rows} rows")
    F, n = m.field, m.cols
    aug = [dict(row) for row in m._entries]
    for i, y in b:
        y = F.of(y)
        if y:
            aug[i][n] = y
    x = [F.zero] * n
    for pc, row in _eliminate(F, aug):
        if pc == n:
            return None
        x[pc] = row.get(n, F.zero)
    return tuple(x)


def reference_dual_ring_compat(r: GradedRing) -> list:
    """The failures of the bimodule-compat row of
    `dualring.validate_graded_ring`, one base basis element j at a time:
    (a, j) where e_j.f = i(e_j) # f or f.e_j = f # i(e_j) fails on R_a."""
    g = r.group
    F = r.base.field
    e = g.identity
    bad = []
    for a in g.elements():
        ident = Mat.identity(F, r.dim(a))
        for j in range(r.base.dim):
            iv = Mat._from_cols(F, [r.base_map.col(j)], r.base_map.rows)
            left_by = kron_after(r.mul[(e, a)], iv, ident)
            right_by = kron_after(r.mul[(a, e)], ident, iv)
            if left_by != r.comps[a].left[j] or right_by != r.comps[a].right[j]:
                bad.append((a, j))
    return bad


def reference_graded_module_balance(m: GradedModule) -> list:
    """The balance and right-linearity failures of
    `dualring.validate_graded_module`, one base basis element j at a time:
    (a, b, j, "balance") where act_{a,b} (R_j (x) I) and act_{a,b} (I (x) L_j)
    differ, and (a, b, j, "linear") where act_{a,b} (I (x) R_j) and
    R_j act_{a,b} differ."""
    r = m.ring
    g = r.group
    F = r.base.field
    bad = []
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            for j in range(r.base.dim):
                balance_l = kron_after(m.act[(a, b)], m.comps[a].right[j], Mat.identity(F, r.dim(b)))
                balance_r = kron_after(m.act[(a, b)], Mat.identity(F, m.comps[a].dim), r.comps[b].left[j])
                if balance_l != balance_r:
                    bad.append((a, b, j, "balance"))
                lin_l = kron_after(m.act[(a, b)], Mat.identity(F, m.comps[a].dim), r.comps[b].right[j])
                lin_r = m.comps[ab].right[j] @ m.act[(a, b)]
                if lin_l != lin_r:
                    bad.append((a, b, j, "linear"))
    return bad


# -- the trivial coring and the packed (graded) form ---------------------------------

def trivial_coring(a: Algebra, group: FiniteGroup) -> tuple[GroupCoring, CofreeWitness]:
    """Every component the regular bimodule, comultiplication a -> a (x) 1."""
    reg = Bimodule.regular(a)
    t = cached_tensor(reg, reg)
    delta = from_cols(a.field, [t.pure(a.basis_vec(i), a.unit) for i in range(a.dim)])
    one_comp = GroupCoring(TRIVIAL_GROUP, a, (reg,), {(0, 0): delta}, Mat.identity(a.field, a.dim))
    return cofree_coring(one_comp, group)


class GradedCoring:
    """A single coring whose underlying bimodule carries a group grading."""

    def __init__(self, group: FiniteGroup, base: Algebra, total: Bimodule,
                 dims, delta: Mat, counit: Mat):
        self.group = group
        self.base = base
        self.total = total
        self.dims = tuple(dims)
        self.delta = delta
        self.counit = counit

    def tensor(self) -> TensorProduct:
        return cached_tensor(self.total, self.total)

    def as_group_coring(self) -> GroupCoring:
        return GroupCoring(TRIVIAL_GROUP, self.base, (self.total,),
                           {(0, 0): self.delta}, self.counit)

    def block_injection(self, a: int) -> Mat:
        F = self.base.field
        return block_matrix(F, self.dims, [self.dims[a]], {(a, 0): Mat.identity(F, self.dims[a])})

    def block_projection(self, a: int) -> Mat:
        return self.block_injection(a).transpose()


def pack_graded_coring(c: GroupCoring) -> GradedCoring:
    """Assemble the block-diagonal coring with counit supported on degree e."""
    g = c.group
    F = c.base.field
    total, inj, proj = direct_sum_bimodule(c.comps)
    t_tot = cached_tensor(total, total)
    delta = Mat.zeros(F, t_tot.space.dim, total.dim)
    for a in g.elements():
        for b in g.elements():
            incl = kron_after(t_tot.space.proj, inj[a], inj[b]) @ c.tensor(a, b).space.sect
            delta = delta + incl @ c.delta[(a, b)] @ proj[g.mul(a, b)]
    return GradedCoring(g, c.base, total, [m.dim for m in c.comps], delta,
                        c.counit @ proj[g.identity])


def unpack_graded_coring(p: GradedCoring) -> GroupCoring:
    """Slice a graded coring back into its group-indexed family."""
    g = p.group
    comps = []
    for a in g.elements():
        inj = p.block_injection(a)
        proj = p.block_projection(a)
        left = tuple(proj @ L @ inj for L in p.total.left)
        right = tuple(proj @ R @ inj for R in p.total.right)
        comps.append(Bimodule(p.base, p.dims[a], left, right))
    lifted = p.tensor().space.sect @ p.delta
    delta = {(a, b): kron_after(cached_tensor(comps[a], comps[b]).space.proj,
                                p.block_projection(a), p.block_projection(b))
             @ lifted @ p.block_injection(g.mul(a, b))
             for a in g.elements() for b in g.elements()}
    return GroupCoring(g, p.base, comps, delta, p.counit @ p.block_injection(g.identity))


def reference_trace_generator(m: Bimodule) -> bool:
    """Whether the trace ideal of the left module m, the two-sided ideal
    the trace values f(e_j) generate, is the whole base: the span of the
    values, grown by the products e_t v and v e_t of its basis rows v until
    one solve finds them all inside the span."""
    A = m.base
    F = A.field
    _, functionals, _ = left_dual(m)
    span = row_space(vstack([Mat.zeros(F, 0, A.dim)] + [f.transpose() for f in functionals]))
    ident = Mat.identity(F, A.dim)
    while True:
        rows = span.transpose()
        products = hstack([kron_after(A.mul_mat, ident, rows), kron_after(A.mul_mat, rows, ident)])
        if not rowspace_coords(span, products.transpose())[1]:
            break
        span = row_space(vstack([span, products.transpose()]))
    return 0 < span.rows == A.dim
