"""Finite-dimensional unital algebras, bimodules and their tensor calculus.

An algebra is its multiplication matrix A (x)k A -> A, whose column
i * dim + j holds the coordinates of e_i e_j, plus the coordinates of its
unit; `Algebra.from_tables` is the one entry point that takes structure
constants.  Bimodules carry one action matrix per algebra basis element on
each side; a module that only has one side sets the other to None.  The
tensor product over the algebra is realized as an explicit quotient of the
tensor product over the base field, with the deterministic
projection/section pair from `linalg.quotient_by`.

One memo on each algebra, `Algebra.memo`, holds what its bimodules derive,
keyed by content (dims, action tuples, maps), so equal modules share one
build however many objects carry them.  Every key starts with its kind:
`tensor` and `tensor-space` (`cached_tensor`), `triple` (`cached_triple`),
`sum` (`direct_sum_bimodule`), `lift` (`cached_lift`), `left_dual`,
`dual_basis`, `collapse_right`/`collapse_left` and
`contract_right`/`contract_left`.  `_memoised` is its one
miss-build-store.  The memo stores only dims, tuples, matrices and
quotient spaces, never a `Bimodule` or the algebra, so it makes no
reference cycle; a hit wraps the stored parts around the module it was
asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from corings.linalg import (
    LinearSystem,
    Mat,
    QuotientSpace,
    balanced_quotient,
    block_diagonal,
    block_matrix,
    combine,
    deinterleave,
    hsplit,
    hstack,
    interleave,
    is_invertible,
    kron_after,
    row_space,
    rowspace_coords,
    solve,
    span_coords,
    tensor_k,
    tensor_vec,
    triple_balanced_quotient,
    unit_vec,
    unvec_rows,
    vstack,
)
from corings.report import CheckReport
from corings.scalars import Field


class BaseMismatch(ValueError):
    """Raised when two modules do not share the base algebra."""


class MissingDualBasis(ValueError):
    """Raised when an operation needs a dual basis that does not exist."""


@dataclass(frozen=True)
class Algebra:
    """Unital associative algebra over an exact field, stored as its
    multiplication matrix, so that the algebra laws are `kron_after`
    identities."""

    field: Field
    dim: int
    mul_mat: Mat  # dim x dim**2: column i * dim + j holds e_i e_j
    unit: tuple   # coordinates of 1

    @classmethod
    def from_tables(cls, field: Field, mul, unit) -> "Algebra":
        """The algebra with structure constants mul[i][j] = coordinates of
        e_i e_j: the dense entry point, as `Mat(field, rows, cols, data)`."""
        dim = len(unit)
        mul_mat = Mat._from_cols(field, [[field.of(x) for x in mul[i][j]]
                                         for i in range(dim) for j in range(dim)], dim)
        return cls(field, dim, mul_mat, tuple(field.of(x) for x in unit))

    def left_mults(self, m: Mat) -> tuple:
        """The matrices of x -> a*x for the columns a of m, from one product:
        block k of kron_after(mul_mat, m, I) holds (m e_k) e_j at column j."""
        return hsplit(kron_after(self.mul_mat, m, Mat.identity(self.field, self.dim)), m.cols)

    def right_mults(self, m: Mat) -> tuple:
        """The matrices of x -> x*a for the columns a of m, from one product:
        column k * m.cols + l of kron_after(mul_mat, I, m) holds e_k (m e_l)."""
        return deinterleave(kron_after(self.mul_mat, Mat.identity(self.field, self.dim), m), m.cols)

    @cached_property
    def left_mats(self) -> tuple:
        """The left multiplications by the basis elements, read off `mul_mat`,
        which is their `hstack`."""
        return hsplit(self.mul_mat, self.dim)

    @cached_property
    def right_mats(self) -> tuple:
        """The right multiplications by the basis elements, read off
        `mul_mat`, which is their `interleave`."""
        return deinterleave(self.mul_mat, self.dim)

    def basis_vec(self, i: int) -> tuple:
        return unit_vec(self.field, self.dim, i)

    @cached_property
    def memo(self) -> dict:
        """What the bimodules over this algebra derive, under keys (kind,
        the content the kind reads), filled only through `_memoised`."""
        return {}


# -- algebra constructors -------------------------------------------------------

def field_algebra(field: Field) -> Algebra:
    return Algebra.from_tables(field, [[[1]]], [1])


def product_field_algebra(field: Field, n: int) -> Algebra:
    """The split product of n copies of the base field, e_i e_j = delta_ij e_i."""
    mul = [[[1 if (i == j and k == i) else 0 for k in range(n)] for j in range(n)] for i in range(n)]
    return Algebra.from_tables(field, mul, [1] * n)


def tensor_algebra(a: Algebra, b: Algebra) -> Algebra:
    """A (x)k B with componentwise multiplication, in the basis e_i (x) f_j.
    tensor_k(m_A, m_B) multiplies e_i (x) e_k (x) f_j (x) f_l; the swap of
    the middle two factors brings (e_i (x) f_j) (x) (e_k (x) f_l) there."""
    F, da, db = a.field, a.dim, b.dim
    # column j * da + k of swap: f_j (x) e_k -> e_k (x) f_j
    swap = Mat._from_cols(F, [unit_vec(F, da * db, k * db + j)
                              for j in range(db) for k in range(da)], da * db)
    mul = kron_after(tensor_k(a.mul_mat, b.mul_mat), Mat.identity(F, da),
                     tensor_k(swap, Mat.identity(F, db)))
    return Algebra(F, da * db, mul, tensor_vec(F, a.unit, b.unit))


def subalgebra(ambient: Algebra, basis: Mat) -> tuple[Algebra, Mat]:
    """Subalgebra of `ambient` spanned by the rows of `basis`.

    Returns the algebra in the given basis plus the inclusion matrix
    (ambient.dim x basis.rows).  Raises ValueError when the span is not
    closed under multiplication or misses the unit.
    """
    F, n = ambient.field, basis.rows
    unit, outside = rowspace_coords(basis, Mat.from_rows(F, [ambient.unit]))
    if outside:
        raise ValueError("span does not contain the unit")
    # column i * n + j: the product of basis rows i and j
    prods = kron_after(ambient.mul_mat, basis.transpose(), basis.transpose())
    coords, outside = rowspace_coords(basis, prods.transpose())
    if outside:
        i, j = divmod(outside[0], n)
        raise ValueError(f"span not closed under multiplication at ({i},{j})")
    return Algebra(F, n, coords.transpose(), unit.row(0)), basis.transpose()


def validate_algebra(a: Algebra) -> CheckReport:
    """Associativity, m (m (x) I) = m (I (x) m), and the unit law,
    m (u (x) I) = I = m (I (x) u), as identities of matrices over `mul_mat`."""
    rep = CheckReport()
    F, d, m = a.field, a.dim, a.mul_mat
    ident, unit = Mat.identity(F, d), Mat.col_vector(F, a.unit)
    # column (i * d + j) * d + k: (e_i e_j) e_k against e_i (e_j e_k)
    bad = [(t // (d * d), t // d % d, t % d)
           for t in differing_columns(kron_after(m, m, ident), kron_after(m, ident, m))]
    rep.add("algebra.associativity", "associativity on basis triples",
            not bad, f"failing triples: {bad}" if bad else "")
    bad = sorted(set(differing_columns(kron_after(m, unit, ident), ident))
                 | set(differing_columns(kron_after(m, ident, unit), ident)))
    rep.add("algebra.unit", "two-sided unit on basis elements",
            not bad, f"failing indices: {bad}" if bad else "")
    return rep


def differing_columns(a: Mat, b: Mat) -> list:
    """The indices of the columns where a and b differ, in ascending order;
    equal matrices, the common case, are not scanned."""
    if a == b:
        return []
    return [t for t in range(a.cols) if a.col(t) != b.col(t)]


def algebra_map_failures(f: Mat, src_mul: Mat, dst_mul: Mat) -> list:
    """The pairs (i, j), i major, where f(e_i e_j) differs from f(e_i) f(e_j),
    for a linear map f between algebras with multiplication matrices
    src_mul and dst_mul (as `Algebra.mul_mat`): the differing columns of
    f m_src and m_dst (f (x) f).  The unit law is left to the caller."""
    n = f.cols
    return [divmod(t, n) for t in differing_columns(f @ src_mul, kron_after(dst_mul, f, f))]


def intertwining_failures(f: Mat, src_acts, dst_acts, ring_map: Mat) -> list:
    """The k where f @ src_acts[k] differs from dst_acts acting by ring_map(e_k)
    after f (ring_map = I: linearity over one ring), read off the columns
    k * f.cols + c of f @ hstack(src_acts) and hstack(dst_acts) @ (ring_map (x) f)."""
    return sorted({t // f.cols for t in differing_columns(
        f @ hstack(src_acts), kron_after(hstack(dst_acts), ring_map, f))})


# -- bimodules --------------------------------------------------------------------

@dataclass(frozen=True)
class Bimodule:
    """Module over `base` with optional left and right actions.

    left[i] / right[i] is the action matrix of the i-th algebra basis
    element; a one-sided module leaves the unused side as None.
    """

    base: Algebra
    dim: int
    left: tuple | None
    right: tuple | None

    @classmethod
    def regular(cls, a: Algebra) -> "Bimodule":
        return cls(a, a.dim, a.left_mats, a.right_mats)

    @classmethod
    def right_regular(cls, a: Algebra) -> "Bimodule":
        return cls(a, a.dim, None, a.right_mats)

    def left_act(self, a) -> Mat:
        if self.left is None:
            raise ValueError("module has no left action")
        return combine(self.base.field, self.dim, self.dim, self.left, a)

    def right_act(self, a) -> Mat:
        if self.right is None:
            raise ValueError("module has no right action")
        return combine(self.base.field, self.dim, self.dim, self.right, a)

    def with_trivial_left(self) -> "Bimodule":
        return Bimodule(self.base, self.dim, None, self.right)


def validate_bimodule(m: Bimodule) -> CheckReport:
    rep = CheckReport()
    A = m.base
    for side, mats, collapse in (("left", m.left, collapse_left), ("right", m.right, collapse_right)):
        if mats is not None:
            act = collapse(m)
            rep.add(f"bimodule.{side}.unital", f"{side} action of the unit is the identity",
                    acts_unitally(A, act, side))
            bad = action_failures(A, act, side)
            rep.add(f"bimodule.{side}.associative", f"{side} action respects multiplication",
                    not bad, f"failing pairs: {bad}" if bad else "")
    if m.left is not None and m.right is not None:
        bad = commuting_failures(collapse_left(m), collapse_right(m), A.dim, A.dim)
        rep.add("bimodule.commuting", "left and right actions commute",
                not bad, f"failing pairs: {bad}" if bad else "")
    return rep


# -- action laws ------------------------------------------------------------------
#
# Each side of a module has one flattened action map: the left one
# A (x) M -> M, column i * dim + k holding e_i . m_k (`hstack` of the
# action matrices, `collapse_left`), and the right one M (x) A -> M, column
# k * A.dim + j holding m_k . e_j (`linalg.interleave`, `collapse_right`).
# Each law is an identity of `kron_after` composites of these maps, read off
# its differing columns.

def acts_unitally(ring: Algebra, act: Mat, side: str) -> bool:
    """Whether the unit of ring acts as the identity through the flattened
    action act of side "left" or "right"."""
    unit, ident = Mat.col_vector(ring.field, ring.unit), Mat.identity(ring.field, act.rows)
    return (kron_after(act, unit, ident) if side == "left" else kron_after(act, ident, unit)) == ident


def action_failures(ring: Algebra, act: Mat, side: str) -> list:
    """The pairs (i, j), i major, where e_i e_j does not act as e_i after e_j
    (side "left") or as e_j after e_i (side "right"), for the flattened
    action act of that side."""
    F, d, n = ring.field, ring.dim, act.rows
    if side == "left":
        # column (i * d + j) * n + k: e_i . (e_j . m_k) against (e_i e_j) . m_k
        return sorted({divmod(t // n, d) for t in differing_columns(
            kron_after(act, Mat.identity(F, d), act), kron_after(act, ring.mul_mat, Mat.identity(F, n)))})
    # column (k * d + i) * d + j: (m_k . e_i) . e_j against m_k . (e_i e_j)
    return sorted({(t // d % d, t % d) for t in differing_columns(
        kron_after(act, act, Mat.identity(F, d)), kron_after(act, Mat.identity(F, n), ring.mul_mat))})


def commuting_failures(left: Mat, right: Mat, left_dim: int, right_dim: int) -> list:
    """The pairs (i, j) where e_i . (m . f_j) and (e_i . m) . f_j differ, for
    the flattened left and right actions of rings of dimensions left_dim
    and right_dim."""
    F, n = left.field, left.rows
    # column (i * n + k) * right_dim + j, read at e_i, m_k, f_j
    return sorted({(t // (n * right_dim), t % right_dim) for t in differing_columns(
        kron_after(left, Mat.identity(F, left_dim), right),
        kron_after(right, left, Mat.identity(F, right_dim)))})


@dataclass(frozen=True)
class BimoduleMap:
    src: Bimodule
    dst: Bimodule
    mat: Mat  # dst.dim x src.dim


def validate_bimodule_map(f: BimoduleMap) -> CheckReport:
    rep = CheckReport()
    ident = Mat.identity(f.src.base.field, f.src.base.dim)
    if f.src.left is not None and f.dst.left is not None:
        bad = intertwining_failures(f.mat, f.src.left, f.dst.left, ident)
        rep.add("map.left-linear", "commutes with the left action",
                not bad, f"failing basis indices: {bad}" if bad else "")
    if f.src.right is not None and f.dst.right is not None:
        bad = intertwining_failures(f.mat, f.src.right, f.dst.right, ident)
        rep.add("map.right-linear", "commutes with the right action",
                not bad, f"failing basis indices: {bad}" if bad else "")
    return rep


def is_bimodule_iso(f: BimoduleMap) -> bool:
    return is_invertible(f.mat)


# -- tensor product over the algebra ------------------------------------------------

@dataclass(frozen=True)
class TensorProduct:
    """M (x)_A N as an explicit quotient of M (x)_k N."""

    left: Bimodule
    right: Bimodule
    space: QuotientSpace
    module: Bimodule  # outer actions on the quotient

    def pure(self, mvec, nvec) -> tuple:
        """Class of the elementary tensor m (x) n."""
        return self.space.project(tensor_vec(self.space.field, mvec, nvec))


def tensor_over_algebra(m: Bimodule, n: Bimodule) -> TensorProduct:
    """Quotient of m (x)_k n by the middle relations m.a (x) n - m (x) a.n.

    The result keeps m's left action (when present) and n's right action;
    both are checked to descend to the quotient.
    """
    _check_same_base(m, n)
    return _tensor_on(m, n, balanced_quotient(m.base.field, m.dim, n.dim, m.right, n.left))


def _tensor_on(m: Bimodule, n: Bimodule, q: QuotientSpace) -> TensorProduct:
    """M (x)_A N on q, the balanced quotient of m (x)_k n: the outer
    actions of `tensor_over_algebra`, checked to descend to q."""
    A = m.base
    F = A.field
    ident_m = Mat.identity(F, m.dim)
    ident_n = Mat.identity(F, n.dim)
    left = None
    if m.left is not None:
        outer = [kron_after(q.proj, L, ident_n) for L in m.left]
        _check_descends(q, outer, "left")
        left = tuple(x @ q.sect for x in outer)
    right = None
    if n.right is not None:
        outer = [kron_after(q.proj, ident_m, R) for R in n.right]
        _check_descends(q, outer, "right")
        right = tuple(x @ q.sect for x in outer)
    module = Bimodule(A, q.dim, left, right)
    return TensorProduct(m, n, q, module)


def _check_same_base(*mods: Bimodule) -> None:
    if any(m.base is not mods[0].base and m.base != mods[0].base for m in mods):
        raise BaseMismatch("tensor factors over different base algebras")


_MISSING = object()


def _memoised(algebra: Algebra, key: tuple, build):
    """The entry of `algebra.memo` under key, built by build() on a miss."""
    memo = algebra.memo
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = build()
    return value


def cached_tensor(m: Bimodule, n: Bimodule) -> TensorProduct:
    """`tensor_over_algebra(m, n)`, memoised by content on the base algebra;
    a hit wraps the stored quotient and outer actions around m and n.  The
    quotient space depends only on (m.dim, m.right, n.dim, n.left); it is
    also stored under that `tensor-space` key, so a miss that shares it
    only derives the outer actions.  When m is a sum recorded by
    `direct_sum_bimodule`, a miss is assembled from the summands' entries
    instead of eliminating over the sum."""
    _check_same_base(m, n)
    key = ("tensor", m.dim, m.left, m.right, n.dim, n.left, n.right)
    space, left, right = _memoised(m.base, key, lambda: _tensor_entry(m, n))
    return TensorProduct(m, n, space, Bimodule(m.base, space.dim, left, right))


def _tensor_entry(m: Bimodule, n: Bimodule) -> tuple:
    """The `tensor` entry of m and n: (quotient space, left, right actions)."""
    parts = _summands(m)
    if parts is not None:
        ts = [cached_tensor(part, n) for part in parts]
        return (_block_quotient([t.space for t in ts]), _block_actions([t.module.left for t in ts]),
                _block_actions([t.module.right for t in ts]))
    key = ("tensor-space", m.dim, m.right, n.dim, n.left)
    space = m.base.memo.get(key)
    t = tensor_over_algebra(m, n) if space is None else _tensor_on(m, n, space)
    _memoised(m.base, key, lambda: t.space)
    return t.space, t.module.left, t.module.right


def cached_triple(m: Bimodule, n: Bimodule, p: Bimodule) -> QuotientSpace:
    """M (x)_A N (x)_A P by `triple_balanced_quotient`, memoised like
    `cached_tensor`."""
    _check_same_base(m, n, p)
    return _memoised(m.base, ("triple", m.dim, n.dim, p.dim, m.right, n.left, n.right, p.left),
                     lambda: _triple_entry(m, n, p))


def _triple_entry(m: Bimodule, n: Bimodule, p: Bimodule) -> QuotientSpace:
    """The `triple` entry of m, n and p."""
    parts = _summands(m)
    if parts is None:
        return triple_balanced_quotient(m.base.field, m.dim, n.dim, p.dim,
                                        (m.right, n.left), (n.right, p.left))
    return _block_quotient([cached_triple(part, n, p) for part in parts])


def cached_lift(m: Bimodule, n: Bimodule, mat: Mat) -> Mat:
    """mat, a map into M (x)_A N, lifted through the section of
    `cached_tensor(m, n)` into M (x)_k N; memoised by what it reads, so a map
    stored afresh is lifted afresh and equal maps share one lift."""
    _check_same_base(m, n)
    return _memoised(m.base, ("lift", m.dim, m.right, n.dim, n.left, mat),
                     lambda: cached_tensor(m, n).space.sect @ mat)


def direct_sum_bimodule(comps) -> tuple[Bimodule, list, list]:
    """Block direct sum of bimodules over a common base; returns the sum
    plus the per-block injection and projection matrices.

    The sum is recorded in the memo of the base under its `sum` key, as the
    nonzero summands' dims and action tuples.  The balanced relations of a
    tensor product whose left factor is the sum are block-diagonal in the
    packed layout, and the reduced row echelon form is unique, so its
    quotient is the block diagonal of the summands' quotients, basis
    included."""
    base = comps[0].base
    F = base.field
    dims = [m.dim for m in comps]
    injections = [block_matrix(F, dims, [d], {(k, 0): Mat.identity(F, d)})
                  for k, d in enumerate(dims)]
    left = _block_actions([m.left for m in comps])
    right = _block_actions([m.right for m in comps])
    parts = [m for m in comps if m.dim]
    if len(parts) > 1:  # else the sum equals its one nonzero summand
        _memoised(base, ("sum", sum(dims), left, right), lambda: tuple(
            (m.dim, m.left if left else None, m.right if right else None) for m in parts))
    return (Bimodule(base, sum(dims), left, right), injections,
            [inj.transpose() for inj in injections])


def _summands(m: Bimodule) -> list | None:
    """The summands of m when `direct_sum_bimodule` recorded it, else None."""
    record = m.base.memo.get(("sum", m.dim, m.left, m.right))
    return None if record is None else [Bimodule(m.base, *part) for part in record]


def _block_actions(actions) -> tuple | None:
    """Per basis element of the base, the block diagonal of the summands'
    action matrices, one action tuple per summand; None when a summand has
    no action on that side."""
    if any(acts is None for acts in actions):
        return None
    return tuple(block_diagonal(blocks) for blocks in zip(*actions))


def _block_quotient(spaces) -> QuotientSpace:
    """The direct sum of the quotient spaces, blocks in order."""
    proj = block_diagonal([q.proj for q in spaces])
    return QuotientSpace(proj.field, proj.cols, proj,
                         block_diagonal([q.sect for q in spaces]), proj.rows)


def _check_descends(q: QuotientSpace, projected, side: str) -> None:
    """Each map q.proj @ X of projected (X an action on the ambient space)
    kills the relations of q, so that X descends to the quotient."""
    if q.relations.rows == 0:
        return
    rel_t = q.relations.transpose()
    for t, mat in enumerate(projected):
        if not (mat @ rel_t).is_zero():
            raise ValueError(f"{side} action does not descend to the tensor quotient (index {t})")


# -- collapse and contraction helpers ----------------------------------------------
#
# The public functions of this section and the next are memo wrappers over
# `Algebra.memo`; the uncached builders `_left_dual` and `_dual_basis` are
# called only from their wrappers (a lint rule keeps it so).

def collapse_right(m: Bimodule) -> Mat:
    """M (x)_k A -> M, m (x) a -> m.a  (columns indexed m-major)."""
    return _memoised(m.base, ("collapse_right", m.dim, m.right),
                     lambda: interleave(m.base.field, m.dim, m.right))


def collapse_left(m: Bimodule) -> Mat:
    """A (x)_k M -> M, a (x) m -> a.m  (columns indexed a-major)."""
    return _memoised(m.base, ("collapse_left", m.dim, m.left), lambda: hstack(m.left))


def contract_right(m: Bimodule, functional: Mat) -> Mat:
    """M (x)_k C -> M, m (x) c -> m.functional(c), functional: C -> A."""
    return _memoised(m.base, ("contract_right", m.dim, m.right, functional), lambda: kron_after(
        collapse_right(m), Mat.identity(m.base.field, m.dim), functional))


def contract_left(m: Bimodule, functional: Mat) -> Mat:
    """C (x)_k M -> M, c (x) m -> functional(c).m."""
    return _memoised(m.base, ("contract_left", m.dim, m.left, functional), lambda: kron_after(
        collapse_left(m), functional, Mat.identity(m.base.field, m.dim)))


# -- left duals and dual bases -------------------------------------------------------

def left_dual(m: Bimodule) -> tuple[Bimodule, tuple, Mat]:
    """The left dual *M of left-linear functionals M -> A.

    Functionals f satisfy f(a.m) = a f(m); the basis is the kernel-solved
    constraint space.  The bimodule structure is (a.f.b)(c) = f(c.a) b.
    Returns (dual module, tuple of functional matrices A.dim x M.dim, the
    matrix whose row u is vec(functionals[u]), to solve for coordinates in).
    """
    functionals, left, right, basis = _memoised(m.base, ("left_dual", m.dim, m.left, m.right),
                                                lambda: _left_dual(m))
    return Bimodule(m.base, len(functionals), left, right), functionals, basis


def _left_dual(m: Bimodule) -> tuple:
    """`left_dual` as (functionals, left action, right action of the dual,
    basis)."""
    A = m.base
    F = A.field
    sys = LinearSystem(F, {"f": (A.dim, m.dim)})
    ida, idm = Mat.identity(F, A.dim), Mat.identity(F, m.dim)
    for t in range(A.dim):
        # f @ L_t - left_mult(e_t) @ f = 0
        sys.add((1, "f", ida, m.left[t]), (-1, "f", A.left_mats[t], idm))
    basis = sys.kernel()  # f is the only unknown, so row u is vec(f_u)
    functionals = unvec_rows(basis, A.dim, m.dim)

    def acting(rows: Mat) -> Mat:
        """Column u: the coordinates of the functional with vec in row u."""
        return span_coords(basis, rows, "functional outside the solved dual basis").transpose()

    left = None
    if m.right is not None:
        # (e_t . f)(c) = f(c . e_t): vec(f @ R_t) = vec(f) (I (x) R_t)
        left = tuple(acting(kron_after(basis, ida, right)) for right in m.right)
    # (f . e_t)(c) = f(c) e_t: vec(right_mult(e_t) @ f) = vec(f) (right_mult(e_t)^T (x) I)
    right = tuple(acting(kron_after(basis, mult.transpose(), idm)) for mult in A.right_mats)
    return functionals, left, right, basis


@dataclass(frozen=True)
class DualBasis:
    """Pairs (functional, element) with sum f_i(m) . m_i = m for all m."""

    module: Bimodule
    pairs: tuple  # of (Mat A.dim x M.dim, coordinate tuple in M)


def find_dual_basis(m: Bimodule) -> DualBasis | None:
    """Dual basis of m as a left module, or None when m is not finitely
    generated projective.  Decided by solving sum_i f_i(-) . m_i = id."""
    pairs = _memoised(m.base, ("dual_basis", m.dim, m.left),
                      lambda: _dual_basis(m, left_dual(m)[1]))
    return None if pairs is None else DualBasis(m, pairs)


def _dual_basis(m: Bimodule, functionals: tuple) -> tuple | None:
    """The pairs of `find_dual_basis` over the basis functionals of the left
    dual, or None."""
    F = m.base.field
    nd = len(functionals)
    if m.dim == 0 or nd == 0:
        return () if m.dim == 0 else None
    # unknowns t[u][c] at column u * m.dim + c: coefficient of functionals[u] (x) e_c;
    # constraint: for each basis vector e_j of M: sum t[u][c] L(f_u(e_j)) e_c = e_j
    sys = vstack([hstack([m.left_act(f.col(j)) for f in functionals]) for j in range(m.dim)])
    sol = solve(sys, Mat.identity(F, m.dim).reshape(1, m.dim * m.dim))
    if sol is None:
        return None
    pairs = []
    for u in range(nd):
        for c in range(m.dim):
            t = sol[u * m.dim + c]
            if t:
                pairs.append((functionals[u].scale(t), unit_vec(F, m.dim, c)))
    return tuple(pairs)


# -- module predicates ------------------------------------------------------------

@dataclass(frozen=True)
class ModulePredicates:
    flat_projective: bool
    generator: bool
    faithfully_flat: bool
    progenerator: bool


def left_module_predicates(m: Bimodule) -> ModulePredicates:
    """Projectivity by dual-basis solvability, generator by trace ideal.

    Finite-dimensional convention over a field: flat = projective, and
    faithfully flat = projective generator.
    """
    A = m.base
    F = A.field
    _, functionals, _ = left_dual(m)
    projective = find_dual_basis(m) is not None
    # the span of the trace values f(e_j), one row each, is already the
    # trace ideal on an associative base: e_t f(m) = f(e_t m), and f(m) e_t
    # is the value at m of the left-linear functional f.e_t
    span = row_space(vstack([Mat.zeros(F, 0, A.dim)] + [f.transpose() for f in functionals]))
    generator = 0 < span.rows == A.dim
    return ModulePredicates(projective, generator, projective and generator, projective and generator)
